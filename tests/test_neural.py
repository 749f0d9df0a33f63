import copy
import pickle
import re

import numpy as np
import pytest
from oracles import batch_loss, dense_backward, max_relative_error, numeric_gradients

from leodcb import neural
from leodcb.errors import ConfigError, DomainError
from leodcb.neural import (
    Gradient,
    QNetworkParams,
    adam_step,
    backward,
    clip_gradients,
    forward,
    init_adam,
    init_params,
    load_params,
    save_params,
)


def small_net(rng, input_dim=2, hidden=(5, 4), n_actions=3):
    return init_params(input_dim, hidden, n_actions, rng)


def random_batch(rng, params, size=4):
    x = rng.normal(size=(size, params.input_dim))
    actions = rng.integers(params.n_actions, size=size)
    targets = rng.normal(size=size)
    return x, actions, targets


class TestForward:
    def test_zero_params_give_zero_q(self):
        rng = np.random.default_rng(0)
        params = small_net(rng)
        params.flat[:] = 0.0
        q = forward(params, np.array([[0.3, -0.2]]))
        assert q.shape == (1, params.n_actions)
        assert np.all(q == 0.0)

    def test_constant_advantage_collapses_to_value(self):
        rng = np.random.default_rng(1)
        params = small_net(rng)
        params.adv_weight[:] = 0.0
        params.adv_bias[:] = 2.5
        x = np.array([[0.1, 0.9]])
        q = forward(params, x)
        h = x
        for w, b in zip(params.trunk_weights, params.trunk_biases):
            h = np.tanh(h @ w + b)
        v = h @ params.value_weight + params.value_bias
        assert np.allclose(q, v)

    def test_argmax_invariant_to_advantage_shift(self):
        rng = np.random.default_rng(2)
        params = small_net(rng)
        x = np.array([[0.4, 0.6]])
        q_before = forward(params, x)
        params.adv_bias += 7.0
        q_after = forward(params, x)
        assert np.argmax(q_after) == np.argmax(q_before)
        assert np.allclose(q_after, q_before)

    def test_dimension_mismatch_rejected(self):
        params = small_net(np.random.default_rng(3))
        with pytest.raises(DomainError):
            forward(params, np.zeros(5))

    @pytest.mark.parametrize("shape", [(2,), (1, 5), (1, 1, 2)], ids=["1-D", "width", "3-D"])
    def test_only_a_batch_of_input_rows_is_accepted(self, shape):
        params = small_net(np.random.default_rng(3))
        with pytest.raises(DomainError, match=re.escape(f"encodings of shape {shape} are not (rows, 2)")):
            forward(params, np.zeros(shape))

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(4)
        params = small_net(rng)
        x = rng.normal(size=(3, 2))
        q_b = forward(params, x)
        for i in range(3):
            q = forward(params, x[i : i + 1])
            assert np.allclose(q[0], q_b[i])


class TestBackward:
    @pytest.mark.parametrize("draw", range(20))
    def test_matches_finite_differences(self, draw):
        rng = np.random.default_rng(1000 + draw)
        hidden = tuple(rng.integers(3, 7, size=rng.integers(1, 3)))
        params = init_params(2, hidden, int(rng.integers(2, 6)), rng)
        x, actions, targets = random_batch(rng, params)
        analytic, _ = backward(params, x, actions, targets)
        numeric = numeric_gradients(params, x, actions, targets)
        assert max_relative_error(analytic.flat, numeric) < 1e-4

    def test_zero_residual_gives_zero_gradient(self):
        # With zero head weights both passes read Q as the same bias sums,
        # so a target equal to forward's Q leaves an exactly zero residual.
        rng = np.random.default_rng(5)
        params = small_net(rng)
        params.adv_bias[:] = rng.normal(size=params.n_actions)
        params.value_bias[0] = rng.normal()
        params.value_weight[:] = 0.0
        params.adv_weight[:] = 0.0
        x = rng.normal(size=(3, 2))
        actions = np.array([0, 1, 2])
        q = forward(params, x)
        targets = q[np.arange(3), actions]
        grads, loss = backward(params, x, actions, targets)
        assert loss == 0.0
        assert np.all(grads.flat == 0.0)

    @pytest.mark.parametrize("draw", range(5))
    def test_forward_q_as_target_gives_rounding_level_gradient(self, draw):
        # With generic weights backward reads Q(s, a) in another summation
        # order than forward, so each residual is rounding-sized: at most
        # 1e-13 of max |Q|. The gradient is sum_i r_i J_i / B, with J_i the
        # gradient of one row at unit residual, so it is bounded by that
        # residual bound times mean_i |J_i|, entry by entry.
        rng = np.random.default_rng(50 + draw)
        params = small_net(rng, hidden=(6, 5), n_actions=4)
        params.flat += 0.1 * rng.normal(size=params.flat.size)
        x, actions, _ = random_batch(rng, params, size=5)
        q = forward(params, x)
        picked = q[np.arange(5), actions]
        bound = 1e-13 * np.max(np.abs(q))
        grads, loss = backward(params, x, actions, picked)
        assert loss <= 0.5 * bound**2
        per_row = [
            backward(params, x[i : i + 1], actions[i : i + 1], picked[i : i + 1] - 1.0)[0].flat
            for i in range(5)
        ]
        assert np.all(np.abs(grads.flat) <= bound * np.mean(np.abs(per_row), axis=0))

    def test_no_full_forward_pass(self, monkeypatch):
        rng = np.random.default_rng(12)
        params = small_net(rng, hidden=(6, 5), n_actions=7)
        batch = random_batch(rng, params, size=9)
        expected, expected_loss = backward(params, *batch)

        def dense_head(*_):
            raise AssertionError("backward formed the (batch, n_actions) head product")

        monkeypatch.setattr(neural, "forward", dense_head)
        grads, loss = backward(params, *batch)
        assert loss == expected_loss
        assert grads.flat.tobytes() == expected.flat.tobytes()

    def test_gradient_linear_in_residual(self):
        rng = np.random.default_rng(6)
        params = small_net(rng)
        x, actions, _ = random_batch(rng, params, size=3)
        q = forward(params, x)
        picked = q[np.arange(3), actions]
        base_targets = picked - 1.0           # residual exactly 1
        scaled_targets = picked - 3.0         # residual exactly 3
        base, _ = backward(params, x, actions, base_targets)
        scaled, _ = backward(params, x, actions, scaled_targets)
        assert np.allclose(scaled.flat, 3.0 * base.flat, rtol=1e-10, atol=1e-12)

    def test_empty_batch_rejected(self):
        params = small_net(np.random.default_rng(7))
        with pytest.raises(DomainError):
            backward(params, np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0))

    @pytest.mark.parametrize("hidden", [(5,), (5, 4), (6, 3, 4)])
    def test_supplied_buffer_is_overwritten_bitwise(self, hidden):
        rng = np.random.default_rng(8)
        params = small_net(rng, hidden=hidden, n_actions=4)
        batch = random_batch(rng, params, size=6)
        fresh, fresh_loss = backward(params, *batch)
        buffer = Gradient(params.sizes)
        buffer.flat[:] = np.nan
        grads, loss = backward(params, *batch, buffer)
        assert grads is buffer
        assert loss == fresh_loss
        assert fresh.flat.tobytes() == buffer.flat.tobytes()

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(9)
        params = small_net(rng)
        x, actions, targets = random_batch(rng, params)
        flat_before, x_before = params.flat.copy(), x.copy()
        backward(params, x, actions, targets)
        assert np.array_equal(params.flat, flat_before)
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("draw", range(10))
    def test_rank_one_product_equals_matmul_bitwise(self, draw):
        # The dense oracle (oracles.dense_backward) forms d_v @ value_weight.T,
        # a (B, 1) @ (1, H) product, as the elementwise outer product; the
        # two must agree bit for bit for it to be the plain dense gradient.
        # Draw 0 is the paper's shape: batch 256, width 2048.
        rng = np.random.default_rng(2000 + draw)
        rows, width = (256, 2048) if draw == 0 else rng.integers(1, 300, size=2)
        d_v = rng.normal(size=(rows, 1)) * 10.0 ** rng.integers(-8, 8)
        weight = rng.normal(size=(width, 1))
        assert (d_v * weight.T).tobytes() == (d_v @ weight.T).tobytes()

    @pytest.mark.parametrize("bad", [-1, "n_actions"])
    def test_out_of_range_action_rejected(self, bad):
        rng = np.random.default_rng(10)
        params = small_net(rng)
        x, actions, targets = random_batch(rng, params)
        actions[1] = params.n_actions if bad == "n_actions" else bad
        with pytest.raises(DomainError):
            backward(params, x, actions, targets)

    def test_one_integer_action_per_row_required(self):
        rng = np.random.default_rng(11)
        params = small_net(rng)
        x, actions, targets = random_batch(rng, params)
        with pytest.raises(DomainError):
            backward(params, x, actions[:-1], targets)
        with pytest.raises(DomainError):
            backward(params, x, actions - 0.5, targets)    # -0.5 would truncate to 0


# Desk and paper-like head widths: (batch, hidden, n_actions).
ORACLE_SHAPES = [(64, (64, 64), 121), (256, (512, 512), 1101)]
ACTION_KINDS = ["distinct", "same", "half_idle"]


def oracle_batch(rng, params, batch, kind):
    n = params.n_actions
    if kind == "distinct":
        actions = rng.permutation(n)[:batch]
    elif kind == "same":
        actions = np.full(batch, rng.integers(n))
    else:
        actions = rng.integers(n - 1, size=batch)
        actions[rng.permutation(batch)[: batch // 2]] = n - 1   # IDLE is last
    x = rng.uniform(size=(batch, params.input_dim))
    return x, actions, rng.normal(size=batch)


class TestAgainstDenseOracle:
    """The structured TD step against the dense (B, n_actions) one.

    Tolerance: max |delta| / max |g| <= 1e-13 over the whole flat
    gradient, and a loss within 1e-13 relative. The loss is not bitwise
    equal: ``backward`` reads Q(s, a) as a row-wise dot with the gathered
    advantage columns, in another summation order than the dense head
    product of the oracle and of ``forward``.
    """

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["desk", "paper_like"])
    @pytest.mark.parametrize("kind", ACTION_KINDS)
    @pytest.mark.parametrize("draw", range(2))
    def test_matches_dense_backward(self, shape, kind, draw):
        batch, hidden, n_actions = shape
        rng = np.random.default_rng(3000 + draw)
        params = init_params(2, hidden, n_actions, rng)
        params.flat += 0.01 * rng.normal(size=params.flat.size)   # nonzero biases
        x, actions, targets = oracle_batch(rng, params, batch, kind)
        grads, loss = backward(params, x, actions, targets)
        dense, dense_loss = dense_backward(params, x, actions, targets)
        assert loss == pytest.approx(dense_loss, rel=1e-13, abs=0.0)
        scale = np.max(np.abs(dense.flat))
        assert scale > 0.0
        assert np.max(np.abs(grads.flat - dense.flat)) / scale <= 1e-13

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["desk", "paper_like"])
    @pytest.mark.parametrize("kind", ACTION_KINDS)
    def test_loss_matches_forward_pass_loss(self, shape, kind):
        batch, hidden, n_actions = shape
        rng = np.random.default_rng(3100)
        params = init_params(2, hidden, n_actions, rng)
        params.flat += 0.01 * rng.normal(size=params.flat.size)
        x, actions, targets = oracle_batch(rng, params, batch, kind)
        _, loss = backward(params, x, actions, targets)
        assert loss == pytest.approx(batch_loss(params, x, actions, targets), rel=1e-13, abs=0.0)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(8)
        params = small_net(rng)
        before = params.flat.copy()
        adam_step(params, Gradient(params.sizes), init_adam(params), lr=1e-2)
        assert np.array_equal(before, params.flat)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(9)
        params = small_net(rng)
        grads, _ = backward(params, *random_batch(rng, params))
        before = params.flat.copy()
        adam_step(params, grads, init_adam(params), lr=0.0)
        assert np.array_equal(before, params.flat)

    def test_quadratic_descent_after_warmup(self):
        # Minimize 0.5 * theta^2 steered through the first trunk weight.
        rng = np.random.default_rng(10)
        params = init_params(1, (1,), 1, rng)
        params.flat[:] = 0.0
        params.trunk_weights[0][0, 0] = 1.0
        state = init_adam(params)
        values = []
        for _ in range(120):
            theta = params.trunk_weights[0][0, 0]
            values.append(0.5 * theta * theta)
            grads = Gradient(params.sizes)
            grads.trunk_weights[0][0, 0] = theta
            adam_step(params, grads, state, lr=0.01)
        for prev, cur in zip(values[10:100], values[11:101]):
            assert cur < prev

    def test_matches_textbook_update_across_blocks(self):
        # More entries than one update block, so the block seams are covered.
        rng = np.random.default_rng(15)
        params = init_params(2, (250, 250), 60, rng)
        assert params.flat.size > 2 * neural._ADAM_BLOCK
        state = init_adam(params)
        m = v = np.zeros(params.flat.size, np.float32)
        for step in (1, 2, 3):
            grads = Gradient(params.sizes)
            grads.flat[:] = rng.normal(size=params.flat.size)
            before = params.flat.copy()
            adam_step(params, grads, state, lr=1e-3)
            # The moments are the textbook recursion run in float32, bit for bit.
            g = grads.flat.astype(np.float32)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            assert np.array_equal(state.first_moment, m)
            assert np.array_equal(state.second_moment, v)
            # The step is the float64 textbook step from those moments, up
            # to its float32 arithmetic: 1e-6 is about 16 float32 ulps.
            m_hat = m.astype(float) / (1 - 0.9**step)
            v_hat = v.astype(float) / (1 - 0.999**step)
            textbook = 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(before - params.flat, textbook, rtol=1e-6, atol=0.0)
        assert state.step == 3

    def test_numpy_scalars_give_the_python_floats_bits(self):
        # The update is float32 whatever the type of lr.
        results = []
        for scalar in (float, np.float64):
            rng = np.random.default_rng(23)
            params = small_net(rng)
            state = init_adam(params)
            for _ in range(3):
                grads, _ = backward(params, *random_batch(rng, params))
                adam_step(params, grads, state, scalar(1e-3))
            results.append((params.flat, state.first_moment, state.second_moment))
        for python, numpy in zip(*results):
            assert np.array_equal(python, numpy)

    def test_moments_are_float32_at_half_the_params_bytes(self):
        rng = np.random.default_rng(21)
        params = small_net(rng)
        state = init_adam(params)
        moments = (state.first_moment, state.second_moment)
        assert all(moment.dtype == np.float32 and not moment.any() for moment in moments)
        assert sum(moment.nbytes for moment in moments) == params.flat.nbytes
        grads, _ = backward(params, *random_batch(rng, params))
        adam_step(params, grads, state, lr=1e-2)
        assert params.flat.dtype == grads.flat.dtype == np.float64
        assert all(moment.dtype == np.float32 and moment.any() for moment in moments)


class TestClipping:
    def test_norm_capped(self):
        rng = np.random.default_rng(11)
        params = small_net(rng)
        grads, _ = backward(params, *random_batch(rng, params))
        grads.flat *= 1e6
        clip_gradients(grads, max_norm=10.0)
        assert np.linalg.norm(grads.flat) == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("split", [False, True])
    def test_float32_norm_accumulates_in_float64(self, monkeypatch, split):
        # Squares of 1e20 overflow a float32 sum. The gradient is float64,
        # so its norm is finite, and the clip scales it to the cap. The
        # 400 x 400 trunk and 400 x 500 advantage weight gradients are
        # factored; their squared norms come from three Gram products,
        # run whole or as halves on two threads.
        monkeypatch.setattr(neural, "_FACTORED_ENTRIES", 1 << 17)
        monkeypatch.setattr(neural, "_SPLIT_WORK", 0 if split else 1 << 62)
        rng = np.random.default_rng(13)
        params = small_net(rng, hidden=(400, 400), n_actions=500)
        x, actions, targets = random_batch(rng, params)
        grads, _ = backward(params, x, actions, targets * 1e20)
        mats = [m for slot in grads.factored for m in slot.factors[: slot.n_grams]]
        assert [slot.shape for slot in grads.factored] == [(400, 400), (400, 500)]
        assert (len(mats[0]) * mats[0].size >= neural._SPLIT_WORK) == split

        def formed(slot):
            out = np.empty(slot.shape)
            slot.rows(*slot.factors, slice(0, slot.shape[0]), out)
            return out.reshape(-1) * grads.scale

        stored = grads.flat.copy()
        factored = np.concatenate([formed(slot) for slot in grads.factored])
        for part in (stored, factored):
            narrow = part.astype(np.float32)
            assert np.isfinite(narrow).all()
            with np.errstate(over="ignore"):
                assert np.isinf(narrow @ narrow)
        norm = clip_gradients(grads, max_norm=10.0)
        assert norm == pytest.approx(np.sqrt(stored @ stored + factored @ factored), rel=1e-12)
        assert grads.flat.dtype == np.float64
        factored = np.concatenate([formed(slot) for slot in grads.factored])
        clipped = grads.flat @ grads.flat + factored @ factored
        assert np.sqrt(clipped) == pytest.approx(10.0, rel=1e-12)

    def test_parameters_stay_finite_under_clipped_updates(self):
        rng = np.random.default_rng(12)
        params = small_net(rng)
        state = init_adam(params)
        for _ in range(200):
            x, actions, _ = random_batch(rng, params, size=8)
            targets = rng.normal(size=8) * 1e6    # wild targets
            grads, _ = backward(params, x, actions, targets)
            clip_gradients(grads, max_norm=10.0)
            adam_step(params, grads, state, lr=1e-2)
        assert np.isfinite(params.flat).all()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        # A trained net's checkpoint holds its float64 params under the v1
        # keys and none of Adam's float32 state.
        rng = np.random.default_rng(13)
        params = init_params(2, (6, 5), 4, rng)
        state = init_adam(params)
        for _ in range(3):
            grads, _ = backward(params, *random_batch(rng, params))
            adam_step(params, grads, state, lr=1e-2)
        path = tmp_path / "net.npz"
        save_params(path, params)
        with np.load(path) as data:
            assert sorted(data.files) == sorted([
                "format_version", "n_trunk_layers", "trunk_w0", "trunk_b0", "trunk_w1",
                "trunk_b1", "value_w", "value_b", "adv_w", "adv_b",
            ])
        loaded = load_params(path)
        assert loaded.sizes == params.sizes
        assert loaded.flat.dtype == np.float64
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_forward_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(14)
        params = init_params(2, (8,), 5, rng)
        path = tmp_path / "net.npz"
        save_params(path, params)
        loaded = load_params(path)
        x = rng.normal(size=(4, 2))
        q_a = forward(params, x)
        q_b = forward(loaded, x)
        assert np.array_equal(q_a, q_b)

    def test_mismatched_tensor_shape_rejected(self, tmp_path):
        params = init_params(2, (6,), 4, np.random.default_rng(16))
        path = tmp_path / "net.npz"
        save_params(path, params)
        with np.load(path) as data:
            payload = dict(data)
        payload["adv_b"] = payload["adv_b"][:1]
        np.savez(path, **payload)
        with pytest.raises(ConfigError, match=r"entry adv_b has shape \(1,\), not \(4,\)"):
            load_params(path)


    def test_file_that_is_not_an_npz_rejected(self, tmp_path):
        path = tmp_path / "net.npz"
        path.write_text("{}")
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))} is not an npz"):
            load_params(path)
        np.save(tmp_path / "array.npy", np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="is not an npz"):
            load_params(tmp_path / "array.npy")

    @pytest.mark.parametrize("key", ["format_version", "n_trunk_layers", "trunk_w1", "adv_b"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "net.npz"
        save_params(path, init_params(2, (6, 5), 4, np.random.default_rng(16)))
        with np.load(path) as data:
            payload = dict(data)
        del payload[key]
        np.savez(path, **payload)
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))} has no {key}"):
            load_params(path)

    def test_other_format_version_rejected(self, tmp_path):
        path = tmp_path / "net.npz"
        save_params(path, init_params(2, (6,), 4, np.random.default_rng(16)))
        with np.load(path) as data:
            payload = dict(data)
        payload["format_version"] = np.array(2)
        np.savez(path, **payload)
        with pytest.raises(ConfigError, match="has unsupported format version 2"):
            load_params(path)


class TestFlatLayout:
    def test_named_tensors_are_views_of_flat(self, tmp_path):
        params = init_params(2, (5, 4), 3, np.random.default_rng(17))
        before = params.flat.copy()
        params.adv_bias += 7.0
        assert np.array_equal(params.flat[-3:], before[-3:] + 7.0)
        assert np.array_equal(params.flat[:-3], before[:-3])
        clone = params.clone()
        assert np.array_equal(clone.adv_bias, before[-3:] + 7.0)
        save_params(tmp_path / "net.npz", params)
        loaded = load_params(tmp_path / "net.npz")
        assert np.array_equal(loaded.adv_bias, before[-3:] + 7.0)
        assert np.array_equal(loaded.flat, params.flat)

    def test_layout_covers_every_entry_once(self):
        params = QNetworkParams((2, 5, 4, 3))
        named = [
            *params.trunk_weights, *params.trunk_biases,
            params.value_weight, params.value_bias, params.adv_weight, params.adv_bias,
        ]
        assert sum(t.size for t in named) == params.flat.size == 2 * 5 + 5 + 5 * 4 + 4 + 4 + 1 + 12 + 3
        for t in named:
            t += 1.0
        assert np.all(params.flat == 1.0)

    @pytest.mark.parametrize(
        "copy_of", [copy.deepcopy, lambda params: pickle.loads(pickle.dumps(params))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_their_tensors_as_views_of_their_own_flat(self, copy_of):
        rng = np.random.default_rng(23)
        params = small_net(rng)
        twin = copy_of(params)
        assert twin.sizes == params.sizes and np.array_equal(twin.flat, params.flat)
        assert not np.shares_memory(twin.flat, params.flat)
        named = [
            *twin.trunk_weights, *twin.trunk_biases,
            twin.value_weight, twin.value_bias, twin.adv_weight, twin.adv_bias,
        ]
        assert all(np.shares_memory(twin.flat, tensor) for tensor in named)
        # Adam writes flat and forward reads the named tensors: a step on
        # the copy moves the copy's Q and leaves the original's.
        x, actions, targets = random_batch(rng, params)
        before = forward(params, x)
        grads, _ = backward(twin, x, actions, targets)
        adam_step(twin, grads, init_adam(twin), lr=1e-2)
        assert not np.array_equal(forward(twin, x), before)
        assert np.array_equal(forward(params, x), before)
