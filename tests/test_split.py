"""Two-core halves of the large network steps (``neural._halves``).

Every split step must give the whole step's bits. The private threshold
``neural._SPLIT_WORK`` is patched to 0 to force every eligible step to
split, and to a huge value to keep every step whole. At paper width the
trunk and advantage weight gradients are factored (``neural.Gradient``);
``neural._FACTORED_ENTRIES`` is patched down to factor smaller ones, and
up to store every tensor. The gradient's stored part is float64 and too
small to split; only the gather, the trunk products, the clip's Gram
products and Adam's forming of a factored gradient split.
"""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from oracles import dense_backward

from leodcb import agent as agent_module
from leodcb import neural
from leodcb.agent import MAX_GRAD_NORM, AgentConfig, EnhancedD3qnAgent, target_table
from leodcb.env import DcbUplinkEnv
from leodcb.errors import StateError
from leodcb.scenario import default_scenario, desk_scenario

SPLIT, WHOLE = 0, 1 << 62

# The paper's network: (2048, 2048) trunk, 1,101 actions over 110 satellites.
PAPER_HIDDEN, PAPER_ACTIONS, PAPER_SATELLITES = (2048, 2048), 1101, 110


@pytest.fixture
def under(monkeypatch):
    """under(work, fn, *args) runs fn with the split threshold set to work."""
    def run(work, fn, *args):
        monkeypatch.setattr(neural, "_SPLIT_WORK", work)
        return fn(*args)
    return run


@pytest.fixture(scope="module")
def paper_params():
    return neural.init_params(2, PAPER_HIDDEN, PAPER_ACTIONS, np.random.default_rng(18))


def dense(grads):
    """A ``neural.Gradient`` as one float64 vector in the params' layout:
    the stored entries, and each factored tensor formed as one whole
    product and scaled by the clip's factor."""
    out = neural.QNetworkParams(grads.sizes).flat
    for start, run in grads.runs:
        out[start : start + run.size] = run
    for slot in grads.factored:
        part = out[slot.start : slot.start + math.prod(slot.shape)].reshape(slot.shape)
        slot.rows(*slot.factors, slice(0, slot.shape[0]), part)
        part *= grads.scale
    return out


def assert_same_gradient(got, want):
    """Bitwise: the stored entries and every factored tensor's factors."""
    assert np.array_equal(got.flat, want.flat)
    assert len(got.factored) == len(want.factored)
    for mine, theirs in zip(got.factored, want.factored):
        assert mine.start == theirs.start
        assert all(np.array_equal(a, b) for a, b in zip(mine.factors, theirs.factors))


def adam_update(params, grads):
    """One Adam step from a state with nonzero moments; returns the
    updated params, first moment and second moment."""
    theta = params.clone()
    state = neural.init_adam(theta)
    gradient = dense(grads)
    state.first_moment[:] = gradient
    state.second_moment[:] = 0.5 * gradient**2
    state.step = 3
    neural.adam_step(theta, grads, state, lr=1e-3)
    return theta.flat, state.first_moment, state.second_moment


def assert_td_step_equals_whole(under, params, rng, batch):
    """Forward, backward and Adam forced to split give the whole step's bits;
    returns the gradient."""
    x = rng.random((batch, 2))
    actions = rng.integers(params.n_actions, size=batch)
    targets = rng.normal(size=batch)
    q_split = under(SPLIT, neural.forward, params, x)[2]
    q_whole = under(WHOLE, neural.forward, params, x)[2]
    assert np.array_equal(q_split, q_whole)

    grads_split, loss_split = under(SPLIT, neural.backward, params, x, actions, targets)
    grads, loss = under(WHOLE, neural.backward, params, x, actions, targets)
    assert loss_split == loss
    assert_same_gradient(grads_split, grads)
    del grads_split
    norm = under(SPLIT, neural.clip_gradients, grads, np.inf)
    assert under(WHOLE, neural.clip_gradients, grads, np.inf) == norm

    for got, want in zip(
        under(SPLIT, adam_update, params, grads), under(WHOLE, adam_update, params, grads)
    ):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [256, 255])
def test_paper_shape_steps_equal_whole_steps_bitwise(under, paper_params, batch):
    rng = np.random.default_rng(batch)
    # At the real threshold the trunk products, the gather, the clip's Gram
    # products and Adam's forming of both factored gradients split.
    width = PAPER_HIDDEN[-1]
    assert neural._split_product(batch, width, width)
    assert neural._split(width, PAPER_ACTIONS + batch)
    assert batch * batch * width >= neural._SPLIT_WORK
    factored = neural.Gradient(paper_params.sizes).factored
    assert [slot.shape for slot in factored] == [(width, width), (width, PAPER_ACTIONS)]
    for slot in factored:
        assert neural._split(len(neural._chunks(slice(0, width))), neural._CHUNK_ROWS * slot.shape[1])
    assert_td_step_equals_whole(under, paper_params, rng, batch)

    # Three chunks of the batch size, the last one partial.
    encodings = rng.random((2 * batch + 88, 2))
    table_split = under(SPLIT, target_table, paper_params, encodings, PAPER_SATELLITES, batch)
    table = under(WHOLE, target_table, paper_params, encodings, PAPER_SATELLITES, batch)
    assert np.array_equal(table_split, table)


@pytest.mark.parametrize(
    ("hidden", "n_actions", "batch"),
    [(PAPER_HIDDEN, PAPER_ACTIONS, 256), (PAPER_HIDDEN, PAPER_ACTIONS, 255), ((64, 64), 121, 64)],
)
def test_float32_buffer_holds_the_whole_float64_gradient_rounded(under, hidden, n_actions, batch):
    # Each float32 gradient entry that Adam reads is the rounding of the
    # whole, unsplit float64 gradient's entry: a stored entry as backward
    # writes it into a reused buffer, and at paper shapes an entry of the
    # factored trunk and head gradients as Adam forms them in split row
    # chunks. Adam's first step from zero moments leaves m = (1 - b1) g in
    # float32, which shows every g bit for bit.
    rng = np.random.default_rng(batch)
    params = neural.init_params(2, hidden, n_actions, rng)
    x = rng.random((batch, 2))
    actions = rng.integers(n_actions, size=batch)
    targets = rng.normal(size=batch)
    width = hidden[-1]
    buffer = neural.Gradient(params.sizes)
    buffer.flat[:] = np.nan
    if hidden == PAPER_HIDDEN:
        assert len(buffer.factored) == 2
        chunks = neural._chunks(slice(0, width))
        assert len(chunks) > 2 and neural._split(len(chunks), neural._CHUNK_ROWS * width)
    grads, buffer_loss = neural.backward(params, x, actions, targets, buffer)
    whole, loss = under(WHOLE, neural.backward, params, x, actions, targets)
    assert grads is buffer and buffer_loss == loss
    assert buffer.flat.tobytes() == whole.flat.tobytes()
    state = neural.init_adam(params)
    neural.adam_step(params.clone(), buffer, state, lr=1e-3)
    rounded = dense(whole).astype(np.float32)
    assert np.array_equal(state.first_moment, np.float32(1.0 - neural.ADAM_BETA1) * rounded)


def test_width_700_steps_equal_whole_steps_bitwise(under):
    # Row halves of a 700-column product sum in another order than the
    # whole product, so its products stay whole at any threshold. No weight
    # gradient is factored at this width; the clip norm and Adam still split.
    rng = np.random.default_rng(700)
    params = neural.init_params(2, (700, 700), PAPER_ACTIONS, rng)
    batch = 256
    assert neural._split(batch, 700 * 700) and not neural._split_product(batch, 700, 700)
    assert_td_step_equals_whole(under, params, rng, batch)


def test_chunks_of_fewer_than_128_rows_equal_whole_steps_bitwise(under, monkeypatch):
    # With both 400-row weight gradients factored, Adam forms each in four
    # 100-row chunks, two per half when split.
    monkeypatch.setattr(neural, "_FACTORED_ENTRIES", 1 << 17)
    rng = np.random.default_rng(400)
    params = neural.init_params(2, (400, 400), PAPER_ACTIONS, rng)
    factored = neural.Gradient(params.sizes).factored
    assert [slot.shape for slot in factored] == [(400, 400), (400, PAPER_ACTIONS)]
    assert [c.stop - c.start for c in neural._chunks(slice(0, 400))] == [100] * 4
    assert_td_step_equals_whole(under, params, rng, 64)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_few_row_forwards_equal_whole_forwards_bitwise(under, paper_params, rows):
    # Halves of one row would be matrix-vector products, which sum in
    # another order; so fewer than four rows never split.
    x = np.random.default_rng(rows).random((rows, 2))
    q_split = under(SPLIT, neural.forward, paper_params, x)[2]
    assert np.array_equal(q_split, under(WHOLE, neural.forward, paper_params, x)[2])


def test_adam_odd_block_count_with_partial_last_block(monkeypatch):
    # Adam's blocks, the last one partial, give the bits of one block over
    # the whole stored vector.
    rng = np.random.default_rng(19)
    params = neural.init_params(2, (400,), 500, rng)
    n_blocks = -(-params.flat.size // neural._ADAM_BLOCK)
    assert n_blocks % 2 == 1 and params.flat.size % neural._ADAM_BLOCK != 0
    grads = neural.Gradient(params.sizes)
    assert not grads.factored
    grads.flat[:] = rng.normal(size=params.flat.size)
    blocks = adam_update(params, grads)
    monkeypatch.setattr(neural, "_ADAM_BLOCK", params.flat.size)
    for got, want in zip(blocks, adam_update(params, grads)):
        assert np.array_equal(got, want)


def paper_batch(rng, batch=256, n_taken=PAPER_ACTIONS):
    """Encodings, actions drawn from the first ``n_taken``, and targets."""
    return rng.random((batch, 2)), rng.integers(n_taken, size=batch), rng.normal(size=batch)


@pytest.mark.parametrize("n_taken", [PAPER_ACTIONS, 5], ids=["spread", "repeated"])
def test_factored_norm_equals_the_dense_float64_norm(paper_params, n_taken):
    # Each factored tensor's squared norm from its two Gram matrices, and
    # the clip's whole norm, against the dense float64 gradient of the
    # oracle. Five taken actions repeat each one about 50 times, which the
    # head's [a_i = a_j] terms must count.
    batch = paper_batch(np.random.default_rng(31), n_taken=n_taken)
    grads, _ = neural.backward(paper_params, *batch)
    want, _ = dense_backward(paper_params, *batch)
    trunk, head = grads.factored
    for slot, tensor in ((trunk, want.trunk_weights[1]), (head, want.adv_weight)):
        grams = [m @ m.T for m in slot.factors[: slot.n_grams]]
        assert slot.squared_norm(grams, *slot.factors) == pytest.approx(
            np.vdot(tensor, tensor), rel=1e-12
        )
    norm = neural.clip_gradients(grads, np.inf)
    assert norm == pytest.approx(np.linalg.norm(want.flat), rel=1e-12)


def test_binding_clip_matches_textbook_clip_then_adam(paper_params):
    # The clip scales the stored entries in place and the factored ones as
    # Adam forms them; both must match a dense float64 clip followed by
    # textbook Adam, to float32 rounding.
    batch = paper_batch(np.random.default_rng(32))
    grads, _ = neural.backward(paper_params, *batch, neural.Gradient(paper_params.sizes))
    dense_grads, _ = dense_backward(paper_params, *batch)
    g = dense_grads.flat
    max_norm = np.linalg.norm(g) / 3
    norm = neural.clip_gradients(grads, max_norm)
    # The norm is of the float64 gradient, from its stored entries and
    # the factored tensors' Gram matrices.
    assert norm == pytest.approx(3 * max_norm, rel=1e-12)
    params = paper_params.clone()
    state = neural.init_adam(params)
    lr = 1e-3
    neural.adam_step(params, grads, state, lr)

    clipped = g * (max_norm / norm)
    m = (1 - neural.ADAM_BETA1) * clipped
    v = (1 - neural.ADAM_BETA2) * clipped**2
    step = lr * (m / (1 - neural.ADAM_BETA1)) / (
        np.sqrt(v / (1 - neural.ADAM_BETA2)) + neural.ADAM_EPS
    )
    assert np.allclose(state.first_moment, m, rtol=1e-6, atol=0)
    assert np.allclose(state.second_moment, v, rtol=1e-6, atol=0)
    assert np.allclose(paper_params.flat - params.flat, step, rtol=1e-5, atol=1e-12)


def test_factoring_keeps_a_clipped_step_bitwise(monkeypatch):
    # Under a binding clip every gradient entry, stored or formed, is
    # scaled in float64 and then rounded once, so factoring the trunk
    # weight changes no bit of the params or the moments. A float32 store
    # rounded each stored entry before the clip and again after it: with
    # one, 27,622 of the 418,605 params and 58,251 first-moment entries
    # differed here.
    rng = np.random.default_rng(34)
    params = neural.init_params(2, (512, 512), 300, rng)
    x, actions = rng.random((64, 2)), rng.integers(300, size=64)
    targets = 50 * rng.normal(size=64)
    runs = []
    for factored_entries in (512 * 512, 1 << 62):
        monkeypatch.setattr(neural, "_FACTORED_ENTRIES", factored_entries)
        theta = params.clone()
        state = neural.init_adam(theta)
        grads, _ = neural.backward(theta, x, actions, targets, neural.Gradient(theta.sizes))
        assert len(grads.factored) == (factored_entries == 512 * 512)
        assert neural.clip_gradients(grads, 1e-3) > 1e-3
        neural.adam_step(theta, grads, state, lr=1e-3)
        runs.append((theta.flat, state.first_moment, state.second_moment))
    for factored, stored in zip(*runs):
        assert factored.tobytes() == stored.tobytes()


@pytest.mark.parametrize(
    "sizes", [(2, 64, 64, 121), (2, *PAPER_HIDDEN, PAPER_ACTIONS)], ids=["desk", "paper"]
)
def test_gradient_is_float64_and_its_stored_part_too_small_to_split(sizes):
    # The gradient has one dtype and no knob for it. Its stored part is
    # at most 2^16 entries at desk and paper shapes, so a norm or an Adam
    # pass over it would not split into halves: Adam's blocks are too few
    # for the split rule. If a threshold change makes it large, splitting
    # it has to come back.
    with pytest.raises(TypeError):
        neural.Gradient(sizes, np.float32)
    grads = neural.Gradient(sizes)
    assert grads.flat.dtype == np.float64
    assert grads.flat.size <= 1 << 16
    assert not neural._split(-(-grads.flat.size // neural._ADAM_BLOCK), neural._ADAM_BLOCK)


def test_non_finite_paper_step_stops_before_the_update(monkeypatch):
    # A NaN target at paper shape: the factored norm is NaN too, and the
    # step stops before Adam writes a param or a moment.
    env = DcbUplinkEnv(default_scenario())
    config = AgentConfig(epsilon_decay_iters=10)
    assert config.hidden_sizes == PAPER_HIDDEN and env.n_actions == PAPER_ACTIONS
    agent = EnhancedD3qnAgent.create(config, env.n_actions, np.random.default_rng(33))
    while len(agent.replay) < config.batch_size:
        agent.collect_episode(env)
    monkeypatch.setattr(
        agent_module, "td_targets", lambda batch, *args: np.full(len(batch.state), np.nan)
    )
    before = agent.params.flat.tobytes()
    with pytest.raises(StateError, match=r"gradient step 1: TD loss nan, pre-clip gradient norm nan"):
        agent.train_iteration(env, np.full(3, 1 / 3))
    assert agent.params.flat.tobytes() == before
    assert agent.adam.step == 0
    assert not agent.adam.first_moment.any() and not agent.adam.second_moment.any()


def wide_agent(hidden=(512, 512)):
    env = DcbUplinkEnv(desk_scenario())
    config = AgentConfig(
        epsilon_decay_iters=10, replay_capacity=500, batch_size=64,
        target_sync_period=5, grad_steps_per_iteration=3, hidden_sizes=hidden,
    )
    agent = EnhancedD3qnAgent.create(config, env.n_actions, np.random.default_rng(20))
    for _ in range(3):
        agent.collect_episode(env)
    return agent, env


def test_wide_agent_trains_to_the_same_bits(under):
    weight = np.array([0.5, 0.3, 0.2])
    runs = []
    for work in (SPLIT, WHOLE):
        agent, env = wide_agent()
        for _ in range(2):
            under(work, agent.train_iteration, env, weight)
        runs.append(agent)
    split, whole = runs
    assert split.adam.step == whole.adam.step == 6
    assert split.last_loss == whole.last_loss
    assert np.array_equal(split.params.flat, whole.params.flat)
    assert np.array_equal(split.adam.first_moment, whole.adam.first_moment)
    assert np.array_equal(split.adam.second_moment, whole.adam.second_moment)
    assert np.array_equal(split.target_q, whole.target_q)


def test_gradient_buffer_is_freed_when_train_iteration_returns(under, monkeypatch):
    # The worker must drop each finished job: a job kept until the next one
    # arrives holds Adam's closure, and with it the gradient: its stored
    # entries and the factors of its factored tensors, here the 512 x 512
    # trunk weight's input activations and pre-activation gradient.
    monkeypatch.setattr(neural, "_FACTORED_ENTRIES", 512 * 512)
    agent, env = wide_agent()
    buffers, layouts = [], set()
    backward = neural.backward

    def recording_backward(params, encodings, actions, targets, grads):
        buffers.append(weakref.ref(grads.flat))
        layouts.add((grads.flat.dtype, grads.flat.nbytes))
        result = backward(params, encodings, actions, targets, grads)
        assert [slot.shape for slot in grads.factored] == [(512, 512)]
        buffers.extend(weakref.ref(factor) for factor in grads.factored[0].factors)
        return result

    monkeypatch.setattr(neural, "backward", recording_backward)
    under(SPLIT, agent.train_iteration, env, np.full(3, 1 / 3))
    assert agent.adam.step == 3
    assert len(buffers) == 9 and all(ref() is None for ref in buffers)
    # One float64 buffer of every entry but the factored trunk weight's.
    stored = agent.params.flat.size - 512 * 512
    assert layouts == {(np.dtype(np.float64), 8 * stored)}


@pytest.mark.parametrize(
    ("hidden", "work", "factored_entries"),
    [((64, 64), None, None), ((512, 512), SPLIT, None), ((512, 512), SPLIT, 512 * 512)],
    ids=["desk", "split", "split-factored"],
)
def test_train_iteration_calls_each_network_step_once_per_gradient_step(
    under, monkeypatch, hidden, work, factored_entries
):
    # The benchmark's layer spans read one backward, one clip_gradients and
    # one adam_step per gradient step. clip_gradients returns the pre-clip
    # norm (the cap here binds at every step), and only adam_step writes
    # the params.
    if factored_entries is not None:
        monkeypatch.setattr(neural, "_FACTORED_ENTRIES", factored_entries)
    monkeypatch.setattr(agent_module, "MAX_GRAD_NORM", 1e-4)
    agent, env = wide_agent(hidden)
    calls, real = [], {}

    def counted(name):
        def call(*args):
            before = agent.params.flat.tobytes()
            if name == "clip_gradients":
                pre_clip = np.linalg.norm(dense(args[0]))
            result = real[name](*args)
            calls.append((name, agent.params.flat.tobytes() != before))
            if name == "clip_gradients":
                assert result == pytest.approx(pre_clip, rel=1e-12) and result > args[1]
                assert np.linalg.norm(dense(args[0])) == pytest.approx(args[1], rel=1e-6)
            return result
        return call

    for name in ("backward", "clip_gradients", "adam_step"):
        real[name] = getattr(neural, name)
        monkeypatch.setattr(neural, name, counted(name))
    weight = np.full(3, 1 / 3)
    if work is None:
        agent.train_iteration(env, weight)
    else:
        under(work, agent.train_iteration, env, weight)
    assert agent.adam.step == agent.config.grad_steps_per_iteration == 3
    assert calls == [("backward", False), ("clip_gradients", False), ("adam_step", True)] * 3


def run_halves_in_thread(fn, n):
    """neural._halves(fn, n, True) on a helper thread; returns what it raised."""
    raised = []

    def call():
        try:
            neural._halves(fn, n, True)
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    return raised


@pytest.mark.parametrize("failing_half", [0, 1])
def test_error_in_either_half_waits_for_the_other(failing_half):
    finished = []

    def fn(rows, half):
        if half == failing_half:
            raise ValueError(f"half {half}")
        time.sleep(0.2)
        finished.append(half)

    raised = run_halves_in_thread(fn, 8)
    assert [str(exc) for exc in raised] == [f"half {failing_half}"]
    assert finished == [1 - failing_half]

    filled = np.zeros(8)

    def fill(rows, half):
        filled[rows] = 10 * half + rows.start + 1

    assert run_halves_in_thread(fill, 8) == []
    assert filled.tolist() == [1, 1, 1, 1, 15, 15, 15, 15]


def test_unsplit_halves_run_whole_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(neural, "_worker_jobs", None)
    threads = threading.active_count()
    calls = []
    neural._halves(lambda rows, half: calls.append((rows, half, threading.get_ident())), 8, False)
    assert calls == [(slice(0, 8), 0, threading.get_ident())]
    assert threading.active_count() == threads
    assert neural._worker_jobs is None


def test_desk_width_training_starts_no_thread(monkeypatch):
    monkeypatch.setattr(neural, "_worker_jobs", None)
    agent, env = wide_agent(hidden=(64, 64))
    threads = threading.active_count()
    agent.train_iteration(env, np.full(3, 1 / 3))
    assert agent.adam.step == 3
    assert threading.active_count() == threads
    assert neural._worker_jobs is None


def test_worker_calls_no_public_package_function(under, monkeypatch):
    # A tracer that wraps the package's public functions keeps one call
    # stack; a wrapped call on the worker thread would corrupt it.
    monkeypatch.setattr(neural, "_worker_jobs", None)    # a fresh, profiled worker
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("leodcb"):
            called.add((module, frame.f_code.co_name))

    threading.setprofile(profile)
    try:
        agent, env = wide_agent()
        under(SPLIT, agent.train_iteration, env, np.full(3, 1 / 3))
    finally:
        threading.setprofile(None)
    public = {
        (module, name) for module, name in called
        if not name.startswith("_") and hasattr(sys.modules[module], name)
    }
    assert called and not public


def test_paper_shape_td_step_traced_peak(paper_params):
    # One split TD step at paper shapes, its gradient included, stores
    # neither the trunk nor the advantage weight gradient, forms no whole
    # copy of either and copies no head weight. Its traced peak read 20.1
    # MiB above its start, in backward: five (256, 2048) float64 arrays,
    # the trunk's activations (two of them factors that the gradient
    # holds), the hidden gradients and one tanh derivative. The stored part
    # is 11,342 float64 entries. A step that stores the two weight
    # gradients in float32 reads 24.6 MiB more,
    # and a gather that copies each half's transposed head weight to C order
    # 17 MiB more.
    rng = np.random.default_rng(28)
    batch = 256
    params = paper_params.clone()
    state = neural.init_adam(params)
    x = rng.random((batch, 2))
    actions = rng.integers(PAPER_ACTIONS, size=batch)
    targets = rng.normal(size=batch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = neural.Gradient(params.sizes)
        neural.backward(params, x, actions, targets, grads)
        neural.clip_gradients(grads, MAX_GRAD_NORM)
        neural.adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20


def test_paper_width_target_table_traced_peak(paper_params):
    # A default-scenario target table at paper width: 6,771 states by 111
    # columns, 5.7 MiB. Its build read a traced peak of 14.1 MiB, the table
    # plus one 256-row chunk's working arrays. A build that holds every trunk
    # activation until forward returns, and the last chunk's head outputs
    # while the next chunk runs, reads 22.4 MiB.
    env = DcbUplinkEnv(default_scenario())
    assert env.state_encodings.shape == (6771, 2) and env.n_satellites == PAPER_SATELLITES
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = target_table(paper_params, env.state_encodings, PAPER_SATELLITES, 256)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert table.nbytes == 6771 * 111 * 8
    assert peak < 15 * 2**20


# The head of a script that a fork test runs in a fresh interpreter. A fork
# in the test process would copy pytest's threads, and under Python 3.12 it
# warns that the process has threads, which ``filterwarnings = error``
# turns into a failure. ``in_child(check)`` forks, runs ``check`` in the
# child, which SIGALRM ends after 5 s if it hangs, and prints the child's
# exit code.
FORK_SCRIPT = """
import os, signal, sys, threading, traceback
import numpy as np
from leodcb import neural

def in_child(check):
    pid = os.fork()
    if pid == 0:
        signal.alarm(5)
        try:
            check()
            code = 0
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stderr.flush()
        os._exit(code)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def child_exit_code(script):
    """Run FORK_SCRIPT + ``script`` in a fresh interpreter; returns the
    exit code that its forked child printed, and the standard error."""
    src = str(Path(neural.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", FORK_SCRIPT + script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return int(run.stdout), run.stderr


def test_child_forked_while_the_worker_lock_is_held_can_split():
    # The thread that held the lock is not in the child, so the child must
    # not wait for the parent's lock.
    code, stderr = child_exit_code("""
held, release = threading.Event(), threading.Event()

def hold():
    with neural._worker_lock:
        held.set()
        release.wait()

threading.Thread(target=hold, daemon=True).start()
held.wait()

def check():
    # A forced-split forward over 8 rows: each trunk layer runs as _halves.
    params = neural.init_params(2, (64, 64), 121, np.random.default_rng(28))
    x = np.random.default_rng(29).random((8, 2))
    neural._SPLIT_WORK = 0
    split = neural.forward(params, x)[2]
    neural._SPLIT_WORK = 1 << 62
    assert np.array_equal(split, neural.forward(params, x)[2])

in_child(check)
release.set()
""")
    assert code == 0, stderr


def test_child_forked_after_the_worker_started_splits_with_its_own():
    # The parent's worker thread is not in the child: the child starts its
    # own at its first split, and its forced-split TD step gives the whole
    # step's bits.
    code, stderr = child_exit_code("""
rng = np.random.default_rng(28)
params = neural.init_params(2, (512, 512), 121, rng)
x, actions, targets = rng.random((64, 2)), rng.integers(121, size=64), rng.normal(size=64)

def td_step(work):
    neural._SPLIT_WORK = work
    theta = params.clone()
    state = neural.init_adam(theta)
    grads = neural.Gradient(theta.sizes)
    _, loss = neural.backward(theta, x, actions, targets, grads)
    norm = neural.clip_gradients(grads, np.inf)
    neural.adam_step(theta, grads, state, lr=1e-3)
    return [loss, norm, grads.flat, theta.flat, state.first_moment, state.second_moment]

whole = td_step(1 << 62)
td_step(0)
assert [t.name for t in threading.enumerate()] == ["MainThread", "leodcb-neural-half"]

def check():
    assert neural._worker_jobs is None
    assert [t.name for t in threading.enumerate()] == ["MainThread"]
    split = td_step(0)
    assert [t.name for t in threading.enumerate()] == ["MainThread", "leodcb-neural-half"]
    assert all(np.array_equal(got, want) for got, want in zip(split, whole))

in_child(check)
""")
    assert code == 0, stderr
