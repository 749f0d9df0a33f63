import copy
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from leodcb import neural
from leodcb.agent import (
    AgentConfig,
    EnhancedD3qnAgent,
    ReplayBatch,
    ReplayBuffer,
    evaluate_policy,
    select_action,
    target_table,
    td_targets,
)
from leodcb.env import DcbUplinkEnv
from leodcb.errors import ConfigError, StateError
from leodcb.scenario import desk_scenario, micro_scenario
from oracles import forward_td_targets, step_reward


def tiny_config(**overrides):
    base = dict(
        epsilon_decay_iters=10,
        replay_capacity=500,
        batch_size=16,
        target_sync_period=8,
        grad_steps_per_iteration=4,
        learning_rate=1e-3,
        hidden_sizes=(16, 16),
    )
    base.update(overrides)
    return AgentConfig(**base)


N_SATELLITES = 3  # the batches below have n_actions = n_schemes * 3 + 1
N_STATES = 12    # and their next states index a space of this many states


def make_batch(rng, n_actions, terminal=False, all_available=True):
    """A one-transition batch."""
    available = np.ones(N_SATELLITES, dtype=bool)
    if not all_available:
        available = rng.random(N_SATELLITES) < 0.5
    return ReplayBatch(
        state=rng.integers(N_STATES, size=1),
        action=rng.integers(n_actions, size=1),
        reward=rng.normal(size=(1, 3)),
        next_state=rng.integers(N_STATES, size=1),
        next_available=available[None, :],
        terminal=np.array([terminal]),
    )


def random_space(rng, params):
    """Random encodings of N_STATES states and their target table."""
    encodings = rng.random((N_STATES, 2))
    return encodings, target_table(params, encodings, N_SATELLITES, chunk=5)


def push_numbered(buffer, numbers):
    """Push transitions whose every field encodes their number."""
    for n in numbers:
        buffer.push(
            n, n, np.full(3, n), n + 1,
            np.array([n % 2 == 0, True, False]), n % 3 == 0,
        )


def assert_rows_intact(batch):
    n = batch.action
    assert np.array_equal(batch.state, n)
    assert np.array_equal(batch.reward, np.stack([n, n, n], axis=1))
    assert np.array_equal(batch.next_state, n + 1)
    assert np.array_equal(batch.next_available[:, 0], n % 2 == 0)
    assert np.array_equal(batch.terminal, n % 3 == 0)


class TestAgentConfig:
    @pytest.mark.parametrize(
        ("field", "value", "constraint"),
        [
            ("hidden_sizes", (0,), "hidden widths >= 1"),
            ("hidden_sizes", (64, -1), "hidden widths >= 1"),
            ("hidden_sizes", (), "hidden_sizes is a nonempty tuple of integers >= 1"),
            ("hidden_sizes", (2.5,), "hidden_sizes is a nonempty tuple of integers >= 1"),
            ("learning_rate", -5.0, "learning_rate is finite and >= 0"),
            ("learning_rate", float("inf"), "learning_rate is finite and >= 0"),
            ("learning_rate", float("nan"), "learning_rate is finite and >= 0"),
            ("target_sync_period", 0, "target_sync_period >= 1"),
            ("episodes_per_iteration", 0, "episodes_per_iteration >= 1"),
            ("epsilon_start", 1.5, "0 <= epsilon_start <= 1"),
            ("epsilon_end", -0.1, "0 <= epsilon_end <= 1"),
            ("target_sync_period", 1.5, "target_sync_period is an integer"),
            ("batch_size", 2.5, "batch_size is an integer"),
            ("batch_size", "64", "batch_size is an integer"),
            ("replay_capacity", True, "replay_capacity is an integer"),
            ("grad_steps_per_iteration", 2.0, "grad_steps_per_iteration is an integer"),
            ("grad_steps_per_iteration", -1, "grad_steps_per_iteration >= 0"),
            ("episodes_per_iteration", False, "episodes_per_iteration is an integer"),
            ("epsilon_decay_iters", 2.5, "epsilon_decay_iters is None or an integer >= 1"),
            ("epsilon_decay_iters", 0, "epsilon_decay_iters is None or an integer >= 1"),
            ("gamma", None, "gamma is a number"),
            ("epsilon_start", True, "epsilon_start is a number"),
            ("hidden_sizes", (True,), "hidden_sizes is a nonempty tuple of integers >= 1"),
            ("epsilon_end", "0.05", "epsilon_end is a number"),
            ("learning_rate", "1e-3", "learning_rate is a number"),
            ("learning_rate", True, "learning_rate is a number"),
        ],
    )
    def test_named_constraint_violated(self, field, value, constraint):
        message = f"agent constraint violated: {re.escape(constraint)}"
        with pytest.raises(ConfigError, match=message):
            AgentConfig(**{field: value})

    def test_gradient_norm_cap_is_no_setting(self):
        # train_iteration clips at agent.MAX_GRAD_NORM.
        assert "max_grad_norm" not in {f.name for f in dataclasses.fields(AgentConfig)}
        with pytest.raises(TypeError):
            AgentConfig(max_grad_norm=10.0)

    def test_boundary_values_accepted(self):
        # A zero learning rate freezes the net; the tests use it.
        AgentConfig(learning_rate=0.0, epsilon_start=0.0, epsilon_end=1.0, hidden_sizes=(1,),
                    epsilon_decay_iters=1, grad_steps_per_iteration=0, batch_size=np.int64(1))


class TestSelectAction:
    def test_uniform_when_fully_exploring(self):
        rng = np.random.default_rng(0)
        params = neural.init_params(2, (8,), 12, rng)
        mask = np.zeros(12, dtype=bool)
        mask[[1, 4, 7, 9]] = True
        n_draws = 10_000
        counts = np.zeros(12)
        for _ in range(n_draws):
            counts[select_action(params, np.array([0.2, 0.5]), mask, 1.0, rng)] += 1
        expected = n_draws / 4
        sigma = np.sqrt(n_draws * 0.25 * 0.75)
        for idx in (1, 4, 7, 9):
            assert abs(counts[idx] - expected) <= 3 * sigma
        assert counts[~mask].sum() == 0

    def test_greedy_single_legit_action(self):
        rng = np.random.default_rng(1)
        params = neural.init_params(2, (8,), 5, rng)
        mask = np.zeros(5, dtype=bool)
        mask[3] = True
        for _ in range(20):
            assert select_action(params, np.array([0.1, 0.1]), mask, 0.0, rng) == 3

    def test_never_returns_illegitimate(self):
        rng = np.random.default_rng(2)
        params = neural.init_params(2, (8,), 9, rng)
        for _ in range(2000):
            mask = rng.random(9) < 0.4
            if not mask.any():
                continue
            eps = float(rng.random())
            action = select_action(params, rng.random(2), mask, eps, rng)
            assert mask[action]

    def test_empty_mask_rejected(self):
        rng = np.random.default_rng(3)
        params = neural.init_params(2, (8,), 4, rng)
        with pytest.raises(StateError):
            select_action(params, np.zeros(2), np.zeros(4, dtype=bool), 0.5, rng)

    def test_greedy_invariant_to_constant_q_shift(self):
        rng = np.random.default_rng(4)
        params = neural.init_params(2, (8,), 6, rng)
        shifted = params.clone()
        shifted.adv_bias += 11.0  # uniform shift leaves the argmax alone
        mask = np.array([True, False, True, True, False, True])
        state = rng.random(2)
        a = select_action(params, state, mask, 0.0, rng)
        b = select_action(shifted, state, mask, 0.0, rng)
        assert a == b


class TestTdTargets:
    def test_terminal_is_scalarized_reward(self):
        rng = np.random.default_rng(5)
        params = neural.init_params(2, (8,), 4, rng)
        _, table = random_space(rng, params)
        batch = make_batch(rng, 4, terminal=True)
        w = np.array([0.5, 0.3, 0.2])
        (target,) = td_targets(batch, table, w, gamma=0.9)
        assert target == pytest.approx(float(batch.reward[0] @ w))

    def test_rate_only_weight(self):
        rng = np.random.default_rng(6)
        params = neural.init_params(2, (8,), 4, rng)
        _, table = random_space(rng, params)
        batch = make_batch(rng, 4, terminal=True)
        (target,) = td_targets(batch, table, np.array([1.0, 0.0, 0.0]), gamma=0.9)
        assert target == pytest.approx(batch.reward[0, 0])

    def test_masked_max_never_exceeds_unmasked(self):
        rng = np.random.default_rng(7)
        params = neural.init_params(2, (8,), 10, rng)
        _, table = random_space(rng, params)
        w = np.array([0.4, 0.3, 0.3])
        for _ in range(50):
            batch = make_batch(rng, 10, all_available=False)
            if not batch.next_available.any():
                continue
            unmasked = batch._replace(next_available=np.ones((1, N_SATELLITES), dtype=bool))
            (masked_target,) = td_targets(batch, table, w, gamma=0.9)
            (full_target,) = td_targets(unmasked, table, w, gamma=0.9)
            assert masked_target <= full_target + 1e-12

    def test_bootstraps_over_schemes_of_available_satellites_or_idle(self):
        rng = np.random.default_rng(17)
        n_schemes = 3
        params = neural.init_params(2, (8,), n_schemes * N_SATELLITES + 1, rng)
        encodings, table = random_space(rng, params)
        w = np.array([0.2, 0.5, 0.3])
        for available in ([False, True, True], [True, False, False], [False] * 3):
            batch = make_batch(rng, params.n_actions)._replace(
                next_available=np.array([available])
            )
            _, _, q = neural.forward(params, encodings[batch.next_state[0]])
            legit = [
                k * N_SATELLITES + s
                for k in range(n_schemes)
                for s in range(N_SATELLITES)
                if available[s]
            ] or [params.n_actions - 1]
            (target,) = td_targets(batch, table, w, gamma=0.9)
            expected = batch.reward[0] @ w + 0.9 * q[legit].max()
            assert target == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("draw", range(5))
    def test_equals_the_per_satellite_maximum_bitwise(self, draw):
        rng = np.random.default_rng(300 + draw)
        n_schemes, rows = 4, 40
        params = neural.init_params(2, (8,), n_schemes * N_SATELLITES + 1, rng)
        encodings = rng.random((N_STATES, 2))
        # One chunk, so the table rows come from the forward call below.
        table = target_table(params, encodings, N_SATELLITES, chunk=N_STATES)
        batch = ReplayBatch(
            state=rng.integers(N_STATES, size=rows),
            action=rng.integers(params.n_actions, size=rows),
            reward=rng.normal(size=(rows, 3)),
            next_state=rng.integers(N_STATES, size=rows),
            next_available=rng.random((rows, N_SATELLITES)) < 0.4,
            terminal=rng.random(rows) < 0.2,
        )
        w = np.array([0.2, 0.5, 0.3])
        _, _, q_all = neural.forward(params, encodings)
        next_q = q_all[batch.next_state]
        # Best scheme per satellite, then best available satellite or IDLE.
        per_satellite = next_q[:, :-1].reshape(rows, n_schemes, N_SATELLITES).max(axis=1)
        best_next = np.where(batch.next_available, per_satellite, -np.inf).max(axis=1)
        best_next = np.where(batch.next_available.any(axis=1), best_next, next_q[:, -1])
        expected = batch.reward @ w + 0.9 * np.where(batch.terminal, 0.0, best_next)
        assert td_targets(batch, table, w, 0.9).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hidden", [(64, 64), (512, 512)])
    def test_matches_forward_oracle_on_desk_batches(self, hidden):
        # Table rows and batch rows come from differently shaped matrix
        # products, so they may differ in the last bits; the tolerance is
        # norm-wise, relative to the batch's largest target.
        env = DcbUplinkEnv(desk_scenario())
        rng = np.random.default_rng(31)
        params = neural.init_params(2, hidden, env.n_actions, rng)
        table = target_table(params, env.state_encodings, env.n_satellites, chunk=64)
        w = np.array([0.5, 0.3, 0.2])
        for _ in range(8):
            rows = 64
            batch = ReplayBatch(
                state=rng.integers(len(env.state_encodings), size=rows),
                action=rng.integers(env.n_actions, size=rows),
                reward=rng.normal(size=(rows, 3)),
                next_state=rng.integers(len(env.state_encodings), size=rows),
                next_available=rng.random((rows, env.n_satellites)) < 0.3,
                terminal=rng.random(rows) < 0.1,
            )
            got = td_targets(batch, table, w, 0.96)
            want = forward_td_targets(
                batch, env.state_encodings[batch.next_state], params, w, 0.96
            )
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestTargetTable:
    @pytest.mark.parametrize("chunk", [64, 403, 1000])
    def test_rows_are_the_per_satellite_max_of_forward_over_the_same_chunks(self, chunk):
        env = DcbUplinkEnv(desk_scenario())
        params = neural.init_params(2, (64, 64), env.n_actions, np.random.default_rng(32))
        encodings = env.state_encodings
        pieces = []
        for start in range(0, len(encodings), chunk):
            _, _, q = neural.forward(params, encodings[start : start + chunk])
            per_satellite = q[:, :-1].reshape(len(q), env.n_schemes, env.n_satellites)
            pieces.append(np.column_stack([per_satellite.max(axis=1), q[:, -1]]))
        table = target_table(params, encodings, env.n_satellites, chunk)
        assert table.shape == (len(encodings), env.n_satellites + 1)
        assert not table.flags.writeable
        assert table.tobytes() == np.concatenate(pieces).tobytes()


def trained_desk_agent(seed, **overrides):
    """A desk agent whose replay holds 3 episodes, so every step trains."""
    env = DcbUplinkEnv(desk_scenario())
    cfg = tiny_config(**{"batch_size": 16, "target_sync_period": 100, **overrides})
    agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(seed))
    for _ in range(3):
        agent.collect_episode(env)
    return env, agent


def table_of(params, env, agent):
    """The target table ``agent`` builds from ``params`` on ``env``."""
    return target_table(
        params, env.state_encodings, env.n_satellites, agent.config.batch_size
    ).tobytes()


class TestTargetTableLifecycle:
    def test_one_build_per_target_sync(self, monkeypatch):
        env, agent = trained_desk_agent(40, grad_steps_per_iteration=10)
        assert agent.target_q is None   # collecting episodes builds nothing
        batch_calls = []
        real_forward = neural.forward

        def counting_forward(p, encoding):
            if np.ndim(encoding) == 2:
                batch_calls.append(len(encoding))
            return real_forward(p, encoding)

        monkeypatch.setattr(neural, "forward", counting_forward)
        for _ in range(20):
            agent.train_iteration(env, np.full(3, 1 / 3))
        synced = agent.params.clone()   # as they stood at the sync at step 200
        for _ in range(5):
            agent.train_iteration(env, np.full(3, 1 / 3))
        assert agent.adam.step == 250
        # Built at step 1 and after the syncs at steps 100 and 200.
        chunks = -(-len(env.state_encodings) // agent.config.batch_size)
        assert len(batch_calls) == 3 * chunks
        assert sum(batch_calls) == 3 * len(env.state_encodings)
        monkeypatch.undo()
        assert agent.target_q.tobytes() == table_of(synced, env, agent)
        assert agent.target_q.tobytes() != table_of(agent.params, env, agent)

    def test_clone_table_equals_a_rebuild_from_its_target(self):
        env, agent = trained_desk_agent(
            42, grad_steps_per_iteration=8, target_sync_period=96
        )
        initial = agent.params.clone()
        agent.train_iteration(env, np.full(3, 1 / 3))
        twin = agent.clone()
        assert twin.target_q is agent.target_q
        assert twin.target_q.tobytes() == table_of(initial, env, twin)
        kept = agent.target_q.tobytes()
        for _ in range(11):   # up to the twin's sync at step 96
            twin.train_iteration(env, np.full(3, 1 / 3))
        assert twin.adam.step == 96 and twin.target_q is None
        synced = twin.params.clone()
        for _ in range(4):
            twin.train_iteration(env, np.full(3, 1 / 3))
        assert agent.target_q.tobytes() == kept
        assert twin.target_q.tobytes() == table_of(synced, env, twin)

    def test_other_state_space_forces_a_rebuild(self):
        env, agent = trained_desk_agent(45, grad_steps_per_iteration=4)
        initial = agent.params.clone()
        agent.train_iteration(env, np.full(3, 1 / 3))
        longer = DcbUplinkEnv(dataclasses.replace(desk_scenario(), n_slots=40))
        same = DcbUplinkEnv(desk_scenario())
        built = agent.target_q
        agent.train_iteration(same, np.full(3, 1 / 3))
        assert agent.target_q is built
        current = agent.params.clone()
        agent.train_iteration(longer, np.full(3, 1 / 3))
        assert agent.adam.step == 12
        assert agent.target_q.shape == (41 * 13, 13)
        # Mid-period, so the rebuild re-syncs the target to the params it
        # meets, not to those of the last sync.
        assert agent.target_q.tobytes() == table_of(current, longer, agent)
        assert agent.target_q.tobytes() != table_of(initial, longer, agent)

    def test_table_after_a_sync_is_that_steps_adam_update(self, monkeypatch):
        env, agent = trained_desk_agent(
            46, grad_steps_per_iteration=4, target_sync_period=3
        )
        updated = []
        real_adam_step = neural.adam_step

        def recording_adam_step(params, *args):
            real_adam_step(params, *args)
            updated.append(params.clone())

        monkeypatch.setattr(neural, "adam_step", recording_adam_step)
        for _ in range(2):
            agent.train_iteration(env, np.full(3, 1 / 3))
        # Syncs at steps 3 and 6; the table of step 7 on comes from the
        # params that step 6's Adam update left.
        assert agent.adam.step == 8
        assert agent.target_q.tobytes() == table_of(updated[5], env, agent)
        assert agent.target_q.tobytes() != table_of(updated[6], env, agent)


class TestReplayBuffer:
    def test_capacity_bound_and_fifo(self):
        buffer = ReplayBuffer(3)
        rng = np.random.default_rng(8)
        push_numbered(buffer, range(3))
        for newest in range(3, 8):
            push_numbered(buffer, [newest])
            assert len(buffer) == 3
            batch = buffer.sample(3, rng)
            assert set(batch.action) == {newest - 2, newest - 1, newest}
            assert_rows_intact(batch)

    def test_sampling_without_replacement(self):
        buffer = ReplayBuffer(10)
        rng = np.random.default_rng(9)
        push_numbered(buffer, range(10))
        batch = buffer.sample(10, rng)
        assert sorted(batch.action) == list(range(10))
        assert_rows_intact(batch)
        assert batch.next_available.dtype == bool and batch.next_available.shape == (10, 3)

    def test_copy_is_independent_of_later_pushes(self):
        buffer = ReplayBuffer(4)
        push_numbered(buffer, range(3))
        clone = buffer.copy()
        push_numbered(clone, range(10, 16))
        assert len(buffer) == 3 and len(clone) == 4
        rng = np.random.default_rng(10)
        assert sorted(buffer.sample(3, rng).action) == [0, 1, 2]
        assert sorted(clone.sample(4, rng).action) == [12, 13, 14, 15]


def _first_transmitted_rate(trace):
    return {"rate_threshold": float(trace["rate_bps"][trace["satellite"] > 0][0])}


class TestCollectEpisode:
    @staticmethod
    def collected(scenario):
        """An env, an agent that has collected one half-greedy episode on it,
        and that episode's seed."""
        env = DcbUplinkEnv(scenario)
        cfg = tiny_config(epsilon_start=0.5, epsilon_end=0.5, replay_capacity=64)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(11))
        seed = int(copy.deepcopy(agent.rng).integers(2**31))
        agent.collect_episode(env)
        return env, agent, seed

    @pytest.mark.parametrize(
        ("build", "changes"),
        [
            (desk_scenario, {}),
            (micro_scenario, {}),
            (desk_scenario, {"unavailability": 1.0}),       # every slot idle
            (micro_scenario, {"rate_threshold": 1e12}),     # above every rate
            (desk_scenario, _first_transmitted_rate),       # equal to a reached rate
            (micro_scenario, _first_transmitted_rate),
        ],
    )
    def test_replay_rows_are_the_per_step_records(self, build, changes):
        # Each pushed row is what a loop that pushes after every step would
        # record: the scalar oracle's reward of (state, action), the next
        # state, the next slot's availability and whether the episode ended.
        if callable(changes):
            changes = changes(self.collected(build())[0].trace)
        scenario = dataclasses.replace(build(), **changes)
        _, agent, seed = self.collected(scenario)
        assert len(agent.replay) == scenario.n_slots
        batch = agent.replay.sample(scenario.n_slots, np.random.default_rng(0))
        # A state's slot grows by one per step, so sorting on it restores the order.
        rows = ReplayBatch(*(column[np.argsort(batch.state)] for column in batch))
        probe = DcbUplinkEnv(scenario)
        state = probe.reset(seed)
        for row in range(scenario.n_slots):
            action = int(rows.action[row])
            reward = step_reward(probe, state, action)
            next_state = probe.step(action)
            expected = (state, action, reward, next_state, probe.current_mask, probe.done)
            for field, value in zip(ReplayBatch._fields, expected):
                assert np.array_equal(getattr(rows, field)[row], value), (row, field)
            state = next_state


class TestTrainIteration:
    def test_warm_fill_skips_gradient_steps(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=10_000)  # never reachable in one episode
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(0))
        agent.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        assert agent.adam.step == 0
        assert len(agent.replay) == env.scenario.n_slots

    def test_zero_learning_rate_freezes_policy(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(learning_rate=0.0, batch_size=4)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(1))
        probe = np.array([[0.2, 0.4], [0.8, 0.1]])
        _, _, q_before = neural.forward(agent.params, probe)
        for _ in range(3):
            agent.train_iteration(env, np.array([0.4, 0.3, 0.3]))
        _, _, q_after = neural.forward(agent.params, probe)
        assert np.array_equal(q_before, q_after)
        assert agent.adam.step > 0

    def test_target_sync_period(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=4, target_sync_period=4, grad_steps_per_iteration=2)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(2))
        initial = agent.params.clone()
        weight = np.array([0.4, 0.3, 0.3])
        agent.train_iteration(env, weight)
        assert agent.adam.step == 2
        assert agent.target_q.tobytes() == table_of(initial, env, agent)
        agent.train_iteration(env, weight)
        # The sync happened exactly at the boundary: it dropped the table,
        # and the next build takes the params as they stand after step 4.
        assert agent.adam.step == 4 and agent.target_q is None
        synced = agent.params.clone()
        agent.train_iteration(env, weight)
        assert agent.target_q.tobytes() == table_of(synced, env, agent)
        assert agent.target_q.tobytes() != table_of(initial, env, agent)

    def test_epsilon_linear_decay(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(epsilon_decay_iters=4)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(3))
        seen = [agent.epsilon()]
        for _ in range(6):
            agent.train_iteration(env, np.array([1.0, 0.0, 0.0]))
            seen.append(agent.epsilon())
        assert seen[0] == 1.0
        assert seen[4] == pytest.approx(0.05)
        assert seen[6] == pytest.approx(0.05)
        assert all(a >= b for a, b in zip(seen, seen[1:]))

    def test_unresolved_epsilon_schedule_rejected(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = AgentConfig(hidden_sizes=(8,))
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(4))
        with pytest.raises(ConfigError):
            agent.epsilon()

    def test_clone_is_independent(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=4)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(5))
        agent.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        twin = agent.clone()
        twin.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        assert twin.iteration == agent.iteration + 1
        assert not np.array_equal(agent.params.flat, twin.params.flat)

    def test_clone_has_float32_moments_of_its_own(self):
        env = DcbUplinkEnv(micro_scenario())
        agent = EnhancedD3qnAgent.create(tiny_config(batch_size=4), env.n_actions,
                                         np.random.default_rng(6))
        agent.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        twin = agent.clone()
        before = [agent.adam.first_moment.copy(), agent.adam.second_moment.copy()]
        for mine, theirs in zip(before, (twin.adam.first_moment, twin.adam.second_moment)):
            assert theirs.dtype == np.float32 and np.array_equal(theirs, mine)
        twin.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        for mine, now, theirs in zip(
            before,
            (agent.adam.first_moment, agent.adam.second_moment),
            (twin.adam.first_moment, twin.adam.second_moment),
        ):
            assert np.array_equal(now, mine)
            assert theirs.dtype == np.float32 and not np.array_equal(theirs, mine)

    def test_counters_and_params_after_training(self):
        # The micro run's warm-up plus one generation: t = 2 + 1 iterations.
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=8, target_sync_period=10, grad_steps_per_iteration=2,
                          hidden_sizes=(8, 8))
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(0))
        initial = agent.params.flat.copy()
        t = 3
        for _ in range(t):
            agent.train_iteration(env, np.array([0.5, 0.3, 0.2]))
        assert agent.iteration == t
        assert agent.adam.step > 0
        assert agent.params.sizes == (2, 8, 8, env.n_actions)
        assert np.isfinite(agent.params.flat).all()
        assert not np.array_equal(agent.params.flat, initial)

    def test_gradient_steps_allocate_one_buffer(self):
        # One gradient-sized buffer plus batch temporaries; keeping the last
        # step's gradient alive while the next is made would add another.
        env = DcbUplinkEnv(desk_scenario())
        cfg = tiny_config(batch_size=64, grad_steps_per_iteration=3, hidden_sizes=(512, 512))
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(3))
        for _ in range(3):
            agent.collect_episode(env)
        weight = np.full(3, 1 / 3)
        agent.train_iteration(env, weight)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            agent.train_iteration(env, weight)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert agent.adam.step == 6
        assert peak - before < 2.0 * agent.params.flat.nbytes

    @pytest.mark.parametrize("tensor", ["trunk_weights", "value_bias", "adv_bias"])
    def test_non_finite_step_stops_before_the_update(self, tensor):
        # A NaN anywhere in the params reaches the TD loss, so the first
        # gradient step must stop before Adam touches params or moments.
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=4)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(8))
        target = getattr(agent.params, tensor)
        (target[0] if tensor == "trunk_weights" else target).reshape(-1)[-1] = np.nan
        before = agent.params.flat.tobytes()
        with pytest.raises(StateError, match=r"gradient step 1: TD loss nan"):
            agent.train_iteration(env, np.array([0.5, 0.3, 0.2]))
        assert agent.params.flat.tobytes() == before
        assert agent.adam.step == 0
        assert not agent.adam.first_moment.any() and not agent.adam.second_moment.any()

    def test_clone_replay_is_independent(self):
        env = DcbUplinkEnv(micro_scenario())
        cfg = tiny_config(batch_size=4, replay_capacity=12)
        agent = EnhancedD3qnAgent.create(cfg, env.n_actions, np.random.default_rng(6))
        agent.train_iteration(env, np.array([1.0, 0.0, 0.0]))
        before = agent.replay.sample(5, np.random.default_rng(7))
        twin = agent.clone()
        for _ in range(4):   # 20 more transitions: the twin's replay wraps
            twin.collect_episode(env)
        after = agent.replay.sample(5, np.random.default_rng(7))
        assert len(agent.replay) == 5 and len(twin.replay) == 12
        for a, b in zip(before, after):
            assert np.array_equal(a, b)


class TestEvaluatePolicy:
    def test_deterministic_when_no_outages(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=0.0)
        env = DcbUplinkEnv(scenario)
        params = neural.init_params(2, (16,), env.n_actions, np.random.default_rng(6))
        first = evaluate_policy(params, env, seeds=[1, 2])
        second = evaluate_policy(params, env, seeds=[1, 2])
        assert np.array_equal(first, second)

    def test_forced_idle_gives_zero_objectives(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=1.0)
        env = DcbUplinkEnv(scenario)
        params = neural.init_params(2, (16,), env.n_actions, np.random.default_rng(7))
        assert np.array_equal(evaluate_policy(params, env, seeds=[3]), np.zeros(3))

    def test_rollouts_share_q_rows(self, monkeypatch):
        env = DcbUplinkEnv(desk_scenario())
        params = neural.init_params(2, (16,), env.n_actions, np.random.default_rng(9))
        calls = []
        real_forward = neural.forward

        def counting_forward(p, encoding):
            calls.append(tuple(encoding))
            return real_forward(p, encoding)

        monkeypatch.setattr(neural, "forward", counting_forward)
        once = evaluate_policy(params, env, seeds=[4])
        n_once = len(calls)
        twice = evaluate_policy(params, env, seeds=[4, 4])
        assert len(calls) == 2 * n_once
        assert len(set(calls)) == n_once
        assert np.array_equal(once, twice)

    def test_sign_convention_maximizes_every_component(self):
        env = DcbUplinkEnv(desk_scenario())
        params = neural.init_params(2, (16,), env.n_actions, np.random.default_rng(8))
        f = evaluate_policy(params, env, seeds=[1])
        assert f[0] >= 0.0   # rate average
        assert f[1] <= 0.0   # negated energy
        assert f[2] <= 0.0   # negated switch rate
