import dataclasses

import numpy as np
import pytest
from oracles import (
    is_geometrically_visible,
    link_distance,
    p2_objective,
    pgd_p2,
    reward_weights,
    running_objectives,
    step_reward,
)

from leodcb import neural
from leodcb.agent import greedy_rollout
from leodcb.baselines import BaselineKind, run_baseline_episode
from leodcb.channel import achievable_rate, amplitude_gains, snr, solve_p2
from leodcb.env import TRACE_DTYPE, DcbUplinkEnv, episode_objectives, legitimate_masks
from leodcb.errors import IllegalActionError, StateError
from leodcb.orbits import GroundFrame, position_at
from leodcb.scenario import default_scenario, desk_scenario, micro_scenario


@pytest.fixture(scope="module")
def desk_env():
    return DcbUplinkEnv(desk_scenario())


def first_available_action(env):
    return int(np.flatnonzero(env.legitimate_mask())[0])


def run_episode(env, seed, policy):
    """Step one episode; returns the oracle's reward of each step."""
    state = env.reset(seed)
    rewards = []
    while not env.done:
        action = policy(env, state)
        rewards.append(step_reward(env, state, action))
        state = env.step(action)
    return rewards


def last_reward(env):
    return env.rewards(env.trace)[-1]


class TestReset:
    def test_same_seed_same_masks(self, desk_env):
        def mask_sequence(seed):
            env = desk_env
            env.reset(seed)
            masks = [env.current_mask.copy()]
            while not env.done:
                env.step(first_available_action(env))
                if not env.done:
                    masks.append(env.current_mask.copy())
            return np.stack(masks)

        assert np.array_equal(mask_sequence(5), mask_sequence(5))

    def test_different_seeds_differ(self, desk_env):
        desk_env.reset(1)
        first = [desk_env.current_mask.copy()]
        while not desk_env.done:
            desk_env.step(first_available_action(desk_env))
            if not desk_env.done:
                first.append(desk_env.current_mask.copy())
        desk_env.reset(2)
        second = [desk_env.current_mask.copy()]
        while not desk_env.done:
            desk_env.step(first_available_action(desk_env))
            if not desk_env.done:
                second.append(desk_env.current_mask.copy())
        assert not np.array_equal(np.stack(first), np.stack(second))

    def test_trace_emptied(self, desk_env):
        desk_env.reset(3)
        desk_env.step(first_available_action(desk_env))
        assert len(desk_env.trace) == 1
        state = desk_env.reset(3)
        assert state == desk_env.state == 0
        assert desk_env.slot == 0
        assert len(desk_env.trace) == 0


class TestAvailability:
    def test_p_one_blocks_everything(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=1.0)
        env = DcbUplinkEnv(scenario)
        env.reset(0)
        while not env.done:
            assert not env.current_mask.any()
            env.step(first_available_action(env))

    def test_p_zero_equals_visibility(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=0.0)
        env = DcbUplinkEnv(scenario)
        env.reset(0)
        while not env.done:
            assert np.array_equal(env.current_mask, env.visibility[env.slot])
            env.step(first_available_action(env))

    def test_bernoulli_frequency(self):
        p = 0.3
        env = DcbUplinkEnv(dataclasses.replace(desk_scenario(), unavailability=p))
        available = visible = 0
        seed = 0
        while visible < 10_000:
            env.reset(seed)
            while not env.done:
                available += int(env.current_mask.sum())
                visible += int(env.visibility[env.slot].sum())
                env.step(env.idle_index)
            seed += 1
        unavailable_freq = 1.0 - available / visible
        assert abs(unavailable_freq - p) < 0.02

    def test_unavailable_is_never_visible(self, desk_env):
        for seed in range(5):
            desk_env.reset(seed)
            while not desk_env.done:
                assert not (desk_env.current_mask & ~desk_env.visibility[desk_env.slot]).any()
                desk_env.step(desk_env.idle_index)
            assert not desk_env.current_mask.any()


class TestLegitimateActions:
    def test_cross_product_size(self):
        mask = np.array([True, False, True, True])
        legit = np.flatnonzero(legitimate_masks(mask[None, :], n_schemes=10)[0])
        assert legit.size == 30
        assert all(mask[a % 4] for a in legit)

    def test_empty_mask_gives_idle_only(self):
        flat = legitimate_masks(np.zeros((1, 4), dtype=bool), n_schemes=10)[0]
        assert flat.shape == (41,)
        assert np.flatnonzero(flat).tolist() == [40]

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_rows_match_single_row_masks(self, rows):
        rng = np.random.default_rng(rows)
        available = rng.random((rows, 5)) < 0.4
        available[0] = False            # one row with nothing available
        masks = legitimate_masks(available, n_schemes=3)
        assert masks.shape == (rows, 16)
        for row, mask in zip(available, masks):
            assert np.array_equal(mask, legitimate_masks(row[None, :], 3)[0])
            assert np.array_equal(mask[:-1], np.tile(row, 3))
            assert mask[-1] == (not row.any())

    def test_one_scheme_is_availability_then_idle(self):
        # The (N_L + 1)-wide next-choice mask of agent.td_targets.
        rows = np.random.default_rng(5).random((6, 4)) < 0.5
        rows[2] = False
        masks = legitimate_masks(rows, 1)
        assert np.array_equal(masks, np.column_stack([rows, ~rows.any(axis=1)]))
        assert np.flatnonzero(masks[2]).tolist() == [4]

    def test_env_mask_is_cached_and_read_only(self, desk_env):
        desk_env.reset(3)
        while True:
            mask, available = desk_env.legitimate_mask(), desk_env.current_mask
            # Built once at reset: every call reads the same memory.
            assert np.shares_memory(desk_env.legitimate_mask(), mask)
            for array in (mask, available):
                with pytest.raises(ValueError):
                    array[0] = not array[0]
            assert np.array_equal(
                mask, legitimate_masks(available[None, :], desk_env.n_schemes)[0]
            )
            if desk_env.done:
                break
            desk_env.step(first_available_action(desk_env))
        # After the last slot only IDLE is marked.
        assert np.flatnonzero(desk_env.legitimate_mask()).tolist() == [desk_env.idle_index]

    def test_mask_before_reset_rejected(self):
        with pytest.raises(StateError):
            DcbUplinkEnv(micro_scenario()).legitimate_mask()

    @pytest.mark.parametrize("read", ["current_mask", "trace"])
    def test_episode_record_before_reset_rejected(self, read):
        with pytest.raises(StateError):
            getattr(DcbUplinkEnv(micro_scenario()), read)

    def test_scheme_blocks_repeat_availability(self, desk_env):
        desk_env.reset(17)
        flat = desk_env.legitimate_mask()
        assert flat.shape == (desk_env.n_actions,)
        blocks = flat[: desk_env.idle_index].reshape(desk_env.n_schemes, desk_env.n_satellites)
        assert (blocks == desk_env.current_mask).all()
        assert flat[desk_env.idle_index] == (not desk_env.current_mask.any())


class TestStep:
    def test_repeat_satellite_no_switch_penalty(self, desk_env):
        desk_env.reset(8)
        action = first_available_action(desk_env)
        desk_env.step(action)
        assert last_reward(desk_env)[2] == 0.0  # episode-start selection is free
        if desk_env.current_mask[action % desk_env.n_satellites]:
            desk_env.step(action)
            assert last_reward(desk_env)[2] == 0.0

    def test_switch_penalised(self, desk_env):
        # Find a slot with two available satellites and change between them.
        for seed in range(50):
            state = desk_env.reset(seed)
            while not desk_env.done:
                avail = np.flatnonzero(desk_env.current_mask) + 1
                prev = state % (desk_env.n_satellites + 1)
                if prev != 0 and len(avail) >= 1:
                    other = [s for s in avail if s != prev]
                    if other:
                        desk_env.step(int(other[0]) - 1)
                        assert last_reward(desk_env)[2] == -reward_weights(desk_env.scenario)[2]
                        return
                state = desk_env.step(first_available_action(desk_env))
        pytest.fail("no switch opportunity found")

    def test_below_threshold_rate_zeroed_but_energy_charged(self):
        scenario = dataclasses.replace(micro_scenario(), rate_threshold=1e12)
        env = DcbUplinkEnv(scenario)
        env.reset(0)
        while not env.done:
            action = first_available_action(env)
            env.step(action)
            reward = last_reward(env)
            assert reward[0] == 0.0
            if action != env.idle_index:
                assert reward[1] < 0.0
        f1, f2, _ = episode_objectives(env.trace, scenario)
        assert (env.trace["rate_bps"] > 0.0).any()
        assert f1 == 0.0
        assert f2 > 0.0

    def test_idle_keeps_previous_satellite(self, desk_env):
        desk_env.reset(12)
        action = first_available_action(desk_env)
        state = desk_env.step(action)
        prev = state % (desk_env.n_satellites + 1)
        assert prev == action % desk_env.n_satellites + 1
        state = desk_env.step(desk_env.idle_index)
        assert state == 2 * (desk_env.n_satellites + 1) + prev
        assert last_reward(desk_env).tolist() == [0.0, 0.0, 0.0]

    def test_idle_steps_while_satellites_are_available(self, desk_env):
        # IDLE is outside the agents' action set whenever a satellite is
        # available, but the env still accepts it.
        desk_env.reset(12)
        assert desk_env.current_mask.any()
        assert not desk_env.legitimate_mask()[desk_env.idle_index]
        state = desk_env.step(desk_env.idle_index)
        assert state == desk_env.n_satellites + 1      # slot 1, no previous satellite
        assert desk_env.slot == 1
        assert last_reward(desk_env).tolist() == [0.0, 0.0, 0.0]
        assert desk_env.trace[-1]["satellite"] == 0

    def test_unavailable_satellite_rejected(self, desk_env):
        desk_env.reset(9)
        blocked = np.flatnonzero(~desk_env.current_mask)
        assert blocked.size > 0
        sat = int(blocked[0])
        last_scheme = (desk_env.n_schemes - 1) * desk_env.n_satellites
        # Agent indices of the first and last scheme, then the max-power index.
        for action in (sat, last_scheme + sat, desk_env.idle_index + sat + 1):
            with pytest.raises(IllegalActionError):
                desk_env.step(action)

    def test_step_after_done_rejected(self, desk_env):
        desk_env.reset(4)
        while not desk_env.done:
            desk_env.step(first_available_action(desk_env))
        with pytest.raises(StateError):
            desk_env.step(desk_env.idle_index)


class TestTraceConsistency:
    def test_reward_sums_match_objectives(self, desk_env):
        # The oracle's scalar rewards against the objectives' array rule.
        rewards = run_episode(desk_env, 31, lambda env, s: first_available_action(env))
        f1, f2, f3 = episode_objectives(desk_env.trace, desk_env.scenario)
        n_slots = desk_env.scenario.n_slots
        rho1, rho2, rho3 = reward_weights(desk_env.scenario)
        rate_sum = sum(r[0] for r in rewards) / rho1
        energy_sum = -sum(r[1] for r in rewards) / rho2
        switch_sum = -sum(r[2] for r in rewards) / rho3
        assert rate_sum == pytest.approx(f1 * n_slots, rel=1e-9, abs=1e-12)
        assert energy_sum == pytest.approx(f2 * n_slots, rel=1e-9)
        assert switch_sum == pytest.approx(f3 * n_slots)

    def test_trajectories_bit_for_bit_reproducible(self):
        def run(seed):
            env = DcbUplinkEnv(desk_scenario())
            run_episode(env, seed, lambda e, s: first_available_action(e))
            return env.trace

        a, b = run(77), run(77)
        assert a.dtype == b.dtype == TRACE_DTYPE
        assert a.tobytes() == b.tobytes()
        assert episode_objectives(a, desk_scenario()) == episode_objectives(b, desk_scenario())

    def test_trace_rows_are_the_steps(self, desk_env):
        desk_env.reset(6)
        while not desk_env.done:
            slot, n_available = desk_env.slot, int(desk_env.current_mask.sum())
            desk_env.step(first_available_action(desk_env))
            row = desk_env.trace[-1]
            assert len(desk_env.trace) == slot + 1
            assert (row["slot"], row["n_available"]) == (slot, n_available)
        with pytest.raises(ValueError):
            desk_env.trace[0] = desk_env.trace[1]

    def test_finished_trace_survives_the_next_episode(self, desk_env):
        first = run_baseline_episode(BaselineKind.ARGP, desk_env, 1)
        kept = first.copy()
        run_baseline_episode(BaselineKind.RANDOM, desk_env, 2)
        assert first.tobytes() == kept.tobytes()


class TestEpisodeObjectives:
    SIXTY_SLOTS = dataclasses.replace(desk_scenario(), n_slots=60)

    @staticmethod
    def transmitting_trace(n_slots):
        trace = np.zeros(n_slots, TRACE_DTYPE)
        trace["slot"] = np.arange(n_slots)
        trace["satellite"] = trace["scheme"] = trace["n_available"] = 1
        return trace

    def test_all_idle_episode(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=1.0)
        env = DcbUplinkEnv(scenario)
        env.reset(0)
        while not env.done:
            env.step(env.idle_index)
        assert episode_objectives(env.trace, scenario) == (0.0, 0.0, 0.0)

    def test_single_switch_rate(self):
        trace = self.transmitting_trace(60)
        trace["switched"][30] = 1
        _, _, f3 = episode_objectives(trace, self.SIXTY_SLOTS)
        assert f3 == pytest.approx(1 / 60)

    def test_switching_every_slot_gives_f3_of_one(self):
        trace = self.transmitting_trace(60)
        trace["switched"] = 1
        assert episode_objectives(trace, self.SIXTY_SLOTS)[2] == 1.0

    def test_constant_rate_above_threshold(self):
        rate = 2.5e5
        assert rate > self.SIXTY_SLOTS.rate_threshold
        trace = self.transmitting_trace(60)
        trace["rate_bps"] = rate
        f1, _, _ = episode_objectives(trace, self.SIXTY_SLOTS)
        assert f1 == pytest.approx(rate)

    def test_incomplete_episode_rejected(self, desk_env):
        desk_env.reset(2)
        desk_env.step(first_available_action(desk_env))
        with pytest.raises(StateError, match="1 of 30 slots"):
            episode_objectives(desk_env.trace, desk_env.scenario)

    @pytest.mark.parametrize("build", [micro_scenario, desk_scenario, default_scenario])
    def test_equal_to_running_sums_oracle(self, build):
        scenario = build()
        env = DcbUplinkEnv(scenario)
        params = neural.init_params(2, (16, 16), env.n_actions, np.random.default_rng(0))
        for seed in range(4):
            traces = [run_baseline_episode(kind, env, seed) for kind in BaselineKind]
            traces.append(greedy_rollout(params, env, seed))
            for trace in traces:
                f = episode_objectives(trace, scenario)
                assert f == running_objectives(trace, scenario)
                assert 0.0 <= f[2] <= 1.0


class TestEncodings:
    def test_state_encoding_normalized(self, desk_env):
        state = desk_env.reset(0)
        enc = desk_env.state_encodings[state]
        assert enc[0] == 0.0 and enc[1] == 0.0
        state = desk_env.step(first_available_action(desk_env))
        enc = desk_env.state_encodings[state]
        assert 0.0 < enc[0] <= 1.0
        assert 0.0 < enc[1] <= 1.0

    def test_state_encodings_rows_are_the_encoding_formula(self, desk_env):
        n_slots, n_sats = desk_env.scenario.n_slots, desk_env.n_satellites
        assert desk_env.state_encodings.shape == ((n_slots + 1) * (n_sats + 1), 2)
        assert not desk_env.state_encodings.flags.writeable
        state = desk_env.reset(5)
        slot, prev = 0, 0
        seen = set()
        while True:
            assert type(state) is int
            assert state == desk_env.state == slot * (n_sats + 1) + prev
            assert desk_env.slot == slot
            formula = np.array([slot / n_slots, prev / n_sats])
            assert desk_env.state_encodings[state].tobytes() == formula.tobytes()
            seen.add(state)
            if desk_env.done:
                break
            action = first_available_action(desk_env)
            state = desk_env.step(action)
            slot += 1
            if action != desk_env.idle_index:
                prev = action % n_sats + 1
        assert len(seen) == n_slots + 1

    def test_every_legitimate_index_steps_as_its_divmod(self):
        env = DcbUplinkEnv(dataclasses.replace(desk_scenario(), unavailability=0.0))

        def advance_to(slot):
            env.reset(0)
            for _ in range(slot):
                env.step(env.idle_index)

        stepped = set()
        for slot in range(env.scenario.n_slots):
            advance_to(slot)
            for action in np.flatnonzero(env.legitimate_mask()):
                advance_to(slot)
                env.step(int(action))
                row = env.trace[-1]
                if action == env.idle_index:
                    assert (row["scheme"], row["satellite"]) == (1, 0)
                else:
                    scheme, sat = divmod(int(action), env.n_satellites)
                    assert (row["scheme"], row["satellite"]) == (scheme + 1, sat + 1)
                stepped.add(int(action))
        ever_visible = int(env.visibility.any(axis=0).sum())
        idle_slots = int((~env.visibility.any(axis=1)).any())
        assert len(stepped) == env.n_schemes * ever_visible + idle_slots


class TestFlatActionValidation:
    @pytest.fixture
    def blocked_env(self, desk_env):
        """Desk env at a slot with available and unavailable satellites."""
        desk_env.reset(9)
        assert desk_env.current_mask.any() and not desk_env.current_mask.all()
        return desk_env

    def test_negative_index_rejected_without_stepping(self, blocked_env):
        with pytest.raises(IllegalActionError):
            blocked_env.step(-1)
        assert blocked_env.state == 0
        assert len(blocked_env.trace) == 0

    def test_non_integer_index_rejected(self, blocked_env):
        with pytest.raises(TypeError):
            blocked_env.step(float(blocked_env.idle_index))

    def test_index_past_max_power_tail_rejected(self, blocked_env):
        with pytest.raises(IllegalActionError):
            blocked_env.step(blocked_env.idle_index + blocked_env.n_satellites + 1)

    def test_max_power_index_steps_scheme_zero(self, blocked_env):
        sat = int(np.flatnonzero(blocked_env.current_mask)[0]) + 1
        blocked_env.step(blocked_env.idle_index + sat)
        row = blocked_env.trace[-1]
        assert (row["scheme"], row["satellite"]) == (0, sat)
        assert row["rate_bps"] == blocked_env.rates[0, 0, sat - 1]
        assert row["total_power_w"] == blocked_env.n_terminals * blocked_env.scenario.rf.p_max


class TestGeometryOracles:
    @pytest.mark.parametrize("build", [micro_scenario, desk_scenario, default_scenario])
    def test_array_geometry_matches_scalar_oracles(self, build):
        scenario = build()
        env = DcbUplinkEnv(scenario)
        frame = GroundFrame(scenario.reference_longitude, scenario.constants)
        terminals = np.array([[x, y, 0.0] for x, y in scenario.terminals])
        centroid = terminals.mean(axis=0)
        rng = np.random.default_rng(0)
        for t in rng.integers(scenario.n_slots, size=5):
            for j in rng.integers(scenario.n_satellites, size=5):
                elements = scenario.constellation[j]
                local = frame.to_local(
                    position_at(elements, int(t), scenario.slot_seconds, scenario.constants)
                )
                assert np.allclose(env._sat_local[t, j], local, rtol=1e-12, atol=1e-6)
                assert env.visibility[t, j] == is_geometrically_visible(
                    local, centroid, scenario.min_elevation
                )
                for i, terminal in enumerate(terminals):
                    assert env.distances[t, j, i] == pytest.approx(
                        link_distance(terminal, local), rel=1e-12
                    )


class TestP2Table:
    @pytest.fixture(scope="class", params=[desk_scenario, default_scenario])
    def table_env(self, request):
        return DcbUplinkEnv(request.param(42))

    def test_nan_exactly_where_not_visible(self, table_env):
        hidden = np.broadcast_to(~table_env.visibility[:, None, :], table_env.rates.shape)
        assert np.array_equal(np.isnan(table_env.rates), hidden)
        assert np.array_equal(np.isnan(table_env.total_powers), hidden)

    def test_every_visible_entry_against_pgd_and_corners(self, table_env):
        env = table_env
        rf, tau = env.scenario.rf, env.scenario.slot_seconds
        slots, sats = np.nonzero(env.visibility)
        visible = env.distances[slots, sats]
        n = env.n_terminals
        for k, scheme in enumerate(env.schemes):
            powers = solve_p2(visible, rf, scheme, tau)
            assert np.array_equal(env.total_powers[slots, k, sats], powers.sum(axis=1))
            for row, (p, d) in enumerate(zip(powers, visible)):
                # The table's rate is the scalar callers' rate, bit for bit.
                assert env.rates[slots[row], k, sats[row]] == achievable_rate(snr(p, d, rf), rf)
                exact = p2_objective(p, d, rf, scheme, tau)
                scale = (
                    scheme.a * rf.rho0 * tau * n * rf.p_max
                    + scheme.b / rf.noise_power * amplitude_gains(d, rf).sum() ** 2 * rf.p_max
                )
                pgd = p2_objective(pgd_p2(d, rf, scheme, tau), d, rf, scheme, tau)
                assert exact <= pgd + 1e-12 * scale
                for corner in (rf.p_min, rf.p_max):
                    assert exact <= p2_objective(np.full(n, corner), d, rf, scheme, tau)

    def test_midpoint_stop_fixed(self):
        # Projected gradient descent stops at its 1.5 W starting midpoint at
        # these entries: its absolute stop test fires where |f| is tiny.
        env = DcbUplinkEnv(desk_scenario(42))
        rf, tau = env.scenario.rf, env.scenario.slot_seconds
        scheme = env.schemes[5]
        midpoint = np.full(env.n_terminals, 0.5 * (rf.p_min + rf.p_max))
        for slot, sat in [(0, 1), (21, 9)]:
            d = env.distances[slot, sat - 1]
            assert pgd_p2(d, rf, scheme, tau).sum() == 15.0
            exact = p2_objective(solve_p2(d, rf, scheme, tau), d, rf, scheme, tau)
            assert exact < p2_objective(midpoint, d, rf, scheme, tau)
            assert env.total_powers[slot, 5, sat - 1] == env.n_terminals * rf.p_min == 10.0


def _moved(scenario, section, name):
    """``scenario`` with one input moved: an orbit angle of ``constellation[0]``
    by +0.1 rad, ``p_min`` x1.2 (it stays below ``p_max``), any other x1.5."""
    if section == "constellation[0]":
        sat = scenario.constellation[0]
        value = getattr(sat, name) * 1.5 if name == "altitude" else getattr(sat, name) + 0.1
        moved = (dataclasses.replace(sat, **{name: value}), *scenario.constellation[1:])
        return dataclasses.replace(scenario, constellation=moved)
    part = getattr(scenario, section)
    value = getattr(part, name) * (1.2 if name == "p_min" else 1.5)
    return dataclasses.replace(scenario, **{section: dataclasses.replace(part, **{name: value})})


_MICRO = micro_scenario()
SECTION_INPUTS = [
    (section, field.name)
    for section, part in (("constants", _MICRO.constants), ("rf", _MICRO.rf),
                          ("constellation[0]", _MICRO.constellation[0]))
    for field in dataclasses.fields(part)
]


@pytest.mark.parametrize(
    ("section", "name"), SECTION_INPUTS, ids=[f"{s}.{n}" for s, n in SECTION_INPUTS]
)
def test_every_section_input_changes_the_env(section, name):
    # An input that moves none of the env's tables is one that nothing reads.
    def tables(scenario):
        env = DcbUplinkEnv(scenario)
        return [getattr(env, table).tobytes() for table in
                ("visibility", "distances", "rates", "total_powers", "reward_scale")]

    assert tables(_moved(_MICRO, section, name)) != tables(_MICRO)
