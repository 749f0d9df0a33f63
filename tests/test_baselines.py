import dataclasses

import numpy as np
import pytest

from leodcb import channel
from leodcb.baselines import (
    BaselineKind,
    argp_action,
    random_policy_action,
    run_baseline_episode,
)
from leodcb.env import DcbUplinkEnv
from leodcb.scenario import desk_scenario, micro_scenario
from leodcb.seeding import stream


@pytest.fixture(scope="module")
def desk_env():
    return DcbUplinkEnv(desk_scenario())


def slots_with(env, seed, condition):
    """Reset ``env`` and step IDLE through the episode, yielding at each
    slot whose drawn mask meets ``condition``."""
    env.reset(seed)
    while not env.done:
        if condition(env.current_mask.sum()):
            yield env.current_mask
        env.step(env.idle_index)


class TestArgpAction:
    def test_single_available_satellite(self, desk_env):
        cases = 0
        for seed in range(3):
            for mask in slots_with(desk_env, seed, lambda n: n == 1):
                sat = int(np.flatnonzero(mask)[0]) + 1
                # The max-power corner on the one available satellite.
                assert argp_action(desk_env) == desk_env.idle_index + sat
                cases += 1
        assert cases > 0

    def test_prefers_nearer_satellite(self, desk_env):
        cases = 0
        for seed in range(3):
            for mask in slots_with(desk_env, seed, lambda n: n >= 2):
                available = np.flatnonzero(mask)
                mean_d = desk_env.distances[desk_env.slot].mean(axis=1)
                nearest = int(available[np.argmin(mean_d[available])]) + 1
                assert argp_action(desk_env) - desk_env.idle_index == nearest
                cases += 1
        assert cases > 0

    def test_idle_when_empty(self):
        env = DcbUplinkEnv(dataclasses.replace(desk_scenario(), unavailability=1.0))
        env.reset(0)
        while not env.done:
            assert argp_action(env) == env.idle_index
            env.step(env.idle_index)

    def test_per_slot_rate_dominates_all_legitimate_actions(self):
        # Exhaustive comparison: the greedy max-power rate is an upper bound
        # on what any scheme/satellite pair can achieve in the same slot.
        scenario = desk_scenario()
        env = DcbUplinkEnv(scenario)
        env.reset(13)
        while not env.done:
            mask = env.current_mask.copy()
            slot = env.slot
            env.step(argp_action(env))
            argp_rate = env.trace[-1]["rate_bps"]
            for alt in range(1, scenario.n_satellites + 1):
                if not mask[alt - 1]:
                    continue
                for k in range(1, scenario.n_schemes + 1):
                    assert argp_rate >= env.rates[slot, k, alt - 1] - 1e-9


class TestNonDcb:
    def test_rate_matches_single_terminal_closed_form(self):
        scenario = micro_scenario()
        trace = run_baseline_episode(BaselineKind.NON_DCB, DcbUplinkEnv(scenario), seed=3)
        single = scenario.subset_terminals([0])
        env = DcbUplinkEnv(single)
        rf = scenario.rf
        for row in trace:
            if row["satellite"] == 0:
                continue
            d = env.distances[row["slot"], row["satellite"] - 1][0]
            expected = channel.achievable_rate(
                channel.snr([rf.p_max], [d], rf), rf
            )
            assert row["rate_bps"] == pytest.approx(expected, rel=1e-12)
            assert row["total_power_w"] == rf.p_max

    def test_colocated_coherent_gain(self):
        # All terminals at the same point: the array SNR is exactly N^2
        # times the single-terminal SNR, slot by slot.
        base = micro_scenario()
        n = 5
        scenario = dataclasses.replace(base, terminals=((0.0, 0.0),) * n)
        seed = 11
        env = DcbUplinkEnv(scenario)
        dcb = run_baseline_episode(BaselineKind.ARGP, env, seed)
        single = run_baseline_episode(BaselineKind.NON_DCB, env, seed)
        rf = scenario.rf
        for row_d, row_s in zip(dcb, single):
            assert row_d["satellite"] == row_s["satellite"]
            if row_d["satellite"] == 0:
                continue
            snr_dcb = 2.0 ** (row_d["rate_bps"] / rf.bandwidth) - 1.0
            snr_one = 2.0 ** (row_s["rate_bps"] / rf.bandwidth) - 1.0
            assert snr_dcb / snr_one == pytest.approx(n * n, rel=1e-9)

    def test_regime_separation_at_default_geometry(self):
        # Array rates clear the threshold; the lone terminal never does.
        scenario = desk_scenario()
        seed = 29
        env = DcbUplinkEnv(scenario)
        argp = run_baseline_episode(BaselineKind.ARGP, env, seed)
        single = run_baseline_episode(BaselineKind.NON_DCB, env, seed)
        argp_rates = argp["rate_bps"][argp["satellite"] != 0]
        assert argp_rates.size, "expected at least one transmitting slot"
        assert argp_rates.min() > scenario.rate_threshold
        assert single["rate_bps"].max() < scenario.rate_threshold


class TestRandomPolicy:
    def test_idle_when_mask_empty(self):
        scenario = dataclasses.replace(desk_scenario(), unavailability=1.0)
        env = DcbUplinkEnv(scenario)
        env.reset(0)
        assert random_policy_action(env, stream(0, "test-random")) == env.idle_index

    def test_never_unavailable(self):
        env = DcbUplinkEnv(desk_scenario())
        trace = run_baseline_episode(BaselineKind.RANDOM, env, 5)
        for row in trace:
            if row["satellite"] != 0:
                assert env.visibility[row["slot"], row["satellite"] - 1]

    def test_uniform_over_legitimate_actions(self, desk_env):
        desk_env.reset(41)
        legit = desk_env.legitimate_mask()
        rng = stream(7, "uniformity")
        n_draws = 10_000
        counts = {}
        for _ in range(n_draws):
            a = random_policy_action(desk_env, rng)
            assert legit[a]
            counts[a] = counts.get(a, 0) + 1
        m = int(legit.sum())
        expected = n_draws / m
        sigma = np.sqrt(n_draws * (1 / m) * (1 - 1 / m))
        for key in counts:
            assert abs(counts[key] - expected) <= 3.5 * sigma
        assert len(counts) == m


class TestBaselineMaskSafety:
    @pytest.mark.parametrize("kind", [BaselineKind.ARGP, BaselineKind.RANDOM])
    def test_never_violates_mask(self, kind):
        scenario = desk_scenario()
        env = DcbUplinkEnv(scenario)
        # run_baseline_episode raises IllegalActionError on any violation
        for seed in range(5):
            trace = run_baseline_episode(kind, env, seed)
            assert len(trace) == scenario.n_slots
