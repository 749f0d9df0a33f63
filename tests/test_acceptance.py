"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). Heavy desk-scale training runs are shared through a
session-scoped cache so the whole suite stays within its runtime budget.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from oracles import (
    assert_pairwise_nondominated,
    dominates,
    grid_search_p2,
    make_rf,
    max_relative_error,
    numeric_gradients,
    orbital_period,
    p2_objective,
)

from leodcb import channel, emodrl, neural
from leodcb.agent import GAMMA, AgentConfig, EnhancedD3qnAgent, greedy_rollout, select_action
from leodcb.baselines import BaselineKind, run_baseline_episode
from leodcb.channel import snr, solve_p2, weight_set
from leodcb.emodrl import EmodrlConfig
from leodcb.env import DcbUplinkEnv, episode_objectives
from leodcb.harness import replay_policy, select_policy
from leodcb.orbits import OrbitalElements, PhysicalConstants, position_at
from leodcb.scenario import Scenario, default_scenario, desk_scenario
from leodcb.seeding import stream

CONSTANTS = PhysicalConstants()

# sqrt(G*M_e / H^3) evaluated by hand with the scenario constants
# (R_e = 6.371e6 m, G = 6.674e-11, M_e = 5.972e24 kg) before building.
EXPECTED_PERIOD_500KM = 5668.351722522655

DESK_SEEDS = (42, 43, 44)


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {description}  {detail}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def desk_emodrl_config():
    """Criterion 7 shape: N = 4 tasks, T_warm = 20, T_task = 5, T_evo = 20."""
    return EmodrlConfig(
        n_tasks=4, t_warm=20, t_task=5, t_evo=20,
        buffer_count=50, buffer_size=2, eval_episodes=2,
        agent=AgentConfig(
            replay_capacity=20_000, batch_size=64, target_sync_period=100,
            grad_steps_per_iteration=16, learning_rate=1e-3, hidden_sizes=(64, 64),
        ),
    )


@pytest.fixture(scope="session")
def desk_run_cache(tmp_path_factory):
    cache = {}

    def get(seed):
        if seed not in cache:
            scenario = desk_scenario(master_seed=seed)
            snapshots = tmp_path_factory.mktemp(f"desk_{seed}")
            started = time.perf_counter()
            result = emodrl.run(DcbUplinkEnv(scenario), desk_emodrl_config(), snapshots)
            cache[seed] = (scenario, result, time.perf_counter() - started)
        return cache[seed]

    return get


def test_criterion_1_orbit_oracle():
    started = time.perf_counter()
    elements = OrbitalElements(0.0, 0.0, 0.0, 0.0, 5e5)
    period = orbital_period(elements, CONSTANTS)
    period_ok = abs(period - EXPECTED_PERIOD_500KM) < 1e-3 * EXPECTED_PERIOD_500KM

    tilted = OrbitalElements(0.3, 1.2, 0.4, 0.0, 5e5)
    slot_seconds = 60.0
    period_slots = orbital_period(tilted, CONSTANTS) / slot_seconds
    radius = tilted.altitude + CONSTANTS.earth_radius
    rng = np.random.default_rng(1)
    worst = 0.0
    for t in rng.uniform(0, 100, size=10):
        a = position_at(tilted, t, slot_seconds, CONSTANTS)
        b = position_at(tilted, t + period_slots, slot_seconds, CONSTANTS)
        worst = max(worst, float(np.max(np.abs(a - b))))
    periodicity_ok = worst < 1e-6 * radius
    elapsed = time.perf_counter() - started
    _report(
        1, "orbit period and positional periodicity",
        period_ok and periodicity_ok and elapsed < 1.0,
        f"period={period:.1f}s (expected {EXPECTED_PERIOD_500KM:.1f}), "
        f"max periodic error={worst:.3e} m, {elapsed:.2f}s",
    )


def test_criterion_2_coherent_gain_law():
    started = time.perf_counter()
    rf = make_rf(10)
    single = snr([2.0], [5e5], rf)
    combined = snr(np.full(10, 2.0), np.full(10, 5e5), rf)
    ratio = combined / single
    elapsed = time.perf_counter() - started
    _report(
        2, "coherent gain SNR(10)/SNR(1) = 100",
        abs(ratio - 100.0) < 1e-9 * 100.0 and elapsed < 1.0,
        f"ratio={ratio!r}, {elapsed:.2f}s",
    )


def test_criterion_3_p2_grid_oracle():
    started = time.perf_counter()
    rf = make_rf(3)
    schemes = weight_set(10)
    worst_gap = -math.inf
    for instance in range(20):
        rng = np.random.default_rng(500 + instance)
        distances = rng.uniform(5e5, 3e6, size=3)
        scheme = schemes[instance % 10]
        powers = solve_p2(distances, rf, scheme, 60.0)
        achieved = p2_objective(powers, distances, rf, scheme, 60.0)
        oracle = grid_search_p2(distances, rf, scheme, 60.0)
        worst_gap = max(worst_gap, achieved - oracle)
    elapsed = time.perf_counter() - started
    _report(
        3, "power solver within 1e-4 of 201^3 grid search on 20 instances",
        worst_gap <= 1e-4 and elapsed < 60.0,
        f"worst objective gap={worst_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for draw in range(100):
        rng = np.random.default_rng(2000 + draw)
        hidden = tuple(int(h) for h in rng.integers(3, 7, size=rng.integers(1, 3)))
        params = neural.init_params(2, hidden, int(rng.integers(2, 6)), rng)
        x = rng.normal(size=(4, 2))
        actions = rng.integers(params.n_actions, size=4)
        targets = rng.normal(size=4)
        analytic, _ = neural.backward(params, x, actions, targets)
        numeric = numeric_gradients(params, x, actions, targets)
        worst = max(worst, max_relative_error(analytic.flat, numeric))
    elapsed = time.perf_counter() - started
    _report(
        4, "analytic gradients vs central differences on 100 nets",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error={worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_5_mask_safety():
    started = time.perf_counter()
    env = DcbUplinkEnv(desk_scenario())
    params = neural.init_params(2, (16, 16), env.n_actions, np.random.default_rng(0))
    rng = stream(123, "mask-safety")
    steps = 0
    violations = 0
    seed = 0
    while steps < 100_000:
        state = env.reset(seed)
        seed += 1
        while not env.done:
            epsilon = (steps % 100) / 100.0  # sweep the whole mix
            mask = env.legitimate_mask()
            action = select_action(params, env.state_encodings[state : state + 1], mask, epsilon, rng)
            if not mask[action]:
                violations += 1
            # Availability checked from the index layout, apart from the mask.
            satellite = action % env.n_satellites
            if action != env.idle_index and not env.current_mask[satellite]:
                violations += 1
            state = env.step(action)
            steps += 1
    elapsed = time.perf_counter() - started
    _report(
        5, "zero unavailable-satellite selections over 1e5 masked steps",
        violations == 0 and elapsed < 60.0,
        f"steps={steps}, violations={violations}, {elapsed:.1f}s",
    )


def micro_mdp_scenario() -> Scenario:
    """2 slots, 2 satellites, 2 schemes, deterministic availability."""
    constellation = (
        OrbitalElements(0.0, 0.0, -0.05, 0.0, 1e6),
        OrbitalElements(0.0, 0.0, 0.08, 0.0, 1e6),
    )
    beta0 = channel.free_space_reference_gain(2.4e9)
    noise = 10.0 ** (-157.0 / 10.0) * 1e-3 * 1e7
    # Reference distance beyond both links so the balanced scheme picks max
    # power and the energy scheme picks min power: scheme choice matters.
    rho0 = channel.default_rho0(beta0, 2.0, noise, 2.0, 1.2e6, 60.0, 4)
    return Scenario(
        constants=PhysicalConstants(),
        constellation=constellation,
        terminals=((10.0, 5.0), (-8.0, 2.0), (3.0, -7.0), (-1.0, 9.0)),
        rf=channel.RfConstants(beta0, 2.0, noise, 1e7, 1.0, 2.0, rho0),
        n_slots=2,
        slot_seconds=60.0,
        rate_threshold=2e3,
        unavailability=0.0,
        min_elevation=math.radians(10.0),
        n_schemes=2,
        master_seed=5,
    )


def _scalarized_return(env, trace, weight, gamma):
    total, discount = 0.0, 1.0
    for reward in env.rewards(trace):
        total += discount * float(reward @ weight)
        discount *= gamma
    return total


def _scalarized_rollout(scenario, actions, weight, gamma):
    env = DcbUplinkEnv(scenario)
    env.reset(0)
    for action in actions:
        env.step(action)
    return _scalarized_return(env, env.trace, weight, gamma)


def _greedy_scalarized_return(params, scenario, weight, gamma):
    env = DcbUplinkEnv(scenario)
    return _scalarized_return(env, greedy_rollout(params, env, 0), weight, gamma)


def test_criterion_6_micro_mdp_optimality():
    started = time.perf_counter()
    scenario = micro_mdp_scenario()
    weight = np.array([0.7, 0.15, 0.15])
    gamma = GAMMA   # the agent's discount, 0.96

    # Exact DP by exhaustive enumeration: the environment is deterministic,
    # so action sequences cover all policies.
    probe = DcbUplinkEnv(scenario)
    probe.reset(0)
    optimal = -math.inf
    for first in np.flatnonzero(probe.legitimate_mask()):
        probe.reset(0)
        probe.step(first)
        for second in np.flatnonzero(probe.legitimate_mask()):
            optimal = max(
                optimal, _scalarized_rollout(scenario, (first, second), weight, gamma)
            )

    env = DcbUplinkEnv(scenario)
    config = AgentConfig(
        epsilon_decay_iters=100, replay_capacity=2_000,
        batch_size=32, target_sync_period=50, grad_steps_per_iteration=16,
        learning_rate=1e-3, hidden_sizes=(32, 32),
    )
    agent = EnhancedD3qnAgent.create(config, env.n_actions, stream(5, "micro-mdp-agent"))
    converged_at = None
    for iteration in range(1, 201):
        agent.train_iteration(env, weight)
        if iteration % 10 == 0:
            value = _greedy_scalarized_return(agent.params, scenario, weight, gamma)
            if abs(value - optimal) <= 0.01 * abs(optimal):
                converged_at = iteration
                break
    final = _greedy_scalarized_return(agent.params, scenario, weight, gamma)
    elapsed = time.perf_counter() - started
    _report(
        6, "greedy policy within 1% of exact DP in <= 200 iterations",
        converged_at is not None and elapsed < 120.0,
        f"converged at iteration {converged_at}, value={final:.4f} "
        f"vs optimal={optimal:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_archive_soundness_and_monotonicity(desk_run_cache):
    scenario, result, run_seconds = desk_run_cache(DESK_SEEDS[0])
    assert_pairwise_nondominated(result.archive.objectives)
    volumes = [g.hypervolume for g in result.generations]
    monotone = all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))
    _report(
        7, "desk-run archive nondominated, hypervolume nondecreasing",
        len(result.archive) >= 1 and monotone and run_seconds < 900.0,
        f"|archive|={len(result.archive)}, generations={len(volumes)}, "
        f"hv {volumes[0]:.3g} -> {volumes[-1]:.3g}, run {run_seconds:.0f}s",
    )


class DuplicateKeepingArchive(emodrl.ParetoArchive):
    """The archive before equal-objective candidates were skipped."""

    def update(self, tasks) -> int:
        added = 0
        for task in tasks:
            candidate = np.asarray(task.objectives, dtype=float)
            if any(dominates(row, candidate) for row in self.objectives):
                continue
            keep = np.array([not dominates(candidate, row) for row in self.objectives],
                            dtype=bool)
            path = self.directory / f"snapshot_{self.insertions:06d}.npz"
            neural.save_params(path, task.agent.params)
            self.insertions += 1
            for old, kept in zip(self.paths, keep):
                if not kept:
                    old.unlink()
            self.objectives = np.vstack([self.objectives[keep], candidate])
            self.weights = np.vstack([self.weights[keep], task.weight])
            self.paths = [p for p, kept in zip(self.paths, keep) if kept] + [path]
            added += 1
        return added


def test_skipping_equal_objectives_keeps_hypervolumes_and_favor_rate(
    desk_run_cache, monkeypatch, tmp_path
):
    scenario, result, _ = desk_run_cache(DESK_SEEDS[0])
    monkeypatch.setattr(emodrl, "ParetoArchive", DuplicateKeepingArchive)
    kept = emodrl.run(DcbUplinkEnv(scenario), desk_emodrl_config(), tmp_path)
    matrix = result.archive.objectives
    assert len(np.unique(matrix, axis=0)) == len(matrix)
    assert np.array_equal(np.unique(kept.archive.objectives, axis=0),
                          np.unique(matrix, axis=0))
    assert [g.hypervolume for g in result.generations] == [
        g.hypervolume for g in kept.generations
    ]
    ours, theirs = (select_policy(r.archive.objectives, "favor-rate") for r in (result, kept))
    assert (result.archive.objectives[ours].tobytes()
            == kept.archive.objectives[theirs].tobytes())
    assert np.array_equal(neural.load_params(result.archive.paths[ours]).flat,
                          neural.load_params(kept.archive.paths[theirs]).flat)


def test_criterion_8_threshold_directionality(tmp_path):
    started = time.perf_counter()
    scenario = default_scenario()
    config = EmodrlConfig(
        n_tasks=2, t_warm=40, t_task=5, t_evo=10,
        buffer_count=10, buffer_size=2, eval_episodes=2,
        agent=AgentConfig(
            replay_capacity=50_000, batch_size=64, target_sync_period=100,
            grad_steps_per_iteration=16, learning_rate=1e-3, hidden_sizes=(64, 64),
        ),
    )
    env = DcbUplinkEnv(scenario)
    result = emodrl.run(env, config, tmp_path)
    favored = neural.load_params(
        result.archive.paths[select_policy(result.archive.objectives, "favor-rate")]
    )

    episode_seed = int(stream(scenario.master_seed, "trace-episode").integers(2**31))
    argp = run_baseline_episode(BaselineKind.ARGP, env, episode_seed)
    non_dcb = run_baseline_episode(BaselineKind.NON_DCB, env, episode_seed)
    policy = greedy_rollout(favored, env, episode_seed)

    threshold = scenario.rate_threshold
    non_dcb_max = non_dcb["rate_bps"].max()
    argp_tx = argp["rate_bps"][argp["satellite"] != 0].tolist()
    policy_tx = policy["rate_bps"][policy["satellite"] != 0].tolist()
    separated = non_dcb_max < threshold < min(argp_tx + policy_tx)
    elapsed = time.perf_counter() - started
    _report(
        8, "non-DCB below threshold every slot; ARGP and favor-rate above in "
           "every transmitting slot",
        separated and len(argp_tx) > 0 and len(policy_tx) > 0 and elapsed < 300.0,
        f"non-DCB max={non_dcb_max:.0f} < thr={threshold:.0f} < "
        f"min tx (argp={min(argp_tx):.0f}, policy={min(policy_tx):.0f}), {elapsed:.0f}s",
    )


def test_criterion_9_near_optimal_rate_low_switching(desk_run_cache):
    started = time.perf_counter()
    outcomes = []
    total_run_seconds = 0.0
    for seed in DESK_SEEDS:
        scenario, result, run_seconds = desk_run_cache(seed)
        total_run_seconds += run_seconds
        favored = result.archive.objectives[select_policy(result.archive.objectives, "favor-rate")]
        env = DcbUplinkEnv(scenario)
        argp = np.zeros(3)
        for eval_seed in result.eval_seeds:
            trace = run_baseline_episode(BaselineKind.ARGP, env, eval_seed)
            argp += episode_objectives(trace, scenario)
        argp /= len(result.eval_seeds)
        ratio = favored[0] / argp[0]
        policy_f3 = -favored[2]
        ok = ratio >= 0.7 and policy_f3 <= argp[2]
        outcomes.append(ok)
        print(
            f"    seed {seed}: f1 ratio={ratio:.3f} (need >= 0.7), "
            f"f3={policy_f3:.3f} vs argp {argp[2]:.3f} -> {'ok' if ok else 'MISS'}"
        )
    elapsed = time.perf_counter() - started + total_run_seconds
    _report(
        9, "favor-rate policy: f1 >= 0.7 x ARGP and f3 <= ARGP on >= 2 of 3 seeds",
        sum(outcomes) >= 2 and elapsed < 2700.0,
        f"passed {sum(outcomes)}/3 seeds, total {elapsed:.0f}s",
    )


def test_criterion_10_terminal_count_portability(desk_run_cache):
    started = time.perf_counter()
    scenario, result, _ = desk_run_cache(DESK_SEEDS[0])
    tendencies = ["favor-rate", "favor-energy", "favor-switching", "balanced"]
    archive = result.archive
    policies = {
        t: neural.load_params(archive.paths[select_policy(archive.objectives, t)])
        for t in tendencies
    }
    replay_seeds = [7, 8]
    rates = {}
    for count in (8, 12):
        modified = scenario.with_overrides(n_terminals=count)
        for tendency, params in policies.items():
            f1, _, _ = replay_policy(params, modified, replay_seeds)
            rates[(tendency, count)] = f1
    ordering_ok = all(
        rates[("favor-rate", count)] >= rates[(t, count)]
        for count in (8, 12)
        for t in tendencies
    )
    elapsed = time.perf_counter() - started
    detail = ", ".join(
        f"N={count}: " + "/".join(f"{rates[(t, count)]:.3g}" for t in tendencies)
        for count in (8, 12)
    )
    _report(
        10, "trained policies replay at N_I in {8, 12}; favor-rate keeps top f1",
        ordering_ok and elapsed < 300.0,
        f"f1 by tendency ({'/'.join(tendencies)}) {detail}, {elapsed:.0f}s",
    )
