import dataclasses

import numpy as np
import pytest

from leodcb import neural
from leodcb.agent import AgentConfig
from leodcb.emodrl import (
    EmodrlConfig,
    LearningTask,
    ParetoArchive,
    PerformanceBufferBank,
    dominates,
    generate_weights,
    hypervolume,
    run,
    task_selection,
    tpu,
)
from leodcb.env import DcbUplinkEnv
from leodcb.errors import ConfigError, DomainError
from leodcb.scenario import micro_scenario


class _StubAgent:
    """Carries params only; enough for archive/population bookkeeping."""

    _params = None

    def __init__(self):
        if _StubAgent._params is None:
            _StubAgent._params = neural.init_params(2, (3,), 2, np.random.default_rng(0))
        self.params = _StubAgent._params

    def clone(self):
        return _StubAgent()


def stub_task(objectives, weight=(1 / 3, 1 / 3, 1 / 3)):
    return LearningTask(
        weight=np.array(weight),
        agent=_StubAgent(),
        objectives=np.asarray(objectives, dtype=float),
    )


def brute_force_nondominated(points):
    points = [np.asarray(p) for p in points]
    keep = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            keep.append(tuple(p))
    return set(keep)


def tiny_emodrl_config(**overrides):
    agent = AgentConfig(
        epsilon_decay_iters=None,
        replay_capacity=200,
        batch_size=8,
        target_sync_period=10,
        grad_steps_per_iteration=2,
        learning_rate=1e-3,
        hidden_sizes=(8, 8),
    )
    base = dict(
        n_tasks=2, t_warm=2, t_task=1, t_evo=2,
        buffer_count=5, buffer_size=2, eval_episodes=1, agent=agent,
    )
    base.update(overrides)
    return EmodrlConfig(**base)


class TestGenerateWeights:
    def test_three_gives_clamped_corners(self):
        weights = generate_weights(3)
        assert len(weights) == 3
        corner_hits = 0
        for w in weights:
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w > 0)
            if w.max() > 0.99:
                corner_hits += 1
        assert corner_hits == 3
        # Permutation symmetric: each axis is some vector's max component.
        assert {int(np.argmax(w)) for w in weights} == {0, 1, 2}

    def test_all_sum_to_one(self):
        for w in generate_weights(25):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_paper_task_count(self):
        assert len(generate_weights(10)) == 10

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            generate_weights(0)


class TestDominates:
    def test_strictly_better(self):
        assert dominates([2, 2, 2], [1, 1, 1])

    def test_incomparable(self):
        assert not dominates([2, 1, 2], [1, 2, 1])
        assert not dominates([1, 2, 1], [2, 1, 2])

    def test_not_self_dominating(self):
        assert not dominates([1.5, 2.0, 0.0], [1.5, 2.0, 0.0])


class TestArchive:
    def test_insert_into_empty(self):
        archive = ParetoArchive()
        assert archive.update([stub_task([1, 1, 1])]) == 1
        assert len(archive) == 1

    def test_dominated_candidate_ignored(self):
        archive = ParetoArchive()
        archive.update([stub_task([2, 2, 2])])
        assert archive.update([stub_task([1, 1, 1])]) == 0
        assert len(archive) == 1

    def test_dominating_candidate_evicts(self):
        archive = ParetoArchive()
        archive.update([stub_task([1, 1, 1]), stub_task([0.5, 2, 1])])
        archive.update([stub_task([2, 2, 2])])
        objectives = {tuple(m.objectives) for m in archive.members}
        assert (1.0, 1.0, 1.0) not in objectives
        assert (2.0, 2.0, 2.0) in objectives
        assert (0.5, 2.0, 1.0) not in objectives  # dominated by (2,2,2)

    def test_equal_candidate_skipped_and_first_member_kept(self):
        archive = ParetoArchive()
        first = stub_task([1, 2, 3])
        assert archive.update([first, stub_task([1, 2, 3]), stub_task([3, 2, 1])]) == 2
        assert archive.update([stub_task([1.0, 2.0, 3.0])]) == 0
        assert [tuple(m.objectives) for m in archive.members] == [(1, 2, 3), (3, 2, 1)]
        assert np.array_equal(archive.members[0].params.flat, first.agent.params.flat)

    def test_random_stream_matches_brute_force(self):
        rng = np.random.default_rng(42)
        stream_points = rng.random(size=(50, 3))
        archive = ParetoArchive()
        for p in stream_points:
            archive.update([stub_task(p)])
        archived = {tuple(m.objectives) for m in archive.members}
        assert archived == brute_force_nondominated(stream_points)
        for i, a in enumerate(archive.members):
            for j, b in enumerate(archive.members):
                if i != j:
                    assert not dominates(a.objectives, b.objectives)

    def test_snapshots_frozen_against_later_training(self):
        archive = ParetoArchive()
        task = stub_task([1, 1, 1])
        archive.update([task])
        task.agent.params.trunk_weights[0][:] = 123.0
        member = archive.members[0]
        assert not np.any(member.params.trunk_weights[0] == 123.0)


class TestBufferBank:
    def test_requires_reference_point(self):
        bank = PerformanceBufferBank(3, 1)
        with pytest.raises(ConfigError):
            tpu([], [stub_task([1, 0, 0])], bank)

    def test_single_task_population(self):
        bank = PerformanceBufferBank(3, 1)
        task = stub_task([1, 0.5, 0.2])
        bank.observe([task.objectives])
        population = tpu([], [task], bank)
        assert population == [task]

    def test_capacity_rule_keeps_one_of_identical(self):
        bank = PerformanceBufferBank(3, 1)
        a, b = stub_task([1, 1, 1]), stub_task([1, 1, 1])
        bank.observe([a.objectives, b.objectives])
        population = tpu([a], [b], bank)
        assert len(population) == 1

    def test_axis_tasks_land_in_axis_buffers(self):
        # Directions from generate_weights(3) are the clamped simplex
        # corners, so each near-axis objective vector must align with its
        # own direction (argmax computed by hand).
        bank = PerformanceBufferBank(3, 2)
        tasks = [
            stub_task([1.0, 0.01, 0.01]),
            stub_task([0.01, 1.0, 0.01]),
            stub_task([0.01, 0.01, 1.0]),
        ]
        bank.observe([t.objectives for t in tasks])
        population = tpu([], tasks, bank)
        assert len(population) == 3  # one per buffer, none evicted

    def test_population_bound(self):
        bank = PerformanceBufferBank(2, 2)
        rng = np.random.default_rng(3)
        tasks = [stub_task(rng.random(3)) for _ in range(20)]
        bank.observe([t.objectives for t in tasks])
        population = tpu([], tasks, bank)
        assert len(population) <= bank.buffer_count * bank.buffer_size

    def test_nadir_is_running_minimum(self):
        bank = PerformanceBufferBank(2, 2)
        bank.observe([np.array([1.0, 5.0, -2.0])])
        bank.observe([np.array([3.0, 2.0, -1.0])])
        assert np.array_equal(bank.z_ref, [1.0, 2.0, -2.0])


class TestTaskSelection:
    def test_singleton_population_selected_for_every_weight(self):
        population = [stub_task([1, 2, 3])]
        weights = generate_weights(4)
        selected = task_selection(weights, population)
        assert len(selected) == 4
        for task, w in zip(selected, weights):
            assert np.array_equal(task.weight, w)
            assert np.array_equal(task.objectives, population[0].objectives)

    def test_rate_weight_picks_best_rate(self):
        population = [
            stub_task([5.0, -3.0, -1.0]),
            stub_task([9.0, -8.0, -2.0]),
            stub_task([2.0, -0.1, 0.0]),
        ]
        (picked,) = task_selection([np.array([1.0, 0.0, 0.0])], population)
        assert picked.objectives[0] == 9.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        objectives = rng.normal(size=(6, 3))
        weights = generate_weights(5)
        base = task_selection(weights, [stub_task(f) for f in objectives])
        scaled = task_selection(weights, [stub_task(4.0 * f) for f in objectives])
        for a, b in zip(base, scaled):
            assert np.array_equal(4.0 * a.objectives, b.objectives)

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError):
            task_selection(generate_weights(2), [])


class TestHypervolume:
    def test_unit_cube_point(self):
        assert hypervolume([[1, 1, 1]], [0, 0, 0]) == pytest.approx(1.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([[2, 2, 2]], [0, 0, 0])
        both = hypervolume([[2, 2, 2], [1, 1, 1]], [0, 0, 0])
        assert both == pytest.approx(base)

    def test_two_point_inclusion_exclusion(self):
        # 2 + 2 - 1 by hand.
        assert hypervolume([[1, 2, 1], [2, 1, 1]], [0, 0, 0]) == pytest.approx(3.0)

    def test_insertion_never_decreases(self):
        rng = np.random.default_rng(6)
        ref = np.zeros(3)
        points = []
        last = 0.0
        for _ in range(25):
            points.append(rng.random(3) + 0.01)
            current = hypervolume(points, ref)
            assert current >= last - 1e-12
            last = current

    def test_reference_must_be_dominated(self):
        with pytest.raises(DomainError):
            hypervolume([[1, 1, -1]], [0, 0, 0])


class TestRun:
    def test_zero_generations_returns_warmup_archive(self):
        result = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config(t_evo=0))
        assert len(result.generations) == 1
        assert result.generations[0].generation == 0
        assert len(result.archive) >= 1

    def test_desk_scale_invariants(self):
        result = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        archive = result.archive
        assert len(archive) >= 1
        for i, a in enumerate(archive.members):
            for j, b in enumerate(archive.members):
                if i != j:
                    assert not dominates(a.objectives, b.objectives)
        volumes = [g.hypervolume for g in result.generations]
        assert all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))
        for record in result.generations:
            bound = 5 * 2  # buffer_count * buffer_size
            assert record.population_size <= max(bound, 2)

    def test_reproducible_from_master_seed(self):
        first = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        second = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        assert np.array_equal(first.archive.objective_matrix(), second.archive.objective_matrix())
        assert [g.hypervolume for g in first.generations] == [
            g.hypervolume for g in second.generations
        ]

    def test_live_task_weights_on_strict_simplex(self):
        result = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        for member in result.archive.members:
            assert np.all(member.weight > 0)
            assert member.weight.sum() == pytest.approx(1.0, abs=1e-9)

    def test_one_env_serves_every_task_and_the_evaluation(self, monkeypatch):
        env = DcbUplinkEnv(micro_scenario())
        built, stepped = [], set()
        init, step = DcbUplinkEnv.__init__, DcbUplinkEnv.step

        def counting_init(self, scenario):
            built.append(scenario)
            init(self, scenario)

        def recording_step(self, action):
            stepped.add(id(self))
            return step(self, action)

        monkeypatch.setattr(DcbUplinkEnv, "__init__", counting_init)
        monkeypatch.setattr(DcbUplinkEnv, "step", recording_step)
        run(env, tiny_emodrl_config())
        assert built == []
        assert stepped == {id(env)}

    def test_different_seed_changes_training(self):
        base = micro_scenario()
        other = dataclasses.replace(base, master_seed=base.master_seed + 1)
        first = run(DcbUplinkEnv(base), tiny_emodrl_config())
        second = run(DcbUplinkEnv(other), tiny_emodrl_config())
        assert not np.array_equal(
            first.archive.objective_matrix(), second.archive.objective_matrix()
        )
