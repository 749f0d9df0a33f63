import dataclasses
import re

import numpy as np
import pytest
from oracles import ListArchive, brute_force_nondominated, dominates

from leodcb import emodrl, neural
from leodcb.agent import AgentConfig
from leodcb.emodrl import (
    EmodrlConfig,
    LearningTask,
    ParetoArchive,
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


class TestEmodrlConfig:
    @pytest.mark.parametrize(
        ("field", "value", "constraint"),
        [
            ("n_tasks", 0, "n_tasks >= 1"),
            ("t_warm", 0, "t_warm, t_task >= 1"),
            ("t_task", 0, "t_warm, t_task >= 1"),
            ("t_evo", -1, "t_evo >= 0"),
            ("buffer_count", 0, "buffer_count, buffer_size >= 1"),
            ("buffer_size", 0, "buffer_count, buffer_size >= 1"),
            ("eval_episodes", 0, "eval_episodes >= 1"),
            ("n_tasks", True, "n_tasks is an integer"),
            ("t_warm", 2.5, "t_warm is an integer"),
            ("t_task", "20", "t_task is an integer"),
            ("t_evo", 3.0, "t_evo is an integer"),
            ("buffer_count", None, "buffer_count is an integer"),
            ("buffer_size", np.float64(2.0), "buffer_size is an integer"),
            ("eval_episodes", 1.5, "eval_episodes is an integer"),
            ("agent", None, "agent is an AgentConfig"),
            ("agent", "x", "agent is an AgentConfig"),
        ],
    )
    def test_named_constraint_violated(self, field, value, constraint):
        message = f"emodrl constraint violated: {re.escape(constraint)}"
        with pytest.raises(ConfigError, match=message):
            EmodrlConfig(**{field: value})

    def test_boundary_values_accepted(self):
        EmodrlConfig(n_tasks=1, t_warm=1, t_task=1, t_evo=0, buffer_count=1, buffer_size=1,
                     eval_episodes=1)


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
        objectives = {tuple(f) for f in archive.objectives}
        assert (1.0, 1.0, 1.0) not in objectives
        assert (2.0, 2.0, 2.0) in objectives
        assert (0.5, 2.0, 1.0) not in objectives  # dominated by (2,2,2)

    def test_equal_candidate_skipped_and_first_member_kept(self):
        archive = ParetoArchive()
        first = stub_task([1, 2, 3])
        assert archive.update([first, stub_task([1, 2, 3]), stub_task([3, 2, 1])]) == 2
        assert archive.update([stub_task([1.0, 2.0, 3.0])]) == 0
        assert [tuple(f) for f in archive.objectives] == [(1, 2, 3), (3, 2, 1)]
        assert np.array_equal(archive.params[0].flat, first.agent.params.flat)

    def test_random_stream_matches_brute_force(self):
        rng = np.random.default_rng(42)
        stream_points = rng.random(size=(50, 3))
        archive = ParetoArchive()
        for p in stream_points:
            archive.update([stub_task(p)])
        archived = {tuple(f) for f in archive.objectives}
        assert archived == brute_force_nondominated(stream_points)
        for i, a in enumerate(archive.objectives):
            for j, b in enumerate(archive.objectives):
                if i != j:
                    assert not dominates(a, b)

    def test_empty_by_default_and_rows_must_align(self):
        archive = ParetoArchive()
        assert archive.objectives.shape == archive.weights.shape == (0, 3)
        assert archive.params == [] and len(archive) == 0
        with pytest.raises(DomainError):
            ParetoArchive(objectives=np.zeros((1, 3)), weights=np.zeros((1, 3)))
        with pytest.raises(DomainError):
            ParetoArchive(objectives=np.zeros((1, 2)), weights=np.zeros((1, 2)),
                          params=[_StubAgent().params])

    def test_matches_list_archive_on_streams_with_ties_and_nan(self):
        # Objectives on a coarse grid give exact ties, equal rows and
        # partial dominance; one NaN row per stream is never dominated and
        # never dominates. Each task carries its own params, so the order
        # of the kept snapshots is checked too.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            points = rng.integers(0, 4, size=(40, 3)).astype(float)
            points[rng.integers(40)] = [np.nan, 1.0, 2.0]
            tasks = []
            for k, f in enumerate(points):
                task = stub_task(f, weight=rng.dirichlet(np.ones(3)))
                task.agent.params = neural.QNetworkParams((2, 3, 2))
                task.agent.params.flat[:] = k
                tasks.append(task)
            archive, oracle = ParetoArchive(), ListArchive()
            cuts = np.sort(rng.choice(np.arange(1, 40), size=6, replace=False))
            for chunk in np.split(np.arange(40), cuts):
                batch = [tasks[i] for i in chunk]
                assert archive.update(batch) == oracle.update(batch)
                assert len(archive) == len(oracle.members)
                members = oracle.members
                assert archive.objectives.tobytes() == np.reshape(
                    [f for _, f, _ in members], (-1, 3)).tobytes()
                assert archive.weights.tobytes() == np.reshape(
                    [w for _, _, w in members], (-1, 3)).tobytes()
                assert [q.flat[0] for q in archive.params] == [q.flat[0] for q, _, _ in members]
            assert all(q is not t.agent.params for q in archive.params for t in tasks)

    def test_snapshots_frozen_against_later_training(self):
        archive = ParetoArchive()
        task = stub_task([1, 1, 1])
        archive.update([task])
        task.agent.params.trunk_weights[0][:] = 123.0
        assert not np.any(archive.params[0].trunk_weights[0] == 123.0)


def bucket(tasks, population=(), buffer_count=3, buffer_size=1):
    """``tpu`` with ``generate_weights`` directions and the nadir of ``tasks``."""
    directions = np.stack(generate_weights(buffer_count))
    z_ref = np.min([t.objectives for t in [*population, *tasks]], axis=0)
    return tpu(list(population), list(tasks), directions, z_ref, buffer_size)


class TestBufferBank:
    def test_single_task_population(self):
        task = stub_task([1, 0.5, 0.2])
        assert bucket([task]) == [task]

    def test_capacity_rule_keeps_one_of_identical(self):
        a, b = stub_task([1, 1, 1]), stub_task([1, 1, 1])
        assert len(bucket([b], population=[a])) == 1

    def test_axis_tasks_land_in_axis_buffers(self):
        # Directions from generate_weights(3) are the clamped simplex
        # corners, so each near-axis objective vector must align with its
        # own direction (argmax computed by hand).
        tasks = [
            stub_task([1.0, 0.01, 0.01]),
            stub_task([0.01, 1.0, 0.01]),
            stub_task([0.01, 0.01, 1.0]),
        ]
        population = bucket(tasks, buffer_size=2)
        assert len(population) == 3  # one per buffer, none evicted

    def test_population_bound(self):
        rng = np.random.default_rng(3)
        tasks = [stub_task(rng.random(3)) for _ in range(20)]
        population = bucket(tasks, buffer_count=2, buffer_size=2)
        assert len(population) <= 2 * 2

    def test_nadir_is_running_minimum(self, monkeypatch):
        # Every z_ref that run hands tpu is the elementwise minimum of
        # every F evaluated up to then, warm-up included. Scripted random F
        # (inside the hypervolume box) stand in for training, so the
        # running minimum and the last generation's minimum differ.
        rng = np.random.default_rng(8)
        evaluated, seen = [], []
        real_tpu = emodrl.tpu

        def scripted_train(tasks, *args):
            for task in tasks:
                task.objectives = rng.uniform([0.0, -1.0, -1.0], [1.0, 0.0, 0.0])
                evaluated.append(task.objectives)

        def recording_tpu(population, offspring, directions, z_ref, buffer_size):
            seen.append((z_ref.copy(), np.min(evaluated, axis=0)))
            return real_tpu(population, offspring, directions, z_ref, buffer_size)

        monkeypatch.setattr(emodrl, "_train_tasks", scripted_train)
        monkeypatch.setattr(emodrl, "tpu", recording_tpu)
        run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config(t_evo=4))
        assert len(seen) == 4
        for z_ref, nadir in seen:
            assert np.array_equal(z_ref, nadir)


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

    @pytest.mark.parametrize("row", [[0, 0, 0], [np.nan, 1, 1], [1, 1, np.nan]])
    def test_equal_or_nan_row_rejected(self, row):
        with pytest.raises(DomainError):
            hypervolume([[2, 2, 2], row], [0, 0, 0])


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
        for i, a in enumerate(archive.objectives):
            for j, b in enumerate(archive.objectives):
                if i != j:
                    assert not dominates(a, b)
        volumes = [g.hypervolume for g in result.generations]
        assert all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))
        for record in result.generations:
            bound = 5 * 2  # buffer_count * buffer_size
            assert record.population_size <= max(bound, 2)

    def test_reproducible_from_master_seed(self):
        first = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        second = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        assert np.array_equal(first.archive.objectives, second.archive.objectives)
        assert [g.hypervolume for g in first.generations] == [
            g.hypervolume for g in second.generations
        ]

    def test_live_task_weights_on_strict_simplex(self):
        result = run(DcbUplinkEnv(micro_scenario()), tiny_emodrl_config())
        for weight in result.archive.weights:
            assert np.all(weight > 0)
            assert weight.sum() == pytest.approx(1.0, abs=1e-9)

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
        assert not np.array_equal(first.archive.objectives, second.archive.objectives)
