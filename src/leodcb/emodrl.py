"""Evolutionary multi-objective training loop.

Generation 0 is the warm-up: one agent per simplex weight vector. Every
later generation rebalances the task population through performance
buffers, reselects the best policy per weight and continues training.
Each generation folds its offspring into a Pareto archive of nondominated
policy snapshots.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .agent import AgentConfig, EnhancedD3qnAgent, evaluate_policy
from .env import DcbUplinkEnv
from .errors import ConfigError, DomainError, check
from .neural import QNetworkParams
from .scenario import Scenario
from .seeding import stream


WEIGHT_FLOOR = 1e-3  # smallest weight component: every task weighs every objective


def generate_weights(count: int) -> list[np.ndarray]:
    """Evenly spread strictly-positive weight vectors on the 3-simplex.

    Takes the smallest simplex lattice with at least ``count`` points,
    subsamples it evenly in lexicographic order, then clamps components
    to ``WEIGHT_FLOOR`` and renormalizes.
    """
    if count < 1:
        raise DomainError("weight count must be >= 1")
    resolution = 1
    while (resolution + 1) * (resolution + 2) // 2 < count:
        resolution += 1
    lattice = [
        np.array([i, j, resolution - i - j]) / resolution
        for i in range(resolution + 1)
        for j in range(resolution - i + 1)
    ]
    picks = np.round(np.linspace(0, len(lattice) - 1, count)).astype(int)
    clamped = [np.maximum(lattice[i], WEIGHT_FLOOR) for i in picks]
    return [w / w.sum() for w in clamped]


@dataclass(eq=False)
class LearningTask:
    """A weight vector paired with the agent training under it."""

    weight: np.ndarray
    agent: EnhancedD3qnAgent
    objectives: np.ndarray | None = None  # F(pi) after the last evaluation


@dataclass(eq=False)
class ParetoArchive:
    """Mutually nondominated policy snapshots with distinct objectives.

    Row i of ``objectives`` (the maximized F = (f1_bar, -f2_bar, -f3_bar))
    and of ``weights`` belongs to ``params[i]``, a frozen snapshot that is
    never trained further.
    """

    objectives: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    params: list[QNetworkParams] = field(default_factory=list)

    def __post_init__(self):
        self.objectives = np.asarray(self.objectives, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not self.objectives.shape == self.weights.shape == (len(self.params), 3):
            raise DomainError("archive objectives and weights must be (n, 3) for n params")

    def __len__(self) -> int:
        return len(self.params)

    def update(self, tasks) -> int:
        """Insert each evaluated task unless dominated by or equal to a row;
        evict the rows it dominates.

        Returns the number of insertions.
        """
        added = 0
        for task in tasks:
            f = np.asarray(task.objectives, dtype=float)
            rows = self.objectives
            if np.all(rows >= f, axis=1).any():
                continue
            keep = ~(np.all(f >= rows, axis=1) & np.any(f > rows, axis=1))
            self.objectives = np.vstack([rows[keep], f])
            self.weights = np.vstack([self.weights[keep], task.weight])
            self.params = [p for p, kept in zip(self.params, keep) if kept]
            self.params.append(task.agent.params.clone())
            added += 1
        return added


def tpu(
    population: list[LearningTask],
    offspring: list[LearningTask],
    directions: np.ndarray,
    z_ref: np.ndarray,
    buffer_size: int,
) -> list[LearningTask]:
    """Task population update: bucket each task by the row of
    ``directions`` best aligned with F - ``z_ref`` (the running nadir),
    keep the farthest-from-nadir tasks in each overfull buffer."""
    buffers: list[list[tuple[float, LearningTask]]] = [[] for _ in directions]
    for task in population + offspring:
        f_temp = np.asarray(task.objectives, dtype=float) - z_ref
        scores = directions @ f_temp
        slot = int(np.argmax(scores))
        buffers[slot].append((float(np.linalg.norm(f_temp)), task))
        if len(buffers[slot]) > buffer_size:
            # Descending distance, stable on ties; retain the first B_size.
            buffers[slot].sort(key=lambda pair: -pair[0])
            del buffers[slot][buffer_size:]
    return [task for bucket in buffers for _, task in bucket]


def task_selection(
    weights: list[np.ndarray], population: list[LearningTask]
) -> list[LearningTask]:
    """Pick the best scalarizing policy per weight; clone, reassign weight."""
    if not population:
        raise ConfigError("task population is empty")
    objective_rows = np.stack([t.objectives for t in population])
    selected = []
    for w in weights:
        w = np.array(w, dtype=float)
        best = int(np.argmax(objective_rows @ w))
        selected.append(LearningTask(w, population[best].agent.clone(), objective_rows[best]))
    return selected


def hypervolume(points, reference) -> float:
    """Volume dominated by a 3-D point set relative to a reference.

    Sweeps unique z levels; each slab contributes its staircase area in
    the x-y plane. The reference must be dominated by every point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float)
    if pts.shape[1] != 3 or ref.shape != (3,):
        raise DomainError("hypervolume expects 3-D points and reference")
    if not np.all(np.all(pts >= ref, axis=1) & np.any(pts > ref, axis=1)):
        raise DomainError("reference point must be dominated by every member")
    z_edges = np.unique(np.concatenate([[ref[2]], pts[:, 2]]))
    total = 0.0
    for z_lo, z_hi in zip(z_edges[:-1], z_edges[1:]):
        active = pts[pts[:, 2] >= z_hi]
        if active.size == 0:
            continue
        order = np.argsort(-active[:, 0])
        xs, ys = active[order, 0], active[order, 1]
        area = 0.0
        best_y = ref[1]
        for k in range(xs.size):
            best_y = max(best_y, ys[k])
            x_lo = xs[k + 1] if k + 1 < xs.size else ref[0]
            area += (xs[k] - x_lo) * (best_y - ref[1])
        total += area * (z_hi - z_lo)
    return total


@dataclass
class EmodrlConfig:
    n_tasks: int = 10
    t_warm: int = 80
    t_task: int = 20
    t_evo: int = 300
    buffer_count: int = 50
    buffer_size: int = 2
    eval_episodes: int = 2
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        check("emodrl", vars(self), ("n_tasks", "t_warm", "t_task", "t_evo", "buffer_count",
                                     "buffer_size", "eval_episodes"), constraints=lambda: (
            (isinstance(self.agent, AgentConfig), "agent is an AgentConfig"),
            (self.n_tasks >= 1, "n_tasks >= 1"),
            (min(self.t_warm, self.t_task) >= 1, "t_warm, t_task >= 1"),
            (self.t_evo >= 0, "t_evo >= 0"),
            (min(self.buffer_count, self.buffer_size) >= 1, "buffer_count, buffer_size >= 1"),
            (self.eval_episodes >= 1, "eval_episodes >= 1"),
        ))


class GenerationRecord(NamedTuple):
    generation: int
    population_size: int
    archive_size: int
    hypervolume: float


@dataclass
class RunResult:
    archive: ParetoArchive
    generations: list[GenerationRecord]
    eval_seeds: list[int]


def hypervolume_reference(scenario: Scenario) -> np.ndarray:
    """Fixed reference strictly dominated by any reachable objective vector."""
    margin = 1e-9
    worst_energy = scenario.n_terminals * scenario.rf.p_max * scenario.slot_seconds
    return np.array([-margin, -worst_energy - margin, -1.0 - margin])


def _train_tasks(
    tasks: list[LearningTask], env: DcbUplinkEnv, iterations: int, eval_seeds
) -> None:
    for task in tasks:
        for _ in range(iterations):
            task.agent.train_iteration(env, task.weight)
        task.objectives = evaluate_policy(task.agent.params, env, eval_seeds)


def run(env: DcbUplinkEnv, config: EmodrlConfig) -> RunResult:
    """Warm-up (generation 0) plus ``t_evo`` evolutionary generations on
    ``env``; returns the final Pareto archive.

    One env serves every task and the evaluation, as reset re-seeds all
    episode state. Fully reproducible from (env.scenario, its master_seed):
    agent init, exploration, episode seeds and evaluation seeds all come
    from tagged streams of the master seed. Tasks train sequentially in task
    order; they are mutually independent, so this matches any parallel
    schedule.
    """
    scenario = env.scenario
    master = scenario.master_seed
    weights = generate_weights(config.n_tasks)
    total_iterations = config.t_warm + config.t_evo * config.t_task
    agent_cfg = config.agent
    if agent_cfg.epsilon_decay_iters is None:
        # Linear decay over the first half of the planned training budget.
        agent_cfg = dataclasses.replace(
            agent_cfg, epsilon_decay_iters=max(1, total_iterations // 2)
        )

    offspring = [
        LearningTask(
            weight=weights[n],
            agent=EnhancedD3qnAgent.create(
                agent_cfg, n_actions=env.n_actions, rng=stream(master, "task", n)
            ),
        )
        for n in range(config.n_tasks)
    ]
    eval_rng = stream(master, "evaluation")
    eval_seeds = [int(eval_rng.integers(2**31)) for _ in range(config.eval_episodes)]

    archive = ParetoArchive()
    directions = np.stack(generate_weights(config.buffer_count))
    z_ref = np.full(3, np.inf)   # running nadir of every F evaluated so far
    reference = hypervolume_reference(scenario)
    population: list[LearningTask] = []
    records = []
    for generation in range(config.t_evo + 1):
        if generation:
            population = tpu(population, offspring, directions, z_ref, config.buffer_size)
            offspring = task_selection(weights, population)
        _train_tasks(offspring, env, config.t_task if generation else config.t_warm, eval_seeds)
        z_ref = np.minimum(z_ref, np.min([t.objectives for t in offspring], axis=0))
        archive.update(offspring)
        records.append(
            GenerationRecord(generation, len(population) if generation else len(offspring),
                             len(archive), hypervolume(archive.objectives, reference))
        )
    return RunResult(archive=archive, generations=records, eval_seeds=eval_seeds)
