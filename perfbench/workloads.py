"""The benchmark's workloads: the training paths of leodcb at two widths.

Each workload is a closed loop: its set-up runs in the constructor, then
``run_round()`` issues one round of operations, each only after the last
one returned, and returns their time, their output checks and a hash of
their result. Inputs come only from the workload seed.

- ``desk_run``: ``leodcb run`` end to end at desk scale, the acceptance
  config. 64-wide nets, so the time goes to per-call interpreter overhead
  in the network and agent code.
- ``paper_width_train``: training iterations of one paper-width
  (2048, 2048) agent on the default scenario. Same network and agent code
  as ``desk_run``, but bound by BLAS and memory bandwidth.

Replaying policies and baselines on the default scenario is not a
workload: its time goes to interpreter-bound env construction, whose
speed moved by up to 1.6x between 30-second runs on a shared 2-core box,
more than any regression bound could absorb.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from leodcb import agent, emodrl, harness, scenario
from leodcb.env import DcbUplinkEnv
from leodcb.seeding import stream

# The acceptance suite's desk config (criterion 7).
DESK_CONFIG = emodrl.EmodrlConfig(
    n_tasks=4, t_warm=20, t_task=5, t_evo=20,
    buffer_count=50, buffer_size=2, eval_episodes=2,
    agent=agent.AgentConfig(
        replay_capacity=20_000, batch_size=64, target_sync_period=100,
        grad_steps_per_iteration=16, learning_rate=1e-3, hidden_sizes=(64, 64),
    ),
)

# Tolerance of the acceptance suite's hypervolume monotonicity check.
HV_TOLERANCE = 1e-12


@dataclass
class Round:
    """Outcome of one round of a workload's operations."""

    seconds: float              # time inside the timed operations only
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    sha: str | None = None      # result hash; None if this round has none
    artifact_bytes: int = 0     # size of the files the round wrote

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def result_sha(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def objective_problem(f, n_terminals: int, scen) -> str | None:
    """Why (f1 bps, f2 J, f3 switches/slot) is unphysical, or None."""
    f1, f2, f3 = (float(v) for v in f)
    max_energy = n_terminals * scen.rf.p_max * scen.slot_seconds
    if not all(math.isfinite(v) for v in (f1, f2, f3)):
        return f"non-finite objectives {f1, f2, f3}"
    if f1 < 0.0 or not 0.0 <= f2 <= max_energy or not 0.0 <= f3 <= 1.0:
        return f"objectives {f1, f2, f3} outside [0, inf) x [0, {max_energy}] x [0, 1]"
    return None


def _dominates(fa, fb) -> bool:
    return bool(np.all(fa >= fb) and np.any(fa > fb))


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class DeskRun:
    """``harness.run_experiment`` on the desk scenario, one run per round."""

    min_rounds = 1

    def __init__(self, seed: int, work_dir, config: emodrl.EmodrlConfig = DESK_CONFIG):
        self.scenario = scenario.desk_scenario(seed)
        self.config = config
        self.work_dir = Path(work_dir)
        a = config.agent
        slots = self.scenario.n_slots
        iterations = config.t_warm + config.t_evo * config.t_task
        episodes = config.n_tasks * iterations * a.episodes_per_iteration
        evaluations = config.n_tasks * (1 + config.t_evo) * config.eval_episodes
        # Four trace episodes: three baselines and the favor-rate policy.
        self.env_steps = slots * (episodes + evaluations + 4)
        # An agent takes no gradient step until its replay holds one batch.
        idle = math.ceil(a.batch_size / (slots * a.episodes_per_iteration)) - 1
        self.grad_steps = config.n_tasks * (iterations - idle) * a.grad_steps_per_iteration
        self.hypervolume = None

    def info(self, wall_s: float) -> dict:
        """Figures reported beside the metrics but not gated."""
        return {"hypervolume": self.hypervolume}

    def run_round(self) -> Round:
        result = Round(seconds=0.0, attempted=1)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            out = Path(tmp)
            try:
                _, result.seconds = _timed(
                    harness.run_experiment, self.scenario, self.config, out
                )
                problems = self._check(out, result)
            except Exception as exc:    # a failed operation is counted, not fatal
                problems = [f"run_experiment raised {exc!r}"]
            if problems:
                result.fail("; ".join(problems))
            result.artifact_bytes = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file()
            )
        return result

    def _check(self, out: Path, result: Round) -> list[str]:
        problems = []
        scen = self.scenario
        manifest = json.loads((out / "report.json").read_text())
        listed = [v for v in _string_leaves(manifest) if v.startswith(str(out) + "/")]
        missing = [p for p in listed if not Path(p).is_file()]
        if not listed or missing:
            problems.append(f"report.json lists {len(listed)} files, missing {missing[:3]}")

        rows = _read_csv(out / "archive.csv")
        raw = np.array(
            [[float(r["f1_bps"]), float(r["f2_joules"]), float(r["f3_switches_per_slot"])]
             for r in rows]
        ).reshape(-1, 3)
        if len(raw) == 0:
            problems.append("archive is empty")
        for f in raw:
            problem = objective_problem(f, scen.n_terminals, scen)
            if problem:
                problems.append(f"archive: {problem}")
        maximized = raw * np.array([1.0, -1.0, -1.0])
        for i, fi in enumerate(maximized):
            for j, fj in enumerate(maximized):
                if i != j and _dominates(fi, fj):
                    problems.append(f"archive member {i} dominates member {j}")
        objectives = manifest["objectives"]
        for name, f in objectives.items():
            problem = objective_problem(f, scen.n_terminals, scen)
            if problem:
                problems.append(f"{name}: {problem}")
        if not objectives["argp"][0] > objectives["non_dcb"][0]:
            problems.append(
                f"ARGP f1 {objectives['argp'][0]} does not exceed "
                f"NON_DCB f1 {objectives['non_dcb'][0]}"
            )

        volumes = [float(r["hypervolume"]) for r in _read_csv(out / "generations.csv")]
        if any(b < a - HV_TOLERANCE for a, b in zip(volumes, volumes[1:])):
            problems.append(f"hypervolume decreases: {volumes}")
        if not volumes or not volumes[-1] > 0.0:
            problems.append("final hypervolume is not positive")
        else:
            self.hypervolume = volumes[-1]
        result.sha = result_sha([raw])
        return problems


def _string_leaves(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _string_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _string_leaves(value)


def param_arrays(params) -> list[np.ndarray]:
    return [
        *params.trunk_weights, *params.trunk_biases,
        params.value_weight, params.value_bias, params.adv_weight, params.adv_bias,
    ]


class PaperWidthTrain:
    """One ``train_iteration`` of a default-config agent per round."""

    # Half the default EmodrlConfig budget, (80 + 300 * 20) // 2, which is
    # what emodrl.run resolves it to.
    EPSILON_DECAY_ITERS = 3040
    # The params are hashed after this many rounds, so the hash does not
    # depend on how many rounds fit in a run.
    SHA_ROUND = 2
    min_rounds = SHA_ROUND

    def __init__(self, seed: int, work_dir=None):
        self.scenario = scenario.default_scenario(seed)
        self.env = DcbUplinkEnv(self.scenario)
        config = agent.AgentConfig(epsilon_decay_iters=self.EPSILON_DECAY_ITERS)
        self.agent = agent.EnhancedD3qnAgent.create(
            config, self.env.n_actions, stream(seed, "perfbench-agent")
        )
        episodes = math.ceil(config.batch_size / self.scenario.n_slots)
        for _ in range(episodes):
            self.agent.collect_episode(self.env)
        self.weight = np.full(3, 1.0 / 3.0)
        self.env_steps = self.scenario.n_slots * config.episodes_per_iteration
        self.grad_steps = config.grad_steps_per_iteration
        self.rounds_done = 0

    def info(self, wall_s: float) -> dict:
        """Figures reported beside the metrics but not gated: the hours the
        default EmodrlConfig's gradient steps take at this round speed."""
        budget = emodrl.EmodrlConfig()
        steps = (
            budget.n_tasks * (budget.t_warm + budget.t_evo * budget.t_task)
            * budget.agent.grad_steps_per_iteration
        )
        return {"paper_budget_h": wall_s / self.grad_steps * steps / 3600.0}

    def run_round(self) -> Round:
        result = Round(seconds=0.0, attempted=1)
        self.rounds_done += 1
        try:
            _, result.seconds = _timed(self.agent.train_iteration, self.env, self.weight)
        except Exception as exc:    # a failed operation is counted, not fatal
            result.fail(f"train_iteration raised {exc!r}")
            return result
        arrays = param_arrays(self.agent.params)
        loss = self.agent.last_loss
        if not math.isfinite(loss) or not all(np.all(np.isfinite(a)) for a in arrays):
            result.fail(f"non-finite loss ({loss}) or params after round {self.rounds_done}")
        elif self.rounds_done == self.SHA_ROUND:
            result.sha = result_sha(arrays)
        return result


WORKLOADS = {
    "desk_run": DeskRun,
    "paper_width_train": PaperWidthTrain,
}
