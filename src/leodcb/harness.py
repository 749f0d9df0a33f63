"""Experiment orchestration: seeded runs, CSV artifacts, SVG figures.

``run_experiment`` trains with its archive's snapshots in a directory
inside the run's output directory, moves each final member to
``checkpoints/policy_<row>.npz`` and removes that directory, whether
training returns or raises.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import emodrl, svgplot
from .agent import evaluate_policy, greedy_rollout
from .baselines import BaselineKind, run_baseline_episode
from .emodrl import EmodrlConfig, GenerationRecord, ParetoArchive, RunResult
from .env import TRACE_DTYPE, DcbUplinkEnv, episode_objectives
from .errors import ConfigError, StateError
# Nothing here calls save_params; perfbench's tracer test reads this binding.
from .neural import QNetworkParams, load_params, save_params
from .scenario import Scenario
from .seeding import stream

ARCHIVE_COLUMNS = (
    "policy", "f1_bps", "f2_joules", "f3_switches_per_slot", "w1", "w2", "w3", "checkpoint"
)
GENERATION_COLUMNS = GenerationRecord._fields

PREFERENCE_WEIGHTS = {
    "favor-rate": np.array([1.0, 0.0, 0.0]),
    "favor-energy": np.array([0.0, 1.0, 0.0]),
    "favor-switching": np.array([0.0, 0.0, 1.0]),
    "balanced": np.array([1.0, 1.0, 1.0]) / 3.0,
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):   # bool is an int
        return str(int(value))
    # repr round-trips doubles exactly and is platform-stable
    return repr(float(value))


def write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_archive_csv(path, archive: ParetoArchive, checkpoint_paths) -> None:
    rows = [
        (i, *raw_objectives(f), *w, checkpoint)
        for i, (f, w, checkpoint) in enumerate(
            zip(archive.objectives, archive.weights, checkpoint_paths, strict=True)
        )
    ]
    write_csv(path, ARCHIVE_COLUMNS, rows)


def raw_objectives(f):
    """Back out (f1_bar bps, f2_bar J, f3_bar) from the maximized
    F = (f1_bar, -f2_bar, -f3_bar); its own inverse, so also F from them."""
    # + 0.0 normalizes the negative zero produced by flipping a zero
    return float(f[0]), float(-f[1] + 0.0), float(-f[2] + 0.0)


def select_policy(objectives, preference) -> int:
    """Row of the (n, 3) maximized objectives maximizing w . F for a weight
    vector or named tendency: the ``policy`` column of ``archive.csv``.

    Ties break to the lowest row.
    """
    if len(objectives) == 0:
        raise StateError("cannot select from an empty archive")
    if isinstance(preference, str):
        try:
            weight = PREFERENCE_WEIGHTS[preference]
        except KeyError:
            raise StateError(
                f"unknown preference {preference!r}; expected one of "
                f"{sorted(PREFERENCE_WEIGHTS)}"
            ) from None
    else:
        weight = np.asarray(preference, dtype=float)
    return int(np.argmax(np.asarray(objectives, dtype=float) @ weight))


def replay_policy(params: QNetworkParams, scenario: Scenario, seeds):
    """Mean (f1_bar, f2_bar, f3_bar) of a frozen policy on ``scenario``.

    Pass a ``Scenario.with_overrides`` variant of the training scenario to
    test portability: the state and action encodings do not depend on the
    terminal count, so no re-shaping or retraining happens. The action
    count K N_L + 1 does: a network of another count, or no seed, is a ConfigError.
    """
    env = DcbUplinkEnv(scenario)
    for what, have, need in (
        ("input width", params.input_dim, env.state_encodings.shape[1]),
        ("action count", params.n_actions, env.n_actions),
    ):
        if have != need:
            raise ConfigError(f"checkpoint {what} {have} does not match the scenario's {need}")
    return raw_objectives(evaluate_policy(params, env, seeds))


@dataclass
class RunReport:
    out_dir: str
    master_seed: int
    wall_clock_seconds: float
    objectives: dict[str, tuple]        # per-policy (f1_bar, f2_bar, f3_bar)
    archive_csv: str
    generations_csv: str
    trace_csvs: dict[str, str]
    svg_paths: list[str]
    checkpoints: list[str] = field(default_factory=list)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n")


def run_experiment(scenario: Scenario, config: EmodrlConfig, out_dir) -> RunReport:
    """Train, then write the checkpoints, archive/trace/generation CSVs, three
    SVG figures and, last, ``report.json``, the mark of a finished run.

    Baselines and the favor-rate policy trace replay the same episode seed
    so their per-slot rates are comparable. The archive keeps its snapshots
    in ``snapshots/`` while training; that directory is cleared first (a
    killed run may have left it) and removed whether training returns or
    raises, so a run that fails while training leaves an existing
    directory's files as they were. Once training returns, an earlier
    ``report.json`` and ``checkpoints/policy_<digits>.npz`` are removed
    first, so no report outlives a failed write or lists too few files.
    """
    started = time.perf_counter()
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    (out / "plots").mkdir(exist_ok=True)
    snapshots = out / "snapshots"
    if snapshots.exists():   # a killed run's; its files would hold disk all run
        shutil.rmtree(snapshots)
    snapshots.mkdir()

    env = DcbUplinkEnv(scenario)
    try:
        result: RunResult = emodrl.run(env, config, snapshots)
        archive = result.archive
        (out / "report.json").unlink(missing_ok=True)
        for stale in (out / "checkpoints").glob("policy_*.npz"):
            if stale.stem.removeprefix("policy_").isdecimal():
                stale.unlink()
        # archive.csv names each checkpoint relative to its own directory.
        names = [f"checkpoints/policy_{i:03d}.npz" for i in range(len(archive))]
        checkpoints = [str(out / name) for name in names]
        for snapshot, path in zip(archive.paths, checkpoints):
            snapshot.replace(path)
    finally:
        shutil.rmtree(snapshots)
    archive_csv = out / "archive.csv"
    write_archive_csv(archive_csv, archive, names)
    generations_csv = out / "generations.csv"
    write_csv(generations_csv, GENERATION_COLUMNS, result.generations)

    episode_seed = int(stream(scenario.master_seed, "trace-episode").integers(2**31))
    traces: dict[str, np.ndarray] = {
        kind.value: run_baseline_episode(kind, env, episode_seed) for kind in BaselineKind
    }
    favored = load_params(checkpoints[select_policy(archive.objectives, "favor-rate")])
    traces["ed3qn_favor_rate"] = greedy_rollout(favored, env, episode_seed)

    objectives: dict[str, tuple] = {}
    trace_csvs: dict[str, str] = {}
    for name, trace in traces.items():
        path = out / "traces" / f"{name}.csv"
        write_csv(path, TRACE_DTYPE.names, trace.tolist())
        trace_csvs[name] = str(path)
        objectives[name] = episode_objectives(trace, scenario)

    rate_svg = out / "plots" / "rate_vs_threshold.svg"
    svgplot.plot_rate_series(
        rate_svg,
        {name: trace["rate_bps"] for name, trace in traces.items()},
        scenario.rate_threshold,
        "Per-slot uplink achievable rate",
    )
    pareto_svg = out / "plots" / "pareto_front.svg"
    svgplot.plot_pareto_scatter(
        pareto_svg,
        {
            "archive": [raw_objectives(f) for f in archive.objectives],
            "argp": [objectives["argp"]],
            "random": [objectives["random"]],
        },
        "Pareto policy distribution (f1, f2, f3)",
    )
    bars_svg = out / "plots" / "objective_bars.svg"
    tendencies = ["favor-rate", "favor-energy", "favor-switching", "balanced"]
    bar_labels = ["argp"] + tendencies
    bar_triples = [objectives["argp"]] + [
        raw_objectives(archive.objectives[select_policy(archive.objectives, t)])
        for t in tendencies
    ]
    svgplot.plot_objective_bars(
        bars_svg, bar_labels, bar_triples, "Objective values by policy"
    )

    report = RunReport(
        out_dir=str(out),
        master_seed=scenario.master_seed,
        wall_clock_seconds=time.perf_counter() - started,
        objectives={k: tuple(v) for k, v in objectives.items()},
        archive_csv=str(archive_csv),
        generations_csv=str(generations_csv),
        trace_csvs=trace_csvs,
        svg_paths=[str(rate_svg), str(pareto_svg), str(bars_svg)],
        checkpoints=checkpoints,
    )
    report.save(out / "report.json")
    return report


def load_archive(archive_csv) -> tuple[np.ndarray, np.ndarray, list[Path]]:
    """Read an archive CSV, opening no checkpoint: the (n, 3) maximized
    objectives, the (n, 3) weights and each row's checkpoint path, resolved
    against the CSV's directory (an older archive's absolute path stays).

    A header other than ``ARCHIVE_COLUMNS``, no row, a row of another length
    or a field that is not a finite number is a ConfigError naming file and line.
    """
    header, *lines = Path(archive_csv).read_text().strip().split("\n")
    if header != ",".join(ARCHIVE_COLUMNS):
        raise ConfigError(f"{archive_csv}:1: header is not {','.join(ARCHIVE_COLUMNS)}")
    if not lines:
        raise ConfigError(f"{archive_csv}:2: no policy rows")
    numbers, checkpoints = [], []
    for line_no, line in enumerate(lines, start=2):
        fields = line.split(",")
        if len(fields) != len(ARCHIVE_COLUMNS):
            raise ConfigError(
                f"{archive_csv}:{line_no}: {len(fields)} fields, expected {len(ARCHIVE_COLUMNS)}"
            )
        try:
            numbers.append([float(v) for v in fields[:-1]])
        except ValueError:
            raise ConfigError(f"{archive_csv}:{line_no}: a field is not a number") from None
        if not np.isfinite(numbers[-1]).all():
            raise ConfigError(f"{archive_csv}:{line_no}: a field is not a finite number")
        checkpoints.append(fields[-1])
    table = np.array(numbers)
    objectives = np.array([raw_objectives(f) for f in table[:, 1:4]])
    return objectives, table[:, 4:7], [Path(archive_csv).parent / c for c in checkpoints]
