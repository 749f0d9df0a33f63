"""Experiment orchestration: seeded runs, CSV artifacts, SVG figures."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import emodrl, svgplot
from .agent import STATE_DIM, evaluate_policy, greedy_rollout
from .baselines import BaselineKind, run_baseline_episode
from .emodrl import EmodrlConfig, GenerationRecord, ParetoArchive, RunResult
from .env import TRACE_DTYPE, DcbUplinkEnv, episode_objectives
from .errors import ConfigError, StateError
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


def select_policy(archive: ParetoArchive, preference) -> int:
    """Row of the archive maximizing w . F for a weight vector or named
    tendency: the ``policy`` column of ``archive.csv``.

    Ties break to the lowest row.
    """
    if len(archive) == 0:
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
    return int(np.argmax(archive.objectives @ weight))


def replay_policy(params: QNetworkParams, scenario: Scenario, seeds):
    """Mean (f1_bar, f2_bar, f3_bar) of a frozen policy on ``scenario``.

    Pass a ``Scenario.with_overrides`` variant of the training scenario to
    test portability: the state and action encodings do not depend on the
    terminal count, so no re-shaping or retraining happens. The action
    count K N_L + 1 does, so a network of another count is a ConfigError.
    """
    env = DcbUplinkEnv(scenario)
    for what, have, need in (
        ("input width", params.input_dim, STATE_DIM),
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
    """Train, then emit archive/trace/generation CSVs and three SVG figures.

    Baselines and the favor-rate policy trace replay the same episode seed
    so their per-slot rates are comparable. If artifact emission fails
    midway, a partial manifest of the files written so far is left at
    ``<out_dir>/partial_manifest.json`` before the error propagates.
    """
    started = time.perf_counter()
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    (out / "plots").mkdir(exist_ok=True)
    emitted: list[str] = []

    env = DcbUplinkEnv(scenario)
    result: RunResult = emodrl.run(env, config)
    archive = result.archive
    try:
        checkpoints = []
        for i, params in enumerate(archive.params):
            path = out / "checkpoints" / f"policy_{i:03d}.npz"
            save_params(path, params)
            checkpoints.append(str(path))
            emitted.append(str(path))
        archive_csv = out / "archive.csv"
        write_archive_csv(archive_csv, archive, checkpoints)
        emitted.append(str(archive_csv))
        generations_csv = out / "generations.csv"
        write_csv(generations_csv, GENERATION_COLUMNS, result.generations)
        emitted.append(str(generations_csv))

        episode_seed = int(stream(scenario.master_seed, "trace-episode").integers(2**31))
        traces: dict[str, np.ndarray] = {
            kind.value: run_baseline_episode(kind, env, episode_seed) for kind in BaselineKind
        }
        favored = archive.params[select_policy(archive, "favor-rate")]
        traces["ed3qn_favor_rate"] = greedy_rollout(favored, env, episode_seed)

        objectives: dict[str, tuple] = {}
        trace_csvs: dict[str, str] = {}
        for name, trace in traces.items():
            path = out / "traces" / f"{name}.csv"
            write_csv(path, TRACE_DTYPE.names, trace.tolist())
            trace_csvs[name] = str(path)
            emitted.append(str(path))
            objectives[name] = episode_objectives(trace, scenario)

        rate_svg = out / "plots" / "rate_vs_threshold.svg"
        svgplot.plot_rate_series(
            rate_svg,
            {name: trace["rate_bps"] for name, trace in traces.items()},
            scenario.rate_threshold,
            "Per-slot uplink achievable rate",
        )
        emitted.append(str(rate_svg))
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
        emitted.append(str(pareto_svg))
        bars_svg = out / "plots" / "objective_bars.svg"
        tendencies = ["favor-rate", "favor-energy", "favor-switching", "balanced"]
        bar_labels = ["argp"] + tendencies
        bar_triples = [objectives["argp"]] + [
            raw_objectives(archive.objectives[select_policy(archive, t)]) for t in tendencies
        ]
        svgplot.plot_objective_bars(
            bars_svg, bar_labels, bar_triples, "Objective values by policy"
        )
        emitted.append(str(bars_svg))
    except Exception:
        (out / "partial_manifest.json").write_text(
            json.dumps({"emitted": emitted, "complete": False}, indent=2) + "\n"
        )
        raise

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


def load_archive(archive_csv) -> ParetoArchive:
    """Rebuild an archive from its CSV and the referenced checkpoints.

    A header other than ``ARCHIVE_COLUMNS``, no row, a row of another length
    or a field that is not a number is a ConfigError naming the file and line.
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
        checkpoints.append(fields[-1])
    table = np.array(numbers)
    return ParetoArchive(
        objectives=np.array([raw_objectives(f) for f in table[:, 1:4]]),
        weights=table[:, 4:7],
        params=[load_params(path) for path in checkpoints],
    )
