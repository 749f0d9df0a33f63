"""Benchmark of the leodcb package's training paths at two widths.

Run from the repository root:

    python3 perfbench/run.py --workload desk_run --seed 42 --seconds 40 --trace 0

Workloads are ``desk_run`` and ``paper_width_train`` (see
``workloads.py``). The package is imported from ``src/`` unmodified,
with BLAS pinned to one thread.

Rounds of the workload's operations repeat until ``--seconds`` have
passed, and at least as many as the workload needs for its result hash.
Every round's outputs are checked; a failed check or an exception counts
as a failed operation.

With ``--trace 0`` the end-to-end metrics are:

- ``setup_s``: imports plus workload set-up, median over this process
  and four fresh interpreters;
- ``wall_s``: median seconds of one round of timed operations;
- ``env_steps_per_s``: env steps in one round's schedule over ``wall_s``;
- ``peak_rss_mb``: peak resident memory of this process;
- ``success_rate``: 1 - ``error_rate``, the share of operations that
  passed, so that the metric is not 0 on a good run.

With ``--trace 1`` every other round runs with timing wrappers installed
on the package's layer functions (see ``layers.py``), and the run reports
the per-layer metrics per traced round plus the tracing overhead against
the untraced rounds in between.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines above it give the run
environment, figures that are not gated (``error_rate``,
``grad_steps_per_s``, ``hypervolume``, ``paper_budget_h``) and the result
hash compared with the one recorded in ``baseline.json``. A full record,
with the trace's caller/callee table, goes to ``.perfbench_out/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"

# Fixed so that two commits compare under the same BLAS threading: the
# paper-width TD loss differs in its last digit between 1 and 2 threads.
# One thread, so that results do not depend on the box's core count and
# no BLAS thread competes with the interpreter for a second core.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-ups in fresh processes, besides this process's own, for setup_s.
SETUP_PROBES = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "leodcb").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run_environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
        "source_sha": _source_sha(),
    }


def _probe_setup(args) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _recorded_sha(workload: str, seed: int) -> str | None:
    recorded = json.loads(BASELINE.read_text())["result_sha"]
    return recorded.get(workload, {}).get(str(seed))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "leodcb" / "__init__.py").is_file():
        print(f"perfbench: leodcb sources not found under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setups = [time.perf_counter() - started]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += [_probe_setup(args) for _ in range(SETUP_PROBES)]

    import layers
    from tracer import Tracer

    tracer = Tracer(layers.TARGETS) if args.trace else None
    min_rounds = max(workload.min_rounds, 2 if tracer else 1)
    rounds, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if tracer is not None and len(rounds) % 2 == 0:
            with tracer:
                rounds.append(workload.run_round())
            traced.append(True)
        else:
            rounds.append(workload.run_round())
            traced.append(False)

    shas = [r.sha for r in rounds if r.sha is not None]
    sha = shas[0] if shas else None
    for r in rounds:
        if r.sha not in (None, sha) and not r.failed:
            r.fail(f"result_sha {r.sha} differs from the run's first, {sha}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    recorded = _recorded_sha(args.workload, args.seed)

    plain = [r for r, t in zip(rounds, traced) if not t]
    wall_s = statistics.median(r.seconds for r in plain)
    info = {"error_rate": failed / attempted}
    if workload.grad_steps:
        info["grad_steps_per_s"] = workload.grad_steps / wall_s
    info.update(workload.info(wall_s))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _run_environment(),
        "rounds": len(rounds),
        "round_seconds": [r.seconds for r in rounds],
        "traced": traced,
        "setup_seconds": setups,
        "problems": problems,
        "result_sha": sha,
        "recorded_result_sha": recorded,
        "info": info,
    }

    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall_s, "s"),
            "env_steps_per_s": _metric(workload.env_steps / wall_s, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "success_rate": _metric((attempted - failed) / attempted, "share"),
        }
    else:
        hot = [r for r, t in zip(rounds, traced) if t]
        hot_seconds = [r.seconds for r in hot]
        overhead = statistics.median(hot_seconds) / wall_s - 1.0
        artifact_bytes = statistics.mean(r.artifact_bytes for r in hot)
        metrics = layers.layer_metrics(tracer, len(hot), artifact_bytes, overhead)
        record["missing_targets"] = sorted(tracer.missing)
        record["self_shares"] = layers.self_shares(tracer, sum(hot_seconds))
        record["edges"] = tracer.edge_table()
    record["metrics"] = metrics

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    print(json.dumps({
        "correct": failed == 0 and sha is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']}  (see {OUT.name}/ for the full record)")
    print("environment " + "  ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']!s:>24} {metric['unit']}")
    for name, value in record["info"].items():
        print(f"  {name:<40} {value!s:>24} (not gated)")
    if record["trace"]:
        print("  self time as a share of traced round time:")
        for name, share in record["self_shares"]:
            print(f"    {name:<38} {share:8.1%}")
        if record["missing_targets"]:
            print(f"  missing trace targets: {record['missing_targets']}")
    sha, recorded = record["result_sha"], record["recorded_result_sha"]
    if recorded is None:
        verdict = "no recorded value for this seed"
    elif sha == recorded:
        verdict = "matches the recorded value"
    else:
        verdict = f"DIFFERS from the recorded {recorded}: results changed"
    print(f"  result_sha {sha}: {verdict}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


if __name__ == "__main__":
    sys.exit(main())
