"""Command-line entry points: run, baseline, evaluate, select."""

from __future__ import annotations

import argparse
import dataclasses
import os
from pathlib import Path

from .agent import AgentConfig
from .baselines import BaselineKind, run_baseline_episode
from .emodrl import EmodrlConfig
from .env import TRACE_DTYPE, DcbUplinkEnv, episode_objectives
from .errors import ConfigError
from .harness import (
    PREFERENCE_WEIGHTS,
    load_archive,
    raw_objectives,
    replay_policy,
    run_experiment,
    select_policy,
    write_csv,
)
from .neural import load_params
from .scenario import resolve_scenario

OUT_DIR_ENV = "LEODCB_OUT"


def _default_out() -> str:
    return os.environ.get(OUT_DIR_ENV, "out")


def _add_scenario_arg(parser):
    parser.add_argument(
        "--scenario",
        default="default",
        help="named scenario (default, desk, micro) or a JSON file path",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leodcb",
        description="Collaborative-beamforming LEO uplink simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train the evolutionary multi-objective agent")
    _add_scenario_arg(run_p)
    run_p.add_argument("--out", default=None, help=f"output dir (default ${OUT_DIR_ENV} or ./out)")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    run_p.add_argument("--tasks", type=int, default=None)
    run_p.add_argument("--warm", type=int, default=None, help="warm-up iterations per task")
    run_p.add_argument("--task-iters", type=int, default=None)
    run_p.add_argument("--generations", type=int, default=None)
    run_p.add_argument("--hidden", type=int, nargs="+", default=None, help="hidden layer widths")
    run_p.add_argument("--batch", type=int, default=None)
    run_p.add_argument("--lr", type=float, default=None)
    run_p.set_defaults(handler=_run_command, parser=run_p)

    base_p = sub.add_parser("baseline", help="run a baseline episode and dump its trace")
    base_p.add_argument("--kind", choices=[k.value for k in BaselineKind], required=True)
    _add_scenario_arg(base_p)
    base_p.add_argument("--seed", type=int, default=0)
    base_p.add_argument("--out", default=None, help=f"output dir (default ${OUT_DIR_ENV} or ./out)")
    base_p.set_defaults(handler=_baseline_command, parser=base_p)

    eval_p = sub.add_parser("evaluate", help="replay a frozen policy under scenario overrides")
    eval_p.add_argument("--checkpoint", required=True)
    _add_scenario_arg(eval_p)
    eval_p.add_argument("--p", type=float, default=None, help="override unavailability probability")
    eval_p.add_argument("--terminals", type=int, default=None, help="override terminal count")
    eval_p.add_argument("--seeds", type=int, nargs="+", default=[0])
    eval_p.set_defaults(handler=_evaluate_command, parser=eval_p)

    select_p = sub.add_parser("select", help="pick a policy from an archive CSV")
    select_p.add_argument("--archive", required=True, help="path to archive.csv")
    select_p.add_argument(
        "--preference",
        default="balanced",
        choices=sorted(PREFERENCE_WEIGHTS),
        help="named tendency (default balanced)",
    )
    select_p.set_defaults(handler=_select_command, parser=select_p)
    return parser


def _run_command(args) -> int:
    scenario = resolve_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, master_seed=args.seed)
    config = EmodrlConfig()
    agent_cfg = config.agent
    for name, value in (
        ("hidden_sizes", tuple(args.hidden) if args.hidden else None),
        ("batch_size", args.batch),
        ("learning_rate", args.lr),
    ):
        if value is not None:
            agent_cfg = dataclasses.replace(agent_cfg, **{name: value})
    for name, value in (
        ("n_tasks", args.tasks),
        ("t_warm", args.warm),
        ("t_task", args.task_iters),
        ("t_evo", args.generations),
    ):
        if value is not None:
            config = dataclasses.replace(config, **{name: value})
    config = dataclasses.replace(config, agent=agent_cfg)
    args.writing = True   # from here on an OSError is a failed write
    report = run_experiment(scenario, config, args.out or _default_out())
    print(f"archive: {report.archive_csv}")
    for name, (f1, f2, f3) in report.objectives.items():
        print(f"{name}: f1={f1:.4g} bps  f2={f2:.4g} J  f3={f3:.4g}")
    return 0


def _baseline_command(args) -> int:
    scenario = resolve_scenario(args.scenario)
    kind = BaselineKind(args.kind)
    if kind is BaselineKind.NON_DCB:
        # The episode runs terminal 1 alone, so only that env is built.
        scenario = scenario.subset_terminals([0])
    trace = run_baseline_episode(kind, DcbUplinkEnv(scenario), args.seed)
    f1, f2, f3 = episode_objectives(trace, scenario)
    print(f"{kind.value}: f1={f1:.4g} bps  f2={f2:.4g} J  f3={f3:.4g}")
    args.writing = True
    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{kind.value}_seed{args.seed}.csv"
    write_csv(trace_path, TRACE_DTYPE.names, trace.tolist())
    print(f"trace: {trace_path}")
    return 0


def _evaluate_command(args) -> int:
    scenario = resolve_scenario(args.scenario).with_overrides(
        unavailability=args.p, n_terminals=args.terminals
    )
    f1, f2, f3 = replay_policy(load_params(args.checkpoint), scenario, args.seeds)
    print(f"f1={f1:.4g} bps  f2={f2:.4g} J  f3={f3:.4g}")
    return 0


def _select_command(args) -> int:
    archive = load_archive(args.archive)
    index = select_policy(archive, args.preference)
    f1, f2, f3 = raw_objectives(archive.objectives[index])
    print(f"policy {index}: f1={f1:.4g} bps  f2={f2:.4g} J  f3={f3:.4g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        # A bad setting is a usage error of its command: one message, exit 2.
        args.parser.error(str(exc))
    except OSError as exc:
        # So is a file that cannot be opened (missing, a directory, not
        # permitted): an input (--scenario, --checkpoint, --archive) or,
        # once the command sets ``writing``, an output under --out.
        if exc.filename is None:
            raise
        verb = "write" if getattr(args, "writing", False) else "read"
        args.parser.error(f"cannot {verb} {exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    raise SystemExit(main())
