"""Which leodcb functions the traced run wraps, and the per-layer metrics
derived from them.

Every metric is per operation round of the workload (see ``workloads``),
except the ratios. A metric whose target no longer exists in the package
reads ``None``; a layer the workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(stats, args, kwargs, result):
    encoding = _arg(args, kwargs, 1, "encoding")
    rows = 1 if np.ndim(encoding) == 1 else len(encoding)
    stats.counters["rows"] = stats.counters.get("rows", 0) + rows


def _count_clipped(stats, args, kwargs, result):
    clipped = result > _arg(args, kwargs, 1, "max_norm")
    stats.counters["clipped"] = stats.counters.get("clipped", 0) + int(clipped)


def _count_insertions(stats, args, kwargs, result):
    stats.counters["insertions"] = stats.counters.get("insertions", 0) + result
    stats.counters["size"] = len(args[0])


TARGETS = (
    Target("orbits.position_at", "leodcb.orbits", "position_at"),
    Target("channel.solve_p2", "leodcb.channel", "solve_p2"),
    Target("scenario.subset_terminals", "leodcb.scenario", "Scenario.subset_terminals"),
    Target("env.init", "leodcb.env", "DcbUplinkEnv.__init__"),
    Target("env.step", "leodcb.env", "DcbUplinkEnv.step"),
    Target("env.legitimate_mask", "leodcb.env", "DcbUplinkEnv.legitimate_mask"),
    Target("neural.forward", "leodcb.neural", "forward", _count_rows),
    Target("neural.backward", "leodcb.neural", "backward"),
    Target("neural.clip_gradients", "leodcb.neural", "clip_gradients", _count_clipped),
    Target("neural.adam_step", "leodcb.neural", "adam_step"),
    Target("neural.save_params", "leodcb.neural", "save_params"),
    Target("agent.select_action", "leodcb.agent", "select_action"),
    Target("agent.td_targets", "leodcb.agent", "td_targets"),
    Target("agent.replay_sample", "leodcb.agent", "ReplayBuffer.sample"),
    Target("agent.collect_episode", "leodcb.agent", "EnhancedD3qnAgent.collect_episode"),
    Target("agent.train_iteration", "leodcb.agent", "EnhancedD3qnAgent.train_iteration"),
    Target("agent.clone", "leodcb.agent", "EnhancedD3qnAgent.clone"),
    Target("agent.evaluate_policy", "leodcb.agent", "evaluate_policy"),
    Target("emodrl.run", "leodcb.emodrl", "run"),
    Target("emodrl.tpu", "leodcb.emodrl", "tpu"),
    Target("emodrl.task_selection", "leodcb.emodrl", "task_selection"),
    Target("emodrl.archive_update", "leodcb.emodrl", "ParetoArchive.update", _count_insertions),
    Target("emodrl.hypervolume", "leodcb.emodrl", "hypervolume"),
    Target("baselines.run_baseline_episode", "leodcb.baselines", "run_baseline_episode"),
    Target("harness.run_experiment", "leodcb.harness", "run_experiment"),
)

# (metric, unit, span, field): field is "calls", "s", "self_s" or a counter.
SPAN_METRICS = (
    ("orbits.position_at.calls", "count", "orbits.position_at", "calls"),
    ("orbits.position_at.s", "s", "orbits.position_at", "s"),
    ("env.init.calls", "count", "env.init", "calls"),
    ("env.init.self_s", "s", "env.init", "self_s"),
    ("env.step.calls", "count", "env.step", "calls"),
    ("env.step.self_s", "s", "env.step", "self_s"),
    ("env.legitimate_mask.s", "s", "env.legitimate_mask", "s"),
    ("channel.solve_p2.calls", "count", "channel.solve_p2", "calls"),
    ("channel.solve_p2.s", "s", "channel.solve_p2", "s"),
    ("neural.forward.calls", "count", "neural.forward", "calls"),
    ("neural.forward.rows", "count", "neural.forward", "rows"),
    ("neural.forward.s", "s", "neural.forward", "s"),
    ("neural.backward.calls", "count", "neural.backward", "calls"),
    ("neural.backward.s", "s", "neural.backward", "s"),
    ("neural.clip_gradients.s", "s", "neural.clip_gradients", "s"),
    ("neural.adam_step.s", "s", "neural.adam_step", "s"),
    ("neural.save_params.s", "s", "neural.save_params", "s"),
    ("agent.select_action.self_s", "s", "agent.select_action", "self_s"),
    ("agent.td_targets.self_s", "s", "agent.td_targets", "self_s"),
    ("agent.replay_sample.s", "s", "agent.replay_sample", "s"),
    ("agent.train_iteration.self_s", "s", "agent.train_iteration", "self_s"),
    ("agent.collect_episode.s", "s", "agent.collect_episode", "s"),
    ("agent.evaluate_policy.calls", "count", "agent.evaluate_policy", "calls"),
    ("agent.evaluate_policy.s", "s", "agent.evaluate_policy", "s"),
    ("agent.clone.calls", "count", "agent.clone", "calls"),
    ("agent.clone.s", "s", "agent.clone", "s"),
    ("emodrl.tpu.s", "s", "emodrl.tpu", "s"),
    ("emodrl.task_selection.s", "s", "emodrl.task_selection", "s"),
    ("emodrl.archive_update.s", "s", "emodrl.archive_update", "s"),
    ("emodrl.hypervolume.calls", "count", "emodrl.hypervolume", "calls"),
    ("emodrl.hypervolume.s", "s", "emodrl.hypervolume", "s"),
    ("emodrl.archive_insertions", "count", "emodrl.archive_update", "insertions"),
    ("baselines.run_baseline_episode.calls", "count", "baselines.run_baseline_episode", "calls"),
    ("baselines.run_baseline_episode.s", "s", "baselines.run_baseline_episode", "s"),
    ("scenario.subset_terminals.s", "s", "scenario.subset_terminals", "s"),
)

# Metrics that are not a per-round sum of one span field.
DERIVED_UNITS = {
    "env.p2_solves_per_step": "ratio",
    "neural.clip_gradients.clip_rate": "share",
    "emodrl.archive_size": "count",
    "harness.artifacts.s": "s",
    "harness.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
}


def _field(tracer, span, name):
    if span in tracer.missing:
        return None
    stats = tracer.stats[span]
    if name in ("calls", "s", "self_s"):
        return getattr(stats, name)
    return stats.counters.get(name, 0)


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, rounds: int, artifact_bytes, overhead) -> dict:
    """Per-layer metrics, ``{name: {"value", "unit"}}``, per traced round.

    ``artifact_bytes`` is the mean output size of one traced round, and
    ``overhead`` the traced/untraced round-time ratio minus 1.
    """
    metrics = {}
    for name, unit, span, field_name in SPAN_METRICS:
        value = _field(tracer, span, field_name)
        metrics[name] = (None if value is None else value / rounds, unit)

    run_s = _field(tracer, "harness.run_experiment", "s")
    emodrl_s = _field(tracer, "emodrl.run", "s")
    derived = {
        "env.p2_solves_per_step": _ratio(
            _field(tracer, "channel.solve_p2", "calls"), _field(tracer, "env.step", "calls")
        ),
        "neural.clip_gradients.clip_rate": _ratio(
            _field(tracer, "neural.clip_gradients", "clipped"),
            _field(tracer, "neural.clip_gradients", "calls"),
        ),
        "emodrl.archive_size": _field(tracer, "emodrl.archive_update", "size"),
        "harness.artifacts.s": (
            None if run_s is None or emodrl_s is None else (run_s - emodrl_s) / rounds
        ),
        "harness.artifact_bytes": artifact_bytes,
        "trace.overhead": overhead,
    }
    for name, value in derived.items():
        metrics[name] = (value, DERIVED_UNITS[name])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def self_shares(tracer, traced_seconds: float) -> list[tuple[str, float]]:
    """Each span's self seconds as a share of all traced round time,
    largest first: the most a faster layer can save on this workload."""
    shares = [
        (name, stats.self_s / traced_seconds)
        for name, stats in tracer.stats.items()
        if stats.calls
    ]
    return sorted(shares, key=lambda item: -item[1])
