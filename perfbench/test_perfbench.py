"""Tests for the benchmark: tracer wrapping and restoring, traced runs
matching untraced ones, nominal work counts, and the output contract."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import leodcb
import workloads
from leodcb import agent, emodrl, env, scenario
from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Small enough for a test; batch 40 leaves each agent's first iteration
# without a gradient step, which the nominal count must account for.
TINY_DESK = emodrl.EmodrlConfig(
    n_tasks=2, t_warm=3, t_task=1, t_evo=2, buffer_count=4, buffer_size=2, eval_episodes=1,
    agent=agent.AgentConfig(
        replay_capacity=500, batch_size=40, target_sync_period=10,
        grad_steps_per_iteration=2, learning_rate=1e-3, hidden_sizes=(8, 8),
    ),
)


def _bindings() -> dict:
    """Every attribute of every leodcb module and traced class."""
    owners = [m for n, m in sys.modules.items() if n == "leodcb" or n.startswith("leodcb.")]
    owners += [
        env.DcbUplinkEnv, agent.EnhancedD3qnAgent, agent.ReplayBuffer,
        emodrl.ParetoArchive, scenario.Scenario,
    ]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_round_matches_untraced_round(tmp_path):
    workload = workloads.DeskRun(3, tmp_path, TINY_DESK)
    plain = workload.run_round()
    tracer = Tracer(layers.TARGETS)
    with tracer:
        traced = workload.run_round()

    assert plain.problems == traced.problems == []
    assert plain.sha is not None and plain.sha == traced.sha
    assert not tracer.missing
    assert tracer.stats["env.step"].calls == workload.env_steps
    assert tracer.stats["neural.backward"].calls == workload.grad_steps
    for name, stats in tracer.stats.items():
        assert stats.self_s <= stats.s, name


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    position_at = leodcb.orbits.position_at
    save_params = leodcb.neural.save_params
    step = env.DcbUplinkEnv.step
    micro = scenario.micro_scenario()

    tracer = Tracer(layers.TARGETS)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert leodcb.env.position_at is leodcb.orbits.position_at is not position_at
            assert leodcb.position_at is leodcb.orbits.position_at
            assert leodcb.harness.save_params is leodcb.neural.save_params is not save_params
            assert env.DcbUplinkEnv.step is not step
            leodcb.env.position_at(micro.constellation[0], 1, micro.slot_seconds, micro.constants)
            1 / 0

    assert tracer.stats["orbits.position_at"].calls == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_removed_target_reads_null_and_the_rest_still_trace(tmp_path):
    targets = [t for t in layers.TARGETS if t.name != "channel.solve_p2"] + [
        Target("channel.solve_p2", "leodcb.channel", "solve_p2_removed"),
        Target("gone.class", "leodcb.env", "NoSuchEnv.step"),
        Target("gone.module", "leodcb.no_such_module", "anything"),
    ]
    tracer = Tracer(targets)
    workload = workloads.DeskRun(3, tmp_path, TINY_DESK)
    with tracer:
        result = workload.run_round()

    assert result.problems == []
    assert tracer.missing == {"channel.solve_p2", "gone.class", "gone.module"}
    metrics = layers.layer_metrics(tracer, 1, 0, 0.0)
    assert metrics["channel.solve_p2.calls"]["value"] is None
    assert metrics["env.p2_solves_per_step"]["value"] is None
    assert metrics["env.step.calls"]["value"] == workload.env_steps


def test_workloads_and_layer_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    metrics = layers.layer_metrics(Tracer(layers.TARGETS), 1, 0, 0.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }


def test_objective_check_rejects_unphysical_values():
    scen = scenario.desk_scenario()
    max_energy = scen.n_terminals * scen.rf.p_max * scen.slot_seconds
    assert workloads.objective_problem((1e4, max_energy, 1.0), scen.n_terminals, scen) is None
    for bad in [(-1.0, 1.0, 0.5), (1e4, max_energy * 1.01, 0.5), (1e4, 1.0, 1.5),
                (math.nan, 1.0, 0.5), (1e4, -1.0, 0.5)]:
        assert workloads.objective_problem(bad, scen.n_terminals, scen) is not None, bad


def test_command_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "desk_run",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "desk_run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
