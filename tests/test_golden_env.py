"""Cross-version goldens for the environment: the precomputed geometry of
three scenarios and the micro-scenario baseline traces must match the
recorded bytes exactly, so a change in the last ulp of geometry or
stepping is caught.

The files in ``tests/data`` were written by ``record()`` below. Re-record
only when a change to env results is intended, and say so.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from leodcb.baselines import BaselineKind, run_baseline_episode
from leodcb.env import TRACE_DTYPE, DcbUplinkEnv
from leodcb.harness import write_csv
from leodcb.scenario import default_scenario, desk_scenario, micro_scenario

DATA = Path(__file__).parent / "data"
GEOMETRY = DATA / "golden_env_geometry.json"
SCENARIOS = {
    "micro": micro_scenario,
    "desk_42": lambda: desk_scenario(42),
    "default_42": lambda: default_scenario(42),
}
TRACED_KINDS = (BaselineKind.ARGP, BaselineKind.RANDOM, BaselineKind.NON_DCB)


def trace_path(kind: BaselineKind) -> Path:
    return DATA / f"golden_micro_{kind.value}_trace.csv"


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def write_micro_trace(path, kind: BaselineKind) -> None:
    trace = run_baseline_episode(kind, DcbUplinkEnv(micro_scenario()), seed=0)
    write_csv(path, TRACE_DTYPE.names, trace.tolist())


def geometry_digests(build) -> dict:
    env = DcbUplinkEnv(build())
    return {"visibility": sha256(env.visibility), "distances": sha256(env.distances)}


def record():
    """Rewrite the golden files from the current code."""
    GEOMETRY.write_text(json.dumps(
        {name: geometry_digests(build) for name, build in SCENARIOS.items()}, indent=1
    ) + "\n")
    for kind in TRACED_KINDS:
        write_micro_trace(trace_path(kind), kind)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_geometry_matches_recorded_digests(name):
    golden = json.loads(GEOMETRY.read_text())
    assert geometry_digests(SCENARIOS[name]) == golden[name]


@pytest.mark.parametrize("kind", TRACED_KINDS, ids=lambda kind: kind.value)
def test_micro_baseline_trace_matches_recorded_file(kind, tmp_path):
    path = tmp_path / "trace.csv"
    write_micro_trace(path, kind)
    assert path.read_bytes() == trace_path(kind).read_bytes()
