"""Cross-version golden for the evolutionary loop: a fixed-seed micro
``emodrl.run`` must reach exactly the recorded archive objectives and
generation hypervolumes. This covers what the training golden does not:
task selection, the population update, the archive and ``evaluate_policy``.

The file in ``tests/data`` was written by ``record()`` below. Re-record
only when a change to run results is intended, and say so.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from leodcb.agent import AgentConfig
from leodcb.emodrl import EmodrlConfig, run
from leodcb.env import DcbUplinkEnv
from leodcb.scenario import micro_scenario

GOLDEN = Path(__file__).parent / "data" / "golden_micro_emodrl.json"

# Two evaluation seeds, so the greedy rollouts share states; the replay
# (capacity 20 < 3 tasks' worth of episodes) wraps during the run.
CONFIG = EmodrlConfig(
    n_tasks=3,
    t_warm=3,
    t_task=2,
    t_evo=3,
    buffer_count=6,
    buffer_size=2,
    eval_episodes=2,
    agent=AgentConfig(
        replay_capacity=20,
        batch_size=8,
        target_sync_period=5,
        grad_steps_per_iteration=2,
        learning_rate=1e-2,
        hidden_sizes=(8, 8),
    ),
)


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def digests() -> dict:
    with tempfile.TemporaryDirectory() as snapshots:
        result = run(DcbUplinkEnv(micro_scenario()), CONFIG, snapshots)
    return {
        "archive_size": len(result.archive),
        "generations": len(result.generations),
        "objectives_sha256": sha256(result.archive.objectives),
        "hypervolumes_sha256": sha256([g.hypervolume for g in result.generations]),
    }


def record():
    """Rewrite the golden file from the current code."""
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")


def test_run_reaches_recorded_archive_and_hypervolumes():
    assert digests() == json.loads(GOLDEN.read_text())
