"""Cross-version goldens for training: a fixed-seed micro agent must reach
exactly the recorded parameters and loss, and the recorded v1 policy
checkpoint must keep loading into the same network.

The files in ``tests/data`` were written by ``record()`` below. Re-record
only when a change to training results is intended, and say so.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from leodcb.agent import AgentConfig, EnhancedD3qnAgent
from leodcb.env import DcbUplinkEnv
from leodcb.neural import forward, load_params, save_params
from leodcb.scenario import micro_scenario

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_micro_training.json"
CHECKPOINT = DATA / "golden_micro_policy.npz"
PROBE = np.array([[0.0, 0.0], [0.2, 1.0 / 3.0], [0.6, 2.0 / 3.0], [0.8, 1.0]])

# Capacity 12 < 6 iterations x 5 slots, so the replay wraps; the target
# syncs every 4 of the 15 gradient steps.
CONFIG = AgentConfig(
    epsilon_decay_iters=4,
    replay_capacity=12,
    batch_size=6,
    target_sync_period=4,
    grad_steps_per_iteration=3,
    learning_rate=1e-2,
    hidden_sizes=(8, 8),
)
ITERATIONS = 6


def param_arrays(params):
    return [
        *params.trunk_weights, *params.trunk_biases,
        params.value_weight, params.value_bias, params.adv_weight, params.adv_bias,
    ]


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def trained_micro_agent():
    env = DcbUplinkEnv(micro_scenario())
    agent = EnhancedD3qnAgent.create(CONFIG, env.n_actions, np.random.default_rng(2024))
    for _ in range(ITERATIONS):
        agent.train_iteration(env, np.array([0.5, 0.3, 0.2]))
    return agent


def record():
    """Rewrite the golden files from the current code."""
    agent = trained_micro_agent()
    save_params(CHECKPOINT, agent.params)
    _, _, q = forward(agent.params, PROBE)
    GOLDEN.write_text(json.dumps({
        "params_sha256": sha256(param_arrays(agent.params)),
        "last_loss": repr(agent.last_loss),
        "grad_steps_done": agent.adam.step,
        "probe_q_sha256": sha256([q]),
    }, indent=1) + "\n")


def test_training_reaches_recorded_params_and_loss():
    golden = json.loads(GOLDEN.read_text())
    agent = trained_micro_agent()
    assert agent.adam.step == golden["grad_steps_done"]
    assert repr(agent.last_loss) == golden["last_loss"]
    assert sha256(param_arrays(agent.params)) == golden["params_sha256"]


def test_saved_checkpoint_matches_recorded_file(tmp_path):
    path = tmp_path / "policy.npz"
    save_params(path, trained_micro_agent().params)
    with np.load(path) as fresh, np.load(CHECKPOINT) as recorded:
        assert sorted(fresh.files) == sorted(recorded.files)
        for key in recorded.files:
            assert fresh[key].dtype == recorded[key].dtype, key
            assert np.array_equal(fresh[key], recorded[key]), key


def test_recorded_checkpoint_loads_to_recorded_forward_output():
    golden = json.loads(GOLDEN.read_text())
    params = load_params(CHECKPOINT)
    assert sha256(param_arrays(params)) == golden["params_sha256"]
    _, _, q = forward(params, PROBE)
    assert q.shape == (len(PROBE), params.n_actions)
    assert sha256([q]) == golden["probe_q_sha256"]
