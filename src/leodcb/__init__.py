"""Desk-scale simulator and multi-objective deep-RL optimizer for
collaborative-beamforming uplinks from a terminal cluster to an LEO
constellation."""

from .agent import AgentConfig, EnhancedD3qnAgent, evaluate_policy
from .baselines import BaselineKind, run_baseline_episode
from .channel import RfConstants, WeightScheme, achievable_rate, snr, solve_p2, weight_set
from .emodrl import EmodrlConfig, ParetoArchive, generate_weights, hypervolume, run
from .env import DcbUplinkEnv
from .harness import RunReport, replay_policy, run_experiment, select_policy
from .orbits import OrbitalElements, PhysicalConstants, angular_velocity, position_at
from .scenario import Scenario, default_scenario, desk_scenario, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "BaselineKind",
    "DcbUplinkEnv",
    "EmodrlConfig",
    "EnhancedD3qnAgent",
    "OrbitalElements",
    "ParetoArchive",
    "PhysicalConstants",
    "RfConstants",
    "RunReport",
    "Scenario",
    "WeightScheme",
    "achievable_rate",
    "angular_velocity",
    "default_scenario",
    "desk_scenario",
    "evaluate_policy",
    "generate_weights",
    "hypervolume",
    "load_scenario",
    "position_at",
    "replay_policy",
    "run",
    "run_baseline_episode",
    "run_experiment",
    "save_scenario",
    "select_policy",
    "snr",
    "solve_p2",
    "weight_set",
]
