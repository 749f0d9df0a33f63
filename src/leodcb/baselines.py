"""Reference policies: rate-greedy at max power, single-terminal, random."""

from __future__ import annotations

import enum

import numpy as np

from .env import DcbUplinkEnv, EpisodeLedger, MomdpState
from .errors import ConfigError
from .scenario import Scenario
from .seeding import stream


class BaselineKind(enum.Enum):
    ARGP = "argp"
    NON_DCB = "non_dcb"
    RANDOM = "random"


def argp_action(env: DcbUplinkEnv, state: MomdpState, mask: np.ndarray) -> int:
    """Max transmit power on the satellite with the best achievable rate.

    Returns the flat index ``idle_index + s`` of the scheme-0 corner (all
    terminals at p_max) on satellite s; ties break to the lowest satellite
    index; IDLE when nothing is available.
    """
    available = np.flatnonzero(mask) + 1
    if available.size == 0:
        return env.idle_index
    rates = env.rates[state.slot, 0, available - 1]
    return env.idle_index + int(available[np.argmax(rates)])


def random_policy_action(env: DcbUplinkEnv, rng: np.random.Generator) -> int:
    """Uniform draw over the legitimate flat actions of the current slot."""
    legit = np.flatnonzero(env.legitimate_mask())
    return int(legit[rng.integers(legit.size)])


def run_baseline_episode(
    kind: BaselineKind,
    scenario: Scenario,
    seed: int,
    env: DcbUplinkEnv | None = None,
) -> EpisodeLedger:
    """One full episode of the named baseline; returns the finished ledger.

    The non-DCB strategy replaces the array with terminal 1 alone (at max
    power, greedy satellite choice) on an otherwise identical scenario.
    """
    if kind is BaselineKind.NON_DCB:
        scenario = scenario.subset_terminals([0])
        env = DcbUplinkEnv(scenario)
    elif env is None:
        env = DcbUplinkEnv(scenario)
    elif env.scenario != scenario:
        raise ConfigError("provided environment was built from a different scenario")

    rng = stream(seed, "random-policy")
    state = env.reset(seed)
    while not env.done:
        if kind is BaselineKind.RANDOM:
            action = random_policy_action(env, rng)
        else:
            action = argp_action(env, state, env.current_mask)
        state, _, _ = env.step(action)
    return env.ledger
