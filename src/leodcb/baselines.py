"""Reference policies: rate-greedy at max power, single-terminal, random."""

from __future__ import annotations

import enum

import numpy as np

from .env import DcbUplinkEnv
from .seeding import stream


class BaselineKind(enum.Enum):
    ARGP = "argp"
    NON_DCB = "non_dcb"
    RANDOM = "random"


def argp_action(env: DcbUplinkEnv) -> int:
    """Max transmit power on the available satellite of the current slot
    with the best achievable rate.

    Returns the flat index ``idle_index + s`` of the scheme-0 corner (all
    terminals at p_max) on satellite s; ties break to the lowest satellite
    index; IDLE when nothing is available.
    """
    available = np.flatnonzero(env.current_mask) + 1
    if available.size == 0:
        return env.idle_index
    rates = env.rates[env.slot, 0, available - 1]
    return env.idle_index + int(available[np.argmax(rates)])


def random_policy_action(env: DcbUplinkEnv, rng: np.random.Generator) -> int:
    """Uniform draw over the legitimate flat actions of the current slot."""
    legit = np.flatnonzero(env.legitimate_mask())
    return int(legit[rng.integers(legit.size)])


def run_baseline_episode(kind: BaselineKind, env: DcbUplinkEnv, seed: int) -> np.ndarray:
    """One full episode of the named baseline on ``env``; returns its trace.

    The non-DCB strategy replaces the array with terminal 1 alone (at max
    power, greedy satellite choice) on an env of an otherwise identical
    scenario, built for the episode unless ``env`` already has that one
    terminal.
    """
    if kind is BaselineKind.NON_DCB and env.scenario.n_terminals > 1:
        env = DcbUplinkEnv(env.scenario.subset_terminals([0]))

    rng = stream(seed, "random-policy")
    env.reset(seed)
    while not env.done:
        if kind is BaselineKind.RANDOM:
            action = random_policy_action(env, rng)
        else:
            action = argp_action(env)
        env.step(action)
    return env.trace
