"""MOMDP environment for the collaborative-beamforming uplink.

Each reset draws the episode's availability masks for every slot at once
(geometric visibility gated by a Bernoulli spectrum outage). Each step
accepts a flat action index (power scheme and satellite, or IDLE), looks
up the solved per-slot power subproblem and writes one row of the episode
trace. ``slot_outcomes`` is the per-slot rule over trace rows: the
objectives (``episode_objectives``) and the rewards (``rewards``) both
read the trace through it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import channel
from .channel import MAX_POWER_SCHEME, WeightScheme, weight_set
from .errors import IllegalActionError, StateError
from .orbits import GroundFrame, position_at
from .scenario import Scenario
from .seeding import stream

STATE_DIM = 2  # the width of ``state_encodings``: (slot / T, prev_satellite / N_L)

# One row per stepped slot. The satellite is 1-based, 0 when idle; the
# rate is the achieved rate, before the threshold gates it in f1.
TRACE_DTYPE = np.dtype([
    ("slot", "i8"), ("satellite", "i8"), ("scheme", "i8"), ("rate_bps", "f8"),
    ("total_power_w", "f8"), ("switched", "i8"), ("n_available", "i8"),
])


def slot_outcomes(trace: np.ndarray, scenario: Scenario) -> np.ndarray:
    """(rows, 3) array of each trace row's gated rate in bps (the rate, or 0
    where it does not exceed the threshold), energy in J and switch count.
    Idle rows are all zero."""
    rate = trace["rate_bps"]
    return np.stack([
        np.where(rate > scenario.rate_threshold, rate, 0.0),
        trace["total_power_w"] * scenario.slot_seconds,
        trace["switched"],
    ], axis=1)


def episode_objectives(trace: np.ndarray, scenario: Scenario):
    """Per-slot averages (f1_bar bps, f2_bar J, f3_bar switches/slot) of a
    finished episode's ``slot_outcomes``. Bits, joules and switches are
    summed left to right, as running totals are; ``np.sum`` adds pairwise
    and can move the last bit.
    """
    if len(trace) != scenario.n_slots:
        raise StateError(f"episode incomplete: {len(trace)} of {scenario.n_slots} slots stepped")
    seconds = np.array([scenario.slot_seconds, 1.0, 1.0])
    totals = np.cumsum(slot_outcomes(trace, scenario) * seconds, axis=0)[-1]
    return tuple(float(total) for total in totals / (len(trace) * seconds))


def legitimate_masks(available: np.ndarray, n_schemes: int) -> np.ndarray:
    """Flat-action masks for rows of satellite availability.

    Every scheme block repeats the row's availability, so action
    (k - 1) * N_L + (s - 1) is legitimate iff satellite s is; IDLE, the
    last index, is legitimate iff no satellite is.
    """
    rows, n_satellites = available.shape
    out = np.empty((rows, n_schemes * n_satellites + 1), dtype=bool)
    # Splitting the last axis of a column slice is a view, so this writes
    # through to ``out`` whatever the row count.
    out[:, :-1].reshape(rows, n_schemes, n_satellites)[...] = available[:, None, :]
    out[:, -1] = ~available.any(axis=1)
    return out


class DcbUplinkEnv:
    """Single-owner environment instance over one scenario.

    Actions are flat indices (see ``_decode``). Satellite geometry and the
    P2 outcome of every action are precomputed at construction; only the
    availability draws are stochastic. ``rates`` and ``total_powers`` have
    shape (slot, scheme index, satellite), the max-power corner in scheme
    column 0, and are NaN where the satellite is not visible. A state is
    the int slot·(N_L + 1) + prev, where prev is the 1-based previous
    satellite or 0 before the first transmission; it indexes
    ``state_encodings``, the network inputs of all (T + 1)·(N_L + 1) states.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.n_satellites = scenario.n_satellites
        self.n_terminals = scenario.n_terminals
        self.n_schemes = scenario.n_schemes
        self.n_actions = scenario.n_schemes * scenario.n_satellites + 1
        self.idle_index = self.n_actions - 1
        # Indexed by scheme index: 0 is the max-power corner, 1..K the agent's.
        self.schemes: list[WeightScheme] = [MAX_POWER_SCHEME, *weight_set(scenario.n_schemes)]

        frame = GroundFrame(scenario.reference_longitude, scenario.constants)
        terminals_local = np.array([[x, y, 0.0] for x, y in scenario.terminals])
        centroid = terminals_local.mean(axis=0)

        slots = np.arange(scenario.n_slots)
        self._sat_local = frame.to_local(np.stack([
            position_at(elements, slots, scenario.slot_seconds, scenario.constants)
            for elements in scenario.constellation
        ], axis=1))  # (slot, satellite, xyz)
        # Visibility is judged from the array centroid; the cluster is
        # ~100 m wide against >=5e5 m links, so per-terminal differences
        # are negligible.
        delta = self._sat_local - centroid
        self.visibility = (
            delta[:, :, 2] / np.linalg.norm(delta, axis=2)
        ) >= math.sin(scenario.min_elevation)
        diff = self._sat_local[:, :, None, :] - terminals_local[None, None, :, :]
        self.distances = np.linalg.norm(diff, axis=3)  # (slot, satellite, terminal)

        rf = scenario.rf
        snr_max = channel.snr(
            np.full(self.n_terminals, rf.p_max),
            np.full(self.n_terminals, min(s.altitude for s in scenario.constellation)),
            rf,
        )
        rho1 = 1.0 / float(channel.achievable_rate(snr_max, rf))
        rho2 = 1.0 / (self.n_terminals * rf.p_max * scenario.slot_seconds)
        self.reward_scale = np.array([rho1, -rho2, -1.0])   # slot outcomes -> reward
        self.reward_scale.flags.writeable = False

        # One P2 solve per scheme over all visible (slot, satellite) rows.
        self.rates, self.total_powers = np.full(
            (2, scenario.n_slots, len(self.schemes), self.n_satellites), np.nan
        )
        slots, sats = np.nonzero(self.visibility)
        visible = self.distances[slots, sats]
        for k, scheme in enumerate(self.schemes):
            powers = channel.solve_p2(visible, rf, scheme, scenario.slot_seconds)
            snr = channel.snr(powers, visible, rf)
            self.rates[slots, k, sats] = channel.achievable_rate(snr, rf)
            self.total_powers[slots, k, sats] = powers.sum(axis=1)

        # Row state = (slot / T, prev / N_L), over slots 0..T so that the
        # terminal states have rows too.
        slot_col, prev_col = np.divmod(
            np.arange((scenario.n_slots + 1) * (self.n_satellites + 1)), self.n_satellites + 1
        )
        self.state_encodings = np.stack(
            [slot_col / scenario.n_slots, prev_col / self.n_satellites], axis=1
        )
        self.state_encodings.flags.writeable = False

        # Set by reset. Until then ``self.state`` raises, and it is read first.
        self.available = self._legit = self._n_available = self._trace = self._state = None

    # -- episode control -------------------------------------------------

    def reset(self, seed: int) -> int:
        """Start an episode whose availability is keyed by ``seed``.

        One uniform per (slot, satellite), visible or not, is drawn in slot
        order into ``available``, the read-only availability table. Its row
        T and the mask table's, after the last slot, have nothing available.
        """
        scenario = self.scenario
        draws = stream(seed, "availability").random(self.visibility.shape)
        available = np.zeros((scenario.n_slots + 1, self.n_satellites), dtype=bool)
        available[:-1] = self.visibility & (draws >= scenario.unavailability)
        self.available = available
        self._legit = legitimate_masks(available, self.n_schemes)
        available.flags.writeable = self._legit.flags.writeable = False
        self._n_available = available.sum(axis=1)
        self._trace = np.zeros(scenario.n_slots, TRACE_DTYPE)
        self._state = 0
        return self._state

    @property
    def state(self) -> int:
        if self._state is None:
            raise StateError("environment not reset")
        return self._state

    @property
    def slot(self) -> int:
        return self.state // (self.n_satellites + 1)

    @property
    def current_mask(self) -> np.ndarray:
        """Read-only satellite availability of the current slot."""
        return self.available[self.slot]

    @property
    def done(self) -> bool:
        return self.slot >= self.scenario.n_slots

    @property
    def trace(self) -> np.ndarray:
        """Read-only view of this episode's trace rows stepped so far; the
        next reset starts a new array, so a finished trace stays as it is."""
        rows = self._trace[: self.slot]
        rows.flags.writeable = False
        return rows

    def step(self, action: int) -> int:
        """Apply a flat action index: write the slot's trace row and return
        the next state. ``rewards`` reads the step's reward off the trace."""
        slot, prev = divmod(self.state, self.n_satellites + 1)
        if slot >= self.scenario.n_slots:
            raise StateError("episode already complete")
        scheme, sat = self._decode(action)
        rate = total_power = 0.0
        if sat:
            rate = self.rates[slot, scheme, sat - 1]
            total_power = self.total_powers[slot, scheme, sat - 1]
        switched = int(sat != 0 and prev != 0 and sat != prev)
        self._trace[slot] = (
            slot, sat, scheme, rate, total_power, switched, self._n_available[slot]
        )
        self._state = (slot + 1) * (self.n_satellites + 1) + (sat or prev)
        return self._state

    def rewards(self, trace: np.ndarray) -> np.ndarray:
        """(rows, 3) reward vectors (rate, negative energy, negative switch)
        of trace rows: their ``slot_outcomes`` times ``reward_scale``."""
        return slot_outcomes(trace, self.scenario) * self.reward_scale

    # -- actions --------------------------------------------------------------

    def _decode(self, action: int) -> tuple[int, int]:
        """(scheme index, 1-based satellite or 0 for IDLE) of a flat action.

        Indices below ``idle_index`` are (scheme, satellite) pairs in
        scheme-major order; ``idle_index`` is IDLE; the N_L indices after
        it put the max-power corner (scheme 0) on each satellite.

        IDLE is accepted in every slot, also where satellites are
        available and ``legitimate_mask`` therefore does not mark it: the
        mask is the agents' action set, not the limit of what may be stepped.
        """
        action = operator.index(action)
        if 0 <= action < self.idle_index:
            scheme, sat = divmod(action, self.n_satellites)
            scheme, sat = scheme + 1, sat + 1
        elif action == self.idle_index:
            return 1, 0
        elif self.idle_index < action <= self.idle_index + self.n_satellites:
            scheme, sat = 0, action - self.idle_index
        else:
            raise IllegalActionError(
                f"action {action} outside 0..{self.idle_index + self.n_satellites}"
            )
        if not self.current_mask[sat - 1]:
            raise IllegalActionError(
                f"satellite {sat} is unavailable at slot {self.slot}"
            )
        return scheme, sat

    def legitimate_mask(self) -> np.ndarray:
        """Read-only boolean mask over the flat action space for the current
        slot, a row of the table built at reset.

        IDLE is marked only where no satellite is available, although
        ``step`` accepts it in any slot (see ``_decode``).
        """
        return self._legit[self.slot]
