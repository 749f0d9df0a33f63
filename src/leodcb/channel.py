"""Link-budget quantities for the virtual antenna array and the per-slot
power-allocation subproblem.

Channel phases are assumed perfectly compensated, so the received SNR is
the coherent sum (sum_i sqrt(P_i * beta0 * d_i^-alpha))^2 / sigma^2. The
per-slot subproblem trades transmit energy against that SNR under a
scheme weight (a, b) and is solved by projected gradient descent on the
box [p_min, p_max]^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class RfConstants:
    """RF constants of one scenario.

    beta0 is the channel power gain at the 1 m reference distance,
    noise_power is sigma^2 in watts over the full bandwidth, and rho0
    scales the energy term of the power subproblem into the same order
    of magnitude as the SNR term.
    """

    beta0: float
    path_loss_exponent: float
    noise_power: float
    bandwidth: float
    carrier_frequency: float
    p_min: float
    p_max: float
    rho0: float

    def __post_init__(self):
        if not (0.0 < self.p_min <= self.p_max):
            raise DomainError("power bounds must satisfy 0 < p_min <= p_max")
        if self.path_loss_exponent < 2.0:
            raise DomainError("path_loss_exponent must be >= 2")
        if self.noise_power <= 0.0:
            raise DomainError("noise_power must be strictly positive")
        if self.bandwidth <= 0.0:
            raise DomainError("bandwidth must be strictly positive")
        if self.beta0 <= 0.0:
            raise DomainError("beta0 must be strictly positive")
        if self.rho0 <= 0.0:
            raise DomainError("rho0 must be strictly positive")


def free_space_reference_gain(carrier_frequency: float) -> float:
    """(lambda / 4 pi)^2 power gain at the 1 m reference distance."""
    wavelength = SPEED_OF_LIGHT / carrier_frequency
    return (wavelength / (4.0 * math.pi)) ** 2


def default_rho0(
    beta0: float,
    path_loss_exponent: float,
    noise_power: float,
    p_max: float,
    reference_distance: float,
    slot_seconds: float,
    n_terminals: int,
) -> float:
    """Energy normalizer putting both subproblem terms at the same scale.

    Sized as SNR_ref / (N * p_max * slot_seconds) with the reference SNR
    taken at full power over a link of one orbit altitude, so the a- and
    b-weighted terms match at the reference operating point.
    """
    gain = beta0 * reference_distance**-path_loss_exponent
    snr_ref = (n_terminals * math.sqrt(p_max * gain)) ** 2 / noise_power
    return snr_ref / (n_terminals * p_max * slot_seconds)


@dataclass(frozen=True)
class WeightScheme:
    """Objective weights (a, b) with a + b = 1 for the power subproblem."""

    a: float
    b: float
    index: int

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise DomainError("scheme weight a must lie in [0, 1]")
        if abs(self.a + self.b - 1.0) > 1e-12:
            raise DomainError("scheme weights must satisfy a + b = 1")


# Corner scheme for max-power baselines; never produced by weight_set and
# not part of the agent's action space (its indices start at 1).
MAX_POWER_SCHEME = WeightScheme(a=0.0, b=1.0, index=0)


def weight_set(cardinality: int) -> list[WeightScheme]:
    """Equidistant schemes a_k = k / |K|, b_k = 1 - a_k for k = 1..|K|."""
    if cardinality < 1:
        raise DomainError("weight set cardinality must be >= 1")
    return [
        WeightScheme(a=k / cardinality, b=1.0 - k / cardinality, index=k)
        for k in range(1, cardinality + 1)
    ]


def amplitude_gains(distances, rf: RfConstants) -> np.ndarray:
    """Per-terminal amplitude gains sqrt(beta0 * d^-alpha)."""
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise DomainError("link distances must be strictly positive")
    return np.sqrt(rf.beta0 * d**-rf.path_loss_exponent)


def snr(powers, distances, rf: RfConstants) -> float:
    """Coherent-combining SNR of the array at the connected satellite."""
    p = np.asarray(powers, dtype=float)
    d = np.asarray(distances, dtype=float)
    if p.size == 0 or p.shape != d.shape:
        raise DomainError("powers and distances must have equal, nonzero length")
    amplitude = amplitude_gains(d, rf) @ np.sqrt(p)
    return float(amplitude * amplitude / rf.noise_power)


def achievable_rate(snr_value: float, rf: RfConstants) -> float:
    """Shannon rate B * log2(1 + snr), bit/s."""
    if snr_value < 0.0:
        raise DomainError("snr must be non-negative")
    return rf.bandwidth * math.log2(1.0 + snr_value)


def _p2_gradient(p, gains, a_coef, b_coef):
    coherent = gains @ np.sqrt(p)
    return a_coef - b_coef * coherent * gains / np.sqrt(p)


def solve_p2(
    distances,
    rf: RfConstants,
    scheme: WeightScheme,
    slot_seconds: float,
    grad_tol: float = 1e-8,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Minimize the per-slot objective over the power box.

    Projected gradient descent with backtracking line search from the box
    midpoint; stops when the unit-step projected-gradient norm drops
    below ``grad_tol``. The objective is convex on the positive orthant
    (its Hessian is PSD by Cauchy-Schwarz), so the result is a global
    minimizer up to the tolerance. Pure a- or b-only schemes short-circuit
    to the exact box corner.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise DomainError("distances must be nonempty")
    lo, hi = rf.p_min, rf.p_max
    if scheme.b == 0.0:
        return np.full(d.shape, lo)
    if scheme.a == 0.0:
        return np.full(d.shape, hi)

    gains = amplitude_gains(d, rf)
    a_coef = scheme.a * rf.rho0 * slot_seconds
    b_coef = scheme.b / rf.noise_power

    def value(p):
        coherent = gains @ np.sqrt(p)
        return a_coef * p.sum() - b_coef * coherent * coherent

    p = np.full(d.shape, 0.5 * (lo + hi))
    f = value(p)
    grad = _p2_gradient(p, gains, a_coef, b_coef)
    # Initial step sized to cross the box in one move.
    step = (hi - lo) / max(float(np.linalg.norm(grad)), 1e-300)
    for _ in range(max_iters):
        if np.linalg.norm(p - np.clip(p - grad, lo, hi)) < grad_tol:
            break
        while True:
            candidate = np.clip(p - step * grad, lo, hi)
            delta = candidate - p
            f_candidate = value(candidate)
            if f_candidate <= f + 1e-4 * float(grad @ delta):
                break
            if float(np.linalg.norm(delta)) < 1e-15:
                # Pinned against the box; nothing left to move.
                f_candidate = f
                candidate = p
                break
            step *= 0.5
        p, f = candidate, f_candidate
        grad = _p2_gradient(p, gains, a_coef, b_coef)
        step *= 2.0
    return p
