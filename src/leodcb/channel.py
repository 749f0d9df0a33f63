"""Link-budget quantities for the virtual antenna array and the per-slot
power-allocation subproblem.

Channel phases are assumed perfectly compensated, so the received SNR is
the coherent sum (sum_i sqrt(P_i * beta0 * d_i^-alpha))^2 / sigma^2. The
per-slot subproblem trades transmit energy against that SNR under a
scheme weight (a, b) over the box [p_min, p_max]^N and is solved exactly
(see ``solve_p2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class RfConstants:
    """RF constants of one scenario.

    beta0 is the channel power gain at the 1 m reference distance, the one
    gain input (a carrier frequency enters only through it), noise_power is
    sigma^2 in watts over the full bandwidth, and rho0 scales the energy
    term of the power subproblem into the same order of magnitude as the
    SNR term. A rho0 of None asks for it to be derived
    (see ``default_rho0``); such an instance is complete only inside a
    ``Scenario``, which derives it once its own inputs are checked. Every
    other field must be a number; ``errors.check`` names the first failure.
    """

    beta0: float
    path_loss_exponent: float
    noise_power: float
    bandwidth: float
    p_min: float
    p_max: float
    rho0: float | None

    def __post_init__(self):
        reals = [name for name in vars(self) if name != "rho0" or self.rho0 is not None]
        check("rf", vars(self), reals=reals, constraints=lambda: (
            (0.0 < self.p_min <= self.p_max, "0 < p_min <= p_max"),
            (self.path_loss_exponent >= 2.0, "path_loss_exponent >= 2"),
            (self.noise_power > 0.0, "noise_power > 0"),
            (self.bandwidth > 0.0, "bandwidth > 0"),
            (self.beta0 > 0.0, "beta0 > 0"),
            (self.rho0 is None or self.rho0 > 0.0, "rho0 > 0"),
        ))


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

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise DomainError("scheme weight a must lie in [0, 1]")
        if abs(self.a + self.b - 1.0) > 1e-12:
            raise DomainError("scheme weights must satisfy a + b = 1")


# Corner scheme for max-power baselines; never produced by weight_set and
# not part of the agent's action space (its indices start at 1).
MAX_POWER_SCHEME = WeightScheme(a=0.0, b=1.0)


def weight_set(cardinality: int) -> list[WeightScheme]:
    """Equidistant schemes a_k = k / |K|, b_k = 1 - a_k for k = 1..|K|."""
    if cardinality < 1:
        raise DomainError("weight set cardinality must be >= 1")
    return [
        WeightScheme(a=k / cardinality, b=1.0 - k / cardinality)
        for k in range(1, cardinality + 1)
    ]


def amplitude_gains(distances, rf: RfConstants) -> np.ndarray:
    """Per-terminal amplitude gains sqrt(beta0 * d^-alpha)."""
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise DomainError("link distances must be strictly positive")
    return np.sqrt(rf.beta0 * d**-rf.path_loss_exponent)


def snr(powers, distances, rf: RfConstants):
    """Coherent-combining SNR at the connected satellite, over the trailing
    terminal axis: (..., N) powers and distances give (...) SNRs."""
    p = np.asarray(powers, dtype=float)
    d = np.asarray(distances, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0 or p.shape != d.shape:
        raise DomainError("powers and distances must have equal shapes over >= 1 terminal")
    return _amplitude(amplitude_gains(d, rf), p) ** 2 / rf.noise_power


def _amplitude(gains, powers):
    """sum_i g_i sqrt(p_i) over the trailing axis, as a 1-D ``@`` computes it."""
    return (gains[..., None, :] @ np.sqrt(powers)[..., :, None])[..., 0, 0]


def achievable_rate(snr_value, rf: RfConstants):
    """Shannon rate B * log2(1 + snr), bit/s, elementwise."""
    s = np.asarray(snr_value, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("snr must be non-negative")
    # libm's log2 on each entry: numpy's differs from it in the last bit on some inputs.
    return rf.bandwidth * np.vectorize(math.log2, otypes=[float])(1.0 + s)


def solve_p2(distances, rf: RfConstants, scheme: WeightScheme, slot_seconds: float) -> np.ndarray:
    """Minimize the per-slot objective over the power box, exactly.

    f(p) = A sum(p) - B (sum_i g_i sqrt(p_i))^2, with A = a rho0 slot_seconds,
    B = b / sigma^2 and g the amplitude gains, is convex and positively
    homogeneous of degree 1. By KKT its minimizer is sqrt(p) =
    clip(lam g, sqrt(p_min), sqrt(p_max)) for one 0 <= lam <= inf, and f is
    a quadratic in lam between consecutive breakpoints sqrt(p_min)/g_i and
    sqrt(p_max)/g_i. The best segment minimum is compared, on f itself, with
    the two box corners, so a corner optimum is exactly p_min or p_max.

    Distances of shape (..., N) give powers of that shape; a batch equals
    its rows solved one by one, bitwise.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise DomainError("distances must cover at least one terminal")
    g = amplitude_gains(d, rf).reshape(-1, d.shape[-1])
    rows, n = g.shape
    a_coef = scheme.a * rf.rho0 * slot_seconds
    b_coef = scheme.b / rf.noise_power
    lo, hi = math.sqrt(rf.p_min), math.sqrt(rf.p_max)

    # Events in lam order: terminal i turns free at lo / g_i and reaches
    # p_max at hi / g_i. Segment k lies between events k and k + 1; its state
    # is sum g^2 over the free terminals, sum g sqrt(p) and sum p over the
    # fixed ones. Left of the first event and right of the last lie the
    # two corners.
    order = np.argsort(np.concatenate([lo / g, hi / g], axis=1), axis=1, kind="stable")
    enters = order < n
    g_event = np.take_along_axis(np.tile(g, 2), order, axis=1)
    lam = np.where(enters, lo, hi) / g_event
    free, fixed_amp, fixed_pow = np.cumsum([
        np.where(enters, g_event, -g_event) * g_event,
        np.where(enters, -lo, hi) * g_event,
        np.where(enters, -rf.p_min, rf.p_max),
    ], axis=2)[:, :, :-1]
    fixed_amp += lo * g.sum(axis=1, keepdims=True)
    fixed_pow += n * rf.p_min
    # A segment's candidate is its stationary point clipped into it, or its
    # left event where f is not strictly convex there: its right event is
    # then no better than the next segment's candidate.
    curvature = a_coef - b_coef * free
    cand = np.divide(b_coef * fixed_amp, curvature, out=lam[:, :-1].copy(), where=curvature > 0.0)
    np.clip(cand, lam[:, :-1], lam[:, 1:], out=cand)
    value = a_coef * (cand * cand * free + fixed_pow) - b_coef * (cand * free + fixed_amp) ** 2
    best = cand[np.arange(rows), value.argmin(axis=1), None]

    def objective(p):
        return a_coef * p.sum(axis=-1) - b_coef * _amplitude(g, p) ** 2

    corners = np.stack([np.full_like(g, rf.p_min), np.full_like(g, rf.p_max)])
    corner_value = objective(corners)
    corner = corners[corner_value.argmin(axis=0), np.arange(rows)]
    inner = np.clip((best * g) ** 2, rf.p_min, rf.p_max)
    # f is evaluated to about N eps times the size of its terms; an inner
    # point that does not beat the better corner by more ties with it.
    scale = (a_coef * n + b_coef * g.sum(axis=1) ** 2) * rf.p_max
    beats = objective(inner) < corner_value.min(axis=0) - n * np.finfo(float).eps * scale
    return np.where(beats[:, None], inner, corner).reshape(d.shape)
