"""Circular LEO orbit propagation and the local ground frame.

Satellites move on circular Keplerian orbits in an Earth-centered inertial
frame. Terminals live on a flat tangent plane touching the equator at a
reference longitude; Earth rotation is ignored (the timeline is an hour,
the constellation near-equatorial). All functions here are pure. An orbit
has one constructor, ``OrbitalElements``, which wraps its angles itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check

TWO_PI = 2.0 * math.pi
ANGLES = ("inclination", "raan", "arg_perigee", "true_anomaly")


@dataclass(frozen=True)
class PhysicalConstants:
    """Earth constants shared by every orbit in a scenario."""

    earth_radius: float = 6.371e6              # m
    gravitational_constant: float = 6.674e-11  # m^3 kg^-1 s^-2
    earth_mass: float = 5.972e24               # kg

    def __post_init__(self):
        names = list(vars(self))
        check("constants", vars(self), reals=names, constraints=lambda: (
            (getattr(self, name) > 0.0, f"{name} > 0") for name in names
        ))

    @property
    def mu(self) -> float:
        """Standard gravitational parameter G * M_e."""
        return self.gravitational_constant * self.earth_mass


def wrap_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi)."""
    wrapped = float(theta) % TWO_PI
    # Tiny negative inputs round up to exactly 2*pi under fmod.
    return 0.0 if wrapped == TWO_PI else wrapped


@dataclass(frozen=True)
class OrbitalElements:
    """Circular LEO orbit of one satellite: plane, initial phase, altitude.

    The orbit radius is altitude + earth radius, taken from the scenario's
    constants where it is needed. Each angle may be any finite number and
    is stored wrapped into [0, 2*pi).
    """

    inclination: float          # rad
    raan: float                 # rad
    arg_perigee: float          # rad, initial in-plane phase
    true_anomaly: float         # rad
    altitude: float             # m above the surface

    def __post_init__(self):
        check("orbit", vars(self), reals=(*ANGLES, "altitude"), constraints=lambda: (
            *((math.isfinite(getattr(self, name)), f"{name} is finite") for name in ANGLES),
            (self.altitude > 0.0, "altitude > 0"),
        ))
        for name in ANGLES:
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))


def angular_velocity(elements: OrbitalElements, constants: PhysicalConstants) -> float:
    """Mean angular rate sqrt(mu / H^3) of a circular orbit, rad/s."""
    radius = elements.altitude + constants.earth_radius
    return math.sqrt(constants.mu / radius**3)


def position_at(
    elements: OrbitalElements,
    t,
    slot_seconds: float,
    constants: PhysicalConstants,
) -> np.ndarray:
    """Earth-centered position at slot(s) ``t`` (slots of ``slot_seconds``).

    ``t`` is a scalar or an array; the result has shape ``(*t.shape, 3)``.
    The in-plane phase advances from the initial perigee argument by
    t * slot_seconds * angular_velocity, taken modulo one revolution, and
    is then rotated by the plane orientation (inclination, RAAN).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("slot index must be non-negative")
    rate = angular_velocity(elements, constants)
    phase = (elements.arg_perigee + t * slot_seconds * rate) % TWO_PI
    u = phase + elements.true_anomaly
    radius = elements.altitude + constants.earth_radius
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_raan, sin_raan = math.cos(elements.raan), math.sin(elements.raan)
    cos_inc = math.cos(elements.inclination)
    x = radius * (cos_u * cos_raan - sin_u * cos_inc * sin_raan)
    y = radius * (cos_u * sin_raan + sin_u * cos_inc * cos_raan)
    z = radius * (sin_u * math.sin(elements.inclination))
    return np.stack([x, y, z], axis=-1)


@dataclass(frozen=True)
class GroundFrame:
    """Flat tangent plane touching the equator at ``reference_longitude``.

    Local axes: x east, y north, z up. Terminal ground points are
    (x, y, 0) in this frame; satellite inertial positions are converted
    with :meth:`to_local`, one point or an array of points at a time.
    """

    reference_longitude: float
    constants: PhysicalConstants

    def _basis(self):
        lam = self.reference_longitude
        up = np.array([math.cos(lam), math.sin(lam), 0.0])
        east = np.array([-math.sin(lam), math.cos(lam), 0.0])
        north = np.array([0.0, 0.0, 1.0])
        return east, north, up

    def origin(self) -> np.ndarray:
        east, north, up = self._basis()
        return self.constants.earth_radius * up

    def to_local(self, point_eci) -> np.ndarray:
        """Inertial -> local (east, north, up) coordinates."""
        east, north, up = self._basis()
        offset = np.asarray(point_eci, dtype=float) - self.origin()
        return np.stack(
            [offset @ east, offset @ north, offset @ up], axis=-1
        )
