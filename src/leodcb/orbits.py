"""Circular LEO orbit propagation and the local ground frame.

Satellites move on circular Keplerian orbits in an Earth-centered inertial
frame. Terminals live on a flat tangent plane touching the equator at a
reference longitude; Earth rotation is ignored (the timeline is an hour,
the constellation near-equatorial). All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """Earth constants shared by every orbit in a scenario."""

    earth_radius: float = 6.371e6              # m
    gravitational_constant: float = 6.674e-11  # m^3 kg^-1 s^-2
    earth_mass: float = 5.972e24               # kg

    def __post_init__(self):
        for field in fields(self):
            if getattr(self, field.name) <= 0.0:
                raise DomainError(f"{field.name} must be strictly positive")

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
    constants where it is needed. Use :func:`circular_orbit` to build
    instances from angles outside [0, 2*pi).
    """

    inclination: float          # rad
    raan: float                 # rad
    arg_perigee: float          # rad, initial in-plane phase
    true_anomaly: float         # rad
    altitude: float             # m above the surface

    def __post_init__(self):
        if self.altitude <= 0.0:
            raise DomainError("altitude must be strictly positive")
        for name in ("inclination", "raan", "arg_perigee", "true_anomaly"):
            angle = getattr(self, name)
            if not (0.0 <= angle < TWO_PI):
                raise DomainError(f"{name} must lie in [0, 2*pi); got {angle}")


def circular_orbit(
    inclination: float,
    raan: float,
    arg_perigee: float,
    true_anomaly: float,
    altitude: float,
) -> OrbitalElements:
    """Circular elements with every angle wrapped into [0, 2*pi)."""
    return OrbitalElements(
        inclination=wrap_angle(inclination),
        raan=wrap_angle(raan),
        arg_perigee=wrap_angle(arg_perigee),
        true_anomaly=wrap_angle(true_anomaly),
        altitude=altitude,
    )


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
