import math

import numpy as np
import pytest
from oracles import elevation_angle, is_geometrically_visible, orbital_period

from leodcb.errors import ConfigError, DomainError
from leodcb.orbits import (
    GroundFrame,
    OrbitalElements,
    PhysicalConstants,
    angular_velocity,
    position_at,
)

CONSTANTS = PhysicalConstants()

# Hand evaluation of sqrt(G*M_e / H^3) with R_e = 6.371e6, G = 6.674e-11,
# M_e = 5.972e24 (the scenario constants), frozen before implementation.
OMEGA_500KM = 1.1084677900656638e-3
PERIOD_500KM = 5668.351722522655
PERIOD_1000KM = 6298.200534920743


def orbit(inclination=0.0, raan=0.0, arg_perigee=0.0, true_anomaly=0.0, altitude=5e5):
    return OrbitalElements(inclination, raan, arg_perigee, true_anomaly, altitude)


def radius(elements):
    return elements.altitude + CONSTANTS.earth_radius


class TestElements:
    def test_radius_is_altitude_plus_earth_radius(self):
        elements = orbit(altitude=7.7e5)
        # At slot 0 an unrotated orbit sits on the x axis at its radius.
        assert position_at(elements, 0, 60.0, CONSTANTS)[0] == 7.7e5 + CONSTANTS.earth_radius

    def test_angles_wrapped_into_range(self):
        # The one constructor wraps: arg_perigee = 7.0 and raan = -0.5 land
        # in [0, 2*pi) as 7.0 - 2*pi and 2*pi - 0.5.
        elements = orbit(raan=-0.5, arg_perigee=7.0)
        assert 0.0 <= elements.raan < 2 * math.pi
        assert 0.0 <= elements.arg_perigee < 2 * math.pi
        assert elements.raan == (-0.5) % (2 * math.pi)
        assert elements.arg_perigee == 7.0 % (2 * math.pi)

    @pytest.mark.parametrize("name", ["inclination", "raan", "arg_perigee", "true_anomaly"])
    def test_every_angle_is_wrapped_once(self, name):
        elements = orbit(**{name: 2 * math.pi + 0.25})
        assert getattr(elements, name) == (2 * math.pi + 0.25) % (2 * math.pi)
        # A wrapped angle is kept bit for bit, so a rebuilt orbit is equal.
        assert OrbitalElements(*vars(elements).values()) == elements
        assert orbit(**{name: -1e-300}) == orbit(**{name: 0.0})

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_an_angle_that_does_not_wrap_is_rejected(self, angle):
        with pytest.raises(ConfigError, match="orbit constraint violated: raan is finite"):
            orbit(raan=angle)

    def test_bad_constants_rejected(self):
        with pytest.raises(ConfigError, match="constants constraint violated: earth_radius > 0"):
            PhysicalConstants(earth_radius=-1.0)


class TestAngularVelocity:
    def test_oracle_500km(self):
        elements = orbit(altitude=5e5)
        assert angular_velocity(elements, CONSTANTS) == pytest.approx(OMEGA_500KM, rel=1e-12)
        assert orbital_period(elements, CONSTANTS) == pytest.approx(PERIOD_500KM, rel=1e-12)

    def test_oracle_1000km(self):
        elements = orbit(altitude=1e6)
        assert orbital_period(elements, CONSTANTS) == pytest.approx(PERIOD_1000KM, rel=1e-12)

    def test_surface_orbit_boundary(self):
        surface = OrbitalElements(0, 0, 0, 0, 1.0)
        expected = math.sqrt(CONSTANTS.mu / (CONSTANTS.earth_radius + 1.0) ** 3)
        assert angular_velocity(surface, CONSTANTS) == expected

    def test_nonpositive_altitude_rejected(self):
        for altitude in (0.0, -5e5):
            with pytest.raises(ConfigError, match="orbit constraint violated: altitude > 0"):
                OrbitalElements(0, 0, 0, 0, altitude)


class TestPositionAt:
    def test_identity_rotation_points_along_x(self):
        elements = orbit()
        pos = position_at(elements, 0, 60.0, CONSTANTS)
        assert pos[0] == pytest.approx(radius(elements))
        assert pos[1] == pytest.approx(0.0, abs=1e-6)
        assert pos[2] == pytest.approx(0.0, abs=1e-6)

    def test_polar_orbit_apex(self):
        elements = orbit(inclination=math.pi / 2, arg_perigee=math.pi / 2)
        pos = position_at(elements, 0, 60.0, CONSTANTS)
        assert pos[0] == pytest.approx(0.0, abs=1e-6)
        assert pos[1] == pytest.approx(0.0, abs=1e-6)
        assert pos[2] == pytest.approx(radius(elements))

    def test_negative_slot_rejected(self):
        with pytest.raises(DomainError):
            position_at(orbit(), -1, 60.0, CONSTANTS)
        with pytest.raises(DomainError):
            position_at(orbit(), np.array([0.0, 3.0, -1.0]), 60.0, CONSTANTS)

    def test_array_slots_give_one_position_per_slot(self):
        elements = orbit(inclination=0.3, raan=2.0, arg_perigee=1.0)
        slots = np.arange(12.0).reshape(3, 4)
        positions = position_at(elements, slots, 60.0, CONSTANTS)
        assert positions.shape == (3, 4, 3)
        for index in np.ndindex(slots.shape):
            single = position_at(elements, slots[index], 60.0, CONSTANTS)
            assert single.shape == (3,)
            assert np.allclose(positions[index], single, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("altitude", [5e5, 1e6])
    def test_periodicity(self, altitude):
        rng = np.random.default_rng(3)
        elements = orbit(inclination=0.4, raan=1.1, arg_perigee=0.7, altitude=altitude)
        dt = 60.0
        period_slots = orbital_period(elements, CONSTANTS) / dt
        for t in rng.uniform(0, 100, size=10):
            a = position_at(elements, t, dt, CONSTANTS)
            b = position_at(elements, t + period_slots, dt, CONSTANTS)
            assert np.all(np.abs(a - b) < 1e-6 * radius(elements))

    def test_norm_preserved(self):
        elements = orbit(inclination=0.3, raan=2.0, arg_perigee=1.0, altitude=8e5)
        for t in range(0, 200, 7):
            pos = position_at(elements, t, 60.0, CONSTANTS)
            assert np.linalg.norm(pos) == pytest.approx(radius(elements), rel=1e-9)

    def test_angular_rate_between_slots(self):
        elements = orbit(inclination=0.2, raan=0.5, altitude=5e5)
        dt = 60.0
        expected = angular_velocity(elements, CONSTANTS) * dt
        for t in range(5):
            a = position_at(elements, t, dt, CONSTANTS)
            b = position_at(elements, t + 1, dt, CONSTANTS)
            cos_swept = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert math.acos(np.clip(cos_swept, -1, 1)) == pytest.approx(expected, abs=1e-9)

    def test_z_bounded_by_inclination(self):
        elements = orbit(inclination=0.35, altitude=5e5)
        bound = radius(elements) * math.sin(0.35)
        for t in range(150):
            assert abs(position_at(elements, t, 60.0, CONSTANTS)[2]) <= bound + 1e-6


class TestElevation:
    def test_zenith(self):
        assert elevation_angle([0, 0, 5e5], [0, 0, 0]) == pytest.approx(math.pi / 2)

    def test_horizon(self):
        assert elevation_angle([1e6, 0, 0], [0, 0, 0]) == pytest.approx(0.0)

    def test_below_plane_is_negative(self):
        assert elevation_angle([1e6, 0, -1e5], [0, 0, 0]) < 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            elevation_angle([1.0, 2.0, 0.0], [1.0, 2.0, 0.0])

    def test_visibility_threshold_inclusive(self):
        threshold = math.radians(10.0)
        above = [math.cos(math.radians(30)), 0, math.sin(math.radians(30))]
        below = [math.cos(math.radians(5)), 0, math.sin(math.radians(5))]
        exact = [math.cos(threshold), 0, math.sin(threshold)]
        assert is_geometrically_visible(above, [0, 0, 0], threshold)
        assert not is_geometrically_visible(below, [0, 0, 0], threshold)
        assert is_geometrically_visible(exact, [0, 0, 0], threshold)


class TestGroundFrame:
    def test_origin_on_surface(self):
        frame = GroundFrame(0.3, CONSTANTS)
        assert np.linalg.norm(frame.origin()) == pytest.approx(CONSTANTS.earth_radius)

    def test_point_above_origin_maps_to_up(self):
        frame = GroundFrame(0.8, CONSTANTS)
        lam = 0.8
        overhead = (CONSTANTS.earth_radius + 5e5) * np.array(
            [math.cos(lam), math.sin(lam), 0.0]
        )
        local = frame.to_local(overhead)
        assert local[0] == pytest.approx(0.0, abs=1e-6)
        assert local[1] == pytest.approx(0.0, abs=1e-6)
        assert local[2] == pytest.approx(5e5)

    def test_equatorial_satellite_over_reference_is_at_zenith(self):
        frame = GroundFrame(0.0, CONSTANTS)
        elements = OrbitalElements(0.0, 0.0, 0.0, 0.0, 5e5)
        local = frame.to_local(position_at(elements, 0, 60.0, CONSTANTS))
        assert elevation_angle(local, [0.0, 0.0, 0.0]) == pytest.approx(math.pi / 2)
