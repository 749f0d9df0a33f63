"""Property tests for the algebraic invariants that hold for all inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dominates, make_rf

from leodcb.channel import achievable_rate, snr, weight_set
from leodcb.emodrl import generate_weights, hypervolume
from leodcb.errors import DomainError
from leodcb.orbits import OrbitalElements, PhysicalConstants, position_at, wrap_angle

CONSTANTS = PhysicalConstants()

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
objective_vectors = st.tuples(finite_floats, finite_floats, finite_floats).map(np.array)


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_wrap_angle_lands_in_range(theta):
    wrapped = wrap_angle(theta)
    assert 0.0 <= wrapped < 2 * math.pi


@given(
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
    st.floats(min_value=1e5, max_value=2e6, allow_nan=False),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=50)
def test_orbit_norm_preserved(inclination, raan, altitude, slot):
    elements = OrbitalElements(inclination, raan, 0.3, 0.1, altitude)
    pos = position_at(elements, slot, 60.0, CONSTANTS)
    radius = float(np.linalg.norm(pos))
    assert math.isclose(radius, altitude + CONSTANTS.earth_radius, rel_tol=1e-9)


@given(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=1e5, max_value=3e6, allow_nan=False),
)
@settings(max_examples=50)
def test_coherent_gain_scales_with_square_of_count(n, power, distance):
    rf = make_rf(n)
    one = snr([power], [distance], rf)
    many = snr(np.full(n, power), np.full(n, distance), rf)
    assert math.isclose(many, n * n * one, rel_tol=1e-9)


@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_rate_monotone_in_snr(snr_value):
    rf = make_rf(1)
    assert achievable_rate(snr_value + 0.5, rf) > achievable_rate(snr_value, rf)


@given(st.integers(min_value=1, max_value=64))
def test_weight_set_schemes_partition_unit_interval(cardinality):
    schemes = weight_set(cardinality)
    assert len(schemes) == cardinality
    assert schemes[-1].a == 1.0
    for scheme in schemes:
        assert 0.0 < scheme.a <= 1.0
        assert math.isclose(scheme.a + scheme.b, 1.0, abs_tol=1e-12)


@given(st.integers(min_value=1, max_value=40))
def test_generated_weights_live_on_strict_simplex(count):
    weights = generate_weights(count)
    assert len(weights) == count
    for w in weights:
        assert np.all(w > 0)
        assert math.isclose(float(w.sum()), 1.0, abs_tol=1e-12)


@given(objective_vectors, objective_vectors)
def test_dominance_is_antisymmetric(fa, fb):
    assert not (dominates(fa, fb) and dominates(fb, fa))
    assert not dominates(fa, fa)


@given(objective_vectors, objective_vectors, objective_vectors)
@settings(max_examples=200)
def test_dominance_is_transitive(fa, fb, fc):
    if dominates(fa, fb) and dominates(fb, fc):
        assert dominates(fa, fc)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100)
def test_hypervolume_bounded_by_box_of_maxima(points):
    pts = np.array(points)
    ref = np.zeros(3)
    volume = hypervolume(pts, ref)
    bound = float(np.prod(pts.max(axis=0)))
    biggest_single = float(max(np.prod(p) for p in pts))
    assert biggest_single - 1e-9 <= volume <= bound + 1e-9


small_ints = st.integers(min_value=-2, max_value=2).map(float)


@given(st.lists(st.tuples(small_ints, small_ints, small_ints), min_size=1, max_size=6))
@settings(max_examples=200)
def test_hypervolume_accepts_exactly_the_sets_dominating_the_reference(points):
    # Small integers make equal components, the edge of dominance, common.
    ref = np.zeros(3)
    if all(dominates(p, ref) for p in points):
        assert hypervolume(points, ref) >= 0.0
    else:
        with pytest.raises(DomainError):
            hypervolume(points, ref)
