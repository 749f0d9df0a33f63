import math

import numpy as np
import pytest
from oracles import grid_search_p2, link_distance, make_rf, p2_objective, pgd_p2

from leodcb.channel import (
    MAX_POWER_SCHEME,
    RfConstants,
    WeightScheme,
    achievable_rate,
    amplitude_gains,
    snr,
    solve_p2,
    weight_set,
)
from leodcb.errors import DomainError


class TestLinkDistance:
    def test_vertical(self):
        assert link_distance([0, 0, 0], [0, 0, 5e5]) == 5e5

    def test_axis_swap_symmetric(self):
        assert link_distance([1, 2, 0], [4, 6, 0]) == link_distance([2, 1, 0], [6, 4, 0])

    def test_three_four_five(self):
        assert link_distance([3e5, 4e5, 0], [0, 0, 0]) == pytest.approx(5e5)


class TestSnr:
    def test_single_terminal_closed_form(self):
        rf = make_rf(1)
        d, p = 7e5, 1.5
        expected = p * rf.beta0 * d**-2 / rf.noise_power
        assert snr([p], [d], rf) == pytest.approx(expected, rel=1e-12)

    def test_coherent_gain_is_n_squared(self):
        rf = make_rf(10)
        base = snr([2.0], [5e5], rf)
        combined = snr(np.full(10, 2.0), np.full(10, 5e5), rf)
        assert combined / base == pytest.approx(100.0, rel=1e-9)

    def test_n_squared_matches_term_by_term_sum(self):
        rf = make_rf(10)
        powers = np.full(10, 1.7)
        distances = np.full(10, 6e5)
        amplitude = sum(
            math.sqrt(p * rf.beta0 * d**-rf.path_loss_exponent)
            for p, d in zip(powers, distances)
        )
        assert snr(powers, distances, rf) == pytest.approx(
            amplitude**2 / rf.noise_power, rel=1e-12
        )

    def test_doubling_noise_halves_snr(self):
        rf = make_rf(2)
        doubled = RfConstants(
            beta0=rf.beta0,
            path_loss_exponent=rf.path_loss_exponent,
            noise_power=2 * rf.noise_power,
            bandwidth=rf.bandwidth,
            p_min=rf.p_min,
            p_max=rf.p_max,
            rho0=rf.rho0,
        )
        args = ([1.0, 2.0], [5e5, 6e5])
        assert snr(*args, doubled) == pytest.approx(snr(*args, rf) / 2, rel=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(DomainError):
            snr([1.0], [0.0], make_rf(1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            snr([1.0, 1.0], [5e5], make_rf(2))


class TestAchievableRate:
    @pytest.mark.parametrize("snr_value,multiple", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_log_points(self, snr_value, multiple):
        rf = make_rf(1)
        assert achievable_rate(snr_value, rf) == pytest.approx(multiple * rf.bandwidth)

    def test_negative_snr_rejected(self):
        with pytest.raises(DomainError):
            achievable_rate(-0.1, make_rf(1))


class TestWeightSet:
    def test_midpoint_scheme(self):
        schemes = weight_set(10)
        # Scheme k = 5 of 10 sits at position 4: a = 5 / 10.
        assert (schemes[4].a, schemes[4].b) == (5 / 10, 1.0 - 5 / 10)
        assert schemes[4].a == pytest.approx(0.5)
        assert schemes[4].b == pytest.approx(0.5)

    def test_singleton(self):
        (only,) = weight_set(1)
        assert (only.a, only.b) == (1.0, 0.0)

    def test_weights_sum_to_one(self):
        for scheme in weight_set(17):
            assert scheme.a + scheme.b == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            weight_set(0)

    def test_max_power_scheme_is_reserved_corner(self):
        assert (MAX_POWER_SCHEME.a, MAX_POWER_SCHEME.b) == (0.0, 1.0)
        assert MAX_POWER_SCHEME.a == 0.0
        assert all(s.a > 0 for s in weight_set(10))


class TestP2Objective:
    def test_pure_energy_monotone_increasing(self):
        rf = make_rf(2)
        scheme = WeightScheme(1.0, 0.0)
        d = [5e5, 6e5]
        low = p2_objective([1.0, 1.0], d, rf, scheme, 60.0)
        high = p2_objective([1.5, 1.0], d, rf, scheme, 60.0)
        assert high > low

    def test_pure_snr_monotone_decreasing(self):
        rf = make_rf(2)
        d = [5e5, 6e5]
        low = p2_objective([1.0, 1.0], d, rf, MAX_POWER_SCHEME, 60.0)
        high = p2_objective([1.5, 1.0], d, rf, MAX_POWER_SCHEME, 60.0)
        assert high < low

    def test_matches_independent_expression(self):
        rf = make_rf(3)
        scheme = WeightScheme(0.5, 0.5)
        powers = np.array([1.2, 1.8, 1.5])
        distances = np.array([5e5, 6e5, 7e5])
        amplitude = sum(
            math.sqrt(p * rf.beta0 * d**-rf.path_loss_exponent)
            for p, d in zip(powers, distances)
        )
        expected = 0.5 * rf.rho0 * powers.sum() * 60.0 - 0.5 * amplitude**2 / rf.noise_power
        assert p2_objective(powers, distances, rf, scheme, 60.0) == pytest.approx(
            expected, rel=1e-12
        )


class TestSolveP2:
    def test_pure_energy_scheme_hits_lower_corner(self):
        rf = make_rf(3)
        powers = solve_p2([5e5, 6e5, 7e5], rf, WeightScheme(1.0, 0.0), 60.0)
        assert np.all(powers == rf.p_min)

    def test_pure_snr_scheme_hits_upper_corner(self):
        rf = make_rf(3)
        powers = solve_p2([5e5, 6e5, 7e5], rf, MAX_POWER_SCHEME, 60.0)
        assert np.all(powers == rf.p_max)

    def test_box_respected_across_schemes(self):
        rf = make_rf(4)
        rng = np.random.default_rng(11)
        for scheme in weight_set(10):
            d = rng.uniform(5e5, 3e6, size=4)
            powers = solve_p2(d, rf, scheme, 60.0)
            assert np.all(powers >= rf.p_min - 1e-12)
            assert np.all(powers <= rf.p_max + 1e-12)

    def test_total_power_nondecreasing_in_b(self):
        rf = make_rf(5)
        rng = np.random.default_rng(4)
        d = rng.uniform(5e5, 1.5e6, size=5)
        schemes = sorted(weight_set(10), key=lambda s: s.b)
        totals = [float(solve_p2(d, rf, s, 60.0).sum()) for s in schemes]
        for lo, hi in zip(totals, totals[1:]):
            assert hi >= lo - 1e-7

    @pytest.mark.parametrize("instance", range(6))
    def test_matches_grid_search_oracle(self, instance):
        rng = np.random.default_rng(100 + instance)
        rf = make_rf(3)
        d = rng.uniform(5e5, 3e6, size=3)
        scheme = weight_set(10)[instance % 10]
        powers = solve_p2(d, rf, scheme, 60.0)
        achieved = p2_objective(powers, d, rf, scheme, 60.0)
        oracle = grid_search_p2(d, rf, scheme, 60.0)
        assert achieved <= oracle + 1e-4

    def test_midpoint_convexity_in_scenario_regime(self):
        # Terminals clustered within 100 m of each other against >= 5e5 m
        # links, the regime where the subproblem is convex.
        rf = make_rf(10)
        rng = np.random.default_rng(21)
        base = rng.uniform(5e5, 2e6)
        d = base + rng.uniform(-50.0, 50.0, size=10)
        scheme = WeightScheme(0.5, 0.5)
        for _ in range(200):
            x = rng.uniform(rf.p_min, rf.p_max, size=10)
            y = rng.uniform(rf.p_min, rf.p_max, size=10)
            fx = p2_objective(x, d, rf, scheme, 60.0)
            fy = p2_objective(y, d, rf, scheme, 60.0)
            fm = p2_objective((x + y) / 2, d, rf, scheme, 60.0)
            assert fm <= (fx + fy) / 2 + 1e-9

    def test_empty_distances_rejected(self):
        with pytest.raises(DomainError):
            solve_p2([], make_rf(1), WeightScheme(0.5, 0.5), 60.0)


class TestExactP2:
    def test_no_worse_than_pgd_or_corners_off_regime(self):
        # Terminals spread over 5e5-3e6 m, unlike a scenario's 100 m
        # cluster, so that interior optima occur.
        rng = np.random.default_rng(60)
        schemes = [MAX_POWER_SCHEME, *weight_set(10)]
        interior = 0
        for _ in range(200):
            n = int(rng.integers(2, 11))
            rf = make_rf(n)
            d = rng.uniform(5e5, 3e6, size=n)
            scheme = schemes[rng.integers(len(schemes))]
            powers = solve_p2(d, rf, scheme, 60.0)
            exact = p2_objective(powers, d, rf, scheme, 60.0)
            scale = (
                scheme.a * rf.rho0 * 60.0 * n * rf.p_max
                + scheme.b / rf.noise_power * amplitude_gains(d, rf).sum() ** 2 * rf.p_max
            )
            pgd = p2_objective(pgd_p2(d, rf, scheme, 60.0), d, rf, scheme, 60.0)
            assert exact <= pgd + 1e-12 * scale
            for corner in (rf.p_min, rf.p_max):
                assert exact <= p2_objective(np.full(n, corner), d, rf, scheme, 60.0)
            interior += bool(np.any((powers > rf.p_min) & (powers < rf.p_max)))
        assert interior > 0

    def test_batch_equals_rows_bitwise(self):
        rng = np.random.default_rng(61)
        rf = make_rf(6)
        d = rng.uniform(5e5, 3e6, size=(4, 5, 6))
        for scheme in [MAX_POWER_SCHEME, *weight_set(10)]:
            batch = solve_p2(d, rf, scheme, 60.0)
            assert batch.shape == d.shape
            rows = np.array([[solve_p2(r, rf, scheme, 60.0) for r in block] for block in d])
            assert np.array_equal(batch, rows)
            rates = achievable_rate(snr(batch, d, rf), rf)
            assert rates.shape == d.shape[:-1]
            assert np.array_equal(rates, [
                [achievable_rate(snr(p, r, rf), rf) for p, r in zip(pb, block)]
                for pb, block in zip(batch, d)
            ])
