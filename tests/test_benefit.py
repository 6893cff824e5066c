import math

import numpy as np
import pytest

from lotterydesign import BenefitProfile
from lotterydesign.errors import (
    DomainError,
    InvariantViolationError,
    OutOfCodomainError,
)

from conftest import bisect_root, random_profile


class TestBenefitFunction:
    """Each player's h_i(v) = a_i ln(v+1), read through the profile's vectors."""

    def test_value_and_slope_at_zero(self):
        profile = BenefitProfile.scaled_log([1.0, 2.0])
        assert profile.values(0.0).tolist() == [0.0, 0.0]
        assert profile.slopes(0.0).tolist() == [1.0, 2.0]

    def test_case_study_coefficient_at_zero(self, i30_profile):
        # Largest case-study coefficient: bus 30 carries 100 + 30.
        assert i30_profile.slopes(0.0).max() == 130.0
        assert not np.any(i30_profile.values(0.0))

    def test_unit_value_point(self):
        # ln(v+1) = 1 at v = e - 1, slope 1/e there.
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        assert profile.values(math.e - 1.0) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert profile.slopes(math.e - 1.0) == pytest.approx([1.0 / math.e] * 2, abs=1e-12)

    def test_negative_good_rejected(self, i2_profile):
        for method in (i2_profile.values, i2_profile.slopes, i2_profile.curvatures,
                       i2_profile.aggregate_value, i2_profile.aggregate_marginal,
                       i2_profile.aggregate_curvature):
            with pytest.raises(DomainError):
                method(-0.1)

    def test_bad_coefficients_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvariantViolationError):
                BenefitProfile.scaled_log([bad, 2.0])
        with pytest.raises(InvariantViolationError):
            BenefitProfile.scaled_log([[1.0, 2.0]])

    def test_slope_matches_central_difference(self):
        rng = np.random.default_rng(2)
        eps = 1e-5
        for _ in range(20):
            profile = random_profile(rng, lo=0.2, hi=5.0)
            v = float(rng.uniform(eps, 50.0))
            fd = (profile.values(v + eps) - profile.values(v - eps)) / (2.0 * eps)
            assert np.max(np.abs(profile.slopes(v) - fd)) <= 1e-6
            fd = (profile.slopes(v + eps) - profile.slopes(v - eps)) / (2.0 * eps)
            assert np.max(np.abs(profile.curvatures(v) - fd)) <= 1e-6

    def test_coefficients_are_read_only(self):
        a = np.array([1.0, 2.0])
        profile = BenefitProfile.scaled_log(a)
        a[0] = 5.0
        assert profile.coefficients.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            profile.coefficients[0] = 5.0


class TestBenefitProfile:
    def test_aggregate_marginal_examples(self, i2_profile, i30_profile):
        assert i2_profile.aggregate_marginal(0.0) == pytest.approx(2.0, abs=1e-12)
        assert i2_profile.aggregate_marginal(1.0) == pytest.approx(1.0, abs=1e-12)
        # Case-study coefficients sum to 2318, so H(2317) = 1 exactly.
        assert i30_profile.aggregate_marginal(2317.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_weak_profiles(self):
        with pytest.raises(InvariantViolationError):
            BenefitProfile(())
        with pytest.raises(InvariantViolationError):
            BenefitProfile.scaled_log([0.4, 0.5])  # H(0) = 0.9 <= 1

    def test_socially_optimal_good_two_player(self, i2_profile):
        assert i2_profile.socially_optimal_good() == pytest.approx(1.0, abs=1e-9)

    def test_socially_optimal_good_case_study(self, i30_profile):
        assert i30_profile.socially_optimal_good() == pytest.approx(2317.0, abs=0.5)

    def test_socially_optimal_good_single_player(self):
        profile = BenefitProfile.scaled_log([5.0])
        oracle = bisect_root(lambda g: profile.aggregate_marginal(g) - 1.0, 0.0, 100.0)
        assert oracle == pytest.approx(4.0, abs=1e-9)
        assert profile.socially_optimal_good() == pytest.approx(oracle, abs=1e-9)

    def test_invert_aggregate_examples(self, i2_profile):
        assert i2_profile.invert_aggregate(1.0) == pytest.approx(1.0, abs=1e-9)
        assert i2_profile.invert_aggregate(2.0) == 0.0
        oracle = bisect_root(lambda g: i2_profile.aggregate_marginal(g) - 0.5, 0.0, 100.0)
        assert oracle == pytest.approx(3.0, abs=1e-9)
        assert i2_profile.invert_aggregate(0.5) == pytest.approx(oracle, abs=1e-9)

    def test_invert_aggregate_edges(self, i2_profile):
        assert math.isinf(i2_profile.invert_aggregate(0.0))
        assert math.isinf(i2_profile.invert_aggregate(-3.0))
        with pytest.raises(OutOfCodomainError):
            i2_profile.invert_aggregate(2.5)

    def test_socially_optimal_payoff_examples(self, i2_profile, i30_profile):
        assert i2_profile.socially_optimal_payoff() == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-9)
        single = BenefitProfile.scaled_log([5.0])
        assert single.socially_optimal_payoff() == pytest.approx(
            5.0 * math.log(5.0) - 4.0, abs=1e-9)
        # Case-study aggregate payoff at the optimum.
        assert i30_profile.socially_optimal_payoff() == pytest.approx(15644.0, abs=1.0)


class TestProfileInvariants:
    def test_aggregate_marginal_strictly_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            profile = random_profile(rng)
            grid = np.sort(rng.uniform(0.0, 30.0, 8))
            values = [profile.aggregate_marginal(g) for g in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_invert_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            profile = random_profile(rng)
            h0 = profile.marginal_at_zero
            for y in np.linspace(1e-3, h0, 9):
                g = profile.invert_aggregate(float(y))
                assert abs(profile.aggregate_marginal(g) - y) <= 1e-8

    def test_aggregates_sum_the_player_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            profile = random_profile(rng)
            for g in rng.uniform(0.0, 30.0, 4):
                assert profile.aggregate_value(g) == pytest.approx(
                    profile.values(g).sum(), rel=1e-13)
                assert profile.aggregate_marginal(g) == pytest.approx(
                    profile.slopes(g).sum(), rel=1e-13)
                assert profile.aggregate_curvature(g) == pytest.approx(
                    profile.curvatures(g).sum(), rel=1e-13)

    def test_optimum_is_a_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            profile = random_profile(rng)
            g_star = profile.socially_optimal_good()
            assert abs(profile.aggregate_marginal(g_star) - 1.0) <= 1e-10

    def test_optimum_maximizes_aggregate_payoff(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            profile = random_profile(rng)
            g_star = profile.socially_optimal_good()
            best = profile.aggregate_value(g_star) - g_star
            for factor in (0.5, 0.9, 1.1, 2.0):
                g = factor * g_star
                assert profile.aggregate_value(g) - g < best
