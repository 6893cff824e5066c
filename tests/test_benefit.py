import dataclasses
import math

import numpy as np
import pytest

from lotterydesign import BenefitProfile
from lotterydesign.errors import DomainError, InvariantViolationError

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
        for method in (i2_profile.values, i2_profile.slopes, i2_profile.aggregate_value):
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
            # Strict concavity: the slopes fall, at the rate -a_i/(v+1)^2.
            fd = (profile.slopes(v + eps) - profile.slopes(v - eps)) / (2.0 * eps)
            second = -profile.coefficients / (v + 1.0) ** 2
            assert np.max(np.abs(second - fd)) <= 1e-6

    def test_coefficients_are_read_only(self):
        a = np.array([1.0, 2.0])
        profile = BenefitProfile.scaled_log(a)
        a[0] = 5.0
        assert profile.coefficients.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            profile.coefficients[0] = 5.0


class TestBenefitProfile:
    def test_slope_sum_examples(self, i2_profile, i30_profile):
        assert i2_profile.slopes(0.0).sum() == pytest.approx(2.0, abs=1e-12)
        assert i2_profile.slopes(1.0).sum() == pytest.approx(1.0, abs=1e-12)
        # Case-study coefficients sum to 2318, so H(2317) = 1 exactly.
        assert i30_profile.slopes(2317.0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_weak_profiles(self):
        with pytest.raises(InvariantViolationError):
            BenefitProfile(())
        with pytest.raises(InvariantViolationError):
            BenefitProfile.scaled_log([0.4, 0.5])  # H(0) = 0.9 <= 1

    @pytest.mark.parametrize("coefficients", [[1e308, 1e308], np.full(40, 1e308)],
                             ids=["floats", "numpy"])
    def test_rejects_a_coefficient_sum_past_the_largest_float(self, coefficients):
        with pytest.raises(InvariantViolationError, match="must be finite"):
            BenefitProfile.scaled_log(coefficients)

    def test_socially_optimal_good_two_player(self, i2_profile):
        assert i2_profile.g_star == pytest.approx(1.0, abs=1e-9)

    def test_socially_optimal_good_case_study(self, i30_profile):
        assert i30_profile.g_star == pytest.approx(2317.0, abs=0.5)

    def test_socially_optimal_good_single_player(self):
        profile = BenefitProfile.scaled_log([5.0])
        oracle = bisect_root(lambda g: profile.slopes(g).sum() - 1.0, 0.0, 100.0)
        assert oracle == pytest.approx(4.0, abs=1e-9)
        assert profile.g_star == pytest.approx(oracle, abs=1e-9)

    def test_socially_optimal_payoff_examples(self, i2_profile, i30_profile):
        assert i2_profile.optimal_payoff == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-9)
        single = BenefitProfile.scaled_log([5.0])
        assert single.optimal_payoff == pytest.approx(
            5.0 * math.log(5.0) - 4.0, abs=1e-9)
        # Case-study aggregate payoff at the optimum.
        assert i30_profile.optimal_payoff == pytest.approx(15644.0, abs=1.0)

    def test_good_bracket_orders_the_total_and_the_optimum(self, i2_profile):
        # G* = 1 for the two-player profile.
        assert i2_profile.good_bracket(0.25) == (0.25, 1.0)
        assert i2_profile.good_bracket(3.0) == (1.0, 3.0)
        assert i2_profile.good_bracket(1.0) == (1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            i2_profile.g_star = 2.0


class TestProfileInvariants:
    def test_slope_sum_strictly_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            profile = random_profile(rng)
            grid = np.sort(rng.uniform(0.0, 30.0, 8))
            values = [profile.slopes(g).sum() for g in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_aggregates_sum_the_player_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            profile = random_profile(rng)
            for g in rng.uniform(0.0, 30.0, 4):
                assert profile.aggregate_value(g) == pytest.approx(
                    profile.values(g).sum(), rel=1e-13)
            assert profile.marginal_at_zero == pytest.approx(
                profile.slopes(0.0).sum(), rel=1e-13)

    def test_optimum_is_a_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            profile = random_profile(rng)
            assert abs(profile.slopes(profile.g_star).sum() - 1.0) <= 1e-10

    def test_optimum_maximizes_aggregate_payoff(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            profile = random_profile(rng)
            g_star = profile.g_star
            best = profile.aggregate_value(g_star) - g_star
            assert profile.optimal_payoff == best
            for factor in (0.5, 0.9, 1.1, 2.0):
                g = factor * g_star
                assert profile.aggregate_value(g) - g < best
