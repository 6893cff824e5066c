import json
import math

import numpy as np
import pytest

from lotterydesign import (
    DesignPoint,
    LotteryInstance,
    assured_active_count,
    check_properties,
    poa_bounds,
    public_good_bounds,
    reward_threshold,
    solve_equilibrium,
    true_poa,
)
from lotterydesign.errors import DegenerateBoundError

from conftest import bisect_root, random_profile


def _design(reward, c):
    return DesignPoint(reward, np.asarray(c, dtype=float))


class TestRewardThreshold:
    def test_two_player_zero_perturbation(self, i2_profile):
        # m = 1 - h'(G*) = 0.5 at G* = 1, so the threshold solves R/(R+1) = 0.5.
        oracle = bisect_root(lambda r: r / (r + 1.0) - 0.5, 1e-9, 100.0)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert reward_threshold(i2_profile, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_budget_at_optimum_gives_zero(self, i2_profile):
        assert reward_threshold(i2_profile, [0.5, 0.5]) == 0.0

    def test_case_study_threshold(self, i30_profile):
        # Weakest player is bus 2 (coefficient 102); closed form from the
        # worst-case marginal shortfall at G* = 2317.
        g_star = i30_profile.socially_optimal_good()
        m = 1.0 - 102.0 / 2318.0
        closed = m * g_star / (1.0 - m)
        value = reward_threshold(i30_profile, np.zeros(20))
        assert value == pytest.approx(closed, rel=1e-9)
        oracle = bisect_root(lambda r: r / (r + g_star) - m, 1.0, 1e7, tol=1e-7)
        assert value == pytest.approx(oracle, abs=1e-4)


class TestAssuredActiveCount:
    def test_boundary_is_excluded(self, i2_profile):
        # At R = 1, c = 0 the criterion evaluates to exactly zero: not counted.
        assert assured_active_count(i2_profile, _design(1.0, [0, 0])) == 0

    def test_larger_reward_counts_all(self, i2_profile):
        assert assured_active_count(i2_profile, _design(2.0, [0, 0])) == 2


class TestPublicGoodBounds:
    def test_two_player_unit_reward(self, i2_profile):
        pb = public_good_bounds(i2_profile, _design(1.0, [0, 0]))
        assert pb.g_lower == 0.0  # argument hits H(0) exactly
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)
        # The solved good lands inside.
        eq = solve_equilibrium(LotteryInstance(i2_profile), _design(1.0, [0, 0]))
        assert pb.g_lower - 1e-9 <= eq.G <= pb.g_upper + 1e-9

    def test_budget_at_optimum_collapses_bracket(self, i2_profile):
        pb = public_good_bounds(i2_profile, _design(1.0, [0.5, 0.5]))
        assert pb.g_lower == pytest.approx(1.0, abs=1e-9)
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)

    def test_large_reward_tightens(self, i2_profile):
        pb = public_good_bounds(i2_profile, _design(100.0, [0, 0]))
        # Far bound solves 2/(G+1) = 1.01.
        assert pb.g_lower == pytest.approx(2.0 / 1.01 - 1.0, abs=1e-9)
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)

    def test_small_reward_is_degenerate(self, i2_profile):
        with pytest.raises(DegenerateBoundError):
            public_good_bounds(i2_profile, _design(0.5, [0, 0]))

    def test_proof_variant_tightens_with_assured_players(self, i2_profile):
        d = _design(10.0, [0, 0])
        statement = public_good_bounds(i2_profile, d)
        proof = public_good_bounds(i2_profile, d, variant="proof")
        assert statement.g_upper == pytest.approx(1.0, abs=1e-9)
        assert proof.g_upper < statement.g_upper
        eq = solve_equilibrium(LotteryInstance(i2_profile), d)
        assert eq.G <= proof.g_upper + 1e-9


class TestPoaBounds:
    def test_unit_reward(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(1.0, [0, 0]))
        assert pb.poa_lower == pytest.approx(1.0, abs=1e-9)
        assert math.isinf(pb.poa_upper)
        assert pb.assured_active_count == 0

    def test_budget_at_optimum(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(1.0, [0.5, 0.5]))
        assert pb.poa_lower == pytest.approx(1.0, abs=1e-9)
        assert pb.poa_upper == pytest.approx(1.0, abs=1e-9)

    def test_large_reward_sandwiches_true_poa(self, i2_profile, i2_instance):
        d = _design(100.0, [0, 0])
        pb = poa_bounds(i2_profile, d)
        opt = i2_profile.socially_optimal_payoff()
        g = 2.0 / 1.01 - 1.0
        expected_upper = opt / (2.0 * math.log1p(g) - g)
        assert pb.poa_upper == pytest.approx(expected_upper, rel=1e-9)
        actual = true_poa(i2_instance, d)
        assert pb.poa_lower - 1e-9 <= actual <= pb.poa_upper + 1e-9

    def test_degenerate_maps_to_infinity(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(0.5, [0, 0]))
        assert math.isinf(pb.poa_upper)
        assert pb.g_lower == 0.0


class TestTruePoa:
    def test_unit_reward_value(self, i2_instance):
        value = true_poa(i2_instance, _design(1.0, [0, 0]))
        expected = (2.0 * math.log(2.0) - 1.0) / (2.0 * math.log(1.5) - 0.5)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(1.2425, abs=1e-3)

    def test_optimal_budget_is_efficient(self, i2_instance):
        for reward in (0.5, 1.0, 7.0):
            assert true_poa(i2_instance, _design(reward, [0.5, 0.5])) == (
                pytest.approx(1.0, abs=1e-9))

    def test_improves_with_reward(self, i2_instance):
        poa_1 = true_poa(i2_instance, _design(1.0, [0, 0]))
        poa_10 = true_poa(i2_instance, _design(10.0, [0, 0]))
        assert 1.0 < poa_10 < poa_1


class TestCheckProperties:
    def test_optimal_design_point_all_pass(self, i2_instance):
        d = _design(1.0, [0.5, 0.5])
        eq = solve_equilibrium(i2_instance, d)
        report = check_properties(i2_instance, d, eq)
        assert all(c.holds is not False for c in report)
        by_name = {c.name: c for c in report}
        assert by_name["pool_covers_perturbation"].holds is True
        assert by_name["perturbation_sensitivity_sign"].skipped_reason is not None

    def test_threshold_boundary_skips_floor_check(self, i2_instance):
        d = _design(1.0, [0, 0])  # R equals the threshold exactly
        eq = solve_equilibrium(i2_instance, d)
        by_name = {c.name: c for c in check_properties(i2_instance, d, eq)}
        assert by_name["investment_lower_bound"].holds is None
        assert "threshold" in by_name["investment_lower_bound"].skipped_reason

    def test_above_threshold_asserts_floor(self, i2_instance):
        d = _design(1.5, [0, 0])
        eq = solve_equilibrium(i2_instance, d)
        by_name = {c.name: c for c in check_properties(i2_instance, d, eq)}
        assert by_name["investment_lower_bound"].holds is True
        assert by_name["reward_sensitivity_sign"].holds is True

    def test_report_serializes(self, i2_instance):
        d = _design(1.5, [0, 0])
        eq = solve_equilibrium(i2_instance, d)
        payload = json.dumps([c.to_dict() for c in check_properties(i2_instance, d, eq)])
        entries = json.loads(payload)
        assert {"property", "holds", "margin", "skipped_reason"} == set(entries[0])


class TestSandwichInvariants:
    def test_randomized_sandwich(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            profile = random_profile(rng)
            n = profile.n_players
            inst = LotteryInstance(profile)
            g_star = profile.socially_optimal_good()
            c = rng.uniform(0.0, g_star / n, n) if rng.random() < 0.7 else np.zeros(n)
            r_l = reward_threshold(profile, c)
            d = _design(r_l + 0.1 + float(rng.uniform(0.0, 50.0)), c)
            eq = solve_equilibrium(inst, d)
            pb = poa_bounds(profile, d)
            payoff_eq = profile.aggregate_value(eq.G) - eq.G
            ends = sorted(profile.aggregate_value(g) - g
                          for g in (pb.g_lower, pb.g_upper))
            assert ends[0] - 1e-7 <= payoff_eq <= ends[1] + 1e-7
            actual = true_poa(inst, d, eq)
            assert pb.poa_lower - 1e-9 <= actual
            if math.isfinite(pb.poa_upper):
                assert actual <= pb.poa_upper + 1e-9

    def test_asymptotic_efficiency(self, i2_instance):
        values = [true_poa(i2_instance, _design(r, [0, 0]))
                  for r in (1.0, 10.0, 100.0, 1e6)]
        assert all(v > 1.0 for v in values[:3])
        assert all(a > b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) <= 1e-3

    def test_threshold_consistency(self):
        # Just above the activity threshold every player's floor is positive.
        rng = np.random.default_rng(22)
        for _ in range(10):
            profile = random_profile(rng)
            n = profile.n_players
            c = rng.uniform(0.0, 0.5, n)
            r_l = reward_threshold(profile, c)
            reward = r_l * (1.0 + 1e-6) if r_l > 0.0 else 1e-6
            g_upper = max(profile.socially_optimal_good(), float(c.sum()))
            base = reward / (reward + g_upper - c.sum())
            floors = c + reward * (base + profile.slopes(g_upper) - 1.0)
            assert min(floors) > 0.0

    def test_branch_above_optimum(self):
        # Perturbation totals beyond the optimum flip the bracket: the good
        # sits in [G*, sum(c)] and the bounds still contain it.
        rng = np.random.default_rng(23)
        for _ in range(15):
            profile = random_profile(rng)
            n = profile.n_players
            inst = LotteryInstance(profile)
            g_star = profile.socially_optimal_good()
            c = rng.uniform(1.05, 1.6) * g_star / n * np.ones(n)
            reward = float(c.sum()) + float(rng.uniform(0.5, 20.0))
            d = _design(reward, c)
            eq = solve_equilibrium(inst, d)
            assert g_star - 1e-9 <= eq.G <= d.perturbation_total + 1e-9
            pb = poa_bounds(profile, d)
            assert pb.g_lower - 1e-9 <= eq.G <= pb.g_upper + 1e-9
            payoff_eq = profile.aggregate_value(eq.G) - eq.G
            ends = sorted(profile.aggregate_value(g) - g
                          for g in (pb.g_lower, pb.g_upper))
            assert ends[0] - 1e-7 <= payoff_eq <= ends[1] + 1e-7
