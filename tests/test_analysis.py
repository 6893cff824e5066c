import json
import math

import numpy as np
import pytest

from lotterydesign import (
    BenefitProfile,
    DesignPoint,
    analyze_sweep,
    check_properties,
    reward_threshold,
    solve_equilibrium,
    true_poa,
)
from lotterydesign.errors import InvariantViolationError
from lotterydesign.game import TOLERANCES

from conftest import bisect_root, random_profile
from oracles import poa_bounds


def _design(reward, c):
    return DesignPoint(reward, np.asarray(c, dtype=float))


def _solved_poa(profile, design):
    return true_poa(profile, solve_equilibrium(profile, design))


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
        g_star = i30_profile.g_star
        m = 1.0 - 102.0 / 2318.0
        closed = m * g_star / (1.0 - m)
        value = reward_threshold(i30_profile, np.zeros(20))
        assert value == pytest.approx(closed, rel=1e-9)
        oracle = bisect_root(lambda r: r / (r + g_star) - m, 1.0, 1e7, tol=1e-7)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_total_above_the_optimum_gives_zero(self, i2_profile):
        # c_bar = 1e17 > G* = 1, so G_U = c_bar and any positive reward
        # suffices, although 1 - h_i'(c_bar) rounds to 1 there.
        c = [1e17, 0.0]
        assert reward_threshold(i2_profile, c) == 0.0
        design = _design(2e17, c)
        eq = solve_equilibrium(i2_profile, design)
        assert eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"]
        assert len(check_properties(i2_profile, design, eq)) == 6
        assert analyze_sweep(i2_profile, c, [2e17]).equilibria.G.tolist() == [eq.G]

    def test_shortfall_rounding_to_one_below_the_optimum_raises(self):
        # G* = 1e17, where player 2's slope 1e-17 leaves 1 - slope = 1: a
        # positive gap G* - c_bar over 1 - m = 0 has no finite threshold.
        profile = BenefitProfile.scaled_log([1e17, 1.0])
        with pytest.raises(InvariantViolationError, match="rounds to 1"):
            reward_threshold(profile, [0.0, 0.0])


class TestAssuredActiveCount:
    def test_boundary_is_excluded(self, i2_profile):
        # At R = 1, c = 0 the criterion evaluates to exactly zero: not counted.
        assert poa_bounds(i2_profile, _design(1.0, [0, 0])).assured_active_count == 0

    def test_larger_reward_counts_all(self, i2_profile):
        assert poa_bounds(i2_profile, _design(2.0, [0, 0])).assured_active_count == 2

    def test_slopes_below_float_spacing_of_one_count(self):
        # gu = c_bar = 1e17, where each slope is 1e-17 and R/(R + gu - c_bar)
        # is 1: the criterion 1 + 1e-17 - 1 rounds to zero in floats.
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        d = _design(2e17, [1e17, 0.0])
        assert poa_bounds(profile, d).assured_active_count == 2
        report = check_properties(profile, d, solve_equilibrium(profile, d))
        assert all(c["holds"] is not False for c in report)
        assert {c["property"]: c for c in report}["payoff_sandwich"]["holds"] is True


class TestPublicGoodBounds:
    def test_two_player_unit_reward(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(1.0, [0, 0]))
        assert pb.g_lower == 0.0  # argument hits H(0) exactly
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)
        # The solved good lands inside.
        eq = solve_equilibrium(i2_profile, _design(1.0, [0, 0]))
        assert pb.g_lower - 1e-9 <= eq.G <= pb.g_upper + 1e-9

    def test_budget_at_optimum_collapses_bracket(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(1.0, [0.5, 0.5]))
        assert pb.g_lower == pytest.approx(1.0, abs=1e-9)
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)

    def test_large_reward_tightens(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(100.0, [0, 0]))
        # Far bound solves 2/(G+1) = 1.01.
        assert pb.g_lower == pytest.approx(2.0 / 1.01 - 1.0, abs=1e-9)
        assert pb.g_upper == pytest.approx(1.0, abs=1e-9)

    def test_proof_variant_tightens_with_assured_players(self, i2_profile):
        d = _design(10.0, [0, 0])
        statement = poa_bounds(i2_profile, d)
        proof = poa_bounds(i2_profile, d, variant="proof")
        assert statement.g_upper == pytest.approx(1.0, abs=1e-9)
        assert proof.g_upper < statement.g_upper
        eq = solve_equilibrium(i2_profile, d)
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

    def test_large_reward_sandwiches_true_poa(self, i2_profile):
        d = _design(100.0, [0, 0])
        pb = poa_bounds(i2_profile, d)
        opt = i2_profile.optimal_payoff
        g = 2.0 / 1.01 - 1.0
        expected_upper = opt / (2.0 * math.log1p(g) - g)
        assert pb.poa_upper == pytest.approx(expected_upper, rel=1e-9)
        actual = _solved_poa(i2_profile, d)
        assert pb.poa_lower - 1e-9 <= actual <= pb.poa_upper + 1e-9

    def test_degenerate_maps_to_infinity(self, i2_profile):
        pb = poa_bounds(i2_profile, _design(0.5, [0, 0]))
        assert math.isinf(pb.poa_upper)
        assert pb.g_lower == 0.0


class TestTruePoa:
    def test_unit_reward_value(self, i2_profile):
        value = _solved_poa(i2_profile, _design(1.0, [0, 0]))
        expected = (2.0 * math.log(2.0) - 1.0) / (2.0 * math.log(1.5) - 0.5)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(1.2425, abs=1e-3)

    def test_optimal_budget_is_efficient(self, i2_profile):
        for reward in (0.5, 1.0, 7.0):
            assert _solved_poa(i2_profile, _design(reward, [0.5, 0.5])) == (
                pytest.approx(1.0, abs=1e-9))

    def test_improves_with_reward(self, i2_profile):
        poa_1 = _solved_poa(i2_profile, _design(1.0, [0, 0]))
        poa_10 = _solved_poa(i2_profile, _design(10.0, [0, 0]))
        assert 1.0 < poa_10 < poa_1


class TestCheckProperties:
    def test_optimal_design_point_all_pass(self, i2_profile):
        d = _design(1.0, [0.5, 0.5])
        eq = solve_equilibrium(i2_profile, d)
        report = check_properties(i2_profile, d, eq)
        assert all(c["holds"] is not False for c in report)
        by_name = {c["property"]: c for c in report}
        assert by_name["pool_covers_perturbation"]["holds"] is True
        assert by_name["perturbation_sensitivity_sign"]["skipped_reason"] is not None

    def test_threshold_boundary_skips_floor_check(self, i2_profile):
        d = _design(1.0, [0, 0])  # R equals the threshold exactly
        eq = solve_equilibrium(i2_profile, d)
        by_name = {c["property"]: c for c in check_properties(i2_profile, d, eq)}
        assert by_name["investment_lower_bound"]["holds"] is None
        assert "threshold" in by_name["investment_lower_bound"]["skipped_reason"]

    def test_above_threshold_asserts_floor(self, i2_profile):
        d = _design(1.5, [0, 0])
        eq = solve_equilibrium(i2_profile, d)
        by_name = {c["property"]: c for c in check_properties(i2_profile, d, eq)}
        assert by_name["investment_lower_bound"]["holds"] is True
        assert by_name["reward_sensitivity_sign"]["holds"] is True

    def test_inactive_player_skips_sensitivities(self):
        # The weak player of (3, 0.6) invests nothing at R = 1.
        profile = BenefitProfile.scaled_log([3.0, 0.6])
        d = _design(1.0, [0, 0])
        eq = solve_equilibrium(profile, d)
        assert eq.active_set == (0,)
        by_name = {c["property"]: c for c in check_properties(profile, d, eq)}
        for name in ("reward_sensitivity_sign", "perturbation_sensitivity_sign"):
            assert by_name[name]["holds"] is None
            assert by_name[name]["skipped_reason"] == (
                "sensitivity formulas require every player active")

    @pytest.mark.parametrize("row, check", [
        ("property_margin", "good_bracketed"),
        ("payoff_sandwich_margin", "payoff_sandwich"),
        ("equality_reward_sensitivity", "reward_sensitivity_sign"),
        ("optimum_attained", "pool_covers_perturbation"),
        ("equality_case", "perturbation_sensitivity_sign"),
    ])
    def test_margins_come_from_tolerance_table(self, i2_profile, monkeypatch, row, check):
        # At the optimal budget every check that applies passes; moving the
        # stated row past the observed margin must flip the check that
        # applies it. G = G* there, so a negative optimum_attained skips the
        # pool check, and c_bar = G*, so a negative equality_case leaves the
        # equality branch, which skips the perturbation check.
        flips = {"optimum_attained": (True, None), "equality_case": (None, True)}
        expected_before, expected_after = flips.get(row, (True, False))
        d = _design(1.0, [0.5, 0.5])
        eq = solve_equilibrium(i2_profile, d)
        before = {c["property"]: c["holds"] for c in check_properties(i2_profile, d, eq)}
        assert before[check] is expected_before
        shift = 1.0 if row in ("property_margin", "payoff_sandwich_margin") else -1.0
        monkeypatch.setitem(TOLERANCES[row], "value", shift)
        after = {c["property"]: c["holds"] for c in check_properties(i2_profile, d, eq)}
        assert after[check] is expected_after

    def test_report_serializes(self, i2_profile):
        d = _design(1.5, [0, 0])
        eq = solve_equilibrium(i2_profile, d)
        payload = json.dumps(check_properties(i2_profile, d, eq))
        entries = json.loads(payload)
        assert {"property", "holds", "margin", "skipped_reason"} == set(entries[0])


class TestSandwichInvariants:
    def test_randomized_sandwich(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            profile = random_profile(rng)
            n = profile.n_players
            g_star = profile.g_star
            c = rng.uniform(0.0, g_star / n, n) if rng.random() < 0.7 else np.zeros(n)
            r_l = reward_threshold(profile, c)
            d = _design(r_l + 0.1 + float(rng.uniform(0.0, 50.0)), c)
            eq = solve_equilibrium(profile, d)
            pb = poa_bounds(profile, d)
            payoff_eq = profile.aggregate_value(eq.G) - eq.G
            ends = sorted(profile.aggregate_value(g) - g
                          for g in (pb.g_lower, pb.g_upper))
            assert ends[0] - 1e-7 <= payoff_eq <= ends[1] + 1e-7
            actual = true_poa(profile, eq)
            assert pb.poa_lower - 1e-9 <= actual
            if math.isfinite(pb.poa_upper):
                assert actual <= pb.poa_upper + 1e-9

    def test_asymptotic_efficiency(self, i2_profile):
        values = [_solved_poa(i2_profile, _design(r, [0, 0]))
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
            g_upper = max(profile.g_star, float(c.sum()))
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
            g_star = profile.g_star
            c = rng.uniform(1.05, 1.6) * g_star / n * np.ones(n)
            reward = float(c.sum()) + float(rng.uniform(0.5, 20.0))
            d = _design(reward, c)
            eq = solve_equilibrium(profile, d)
            assert g_star - 1e-9 <= eq.G <= d.perturbation_total + 1e-9
            pb = poa_bounds(profile, d)
            assert pb.g_lower - 1e-9 <= eq.G <= pb.g_upper + 1e-9
            payoff_eq = profile.aggregate_value(eq.G) - eq.G
            ends = sorted(profile.aggregate_value(g) - g
                          for g in (pb.g_lower, pb.g_upper))
            assert ends[0] - 1e-7 <= payoff_eq <= ends[1] + 1e-7
