import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lotterydesign import (
    BenefitProfile,
    DesignPoint,
    certify_equilibrium,
    game,
    payoffs,
    reward_threshold,
    solve_equilibrium,
)
from lotterydesign.errors import (
    DomainError,
    InfeasibleRegimeError,
    InvariantViolationError,
    SingularPoolError,
)
from lotterydesign.game import TOL_ACTIVE, TOLERANCES

from conftest import random_profile
from oracles import (
    UnsupportedRegimeError, best_response_oracle, equilibrium_sensitivities, foc_residual,
)


def _design(reward, c):
    return DesignPoint(reward, np.asarray(c, dtype=float))


def sample_design(rng, profile, allow_perturbation=True):
    """Design points covering the zero-perturbation and all-active regimes."""
    n = profile.n_players
    g_star = profile.g_star
    if not allow_perturbation or rng.random() < 0.5:
        c = np.zeros(n)
        reward = float(rng.uniform(0.05, 100.0))
    else:
        c = rng.uniform(0.0, 1.5 * g_star / n, n)
        if rng.random() < 0.3:  # push the total above the optimum sometimes
            c *= 1.5
        reward = reward_threshold(profile, c) + float(rng.uniform(0.1, 20.0))
    return _design(reward, c)


def escape_exists(profile, design, eq):
    """True when some player profits by canceling the lottery or by driving the pool to zero.

    With perturbations, a player whose equilibrium payoff is negative and
    whose opponents do not cover the reward on their own can drop to zero,
    void the lottery, and collect exactly 0 (a `cancel` deviation). Where the
    pool can reach zero, a player's reward share grows without bound as its
    stake brings the pool there (a `zero_pool` deviation). The
    first-order-condition profile is then not a Nash equilibrium of the
    literal payoff. Both are read off `certify_equilibrium`.
    """
    tol = TOLERANCES["deviation_gain"]["value"]
    return any(kind in ("cancel", "zero_pool") and gain > tol
               for gain, kind, _ in certify_equilibrium(profile, design, eq.s_star))


def sample_sound_pair(rng, profile, max_tries=60):
    """(design, equilibrium) pairs on which the Nash property is well posed.

    Besides keeping the reward above the perturbation total (otherwise a
    unilateral cut can push total investment below sum(c), where the odds term
    blows up), rejects points admitting an escape described in
    `escape_exists`. Zero-perturbation points are never rejected: there every
    payoff is nonnegative and the classic equilibrium is genuine.
    """
    n = profile.n_players
    g_star = profile.g_star
    for _ in range(max_tries):
        if rng.random() < 0.5:
            c = np.zeros(n)
            reward = float(rng.uniform(0.05, 100.0))
        else:
            c = rng.uniform(0.0, 1.2 * g_star / n, n)
            floor = max(reward_threshold(profile, c), float(c.sum()))
            reward = floor + float(rng.uniform(0.1, 20.0))
        d = _design(reward, c)
        eq = solve_equilibrium(profile, d)
        if not escape_exists(profile, d, eq):
            return d, eq
    raise AssertionError("could not sample a well-posed design point")


def all_active_good(profile, design):
    """Independent oracle for the good when every player is active.

    Summing the interior first-order conditions gives
    (N-1) R (G+1) = (G + R - c_bar)(N (G+1) - A) with A = sum(a). In x = G + 1
    that is N x^2 + b x - A d = 0 with d = R - c_bar - 1, and only its larger
    root has both a positive pool and G >= 0.
    """
    n, A = profile.n_players, profile.marginal_at_zero
    d = design.reward - design.perturbation_total - 1.0
    b = n * d - A - (n - 1) * design.reward
    root = math.sqrt(b * b + 4.0 * n * A * d)
    x = (root - b) / (2.0 * n) if b <= 0.0 else 2.0 * A * d / (b + root)
    return x - 1.0


def assert_equilibrium_conditions(profile, design, eq):
    """Every FOC holds to 1e-8 and the investments add up to G + R."""
    total = eq.G + design.reward
    assert abs(float(eq.s_star.sum()) - total) <= 1e-9 * max(1.0, total)
    for i in range(profile.n_players):
        r = foc_residual(profile, design, eq.s_star, i)
        assert (abs(r) if eq.s_star[i] > TOL_ACTIVE else r) <= 1e-8
    assert eq.max_foc_violation <= 1e-8


@st.composite
def game_points(draw):
    """Random profiles (N = 1-50), c = 0 or c_i in [0, 2G*/N], R in [0.01, 1e4]."""
    n = draw(st.integers(1, 50))
    a = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
    assume(a.sum() > 1.05)
    profile = BenefitProfile.scaled_log(a)
    reward = 10.0 ** draw(st.floats(-2.0, 4.0))
    if draw(st.booleans()):
        c = np.zeros(n)
    else:
        g_star = profile.g_star
        c = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))) * g_star / n
    return profile, _design(reward, c)


class TestPayoff:
    def test_direct_substitution(self, i2_profile):
        value = payoffs(i2_profile, _design(1.0, [0, 0]), [0.75, 0.75])[0]
        expected = 0.75 / 1.5 + math.log(1.5) - 0.75
        assert value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.155465, abs=1e-6)

    def test_canceled_lottery_pays_zero(self, i2_profile):
        assert payoffs(i2_profile, _design(1.0, [0, 0]), [0.2, 0.3])[0] == 0.0

    def test_perturbed_point(self, i2_profile):
        # Share 0.5/1, good G = 2 - 1 = 1, benefit ln(G+1): matches the
        # closed-form equilibrium payoff h_i(G*) - c_i at this design point.
        value = payoffs(i2_profile, _design(1.0, [0.5, 0.5]), [1.0, 1.0])[0]
        assert value == pytest.approx(0.5 / 1.0 + math.log(2.0) - 1.0, abs=1e-12)
        assert value == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    def test_singular_pool_raises(self, i2_profile):
        # Uneven perturbations, each player investing exactly its own c_i.
        with pytest.raises(SingularPoolError):
            payoffs(i2_profile, _design(1.0, [0.5, 1.5]), [0.5, 1.5])

    def test_negative_investment_rejected(self, i2_profile):
        with pytest.raises(DomainError):
            payoffs(i2_profile, _design(1.0, [0, 0]), [-0.1, 0.5])

    @pytest.mark.parametrize("perturbed", [False, True], ids=["c_zero", "c_positive"])
    def test_payoffs_match_per_player_formula_bitwise(self, perturbed):
        def reference(profile, design, s, i):
            # Player i's payoff, one scalar at a time, in the order payoffs
            # uses, from the correctly rounded total investment.
            R = design.reward
            total = math.fsum(s.tolist())
            if total < R:
                return 0.0
            pool = total - design.perturbation_total
            share = (s[i] - design.perturbation[i]) / pool
            return float(share * R + profile.values(total - R)[i] - s[i])

        rng = np.random.default_rng(31 if perturbed else 30)
        for _ in range(60):
            profile = random_profile(rng)
            n = profile.n_players
            g_star = profile.g_star
            c = rng.uniform(0.0, 2.0 * g_star / n, n) if perturbed else np.zeros(n)
            d = _design(float(rng.uniform(0.05, 20.0)), c)
            s = rng.uniform(0.0, 2.0 * (d.reward + d.perturbation_total) / n, n)
            values = payoffs(profile, d, s)
            assert values.shape == (n,)
            for i in range(n):
                assert float(values[i]).hex() == reference(profile, d, s, i).hex()

    def test_payoffs_of_a_canceled_lottery_are_zero(self, i2_profile):
        values = payoffs(i2_profile, _design(1.0, [0.3, 0.1]), [0.2, 0.3])
        assert values.tolist() == [0.0, 0.0]

    def test_payoffs_singular_pool_raises(self, i2_profile):
        with pytest.raises(SingularPoolError):
            payoffs(i2_profile, _design(1.0, [1.0, 1.0]), [1.0, 1.0])

    def test_zero_perturbation_reduces_to_classic(self, i2_profile):
        rng = np.random.default_rng(11)
        d = _design(1.0, [0, 0])
        for _ in range(25):
            s = rng.uniform(0.0, 3.0, 2)
            total = s.sum()
            if total >= 1.0:
                classic = s[0] / total * 1.0 + math.log1p(total - 1.0) - s[0]
            else:
                classic = 0.0
            assert payoffs(i2_profile, d, s)[0] == classic


@st.composite
def permuted_games(draw):
    """(a, c, R, s, order): 2-50 players, a profile s not solved for, and a
    permutation of the players."""
    n = draw(st.integers(2, 50))
    a = draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n))
    g_star = sum(a) - 1.0
    c = draw(st.just([0.0] * n)
             | st.lists(st.floats(0.0, 2.0 * g_star / n), min_size=n, max_size=n))
    reward = 10.0 ** draw(st.floats(-2.0, 3.0))
    s = draw(st.lists(st.floats(0.0, 2.0 * (reward + g_star) / n), min_size=n, max_size=n))
    return a, c, reward, s, draw(st.permutations(range(n)))


class TestOrderFreeTotals:
    """Every total outside Phi is correctly rounded, so the players' order
    moves no bit of it, on floats and on numpy vectors alike."""

    @staticmethod
    def _run(case, order):
        # The game with its players in `order`: its totals, then the payoffs,
        # certificate and aggregate payoff at s (None where the pool is zero).
        a, c, reward, s, _ = case
        profile = BenefitProfile.scaled_log([a[i] for i in order])
        design = DesignPoint(reward, [c[i] for i in order])
        stakes = np.array([s[i] for i in order])
        totals = (profile.marginal_at_zero, design.perturbation_total)
        try:
            return totals, (payoffs(profile, design, stakes).tolist(),
                            certify_equilibrium(profile, design, stakes),
                            game._payoff_sum(profile, design, stakes))
        except SingularPoolError:
            return totals, None

    @settings(max_examples=100, deadline=None)
    @given(permuted_games())
    # Added in index order, 1.5 + 1e-16 + 1e-16 is 1.5, and reversed it is
    # 1.5000000000000002; correctly rounded, it is the latter both ways.
    @example(([1.5, 1e-16, 1e-16], [1.5, 1e-16, 1e-16], 1.0, [1.0, 0.5, 0.5], [2, 1, 0]))
    def test_permuting_the_players_permutes_the_results(self, case):
        order = case[-1]
        totals, at_s = self._run(case, range(len(order)))
        permuted_totals, permuted_at_s = self._run(case, order)
        # repr tells 0.0 from -0.0 and reads every float back to its bits.
        assert repr(permuted_totals) == repr(totals)
        if at_s is None:
            assert permuted_at_s is None
            return
        values, certificate, aggregate = at_s
        assert repr(permuted_at_s) == repr(([values[i] for i in order],
                                            [certificate[i] for i in order], aggregate))


class TestFocResidual:
    def test_equilibrium_residual_vanishes(self, i2_profile):
        assert foc_residual(i2_profile, _design(1.0, [0, 0]), [0.75, 0.75], 0) == (
            pytest.approx(0.0, abs=1e-12))

    def test_perturbed_equilibrium_residual(self, i2_profile):
        assert foc_residual(i2_profile, _design(1.0, [0.5, 0.5]), [1.0, 1.0], 0) == (
            pytest.approx(0.0, abs=1e-12))

    def test_overinvestment_is_negative(self, i2_profile):
        value = foc_residual(i2_profile, _design(1.0, [0, 0]), [1.0, 1.0], 0)
        assert value == pytest.approx(0.25 + 0.5 - 1.0, abs=1e-12)

    def test_nonpositive_pool_raises(self, i2_profile):
        with pytest.raises(SingularPoolError):
            foc_residual(i2_profile, _design(1.0, [1.5, 1.5]), [1.0, 1.0], 0)


class TestSolveEquilibrium:
    def test_symmetric_zero_perturbation(self, i2_profile):
        eq = solve_equilibrium(i2_profile, _design(1.0, [0, 0]))
        assert eq.s_star == pytest.approx([0.75, 0.75], abs=1e-9)
        assert eq.G == pytest.approx(0.5, abs=1e-10)
        assert eq.active_set == (0, 1)
        assert eq.max_foc_violation <= 1e-8

    def test_budget_at_optimum_pins_good(self, i2_profile):
        eq = solve_equilibrium(i2_profile, _design(1.0, [0.5, 0.5]))
        assert eq.s_star == pytest.approx([1.0, 1.0], abs=1e-9)
        assert eq.G == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_budget(self, i2_profile):
        eq = solve_equilibrium(i2_profile, _design(1.0, [1.0, 0.0]))
        assert eq.s_star == pytest.approx([1.5, 0.5], abs=1e-9)
        assert eq.G == pytest.approx(1.0, abs=1e-9)

    def test_drops_weak_player(self):
        profile = BenefitProfile.scaled_log([3.0, 0.05])
        eq = solve_equilibrium(profile, _design(1.0, [0, 0]))
        assert eq.active_set == (0,)
        assert eq.s_star[1] == 0.0
        assert eq.G == pytest.approx(2.0, abs=1e-9)  # 3/(G+1) = 1
        # The inactive player's marginal payoff must not be positive.
        assert foc_residual(profile, _design(1.0, [0, 0]), eq.s_star, 1) <= 1e-8

    def test_investment_just_above_tol_active_is_active(self, monkeypatch):
        # At c = 0 and R = 1 the second player starts to invest at a_2 = 2, where
        # 3/(G + 1) = 1. Just above, it invests about 1e-7: above TOL_ACTIVE (1e-9)
        # and below 1e-6, on floats and on numpy vectors alike.
        profile = BenefitProfile.scaled_log([3.0, 2.00000007])
        for players in (game._FLOAT_PLAYERS, 0):
            monkeypatch.setattr(game, "_FLOAT_PLAYERS", players)
            eq = solve_equilibrium(profile, _design(1.0, [0, 0]))
            assert 1e-9 < eq.s_star[1] < 1e-6
            assert eq.active_set == (0, 1)
            assert eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"]

    def test_single_player(self):
        profile = BenefitProfile.scaled_log([5.0])
        eq = solve_equilibrium(profile, _design(1.0, [0.0]))
        assert eq.G == pytest.approx(4.0, abs=1e-9)
        assert eq.s_star[0] == pytest.approx(5.0, abs=1e-9)

    def test_single_player_infeasible_regime(self):
        profile = BenefitProfile.scaled_log([5.0])
        with pytest.raises(InfeasibleRegimeError):
            solve_equilibrium(profile, _design(1.0, [6.0]))

    def test_randomized_foc_and_bracket(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            profile = random_profile(rng)
            d = sample_design(rng, profile)
            eq = solve_equilibrium(profile, d)
            assert eq.max_foc_violation <= 1e-8
            g_star = profile.g_star
            lo = min(d.perturbation_total, g_star)
            hi = max(d.perturbation_total, g_star)
            assert lo - 1e-9 <= eq.G <= hi + 1e-9
            if abs(eq.G - g_star) <= 1e-6 and profile.n_players > 1:
                assert d.perturbation_total <= eq.G + d.reward + 1e-9


class TestShareFunctionRoot:
    @settings(max_examples=100, deadline=None)
    @given(game_points())
    def test_bracket_foc_and_consistency(self, point):
        profile, d = point
        g_star = profile.g_star
        c_bar = d.perturbation_total
        if profile.n_players == 1 and c_bar > g_star:
            # A lone player's good is G*, which needs a positive pool there.
            assume(abs(c_bar - g_star - d.reward) > 1e-9 * c_bar)
            if c_bar > g_star + d.reward:
                with pytest.raises(InfeasibleRegimeError):
                    solve_equilibrium(profile, d)
                return
        eq = solve_equilibrium(profile, d)
        lo, hi = min(c_bar, g_star), max(c_bar, g_star)
        assert lo - 1e-9 * max(1.0, hi) <= eq.G <= hi + 1e-9 * max(1.0, hi)
        assert_equilibrium_conditions(profile, d, eq)
        if len(eq.active_set) == profile.n_players:
            assert eq.G == pytest.approx(all_active_good(profile, d), rel=1e-9, abs=1e-9)

    def test_all_active_oracle_examples(self, i2_profile):
        # Two unit players at R = 1: G = 0.5 without perturbation, G* = 1 at
        # c_bar = G*, and G = 1 at c = (1, 0).
        assert all_active_good(i2_profile, _design(1.0, [0, 0])) == pytest.approx(0.5)
        assert all_active_good(i2_profile, _design(1.0, [0.5, 0.5])) == pytest.approx(1.0)
        assert all_active_good(i2_profile, _design(1.0, [1.0, 0.0])) == pytest.approx(1.0)

    def test_iterations_count_root_evaluations(self, i2_profile):
        eq = solve_equilibrium(i2_profile, _design(1.0, [0, 0]))
        assert 2 <= eq.iterations <= 100

    def test_corpus_point_without_an_active_set_fixed_point(self):
        # Point 1154 of the benchmark's seed-0 equilibrium corpus: an
        # active-set loop cycles here. Phi has one root in the bracket, with
        # only the first player active. It is not a Nash equilibrium (the
        # first player gains by cutting the pool toward zero).
        profile = BenefitProfile.scaled_log([2.8740232296623827, 1.303960853439135])
        d = _design(0.2141498351420209, [1.2984209678250491, 0.08086677276657708])
        eq = solve_equilibrium(profile, d)
        assert_equilibrium_conditions(profile, d, eq)
        assert eq.active_set == (0,)
        assert eq.G == pytest.approx(1.7220201072263, rel=1e-12)

    @pytest.mark.parametrize("seed, reward", [(1, 10.0), (2, 100.0)])
    def test_thousand_players_with_perturbations(self, seed, reward):
        # c_i uniform in [0, G*/N]: an active-set loop fails to settle here.
        rng = np.random.default_rng(seed)
        profile = BenefitProfile.scaled_log(rng.uniform(0.6, 3.0, 1000))
        c = rng.uniform(0.0, profile.g_star / 1000, 1000)
        d = _design(reward, c)
        assert_equilibrium_conditions(profile, d, solve_equilibrium(profile, d))

    def test_consistency_is_relative_at_the_reward_threshold(self):
        # At R near 3e6 the sum of investments carries rounding far above an
        # absolute 1e-8; the consistency check must scale with G + R.
        rng = np.random.default_rng(3)
        profile = BenefitProfile.scaled_log(rng.uniform(0.6, 3.0, 1000))
        c = rng.uniform(0.0, profile.g_star / 1000, 1000)
        d = _design(reward_threshold(profile, c), c)
        eq = solve_equilibrium(profile, d)
        assert d.reward > 1e6
        assert_equilibrium_conditions(profile, d, eq)


class TestBestResponseOracle:
    def test_equilibrium_is_a_fixed_point(self, i2_profile):
        d = _design(1.0, [0, 0])
        br = best_response_oracle(i2_profile, d, [0.75], 0)
        assert br == pytest.approx(0.75, abs=1e-5)

    def test_flooded_opponent_forces_zero(self, i2_profile):
        d = _design(1.0, [0, 0])
        br = best_response_oracle(i2_profile, d, [10.0], 0)
        # Marginal payoff at zero is already negative, so the boundary wins.
        assert foc_residual(i2_profile, d, np.array([0.0, 10.0]), 0) < 0.0
        assert br == pytest.approx(0.0, abs=1e-6)

    def test_single_player_matches_foc(self):
        profile = BenefitProfile.scaled_log([5.0])
        br = best_response_oracle(profile, _design(1.0, [0.0]), [], 0)
        assert br == pytest.approx(5.0, abs=1e-5)  # R + G* with h'(G*) = 1

    def test_no_profitable_deviation_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            profile = random_profile(rng, n=int(rng.integers(2, 5)))
            d, eq = sample_sound_pair(rng, profile)
            for i in range(profile.n_players):
                br = best_response_oracle(profile, d, np.delete(eq.s_star, i), i)
                trial = eq.s_star.copy()
                trial[i] = br
                gain = payoffs(profile, d, trial)[i] - payoffs(profile, d, eq.s_star)[i]
                assert gain <= 1e-5

    def test_cancellation_escape_is_detected(self):
        # Documented model gap: at some perturbed design points a player with
        # negative payoff can void the lottery by dropping out, so the
        # first-order-condition profile is not a literal Nash equilibrium.
        # The oracle must find that escape rather than smooth it away.
        profile = BenefitProfile.scaled_log(
            [2.527198457618032, 2.21153181508266, 0.9638223231898635,
             0.7285512391693785])
        d = _design(30.57563285110171,
                    [0.00797228, 0.24058479, 1.58776761, 1.1356116])
        eq = solve_equilibrium(profile, d)
        assert eq.max_foc_violation <= 1e-8
        assert escape_exists(profile, d, eq)
        i = 2
        assert payoffs(profile, d, eq.s_star)[i] < 0.0
        assert eq.s_star.sum() - eq.s_star[i] < d.reward
        br = best_response_oracle(profile, d, np.delete(eq.s_star, i), i)
        trial = eq.s_star.copy()
        trial[i] = br
        assert payoffs(profile, d, trial)[i] == 0.0  # canceling beats playing on

    def test_zero_pool_escape_is_detected(self):
        # Point 5 of the benchmark's small_games corpus: R < c_bar, nobody
        # gains by canceling, but player 2's reward share grows without bound
        # as its stake brings the pool to zero. A cancel-only screen passes it.
        profile = BenefitProfile.scaled_log([1.5398856012675868, 2.7366584448115017])
        d = _design(1.7261061044685773, [0.744291860613449, 2.04190012851408])
        eq = solve_equilibrium(profile, d)
        assert eq.max_foc_violation <= 1e-8
        assert d.reward < d.perturbation_total
        certificate = certify_equilibrium(profile, d, eq.s_star)
        assert [kind for _, kind, _ in certificate] == ["interior", "zero_pool"]
        assert certificate[1][0] == math.inf
        assert escape_exists(profile, d, eq)


class TestSensitivities:
    def test_closed_form_values(self, i2_profile):
        d = _design(1.0, [0, 0])
        eq = solve_equilibrium(i2_profile, d)
        dG_dR, dG_dc = equilibrium_sensitivities(i2_profile, d, eq)
        assert dG_dR == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert dG_dc == pytest.approx([1.0 / 3.0] * 2, abs=1e-9)

    def test_zero_reward_sensitivity_at_optimal_budget(self, i2_profile):
        d = _design(1.0, [0.5, 0.5])
        eq = solve_equilibrium(i2_profile, d)
        dG_dR, dG_dc = equilibrium_sensitivities(i2_profile, d, eq)
        assert dG_dR == pytest.approx(0.0, abs=1e-9)
        assert np.all(dG_dc > 0.0)

    def test_requires_all_players_active(self):
        profile = BenefitProfile.scaled_log([3.0, 0.05])
        d = _design(1.0, [0, 0])
        eq = solve_equilibrium(profile, d)
        with pytest.raises(UnsupportedRegimeError):
            equilibrium_sensitivities(profile, d, eq)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            profile = random_profile(rng, n=int(rng.integers(2, 6)))
            g_star = profile.g_star
            c = rng.uniform(0.0, g_star / profile.n_players, profile.n_players)
            reward = reward_threshold(profile, c) + float(rng.uniform(0.2, 10.0))
            d = _design(reward, c)
            eq = solve_equilibrium(profile, d)
            assert len(eq.active_set) == profile.n_players
            dG_dR, dG_dc = equilibrium_sensitivities(profile, d, eq)

            h = 1e-5 * max(1.0, reward)
            g_hi = solve_equilibrium(profile, _design(reward + h, c)).G
            g_lo = solve_equilibrium(profile, _design(reward - h, c)).G
            fd = (g_hi - g_lo) / (2.0 * h)
            assert abs(dG_dR - fd) <= max(1e-6, 1e-4 * abs(dG_dR))

            i = int(rng.integers(0, profile.n_players))
            h = 1e-5 * max(1.0, c[i])
            c_hi, c_lo = c.copy(), c.copy()
            c_hi[i] += h
            c_lo[i] = max(c_lo[i] - h, 0.0)
            g_hi = solve_equilibrium(profile, _design(reward, c_hi)).G
            g_lo = solve_equilibrium(profile, _design(reward, c_lo)).G
            fd = (g_hi - g_lo) / (c_hi[i] - c_lo[i])
            assert abs(dG_dc[i] - fd) <= max(1e-6, 1e-4 * abs(dG_dc[i]))


class TestMonotonicity:
    def test_reward_and_perturbation_raise_the_good(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            profile = random_profile(rng)
            n = profile.n_players
            g_star = profile.g_star
            c = rng.uniform(0.0, 0.8 * g_star / n, n)  # keep the total below G*
            reward = reward_threshold(profile, c) + float(rng.uniform(0.2, 10.0))
            d = _design(reward, c)
            eq = solve_equilibrium(profile, d)
            assert len(eq.active_set) == n
            bumped = solve_equilibrium(profile, _design(reward * 1.01, c))
            assert bumped.G >= eq.G - 1e-9
            if abs(d.perturbation_total - g_star) > 1e-9:
                c_up = c.copy()
                c_up[int(rng.integers(0, n))] += 0.01
                assert solve_equilibrium(profile, _design(reward, c_up)).G > eq.G

    def test_investment_floor_above_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            profile = random_profile(rng)
            n = profile.n_players
            g_star = profile.g_star
            c = rng.uniform(0.0, g_star / n, n)
            r_l = reward_threshold(profile, c)
            reward = r_l + float(rng.uniform(0.05, 5.0))
            eq = solve_equilibrium(profile, _design(reward, c))
            g_upper = max(g_star, float(c.sum()))
            base = reward / (reward + g_upper - c.sum())
            for i in range(n):
                floor = c[i] + reward * (base + profile.slopes(g_upper)[i] - 1.0)
                assert eq.s_star[i] >= floor - 1e-9
