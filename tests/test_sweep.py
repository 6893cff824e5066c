"""The batched sweep path (`solve_sweep`, `analyze_sweep`) against single points.

Where both drivers return the same root of Phi, a sweep row must match the
per-point functions within the bounds below; they are the bounds CHANGES.md
states. The public-good bounds and the assured-active count use no
transcendental function, so they match exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lotterydesign import (
    BenefitProfile,
    DesignPoint,
    LotteryInstance,
    PoaBounds,
    check_properties,
    poa_bounds,
    reward_threshold,
    solve_equilibrium,
    true_poa,
)
from lotterydesign.analysis import analyze_sweep
from lotterydesign.errors import InfeasibleRegimeError, InvariantViolationError
from lotterydesign.game import FOC_TOL, solve_sweep

# Relative agreement of the public good, the true price of anarchy and the
# price-of-anarchy bounds; investments agree relative to max(1, max s).
GOOD_REL = 1e-13
POA_REL = 1e-13
INVESTMENT_REL = 1e-11


def _is_root(profile, c, reward, good):
    # Independent of both drivers: the clipped closed-form investments at
    # this good must add up to good + reward with a positive pool.
    pool = good + reward - c.sum()
    s = np.maximum(0.0, c + pool - pool * pool * (
        1.0 - profile.coefficients / (good + 1.0)) / reward)
    return pool > 0.0 and abs(s.sum() - (good + reward)) <= FOC_TOL * max(1.0, good + reward)


@st.composite
def sweeps(draw):
    """A random profile, c = 0 or c > 0, and unsorted log-uniform rewards
    with duplicates."""
    n = draw(st.integers(2, 30))
    a = np.array(draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n)))
    g_star = a.sum() - 1.0
    if draw(st.booleans()):
        c = np.array(draw(st.lists(st.floats(0.0, 2.0 * g_star / n),
                                   min_size=n, max_size=n)))
    else:
        c = np.zeros(n)
    rewards = [10.0 ** e for e in draw(st.lists(st.floats(-2.0, 4.0), min_size=1,
                                                max_size=8))]
    rewards += draw(st.lists(st.sampled_from(rewards), max_size=3))
    return a, c, np.array(draw(st.permutations(rewards)))


class TestParity:
    @settings(max_examples=100, deadline=None)
    @given(sweeps())
    def test_rows_match_the_per_point_path(self, case):
        a, c, rewards = case
        profile = BenefitProfile.scaled_log(a)
        instance = LotteryInstance(profile)
        try:
            points = [solve_equilibrium(instance, DesignPoint(r, c)) for r in rewards]
        except InfeasibleRegimeError:
            with pytest.raises(InfeasibleRegimeError):
                analyze_sweep(profile, c, rewards)
            return
        sweep = analyze_sweep(profile, c, rewards)
        eq = sweep.equilibria
        threshold = reward_threshold(profile, c)
        for k, (reward, point) in enumerate(zip(rewards.tolist(), points)):
            # Entries do not depend on the rest of the batch.
            same = rewards == reward
            assert np.all(eq.G[same] == eq.G[k])
            design = DesignPoint(reward, c)
            for variant, bounds in (("statement", sweep.bounds),
                                    ("proof", sweep.proof_bounds)):
                single = poa_bounds(profile, design, variant)
                assert bounds.g_lower[k] == single.g_lower
                assert bounds.g_upper[k] == single.g_upper
                assert bounds.assured_active_count[k] == single.assured_active_count
                assert bounds.poa_lower[k] == pytest.approx(single.poa_lower, rel=POA_REL)
                assert bounds.poa_upper[k] == pytest.approx(single.poa_upper, rel=POA_REL)
            if eq.G[k] != pytest.approx(point.G, rel=GOOD_REL, abs=GOOD_REL):
                # Phi has several roots here; each driver returns one.
                assert reward < design.perturbation_total
                assert _is_root(profile, c, reward, eq.G[k])
                assert _is_root(profile, c, reward, point.G)
                continue
            scale = max(1.0, float(point.s_star.max()))
            assert np.max(np.abs(eq.s_star[k] - point.s_star)) <= INVESTMENT_REL * scale
            assert eq.pool[k] == pytest.approx(point.pool, rel=GOOD_REL, abs=GOOD_REL)
            assert eq.max_foc_violation[k] <= FOC_TOL
            assert sweep.poa_true[k] == pytest.approx(
                true_poa(instance, design, point), rel=POA_REL)
            checks = check_properties(instance, design, point, threshold=threshold)
            assert sweep.ok[k] == all(check.holds is not False for check in checks)

    def test_several_roots_each_driver_returns_one(self):
        # R < sum(c) with a perturbed weak player: Phi has two roots in the
        # bracket, and with scipy 1.17 Brent and Chandrupatla converge to
        # different ones.
        profile = BenefitProfile.scaled_log([2.9095210057731413, 1.6127783169238379])
        c = np.array([0.0, 1.1954720852502385])
        reward = 0.01593205125777365
        point = solve_equilibrium(LotteryInstance(profile), DesignPoint(reward, c))
        good = solve_sweep(profile, c, [reward]).G[0]
        assert _is_root(profile, c, reward, point.G)
        assert _is_root(profile, c, reward, good)


class TestRegressions:
    def test_skipped_property_does_not_fail_a_row(self):
        # R is below the reward threshold, so the investment floor does not
        # apply, although its margin is negative there.
        profile = BenefitProfile.scaled_log([2.6520441625014355, 2.3078245797216272])
        c = np.array([0.06413673358952242, 0.25447370361265004])
        reward = 0.12713782077137897
        eq = solve_equilibrium(LotteryInstance(profile), DesignPoint(reward, c))
        floors = c + reward * (reward / (reward + profile.socially_optimal_good() - c.sum())
                               + profile.slopes(profile.socially_optimal_good()) - 1.0)
        assert reward < reward_threshold(profile, c) and np.min(eq.s_star - floors) < 0.0
        assert analyze_sweep(profile, c, [reward, 10.0]).ok.tolist() == [True, True]

    def test_empty_sweep(self, i2_profile):
        sweep = analyze_sweep(i2_profile, [0.0, 0.0], [])
        assert sweep.equilibria.G.shape == (0,)
        assert sweep.equilibria.s_star.shape == (0, 2)
        assert sweep.ok.shape == (0,) and sweep.ok.all()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_reward_is_rejected(self, i2_profile, bad):
        with pytest.raises(InvariantViolationError):
            solve_sweep(i2_profile, [0.0, 0.0], [1.0, bad])

    def test_perturbation_must_match_the_players(self, i2_profile):
        with pytest.raises(InvariantViolationError):
            solve_sweep(i2_profile, [0.0, 0.0, 0.0], [1.0])

    def test_infeasible_row_raises_in_both_drivers(self):
        # One player, G* = 4 and c = 6: at R = 1 no positive pool clears.
        profile = BenefitProfile.scaled_log([5.0])
        with pytest.raises(InfeasibleRegimeError):
            solve_equilibrium(LotteryInstance(profile), DesignPoint(1.0, [6.0]))
        assert solve_sweep(profile, [6.0], [3.0]).G.shape == (1,)
        with pytest.raises(InfeasibleRegimeError):
            solve_sweep(profile, [6.0], [3.0, 1.0])

    def test_bounds_hold_their_order_row_by_row(self):
        ones = np.ones(3)
        PoaBounds(ones, 2.0 * ones, ones, 2.0 * ones, np.zeros(3, dtype=int))
        with pytest.raises(InvariantViolationError):
            PoaBounds(np.array([1.0, 3.0, 1.0]), 2.0 * ones, ones, 2.0 * ones,
                      np.zeros(3, dtype=int))
        with pytest.raises(InvariantViolationError):
            PoaBounds(ones, 2.0 * ones, np.array([1.0, 3.0, 1.0]), 2.0 * ones,
                      np.zeros(3, dtype=int))
