"""The batched sweep path (`solve_sweep`, `analyze_sweep`) against single points.

Where both drivers return the same root of Phi, a sweep row must match the
per-point functions within the bounds below; they are the bounds CHANGES.md
states. The public-good bounds and the assured-active count use no
transcendental function, so they match exactly. The sweep's Chandrupatla
loop is a port of scipy's elementwise `find_root`, which serves here as its
oracle: roots and evaluation counts must be the same bits.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize.elementwise import find_root

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
from lotterydesign import game
from lotterydesign.analysis import analyze_sweep
from lotterydesign.errors import (
    InfeasibleRegimeError,
    InvariantViolationError,
    NonconvergenceError,
)
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
        # bracket, and Brent (brentq) and Chandrupatla (the sweep's loop)
        # converge to different ones.
        profile = BenefitProfile.scaled_log([2.9095210057731413, 1.6127783169238379])
        c = np.array([0.0, 1.1954720852502385])
        reward = 0.01593205125777365
        point = solve_equilibrium(LotteryInstance(profile), DesignPoint(reward, c))
        good = solve_sweep(profile, c, [reward]).G[0]
        assert _is_root(profile, c, reward, point.G)
        assert _is_root(profile, c, reward, good)


_TOLERANCES = {"xatol": game._XTOL, "xrtol": game._RTOL}
# (a, c, rewards): R < sum(c) with several roots of Phi (see
# test_several_roots_each_driver_returns_one), a single reward, an empty
# sweep, and an infeasible row next to a feasible one.
_SWEEP_CASES = [
    ([2.9095210057731413, 1.6127783169238379], [0.0, 1.1954720852502385],
     [0.01593205125777365, 0.5, 3.0]),
    ([1.0, 1.0], [0.0, 0.0], [1.0]),
    ([1.0, 1.0], [0.5, 0.5], []),
    ([5.0], [6.0], [3.0, 1.0]),
]


def _find_root_sweep(profile, c, rewards):
    # The batched solve as scipy's elementwise find_root runs it.
    rewards = np.asarray(rewards, dtype=float)
    c = np.asarray(c, dtype=float)
    c_bar = float(c.sum())
    lo, hi = game._bracket(rewards, c_bar, profile.socially_optimal_good())
    a, c = profile.coefficients[:, None], c[:, None]
    return find_root(lambda G, R: game._phi(G, R, c_bar, a, -R * c), (lo, hi),
                     args=(rewards,), tolerances=_TOLERANCES)


def _assert_sweep_matches_find_root(profile, c, rewards):
    root = _find_root_sweep(profile, c, rewards)
    if np.any(root.status == -1):
        with pytest.raises(InfeasibleRegimeError):
            solve_sweep(profile, c, rewards)
        return
    assert np.all(root.success)
    sweep = solve_sweep(profile, c, rewards)
    assert sweep.G.tobytes() == root.x.tobytes()
    assert sweep.iterations.tolist() == root.nfev.tolist()


def _assert_port_matches_find_root(f, lo, hi, maxiter=None):
    # game._chandrupatla called directly, against find_root on the same f.
    root, status, nfev = game._chandrupatla(lambda x, k: f(x), lo, hi)
    ref = find_root(f, (lo, hi), tolerances=_TOLERANCES, maxiter=maxiter)
    assert status.tolist() == ref.status.tolist()
    assert nfev.tolist() == ref.nfev.tolist()
    done = status == 0
    assert root[done].tobytes() == ref.x[done].tobytes()
    assert np.isnan(root[~done]).all()
    return status


class TestFindRootOracle:
    @settings(max_examples=100, deadline=None)
    @given(sweeps())
    def test_random_sweeps(self, case):
        a, c, rewards = case
        _assert_sweep_matches_find_root(BenefitProfile.scaled_log(a), c, rewards)

    @pytest.mark.parametrize("a, c, rewards", _SWEEP_CASES)
    def test_edge_sweeps(self, a, c, rewards):
        _assert_sweep_matches_find_root(BenefitProfile.scaled_log(a), c, rewards)

    def test_exact_zero_at_a_bracket_end(self):
        # One player with a = 2 and c = 0: Phi(1) = 0 exactly at R = 1, so the
        # brackets [1, 2] and [1/2, 1] stop before the first step.
        a, neg_rc = np.array([[2.0]]), np.array([[-0.0]])
        assert game._phi(np.array([1.0]), 1.0, 0.0, a, neg_rc)[0] == 0.0
        status = _assert_port_matches_find_root(
            lambda G: game._phi(G, 1.0, 0.0, a, neg_rc),
            np.array([1.0, 0.5, 0.25]), np.array([2.0, 1.0, 3.0]))
        assert status.tolist() == [0, 0, 0]

    def test_smallest_normal_counts_as_a_zero(self):
        tiny = np.finfo(float).smallest_normal
        status = _assert_port_matches_find_root(
            lambda x: (x - 1.0) * tiny, np.array([0.0]), np.array([2.0]))
        assert status.tolist() == [0]

    def test_non_finite_and_sign_errors(self):
        with np.errstate(invalid="ignore"):
            status = _assert_port_matches_find_root(
                lambda x: np.where(x < 10.0, x - 1.0, np.nan),
                np.array([0.0, 2.0, 20.0]), np.array([3.0, 3.0, 30.0]))
        assert status.tolist() == [0, -1, -3]

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(game, "_MAX_STEPS", 3)
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        rewards = np.array([1.0, 10.0])
        c_bar = 0.0
        lo, hi = game._bracket(rewards, c_bar, profile.socially_optimal_good())
        a, neg_rc = profile.coefficients[:, None], np.zeros((2, 1))
        status = _assert_port_matches_find_root(
            lambda G: game._phi(G, rewards, c_bar, a, neg_rc), lo,
            np.full(2, hi), maxiter=3)
        assert status.tolist() == [-2, -2]
        with pytest.raises(NonconvergenceError):
            solve_sweep(profile, [0.0, 0.0], rewards)


class TestRegressions:
    def test_sweeps_need_no_elementwise_scipy(self):
        # The package must import and solve a sweep on a scipy without
        # scipy.optimize.elementwise (added in scipy 1.15).
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "sys.modules['scipy.optimize.elementwise'] = None\n"
                "from lotterydesign import BenefitProfile, solve_sweep\n"
                "sweep = solve_sweep(BenefitProfile.scaled_log([1.0, 1.0]), [0.0, 0.0], [1.0])\n"
                "print(repr(float(sweep.G[0])))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) == pytest.approx(0.5, rel=1e-13)

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
