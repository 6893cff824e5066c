"""The batched sweep path (`solve_sweep`, `analyze_sweep`) against single points.

Both drivers run the same Chandrupatla loop on the same Phi, so a sweep row's
good, pool, investments, evaluation count and largest FOC violation are the
bits `solve_equilibrium` returns at that point, the same root included where
Phi has several. The prices of anarchy must match the per-point functions
within the bound below, which CHANGES.md states. The public-good bounds and
the assured-active count use no transcendental function, so they match
exactly. Both loops are ports of scipy's elementwise `find_root`, which
serves here as their oracle: roots and evaluation counts must be the same
bits.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize.elementwise import find_root

from lotterydesign import (
    BenefitProfile,
    DesignPoint,
    PoaBounds,
    check_properties,
    reward_threshold,
    solve_equilibrium,
    true_poa,
)
from lotterydesign import game
from lotterydesign.analysis import analyze_sweep
from lotterydesign.errors import (
    DomainError,
    InfeasibleRegimeError,
    InvariantViolationError,
    NonconvergenceError,
    SingularPoolError,
)
from lotterydesign.game import FOC_TOL, solve_sweep

from oracles import poa_bounds

# Relative agreement of the true price of anarchy and the price-of-anarchy
# bounds.
POA_REL = 1e-13


def _is_root(profile, c, reward, good):
    # Independent of both drivers: the clipped closed-form investments at
    # this good must add up to good + reward with a positive pool.
    pool = good + reward - c.sum()
    s = np.maximum(0.0, c + pool - pool * pool * (
        1.0 - profile.coefficients / (good + 1.0)) / reward)
    return pool > 0.0 and abs(s.sum() - (good + reward)) <= FOC_TOL * max(1.0, good + reward)


@st.composite
def games(draw):
    """A random profile's coefficients and c = 0 or c > 0, on both sides of
    the player count up to which `solve_equilibrium` works on floats."""
    n = draw(st.integers(2, 50))
    a = np.array(draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n)))
    g_star = a.sum() - 1.0
    if draw(st.booleans()):
        c = np.array(draw(st.lists(st.floats(0.0, 2.0 * g_star / n),
                                   min_size=n, max_size=n)))
    else:
        c = np.zeros(n)
    return a, c


@st.composite
def sweeps(draw):
    """A random game and unsorted log-uniform rewards with duplicates."""
    a, c = draw(games())
    rewards = [10.0 ** e for e in draw(st.lists(st.floats(-2.0, 4.0), min_size=1,
                                                max_size=8))]
    rewards += draw(st.lists(st.sampled_from(rewards), max_size=3))
    return a, c, np.array(draw(st.permutations(rewards)))


class TestParity:
    @settings(max_examples=100, deadline=None)
    @given(sweeps())
    # Eight players: numpy sums a vector of eight or more pairwise but a
    # players x rewards array in order down its columns, so the FOC residuals
    # must add the players in one order for max_foc_violation to agree here.
    @example(([1.0, 2.6, 2.8, 0.8, 1.5, 2.6, 1.9, 0.7], np.zeros(8), np.array([1.0, 43.6])))
    # The last player count solved on floats, and the first on numpy vectors.
    @example((np.linspace(0.6, 3.0, game._FLOAT_PLAYERS), np.zeros(game._FLOAT_PLAYERS),
              np.array([0.05, 1.0, 43.6])))
    @example((np.linspace(0.6, 3.0, game._FLOAT_PLAYERS + 1),
              np.linspace(0.0, 1.0, game._FLOAT_PLAYERS + 1), np.array([0.05, 1.0, 43.6])))
    def test_rows_match_the_per_point_path(self, case):
        a, c, rewards = case
        profile = BenefitProfile.scaled_log(a)
        try:
            points = [solve_equilibrium(profile, DesignPoint(r, c)) for r in rewards]
        except InfeasibleRegimeError:
            with pytest.raises(InfeasibleRegimeError):
                analyze_sweep(profile, c, rewards)
            return
        sweep = analyze_sweep(profile, c, rewards)
        eq = sweep.equilibria
        for k, (reward, point) in enumerate(zip(rewards.tolist(), points)):
            # Entries do not depend on the rest of the batch.
            same = rewards == reward
            assert np.all(eq.G[same] == eq.G[k])
            design = DesignPoint(reward, c)
            for proof, bounds in ((False, sweep.bounds), (True, sweep.proof_bounds)):
                single = poa_bounds(profile, design, proof)
                assert bounds.g_lower[k] == single.g_lower
                assert bounds.g_upper[k] == single.g_upper
                assert bounds.assured_active_count[k] == single.assured_active_count
                assert bounds.poa_lower[k] == pytest.approx(single.poa_lower, rel=POA_REL)
                assert bounds.poa_upper[k] == pytest.approx(single.poa_upper, rel=POA_REL)
            assert eq.G[k] == point.G
            assert eq.pool[k] == point.pool
            assert eq.iterations[k] == point.iterations
            assert np.array_equal(eq.s_star[k], point.s_star)
            assert eq.max_foc_violation[k] == point.max_foc_violation
            assert sweep.poa_true[k] == pytest.approx(
                true_poa(profile, point), rel=POA_REL)
            checks = check_properties(profile, design, point)
            assert sweep.ok[k] == all(check["holds"] is not False for check in checks)

    def test_several_roots_both_drivers_return_the_same_one(self):
        # R < sum(c) with a perturbed weak player: Phi has two roots in the
        # bracket, near 1.363 and 1.747, and both drivers must return the
        # same one.
        profile = BenefitProfile.scaled_log([2.9095210057731413, 1.6127783169238379])
        c = np.array([0.0, 1.1954720852502385])
        reward = 0.01593205125777365
        point = solve_equilibrium(profile, DesignPoint(reward, c))
        sweep = solve_sweep(profile, c, [reward, 0.5, 3.0])
        assert _is_root(profile, c, reward, point.G)
        assert point.G == sweep.G[0]
        assert point.G == pytest.approx(1.363, abs=1e-3)


_TOLERANCES = {"xatol": game._XTOL, "xrtol": game._RTOL}
# (a, c, rewards): R < sum(c) with several roots of Phi (see
# test_several_roots_both_drivers_return_the_same_one), a single reward, an
# empty sweep, and an infeasible row next to a feasible one.
_SWEEP_CASES = [
    ([2.9095210057731413, 1.6127783169238379], [0.0, 1.1954720852502385],
     [0.01593205125777365, 0.5, 3.0]),
    ([1.0, 1.0], [0.0, 0.0], [1.0]),
    ([1.0, 1.0], [0.5, 0.5], []),
    ([5.0], [6.0], [3.0, 1.0]),
]


def _find_root_sweep(profile, c, rewards):
    # The batched solve as scipy's elementwise find_root runs it, from the
    # correctly rounded perturbation total.
    rewards = np.asarray(rewards, dtype=float)
    c = np.asarray(c, dtype=float)
    c_bar = math.fsum(c.tolist())
    lo, hi = game._bracket(rewards, c_bar, profile)
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


def _scalar_loop(f, lo, hi):
    # game._chandrupatla_scalar on each bracket in turn, f on floats.
    runs = [game._chandrupatla_scalar(
                lambda x: float(f(np.array([x]), np.array([k]))[0]), x1, x2)
            for k, (x1, x2) in enumerate(zip(lo.tolist(),
                                             np.broadcast_to(hi, lo.shape).tolist()))]
    root, status, nfev = zip(*runs)
    return np.array(root, dtype=float), np.array(status), np.array(nfev)


def _solve_points(profile, c, rewards):
    return [solve_equilibrium(profile, DesignPoint(r, c)) for r in rewards]


# Each loop with the driver that runs it; the edge tests below run on both.
LOOPS = {"vector": (game._chandrupatla, solve_sweep), "scalar": (_scalar_loop, _solve_points)}


def _assert_port_matches_find_root(run, f, lo, hi, maxiter=None):
    # A Chandrupatla loop called directly on f(x, k), with k the bracket's
    # index, against find_root on the same f.
    root, status, nfev = run(f, lo, hi)
    ref = find_root(f, (lo, hi), args=(np.arange(lo.size),), tolerances=_TOLERANCES,
                    maxiter=maxiter)
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

    @settings(max_examples=100, deadline=None)
    @given(games(), st.floats(-2.0, 4.0))
    def test_random_points(self, case, exponent):
        # solve_equilibrium against find_root on the one bracket of its point.
        a, c = case
        reward = 10.0 ** exponent
        profile = BenefitProfile.scaled_log(a)
        root = _find_root_sweep(profile, c, [reward])
        if root.status[0] == -1:
            with pytest.raises(InfeasibleRegimeError):
                solve_equilibrium(profile, DesignPoint(reward, c))
            return
        assert root.success[0]
        point = solve_equilibrium(profile, DesignPoint(reward, c))
        assert np.float64(point.G).tobytes() == root.x[0].tobytes()
        assert point.iterations == root.nfev[0]

    def test_exact_zero_at_a_bracket_end(self):
        # One player with a = 2 and c = 0: Phi(1) = 0 exactly at R = 1, so the
        # brackets [1, 2] and [1/2, 1] stop before the first step.
        a, neg_rc = np.array([[2.0]]), np.array([[-0.0]])
        assert game._phi(np.array([1.0]), 1.0, 0.0, a, neg_rc)[0] == 0.0
        for name, (run, _) in LOOPS.items():
            status = _assert_port_matches_find_root(
                run, lambda G, k: game._phi(G, 1.0, 0.0, a, neg_rc),
                np.array([1.0, 0.5, 0.25]), np.array([2.0, 1.0, 3.0]))
            assert status.tolist() == [0, 0, 0], name

    def test_smallest_normal_counts_as_a_zero(self):
        tiny = np.finfo(float).smallest_normal
        for name, (run, _) in LOOPS.items():
            status = _assert_port_matches_find_root(
                run, lambda x, k: (x - 1.0) * tiny, np.array([0.0]), np.array([2.0]))
            assert status.tolist() == [0], name

    def test_non_finite_and_sign_errors(self):
        # A sign error is found before the bracket counts as narrow, and a
        # value is non-finite only where both ends are NaN: with one NaN end
        # the loop runs on, here to the edge of the NaN region.
        for name, (run, _) in LOOPS.items():
            with np.errstate(invalid="ignore"):
                status = _assert_port_matches_find_root(
                    run, lambda x, k: np.where(x < 10.0, x - 1.0, np.nan),
                    np.array([0.0, 2.0, 20.0, 2.0, 0.0]),
                    np.array([3.0, 3.0, 30.0, np.nextafter(2.0, 3.0), 20.0]))
            assert status.tolist() == [0, -1, -3, -1, 0], name

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(game, "_MAX_STEPS", 3)
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        rewards = np.array([1.0, 10.0])
        c_bar = 0.0
        lo, hi = game._bracket(rewards, c_bar, profile)
        a, neg_rc = profile.coefficients[:, None], np.zeros((2, 1))
        for name, (run, driver) in LOOPS.items():
            status = _assert_port_matches_find_root(
                run, lambda G, k: game._phi(G, rewards[k], c_bar, a, neg_rc), lo,
                np.full(2, hi), maxiter=3)
            assert status.tolist() == [-2, -2], name
            with pytest.raises(NonconvergenceError):
                driver(profile, [0.0, 0.0], rewards)


def _bits(x):
    # A float's bits, with every NaN alike.
    return "nan" if x != x else np.float64(x).tobytes()


def _outcome(call):
    # What call() returns, or the type and message of what it raises.
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _phi_forms(R, c_bar, a, neg_rc):
    # Phi on floats and on numpy vectors, as `solve_equilibrium` calls each.
    a, neg_rc = np.asarray(a, dtype=float), np.asarray(neg_rc, dtype=float)
    return (lambda G: game._phi_floats(G, R, c_bar, a.tolist(), neg_rc.tolist()),
            lambda G: float(game._phi(G, R, c_bar, a, neg_rc)))


def _assert_phi_forms_agree(G, R, c_bar, a, neg_rc):
    floats, vectors = _phi_forms(R, c_bar, a, neg_rc)
    assert _outcome(lambda: _bits(floats(G))) == _outcome(lambda: _bits(vectors(G)))


def _assert_settle_forms_agree(a, c, c_bar, R, G):
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)

    def floats():
        S, s, active, violation = game._settle_floats(a.tolist(), c.tolist(), c_bar, R, G)
        return _bits(S), list(map(_bits, s)), active, _bits(violation)

    def vectors():
        S, s, active, violation = game._settle(a, c, c_bar, R, G)
        return (_bits(S), list(map(_bits, s.tolist())), tuple(np.nonzero(active)[0].tolist()),
                _bits(float(violation)))

    assert _outcome(floats) == _outcome(vectors)


# (G, R, c_bar, a, neg_rc, bracket, status of the root-find on the bracket):
# a NaN in either argument of Phi's maximum, and a pool whose square
# underflows to zero, where numpy's quotient is -inf, or NaN for c_k = 0.
_NON_FINITE_PHI = [
    (1.0, 1.0, 0.0, [1.0, math.nan, 2.0], [-0.0, -0.0, -0.0], (0.5, 2.0), -3),
    (1.0, 1.0, 0.5, [1.0, 1.5], [-0.5, math.nan], (0.5, 2.0), -3),
    (0.0, 1e-170, 0.0, [1.0, 1.5], [-0.0, -0.0], (0.0, 1e-170), -3),
    (0.0, 1e-170, 1e-300, [1.0, 1.5], [-1e-300, -0.0], (0.0, 1.0), None),
    (0.0, 1e-170, 1e-300, [1.0, 1.5], [-1e-300, -1e-300], (0.0, 1.0), None),
]
# (a, c, c_bar, R, G): a NaN investment (np.maximum(0.0, nan)), FOC
# residuals over a pool whose square underflows to zero, and G + 1 = 0.
_NON_FINITE_SETTLE = [
    ([1.0, math.nan], [0.0, 0.0], 0.0, 1.0, 1.0),
    ([1.0, 1.0], [0.0, 0.0], 0.0, 1e-170, 0.0),
    ([1.0, 1.0], [0.5, 0.0], 0.5, 1.0, -1.0),
]
# (a, c, c_bar, R, G, error): a failed consistency check, a canceled lottery
# and a zero pool.
_SETTLE_ERRORS = [
    ([0.25, 0.75], [0.0, 0.0], 0.0, 1.0, 3.0, NonconvergenceError),
    ([0.25, 0.75 - 1e-9], [0.0, 0.0], 0.0, 1.0, 0.0, DomainError),
    ([1.0, 1.0], [1.5, 0.0], 1.5, 1.0, 0.5, SingularPoolError),
]


class TestFloatForms:
    """`_phi_floats` and `_settle_floats` against `_phi` and `_settle`, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(games(), st.floats(-2.0, 4.0), st.floats(0.0, 1.0))
    def test_random_points(self, case, exponent, t):
        a, c = case
        reward = 10.0 ** exponent
        profile = BenefitProfile.scaled_log(a)
        c_bar = float(c.sum())
        neg_rc = -reward * c
        lo, hi = game._bracket(reward, c_bar, profile)
        for good in (lo, hi, lo + t * (hi - lo)):
            _assert_phi_forms_agree(good, reward, c_bar, a, neg_rc)
            _assert_settle_forms_agree(a, c, c_bar, reward, good)
        runs = [game._chandrupatla_scalar(f, lo, hi)
                for f in _phi_forms(reward, c_bar, a, neg_rc)]
        assert _bits(runs[0][0]) == _bits(runs[1][0]) and runs[0][1:] == runs[1][1:]
        if runs[0][1] == 0:
            _assert_settle_forms_agree(a, c, c_bar, reward, runs[0][0])

    @pytest.mark.parametrize("good, reward, c_bar, a, neg_rc, bracket, status",
                             _NON_FINITE_PHI)
    def test_non_finite_phi(self, good, reward, c_bar, a, neg_rc, bracket, status):
        with np.errstate(all="ignore"):
            _assert_phi_forms_agree(good, reward, c_bar, a, neg_rc)
            runs = [game._chandrupatla_scalar(f, *bracket)
                    for f in _phi_forms(reward, c_bar, a, neg_rc)]
        assert _bits(runs[0][0]) == _bits(runs[1][0]) and runs[0][1:] == runs[1][1:]
        if status is not None:
            assert runs[0][1] == status

    @pytest.mark.parametrize("a, c, c_bar, reward, good", _NON_FINITE_SETTLE)
    def test_non_finite_settle(self, a, c, c_bar, reward, good):
        with np.errstate(all="ignore"):
            _assert_settle_forms_agree(a, c, c_bar, reward, good)

    @pytest.mark.parametrize("a, c, c_bar, reward, good, error", _SETTLE_ERRORS)
    def test_settle_errors(self, a, c, c_bar, reward, good, error):
        _assert_settle_forms_agree(a, c, c_bar, reward, good)
        with pytest.raises(error):
            game._settle_floats(a, c, c_bar, reward, good)

    def test_the_cutoff_chooses_the_form(self, monkeypatch):
        # solve_equilibrium runs on floats up to the cutoff and on numpy
        # above it, with the same result.
        n = game._FLOAT_PLAYERS
        profile = BenefitProfile.scaled_log(np.linspace(0.6, 3.0, n))
        design = DesignPoint(2.0, np.linspace(0.0, 1.0, n))
        with mock.patch.object(game, "_settle_floats", wraps=game._settle_floats) as settle:
            floats = solve_equilibrium(profile, design)
            monkeypatch.setattr(game, "_FLOAT_PLAYERS", n - 1)
            vectors = solve_equilibrium(profile, design)
        assert settle.call_count == 1
        assert (floats.G, floats.iterations, floats.pool, floats.active_set,
                floats.max_foc_violation) == (vectors.G, vectors.iterations, vectors.pool,
                                              vectors.active_set, vectors.max_foc_violation)
        assert floats.s_star.tobytes() == vectors.s_star.tobytes()


class TestRegressions:
    def test_library_runs_without_scipy(self):
        # scipy is a test dependency only: with it unimportable the package
        # must import, solve a point and a sweep, and pass its selftest, which
        # runs the design and casestudy pipelines.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from lotterydesign import (BenefitProfile, DesignPoint, run_selftest,\n"
                "                           solve_equilibrium, solve_sweep)\n"
                "profile = BenefitProfile.scaled_log([1.0, 1.0])\n"
                "point = solve_equilibrium(profile, DesignPoint(1.0, [0.0, 0.0]))\n"
                "sweep = solve_sweep(profile, [0.0, 0.0], [1.0])\n"
                "ok, lines, _ = run_selftest()\n"
                "assert ok, lines\n"
                "print(repr(point.G), repr(float(sweep.G[0])))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        goods = [float(x) for x in out.stdout.split()]
        assert goods == pytest.approx([0.5, 0.5], rel=1e-13)

    def test_skipped_property_does_not_fail_a_row(self):
        # R is below the reward threshold, so the investment floor does not
        # apply, although its margin is negative there.
        profile = BenefitProfile.scaled_log([2.6520441625014355, 2.3078245797216272])
        c = np.array([0.06413673358952242, 0.25447370361265004])
        reward = 0.12713782077137897
        eq = solve_equilibrium(profile, DesignPoint(reward, c))
        floors = c + reward * (reward / (reward + profile.g_star - c.sum())
                               + profile.slopes(profile.g_star) - 1.0)
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

    @pytest.mark.parametrize("c", [[1e308, 1e308], np.full(2, 1e308)], ids=["floats", "numpy"])
    def test_perturbation_total_past_the_largest_float_is_rejected(self, i2_profile, c):
        with pytest.raises(InvariantViolationError, match="total must be finite"):
            solve_sweep(i2_profile, c, [1.0])
        with pytest.raises(InvariantViolationError, match="total must be finite"):
            DesignPoint(1.0, c)

    def test_infeasible_row_raises_in_both_drivers(self):
        # One player, G* = 4 and c = 6: at R = 1 no positive pool clears.
        profile = BenefitProfile.scaled_log([5.0])
        with pytest.raises(InfeasibleRegimeError):
            solve_equilibrium(profile, DesignPoint(1.0, [6.0]))
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
