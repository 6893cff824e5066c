"""Test-only oracles, kept out of the library.

`foc_residual` is one player's marginal payoff at a profile, differentiated
from the payoff formula itself rather than taken from the solver, and
`equilibrium_sensitivities` the closed-form dG/dR and dG/dc_i at an
all-active equilibrium; only the tests use them.
`best_response_oracle` searches one player's own investment by a grid scan
and golden-section refinement, with no use of first-order conditions or of
`certify_equilibrium`, which the tests check against it. `poa_bounds` is the
closed-form bound sandwich of `analysis` at one design point, which no
pipeline calls on its own. `brute_force_bilevel` searches the bi-level
design problem over a grid of design points, solving the true game at each
one with `solve_equilibrium`; it shares no code with the reformulated LP that
the tests compare against it. `unfolded_design_lp` builds the paper's design LP
over (R, c) from a problem's data, without `build_reformulation`, and
`highs_lexicographic` solves an LP's lexicographic optimum with HiGHS.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from lotterydesign import (
    BenefitProfile, DesignPoint, DesignProblem, DesignSolution, LinearProgram, PoaBounds,
    solve_equilibrium,
)
from lotterydesign.analysis import _compute_bounds, _terms
from lotterydesign.errors import (
    DomainError, InfeasibleRegimeError, InvariantViolationError, LotteryDesignError,
    SingularPoolError,
)
from lotterydesign.game import EquilibriumResult, _check_profile_shape, _good_sensitivities

# Width at which the best-response oracle's golden-section search stops.
_ORACLE_TOL = 1e-9


class UnsupportedRegimeError(LotteryDesignError):
    """An operation requires all players active but some are not."""


def foc_residual(profile: BenefitProfile, design: DesignPoint, s, i: int) -> float:
    """Marginal payoff dU_i/ds_i at profile s (the first-order-condition residual).

    Zero for active equilibrium players, nonpositive for inactive ones. With
    total T = sum_j s_j and pool P = T - c_bar, the payoff while the lottery
    holds (T >= R) is U_i = R (s_i - c_i)/P + a_i ln(1 + T - R) - s_i. T and P
    grow one for one with s_i, so the quotient rule gives the reward share's
    slope R (P - (s_i - c_i))/P^2, and the benefit's is a_i/(1 + T - R).
    """
    s = _check_profile_shape(profile, design, s)
    R = design.reward
    total = float(s.sum())
    if total < R:
        raise DomainError("the lottery is canceled: the payoff is flat at zero")
    pool = total - design.perturbation_total
    if pool <= 0.0:
        raise SingularPoolError("the reward share needs a positive pool")
    share_slope = R * (pool - (s[i] - design.perturbation[i])) / pool**2
    return float(share_slope + profile.coefficients[i] / (1.0 + total - R) - 1.0)


def equilibrium_sensitivities(profile: BenefitProfile, design: DesignPoint,
                              eq: EquilibriumResult) -> tuple[float, np.ndarray]:
    """Closed-form dG/dR and dG/dc_i at an all-active equilibrium.

    Implicit differentiation of the aggregate first-order condition gives
    dG/dR = -(G - c_bar)(N-1) / D and dG/dc_i = -R(N-1) / D with
    D = (R + G - c_bar)^2 * sum_i h_i''(G) - R(N-1) < 0.
    """
    n = profile.n_players
    if len(eq.active_set) != n:
        raise UnsupportedRegimeError(
            "sensitivity formulas require every player active; "
            f"only {len(eq.active_set)} of {n} are"
        )
    dG_dR, dG_dc = _good_sensitivities(profile.marginal_at_zero, n, design.reward,
                                       design.perturbation_total, eq.G)
    return float(dG_dR), np.full(n, dG_dc)


def _payoff_grid(design, others_sum: float, c_i: float, a_i: float,
                 x: np.ndarray) -> np.ndarray:
    # Vectorized own-payoff over candidate investments x, opponents fixed.
    R = design.reward
    totals = x + others_sum
    out = np.zeros_like(x)
    on = totals >= R
    pools = totals[on] - design.perturbation_total
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.where(pools != 0.0, (x[on] - c_i) / pools, np.nan)
    vals = shares * R + a_i * np.log1p(totals[on] - R) - x[on]
    out[on] = np.where(np.isnan(vals), -np.inf, vals)
    return out


def best_response_oracle(profile: BenefitProfile, design: DesignPoint,
                         s_minus_i, i: int) -> float:
    """Brute-force best response of player i to fixed opponent investments.

    Coarse grid scan over [0, s_hi] followed by golden-section refinement to
    a bracket of width `_ORACLE_TOL`; s_hi is expanded until the payoff is
    decreasing beyond it (the payoff falls like -s_i for large investments).
    Test oracle only: makes no use of first-order conditions.
    """
    s_minus_i = np.asarray(s_minus_i, dtype=float)
    n = profile.n_players
    if s_minus_i.shape != (n - 1,):
        raise DomainError(f"expected {n - 1} opponent investments, got {s_minus_i.shape}")
    others_sum = float(s_minus_i.sum())
    c_i = float(design.perturbation[i])
    a_i = float(profile.coefficients[i])

    def u(x):
        return float(_payoff_grid(design, others_sum, c_i, a_i, np.array([x]))[0])

    hi = max(1.0, 2.0 * (design.reward + design.perturbation_total + others_sum + 10.0))
    for _ in range(200):
        if u(hi) < u(hi / 2.0):
            break
        hi *= 2.0

    xs = np.linspace(0.0, hi, 4097)
    kink = max(0.0, design.reward - others_sum)
    if 0.0 < kink < hi:
        xs = np.sort(np.append(xs, [kink, np.nextafter(kink, hi)]))
    vals = _payoff_grid(design, others_sum, c_i, a_i, xs)
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    up = xs[min(k + 1, xs.size - 1)]

    # Golden-section maximization on [lo, up].
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = u(x1), u(x2)
    while b - a > _ORACLE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = u(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = u(x2)
    x_star = (a + b) / 2.0
    # The canceled-lottery plateau and boundary can beat the interior point.
    candidates = [(u(0.0), 0.0), (u(x_star), x_star)]
    if 0.0 < kink < hi:
        candidates.append((u(kink), kink))
    return max(candidates)[1]


def poa_bounds(profile: BenefitProfile, design: DesignPoint, proof: bool = False) -> PoaBounds:
    """Closed-form public-good bracket and price-of-anarchy sandwich.

    A bound formula that leaves the invertible range of H is vacuous at this
    design point: it maps to +inf. The `proof` variant substitutes the far
    bound into the near-bound numerator, which tightens it whenever at least
    two players are certifiably active.
    """
    terms = _terms(profile, design.perturbation_total)
    return PoaBounds(*_compute_bounds(profile, terms, design.reward, proof)[0])


def _compositions(total: float, n: int, step: float):
    """Grid points on the simplex {c >= 0, sum c = total} with spacing step."""
    if total <= 0.0:
        yield np.zeros(n)
        return
    k = max(1, int(round(total / step)))
    if n == 1:
        yield np.array([total])
        return
    ticks = range(k + 1)
    for combo in itertools.product(ticks, repeat=n - 1):
        if sum(combo) <= k:
            head = np.array(combo, dtype=float) * (total / k)
            yield np.append(head, total - head.sum())


def _evaluate_point(problem, reward, c, g_tol, feas_tol):
    try:
        design = DesignPoint(reward, c)
        eq = solve_equilibrium(problem.profile, design)
    except (InfeasibleRegimeError, InvariantViolationError):
        return None
    if abs(eq.G - problem.profile.g_star) > g_tol:
        return None
    resid = problem.constraints.residuals(eq.s_star, reward)
    if resid.size and float(resid.max()) > feas_tol:
        return None
    objective = reward + problem.alpha * float(c.sum())
    # Orderable key: ties in objective fall back to the smallest (c, R).
    return (objective, tuple(c), reward), eq.s_star


def brute_force_bilevel(problem: DesignProblem, r_lo: float, r_hi: float,
                        resolution: float, g_tolerance: float | None = None,
                        feasibility_tol: float = 1e-6) -> DesignSolution:
    """Grid-search oracle for the bi-level problem using true equilibria.

    Scans rewards in [r_lo, r_hi] crossed with simplex slices of the
    perturbation around the optimal budget, solving the actual game at every
    point and keeping those whose good lands within `g_tolerance` of the
    optimum and whose constraints hold at the true equilibrium. Exponential in
    the player count, so restricted to N <= 3; used only to validate the
    reformulation.
    """
    n = problem.profile.n_players
    if n > 3:
        raise ValueError("brute-force oracle is limited to 3 players")
    if g_tolerance is None:
        g_tolerance = resolution
    g_star = problem.profile.g_star

    def scan(r_values, slice_totals, c_step, incumbent):
        for reward in r_values:
            if reward <= 0.0:
                continue
            for total in slice_totals:
                if total < 0.0:
                    continue
                for c in _compositions(total, n, c_step):
                    hit = _evaluate_point(problem, reward, c, g_tolerance,
                                          feasibility_tol)
                    if hit is not None and (incumbent is None or hit[0] < incumbent[0]):
                        incumbent = hit
        return incumbent

    r_step = max(resolution, (r_hi - r_lo) / 24.0)
    c_step = max(resolution, g_star / 8.0)
    r_values = np.arange(r_lo, r_hi + r_step / 2, r_step)
    slice_totals = [g_star + k * resolution for k in range(-2, 3)]
    best = scan(r_values, slice_totals, c_step, None)

    if best is not None:
        # Shrink the grid around the incumbent until both steps reach the
        # requested resolution; each pass covers the previous step fully.
        while r_step > resolution or c_step > resolution:
            (_, c_inc, r_inc), _ = best
            c_inc = np.asarray(c_inc)
            new_r = max(resolution, r_step / 3.0)
            new_c = max(resolution, c_step / 3.0)
            r_fine = np.arange(max(r_lo, r_inc - r_step),
                               min(r_hi, r_inc + r_step) + new_r / 2, new_r)
            offsets = np.arange(-c_step, c_step + new_c / 2, new_c)
            total = float(c_inc.sum())
            for reward in r_fine:
                for combo in itertools.product(offsets, repeat=n - 1):
                    c = c_inc.copy()
                    c[:-1] += np.asarray(combo)
                    c[-1] = total - c[:-1].sum()
                    if np.any(c < 0.0):
                        continue
                    hit = _evaluate_point(problem, float(reward), c, g_tolerance,
                                          feasibility_tol)
                    if hit is not None and hit[0] < best[0]:
                        best = hit
            r_step, c_step = new_r, new_c

    if best is None:
        return DesignSolution("infeasible", None, None, None)
    (objective, c, reward), s_star = best
    return DesignSolution(
        "optimal",
        DesignPoint(reward, np.asarray(c)),
        objective,
        np.asarray(s_star),
    )


def unfolded_design_lp(problem: DesignProblem) -> LinearProgram:
    """The paper's design LP over x = [R, c_1..c_N] >= 0, built from the problem's data.

    With sum(c) = G* every scaled-log player is active at s = c + R w, where
    w_i = h_i'(G*) = a_i / sum(a) and G* = sum(a) - 1. So each row
    a_s . s + a_R R <= b becomes (a_s . w + a_R) R + a_s . c <= b, every row
    as it is given, floors included. The budget row is sum(c) = G*, the
    reward floor the row -R <= -floor, and the objective R.
    """
    a = problem.profile.coefficients
    n = a.size
    total = float(a.sum())
    rows = problem.constraints.a
    composed = np.hstack([(rows[:, :n] @ (a / total) + rows[:, n])[:, None], rows[:, :n]])
    return LinearProgram(
        np.append(1.0, np.zeros(n)),
        np.vstack([composed, np.append(-1.0, np.zeros(n))]),
        np.append(problem.constraints.b, -problem.reward_floor),
        np.append(0.0, np.ones(n)),
        [total - 1.0],
    )


def highs_lexicographic(lp: LinearProgram) -> np.ndarray | None:
    """HiGHS's lexicographic optimum of `lp`, or None when HiGHS finds it infeasible.

    Minimizes the objective, then each x_j in turn with the earlier coordinates
    (x_0 included, the reward of a design LP) fixed at their optima.
    """
    bounds = [(0.0, None)] * lp.n_vars

    def solve(cost):
        return linprog(cost, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                       bounds=bounds, method="highs")

    first = solve(lp.objective)
    if first.status == 2:
        return None
    assert first.status == 0, first.message
    x = first.x
    bounds[0] = (x[0], x[0])
    for j in range(1, lp.n_vars):
        cost = np.zeros(lp.n_vars)
        cost[j] = 1.0
        res = solve(cost)
        assert res.status == 0, res.message
        x = res.x
        bounds[j] = (x[j], x[j])
    return x
