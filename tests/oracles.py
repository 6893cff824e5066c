"""Test-only oracles, kept out of the library.

`foc_residual` is one player's marginal payoff at a profile, from the
solver's own residual formula, and `equilibrium_sensitivities` the closed-form
dG/dR and dG/dc_i at an all-active equilibrium; only the tests use them.
`brute_force_bilevel` searches the bi-level design problem over a grid of
design points, solving the true game at each one with `solve_equilibrium`;
it shares no code with the reformulated LP that the tests compare against it.
"""

import itertools

import numpy as np

from lotterydesign import (
    BenefitProfile, DesignPoint, DesignProblem, DesignSolution, solve_equilibrium,
)
from lotterydesign.errors import (
    InfeasibleRegimeError, InvariantViolationError, LotteryDesignError,
)
from lotterydesign.game import (
    EquilibriumResult, _check_profile_shape, _foc_residuals, _good_sensitivities,
)


class UnsupportedRegimeError(LotteryDesignError):
    """An operation requires all players active but some are not."""


def foc_residual(profile: BenefitProfile, design: DesignPoint, s, i: int) -> float:
    """Marginal payoff dU_i/ds_i at profile s (the first-order-condition residual).

    Zero for active equilibrium players, nonpositive for inactive ones.
    """
    s = _check_profile_shape(profile, design, s)
    res = _foc_residuals(profile.coefficients, design.perturbation,
                         design.perturbation_total, design.reward, s)
    return float(res[i])


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
