"""Optimal reward/perturbation design via the exact convex reformulation.

The planner's bi-level problem (pick the cheapest (R, c) whose induced
equilibrium attains the socially optimal good, subject to affine constraints
on investments and reward) collapses to a linear program once the
perturbation budget is fixed at the optimum: with sum(c) = G* every player is
active and invests exactly s_i = c_i + R*h_i'(G*), so the constraints become
affine in (R, c); a player's floor s_i >= l_i becomes the bound of that
player's variable s_i - l_i >= 0 instead of a row. `verify_design` re-solves
the game at a designed point to confirm every claim the reformulation makes;
the grid-search oracle that tests the collapse is exact lives with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .benefit import BenefitProfile
from .errors import ExactnessViolationError, InvariantViolationError
from .game import (
    TOLERANCES,
    DesignPoint,
    EquilibriumResult,
    _payoff_sum,
    solve_equilibrium,
)
from .simplex import PIVOT_TOL, LinearProgram, solve_lp

# Default closed floor replacing the open constraint R > 0.
DEFAULT_REWARD_FLOOR = 1e-3


@dataclass(frozen=True)
class ConstraintSet:
    """Affine constraints a @ [s; R] <= b over investments and reward."""

    a: np.ndarray
    b: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size or len(self.labels) != b.size:
            raise InvariantViolationError("constraint matrix, rhs, and labels disagree")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvariantViolationError("constraint rows must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def empty(cls, n_players: int) -> "ConstraintSet":
        return cls(np.zeros((0, n_players + 1)), np.zeros(0), ())

    @property
    def n_rows(self) -> int:
        return self.b.size

    @property
    def n_players(self) -> int:
        return self.a.shape[1] - 1

    def stacked(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.n_players != self.n_players:
            raise InvariantViolationError("cannot stack constraints over different players")
        return ConstraintSet(
            np.vstack([self.a, other.a]),
            np.concatenate([self.b, other.b]),
            self.labels + other.labels,
        )

    def residuals(self, s, reward: float) -> np.ndarray:
        """a @ [s; R] - b per row; nonpositive entries are satisfied."""
        point = np.append(np.asarray(s, dtype=float), reward)
        return self.a @ point - self.b


@dataclass(frozen=True)
class DesignProblem:
    """Bi-level design data: game, affine constraints, perturbation weight."""

    profile: BenefitProfile
    constraints: ConstraintSet
    alpha: float = 1.0
    reward_floor: float = DEFAULT_REWARD_FLOOR

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise InvariantViolationError("perturbation weight must be finite and nonnegative")
        # The simplex takes a floor row -R <= -floor at or below its pivot
        # tolerance as met at R = 0.
        if not PIVOT_TOL < self.reward_floor < math.inf:
            raise InvariantViolationError(
                f"reward_floor must be finite and above the simplex pivot tolerance {PIVOT_TOL:g}")
        if self.constraints.n_players != self.profile.n_players:
            raise InvariantViolationError("constraints sized for a different player count")


@dataclass(frozen=True)
class DesignSolution:
    """Designed point with its objective, predicted equilibrium, and status."""

    status: str  # "optimal" | "infeasible"
    design: DesignPoint | None
    objective: float | None
    predicted_investments: np.ndarray | None
    binding: tuple[str, ...] = ()
    lp_iterations: int = 0


def individual_rationality_rows(profile: BenefitProfile) -> ConstraintSet:
    """Rows forcing every player's designed payoff to be nonnegative.

    With the budget pinned at the optimum each player's payoff reduces to
    h_i(G*) - c_i, so the row is c_i <= h_i(G*), written over (s, R) as
    s_i - h_i'(G*)*R <= h_i(G*).
    """
    n = profile.n_players
    g_star = profile.g_star
    return ConstraintSet(
        np.hstack([np.eye(n), -profile.slopes(g_star)[:, None]]),
        profile.values(g_star),
        tuple(f"individual_rationality[{i}]" for i in range(n)),
    )


def build_reformulation(problem: DesignProblem) -> tuple[LinearProgram, np.ndarray]:
    """Linear program equivalent to the bi-level design problem, and its floors.

    Every affine constraint row is composed with the designed equilibrium map
    s = c + R * grad_h(G*), the perturbation budget sum(c) = G* is an
    equality, and the reward floor closes the feasible set. The objective is
    R alone: the weighted budget alpha*G* is the same at every feasible point.

    A row whose only nonzero coefficient is a negative one on some s_i, with
    no reward term and a negative right-hand side, is a floor s_i >= l_i > 0.
    Each player's tightest floor (the first row on a tie) leaves the rows and
    becomes the bound of that player's variable, the presolve of a singleton
    row (Andersen and Andersen, Math. Program. 71, 1995). The variables are
    [R, x_1..x_N], all nonnegative, with x_i = s_i - l_i for a player with a
    floor and x_i = c_i for the others. Such a player's c_i >= 0 becomes the
    row h_i'(G*) R - x_i <= l_i; these rows follow the other constraint rows,
    in player order, and the reward floor comes last. In the budget row R
    takes the coefficient -sum h_i'(G*) and the right-hand side is
    G* - sum l_i, both over the players with a floor. Returns the program and
    the floors l, with l_i = 0 for a player without one. When no row is a
    floor, the program is the one over (R, c).
    """
    profile, cons = problem.profile, problem.constraints
    n = profile.n_players
    g_star = profile.g_star
    slopes = profile.slopes(g_star)
    a, b = cons.a, cons.b
    # A floor row has a negative right-hand side, no reward term and one
    # nonzero coefficient, a negative one, so it is that row's minimum.
    rows = np.flatnonzero((b < 0.0) & (a[:, n] == 0.0))
    a_s = a[rows, :n]
    floors, floor_rows = [0.0] * n, {}
    for row, rhs, i, coeff, count in zip(rows.tolist(), b[rows].tolist(),
                                     a_s.argmin(axis=1).tolist(), a_s.min(axis=1).tolist(),
                                     np.count_nonzero(a_s, axis=1).tolist()):
        # The first of equal bounds folds; a bound that rounds to 0 or inf bounds nothing.
        if count == 1 and coeff < 0.0 and floors[i] < rhs / coeff < math.inf:
            floors[i], floor_rows[i] = rhs / coeff, row
    floors = np.array(floors)
    folded = np.array(sorted(floor_rows), dtype=np.intp)  # the players with a floor
    if floor_rows:  # their floor rows leave, and the other rows see s_i = x_i + l_i
        keep = np.ones(b.size, dtype=bool)
        keep[list(floor_rows.values())] = False
        a = a[keep]
        b = b[keep] - a[:, folded] @ floors[folded]
    k = b.size
    a_ub = np.zeros((k + folded.size + 1, n + 1))
    a_ub[:k, 0] = a[:, :n] @ np.where(floors > 0.0, 0.0, slopes) + a[:, n]
    a_ub[:k, 1:] = a[:, :n]
    a_ub[k:-1, 0] = slopes[folded]  # c_i >= 0 of each player with a floor
    a_ub[k + np.arange(folded.size), 1 + folded] = -1.0
    a_ub[-1, 0] = -1.0  # the reward floor, -R <= -floor
    return LinearProgram(
        objective=np.append(1.0, np.zeros(n)),
        a_ub=a_ub,
        b_ub=np.concatenate([b, floors[folded], [-problem.reward_floor]]),
        a_eq=np.append(0.0 - math.fsum(slopes[folded].tolist()), np.ones(n)),
        b_eq=g_star - math.fsum(floors[folded].tolist()),
    ), floors


def solve_design(problem: DesignProblem) -> DesignSolution:
    """Solve the reformulated design LP; break objective ties deterministically.

    Among optimal vertices the returned one has the lexicographically smallest
    perturbation vector: the simplex returns the lexicographically smallest
    optimal (R, x), R is constant on the optimal face, and there each x_i is
    c_i plus a constant, so that is the smallest (R, c) too. The tie-break is
    not optional: on the IEEE 30-bus optimal face every c_i ranges over the
    whole budget. A player with a floor l_i gets c_i = x_i + l_i - R h_i'(G*)
    back, and every c_i is clamped at 0.
    """
    lp, floors = build_reformulation(problem)
    res = solve_lp(lp)
    iterations = res.iterations + res.lex_iterations
    if res.status != "optimal":
        return DesignSolution(res.status, None, None, None, (), iterations)

    reward = float(res.x[0])
    g_star = problem.profile.g_star
    slopes = problem.profile.slopes(g_star)
    c = np.maximum(res.x[1:] + np.where(floors > 0.0, floors - reward * slopes, 0.0), 0.0)
    c_total = math.fsum(c.tolist())
    budget_gap = abs(c_total - g_star)
    if budget_gap > 1e-8 * max(1.0, g_star):  # pragma: no cover
        raise InvariantViolationError(
            f"optimal perturbation misses the budget by {budget_gap:.3g}"
        )
    design = DesignPoint(reward, c)
    predicted = c + reward * slopes

    cons = problem.constraints
    resid = cons.residuals(predicted, reward)
    binding = tuple(itertools.compress(
        cons.labels, np.abs(resid) <= 1e-7 * np.maximum(1.0, np.abs(cons.b))))
    if reward <= problem.reward_floor + 1e-9 * max(1.0, problem.reward_floor):
        binding = binding + ("reward_floor",)
    objective = reward + problem.alpha * c_total
    return DesignSolution("optimal", design, objective, predicted, binding, iterations)


def verify_design(problem: DesignProblem,
                  solution: DesignSolution) -> tuple[dict, EquilibriumResult]:
    """Re-solve the game at a designed optimum and confirm the exactness claims.

    Asserts the induced good equals the optimum, the equilibrium matches the
    closed-form prediction with every player active, the original constraints
    hold, and the aggregate payoff equals the socially optimal payoff. Returns
    the report and the solved equilibrium; raises ExactnessViolationError,
    carrying both as `.report` and `.equilibrium`, otherwise.
    """
    if solution.status != "optimal":
        raise ValueError(f"cannot verify a {solution.status!r} design solution")
    profile = problem.profile
    design = solution.design
    eq = solve_equilibrium(profile, design)

    agg_payoff = _payoff_sum(profile, design, eq.s_star)
    resid = problem.constraints.residuals(eq.s_star, design.reward)
    worst = float(resid.max()) if resid.size else 0.0
    report = {
        "good_gap": abs(eq.G - profile.g_star),
        "prediction_gap": float(np.max(np.abs(eq.s_star - solution.predicted_investments))),
        "all_active": len(eq.active_set) == profile.n_players,
        "worst_constraint_residual": worst,
        "payoff_gap": abs(agg_payoff - profile.optimal_payoff),
        "aggregate_payoff": agg_payoff,
        "max_foc_violation": eq.max_foc_violation,
    }
    tol = {name: entry["value"] for name, entry in TOLERANCES.items()}
    ok = (
        report["good_gap"] <= tol["good_gap"]
        and report["prediction_gap"] <= tol["prediction_gap"]
        and report["all_active"]
        and report["worst_constraint_residual"] <= tol["constraint_residual"]
        and report["payoff_gap"] <= tol["payoff_gap"]
    )
    if not ok:
        raise ExactnessViolationError(
            f"designed optimum failed verification: {report}",
            report=report, equilibrium=eq,
        )
    return report, eq
