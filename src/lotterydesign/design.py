"""Optimal reward/perturbation design via the exact convex reformulation.

The planner's bi-level problem (pick the cheapest (R, c) whose induced
equilibrium attains the socially optimal good, subject to affine constraints
on investments and reward) collapses to a linear program once the
perturbation budget is fixed at the optimum: with sum(c) = G* every player is
active and invests exactly s_i = c_i + R*h_i'(G*), so the constraints become
affine in (R, c). `verify_design` re-solves the game at a designed point to
confirm every claim the reformulation makes; the grid-search oracle that
tests the collapse is exact lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benefit import BenefitProfile
from .errors import ExactnessViolationError, InvariantViolationError
from .game import (
    TOLERANCES,
    DesignPoint,
    EquilibriumResult,
    payoffs,
    solve_equilibrium,
)
from .simplex import LinearProgram, solve_lp

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
        if a.ndim != 2 or a.shape[0] != b.size or len(self.labels) != b.size:
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

    @classmethod
    def from_rows(cls, rows) -> "ConstraintSet":
        """Build from (label, s_coefficients, r_coefficient, rhs) tuples."""
        rows = list(rows)
        if not rows:
            raise InvariantViolationError("from_rows needs at least one row")
        labels, s_coeffs, r_coeffs, rhs = zip(*rows)
        s_coeffs = np.array(s_coeffs, dtype=float)
        if s_coeffs.ndim != 2:
            raise InvariantViolationError("each row needs one coefficient per player")
        r_coeffs = [float(r) for r in r_coeffs]
        return cls(np.column_stack((s_coeffs, r_coeffs)), [float(v) for v in rhs],
                   tuple(map(str, labels)))

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
        if not 0.0 < self.reward_floor < math.inf:
            raise InvariantViolationError("reward floor must be finite and positive")
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


def build_reformulation(problem: DesignProblem) -> LinearProgram:
    """Linear program over (R, c) equivalent to the bi-level design problem.

    Variables are [R, c_1..c_N], all nonnegative. The perturbation budget is
    an equality, the reward floor closes the feasible set, and every affine
    constraint row is composed with the designed equilibrium map
    s = c + R * grad_h(G*). The weighted budget alpha*G* is constant on the
    feasible set and enters as an objective offset.
    """
    n = problem.profile.n_players
    g_star = problem.profile.g_star
    grad = problem.profile.slopes(g_star)

    cons = problem.constraints
    a_ub = np.zeros((cons.n_rows + 1, n + 1))
    b_ub = np.zeros(cons.n_rows + 1)
    for r in range(cons.n_rows):
        s_part = cons.a[r, :n]
        a_ub[r, 0] = float(s_part @ grad + cons.a[r, n])
        a_ub[r, 1:] = s_part
        b_ub[r] = cons.b[r]
    a_ub[cons.n_rows, 0] = -1.0
    b_ub[cons.n_rows] = -problem.reward_floor

    a_eq = np.zeros((1, n + 1))
    a_eq[0, 1:] = 1.0
    objective = np.zeros(n + 1)
    objective[0] = 1.0
    return LinearProgram(
        objective=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=np.array([g_star]),
        objective_offset=problem.alpha * g_star,
    )


def solve_design(problem: DesignProblem) -> DesignSolution:
    """Solve the reformulated design LP; break objective ties deterministically.

    Among optimal vertices the returned one has the lexicographically smallest
    perturbation vector: the simplex returns the lexicographically smallest
    optimal (R, c), and R is constant on the optimal face. The tie-break is
    not optional: on the IEEE 30-bus optimal face every c_i ranges over the
    whole budget.
    """
    lp = build_reformulation(problem)
    res = solve_lp(lp)
    iterations = res.iterations + res.lex_iterations
    if res.status != "optimal":
        return DesignSolution(res.status, None, None, None, (), iterations)

    reward = float(res.x[0])
    c = np.maximum(res.x[1:], 0.0)
    g_star = problem.profile.g_star
    budget_gap = abs(float(c.sum()) - g_star)
    if budget_gap > 1e-8 * max(1.0, g_star):  # pragma: no cover
        raise InvariantViolationError(
            f"optimal perturbation misses the budget by {budget_gap:.3g}"
        )
    design = DesignPoint(reward, c)
    predicted = c + reward * problem.profile.slopes(g_star)

    resid = problem.constraints.residuals(predicted, reward)
    scale = np.maximum(1.0, np.abs(problem.constraints.b))
    binding = tuple(
        lab for lab, r, s in zip(problem.constraints.labels, resid, scale)
        if abs(r) <= 1e-7 * s
    )
    if reward <= problem.reward_floor + 1e-9 * max(1.0, problem.reward_floor):
        binding = binding + ("reward_floor",)
    objective = reward + problem.alpha * float(c.sum())
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

    agg_payoff = sum(payoffs(profile, design, eq.s_star).tolist())
    resid = problem.constraints.residuals(eq.s_star, design.reward)
    worst = float(resid.max()) if resid.size else 0.0
    report = {
        "good_gap": abs(eq.G - profile.g_star),
        "prediction_gap": float(np.max(np.abs(eq.s_star - solution.predicted_investments))),
        "all_active": len(eq.active_set) == profile.n_players,
        "worst_constraint_residual": worst,
        "payoff_gap": abs(agg_payoff - profile.optimal_payoff),
        "aggregate_payoff": float(agg_payoff),
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
