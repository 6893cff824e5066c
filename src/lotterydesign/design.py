"""Optimal reward/perturbation design via the exact convex reformulation.

The planner's bi-level problem (pick the cheapest (R, c) whose induced
equilibrium attains the socially optimal good, subject to affine constraints
on investments and reward) collapses to a linear program once the
perturbation budget is fixed at the optimum: with sum(c) = G* every player is
active and invests exactly s_i = c_i + R*h_i'(G*), so the constraints become
affine in (R, c). A grid-search oracle over true equilibria is provided to
test that the collapse is exact, and `verify_design` re-solves the game at a
designed point to confirm every claim the reformulation makes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .benefit import BenefitProfile
from .errors import (
    ExactnessViolationError,
    InfeasibleRegimeError,
    InvariantViolationError,
)
from .game import (
    TOLERANCES,
    DesignPoint,
    EquilibriumResult,
    LotteryInstance,
    payoff,
    solve_equilibrium,
)
from .simplex import LinearProgram, SimplexResult, solve_lp

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
        labels, a, b = [], [], []
        for label, s_coeffs, r_coeff, rhs in rows:
            labels.append(str(label))
            a.append(list(np.asarray(s_coeffs, dtype=float)) + [float(r_coeff)])
            b.append(float(rhs))
        return cls(np.asarray(a), np.asarray(b), tuple(labels))

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

    instance: LotteryInstance
    constraints: ConstraintSet
    alpha: float = 1.0
    reward_floor: float = DEFAULT_REWARD_FLOOR
    g_star: float = field(init=False)

    def __post_init__(self):
        if self.alpha < 0.0:
            raise InvariantViolationError("perturbation weight must be nonnegative")
        if not (self.reward_floor > 0.0):
            raise InvariantViolationError("reward floor must be positive")
        if self.constraints.n_players != self.instance.n_players:
            raise InvariantViolationError("constraints sized for a different player count")
        object.__setattr__(self, "g_star", self.instance.profile.socially_optimal_good())


@dataclass(frozen=True)
class DesignSolution:
    """Designed point with its objective, predicted equilibrium, and status."""

    status: str  # "optimal" | "infeasible" | "unbounded"
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
    g_star = profile.socially_optimal_good()
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
    n = problem.instance.n_players
    profile = problem.instance.profile
    grad = profile.slopes(problem.g_star)

    cons = problem.constraints
    a_ub = np.zeros((cons.n_rows + 1, n + 1))
    b_ub = np.zeros(cons.n_rows + 1)
    labels = list(cons.labels) + ["reward_floor"]
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
        b_eq=np.array([problem.g_star]),
        var_names=["R"] + [f"c[{i}]" for i in range(n)],
        ub_labels=labels,
        eq_labels=["perturbation_budget"],
        objective_offset=problem.alpha * problem.g_star,
    )


def _pin_and_minimize(lp: LinearProgram, pins: list[tuple[int, float]],
                      target: int) -> SimplexResult:
    n = lp.n_vars
    extra_a = np.zeros((len(pins), n))
    extra_b = np.zeros(len(pins))
    for r, (j, value) in enumerate(pins):
        extra_a[r, j] = 1.0
        extra_b[r] = value
    obj = np.zeros(n)
    obj[target] = 1.0
    pinned = LinearProgram(
        objective=obj,
        a_ub=lp.a_ub,
        b_ub=lp.b_ub,
        a_eq=np.vstack([lp.a_eq, extra_a]),
        b_eq=np.concatenate([lp.b_eq, extra_b]),
        var_names=lp.var_names,
    )
    return solve_lp(pinned)


def solve_design(problem: DesignProblem) -> DesignSolution:
    """Solve the reformulated design LP; break objective ties deterministically.

    Among optimal vertices the returned one has the lexicographically smallest
    perturbation vector, obtained by pinning the optimal reward and minimizing
    each c_i in turn. The tie-break is not optional: on the IEEE 30-bus
    optimal face every c_i ranges over the whole budget.
    """
    lp = build_reformulation(problem)
    res = solve_lp(lp)
    if res.status != "optimal":
        return DesignSolution(res.status, None, None, None, (), res.iterations)

    n = problem.instance.n_players
    x = res.x.copy()
    iterations = res.iterations
    if n > 1:
        pins = [(0, x[0])]
        for j in range(1, n):  # the budget row forces the final coordinate
            sub = _pin_and_minimize(lp, pins, j)
            if sub.status != "optimal":  # pragma: no cover - pins replay a vertex
                raise InvariantViolationError("lexicographic refinement lost feasibility")
            x = sub.x.copy()
            iterations += sub.iterations
            pins.append((j, x[j]))

    reward = float(x[0])
    c = np.maximum(x[1:], 0.0)
    budget_gap = abs(float(c.sum()) - problem.g_star)
    if budget_gap > 1e-8 * max(1.0, problem.g_star):  # pragma: no cover
        raise InvariantViolationError(
            f"optimal perturbation misses the budget by {budget_gap:.3g}"
        )
    design = DesignPoint(reward, c)
    grad = problem.instance.profile.slopes(problem.g_star)
    predicted = c + reward * grad

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
    instance = problem.instance
    design = solution.design
    eq = solve_equilibrium(instance, design)
    profile = instance.profile

    agg_payoff = sum(payoff(instance, design, eq.s_star, i)
                     for i in range(instance.n_players))
    resid = problem.constraints.residuals(eq.s_star, design.reward)
    worst = float(resid.max()) if resid.size else 0.0
    report = {
        "good_gap": abs(eq.G - problem.g_star),
        "prediction_gap": float(np.max(np.abs(eq.s_star - solution.predicted_investments))),
        "all_active": len(eq.active_set) == instance.n_players,
        "worst_constraint_residual": worst,
        "payoff_gap": abs(agg_payoff - profile.socially_optimal_payoff()),
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
        eq = solve_equilibrium(problem.instance, design)
    except (InfeasibleRegimeError, InvariantViolationError):
        return None
    if abs(eq.G - problem.g_star) > g_tol:
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
    n = problem.instance.n_players
    if n > 3:
        raise ValueError("brute-force oracle is limited to 3 players")
    if g_tolerance is None:
        g_tolerance = resolution
    g_star = problem.g_star

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
