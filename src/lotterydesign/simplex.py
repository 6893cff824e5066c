"""Dense dual simplex solver for small linear programs with nonnegative costs.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, with c >= 0,
on an explicit tableau. Equality rows become pairs of opposed inequalities, so
the all-slack basis, whose reduced costs are c, is dual feasible and the dual
simplex (Lemke 1954; Chvatal, Linear Programming, 1983, ch. 10) starts there
with no phase 1 and no artificial columns; c >= 0 is bounded below, so a solve
ends optimal or infeasible. Bland's rule for the dual (the infeasible row with
the smallest basic index leaves, the smallest index among minimum ratios
enters) rules out cycling; rows are max-abs equilibrated so the pivot
tolerance is scale-free. A primal lexicographic pass then minimizes each
structural column in turn over the optimal face from the optimal basis
(Isermann, Linear lexicographic optimization, OR Spektrum 4, 1982), so ties
between optimal vertices break the same way on every run. Sized for the
few-hundred-row programs of the design reformulation, not for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexFailureError

PIVOT_TOL = 1e-9


@dataclass
class LinearProgram:
    """min objective.x + offset s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0,
    for a nonnegative objective."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    objective_offset: float = 0.0

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.size
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.b_ub.size != self.a_ub.shape[0] or self.b_eq.size != self.a_eq.shape[0]:
            raise ValueError("right-hand sides do not match constraint rows")
        for block in (self.objective, self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            if not np.all(np.isfinite(block)):
                raise ValueError("linear program data must be finite")
        if np.any(self.objective < 0.0):
            raise ValueError("objective coefficients must be nonnegative")

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class SimplexResult:
    """Solve outcome; `iterations` counts dual simplex pivots and
    `lex_iterations` those of the lexicographic pass."""

    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    iterations: int
    lex_iterations: int = 0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int):
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Bland's ratio test: the minimum ratio under exact float equality, ties
    to the smallest basic variable; None when no entry of `col` is positive."""
    m = tableau.shape[0] - 1
    rows = np.nonzero(tableau[:m, col] > PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios == ratios.min()]
    return int(ties[np.argmin(basis[ties])])


def _dual_phase(tableau: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Dual simplex from a dual-feasible basis under Bland's rule; returns
    "optimal" or "infeasible" and the number of pivots taken."""
    m = tableau.shape[0] - 1
    it = 0
    while True:
        rows = np.nonzero(tableau[:m, -1] < -PIVOT_TOL)[0]
        if rows.size == 0:
            return "optimal", it
        row = int(rows[np.argmin(basis[rows])])
        cols = np.nonzero(tableau[row, :-1] < -PIVOT_TOL)[0]
        if cols.size == 0:
            # The row sets a sum of nonnegative terms to a negative value.
            return "infeasible", it
        ratios = tableau[m, cols] / -tableau[row, cols]
        it += 1
        if it > max_iter:
            raise SimplexFailureError(f"simplex stalled after {it} iterations (cap {max_iter})")
        _pivot(tableau, basis, row, int(cols[np.argmin(ratios)]))  # first = smallest index


def _run_phase(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
               enter: np.ndarray, max_iter: int) -> int:
    """Minimize a nonnegative cost over the tableau by the primal simplex,
    letting only `enter` columns enter; returns the number of pivots taken."""
    m = tableau.shape[0] - 1
    n_cols = cost.size
    # Rebuild the reduced-cost row for the given cost vector.
    tableau[m, :n_cols] = cost
    tableau[m, n_cols] = 0.0
    for r in np.nonzero(cost[basis])[0]:
        tableau[m] -= cost[basis[r]] * tableau[r]

    it = 0
    while True:
        candidates = np.nonzero(enter & (tableau[m, :n_cols] < -PIVOT_TOL))[0]
        if candidates.size == 0:
            return it
        col = int(candidates[0])  # Bland: smallest improving index
        row = _leaving_row(tableau, basis, col)
        if row is None:  # pragma: no cover - a nonnegative cost is bounded below
            raise SimplexFailureError("lexicographic stage found no leaving row")
        it += 1
        if it > max_iter:
            raise SimplexFailureError(f"simplex stalled after {it} iterations (cap {max_iter})")
        _pivot(tableau, basis, row, col)


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Dual simplex solve of a LinearProgram from its all-slack basis.

    Returns the lexicographically smallest optimal basic solution, or an
    explicit infeasible status. Raises SimplexFailureError past the iteration
    cap, which defaults to 10 * (rows + structural variables) for the dual
    phase and for each lexicographic stage.
    """
    n = lp.n_vars
    if max_iter is None:
        max_iter = max(10 * (lp.b_ub.size + lp.b_eq.size + n), 100)

    A = np.vstack([lp.a_ub, lp.a_eq, -lp.a_eq])
    b = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq])
    m = b.size
    n_cols = n + m
    # Row equilibration keeps pivot tolerances meaningful across scales.
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), 1e-12)
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n] = A / scale[:, None]
    tableau[:m, n:n_cols] = np.eye(m)
    tableau[:m, n_cols] = b / scale
    tableau[m, :n] = lp.objective
    basis = n + np.arange(m)  # each row's slack

    status, iterations = _dual_phase(tableau, basis, max_iter)
    if status == "infeasible":
        return SimplexResult("infeasible", None, None, iterations)

    # Columns with a positive reduced cost are zero on the optimal face;
    # barring them keeps every later stage on that face. Once only basic
    # columns, whose reduced costs are exactly 0, may enter, no stage can pivot.
    enter = np.ones(n_cols, dtype=bool)
    lex_iterations = 0
    for j in range(n):
        enter &= tableau[m, :n_cols] <= PIVOT_TOL
        if np.count_nonzero(enter) == np.count_nonzero(enter[basis]):
            break
        cost = np.zeros(n_cols)
        cost[j] = 1.0
        lex_iterations += _run_phase(tableau, basis, cost, enter, max_iter)

    x = np.zeros(n_cols)
    x[basis] = tableau[:m, n_cols]
    x_struct = np.where(np.abs(x[:n]) < 1e-12, 0.0, x[:n])
    objective = float(lp.objective @ x_struct + lp.objective_offset)
    return SimplexResult("optimal", x_struct, objective, iterations, lex_iterations)
