"""Dense two-phase simplex solver for small linear programs.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0 on an explicit
tableau. Bland's rule (smallest index enters, smallest basic index breaks
ratio ties) rules out cycling; rows are max-abs equilibrated so the pivot
tolerance is scale-free. A lexicographic pass then minimizes each structural
column in turn over the optimal face, re-optimizing from the phase-2 basis
(Isermann, Linear lexicographic optimization, OR Spektrum 4, 1982), so ties
between optimal vertices break the same way on every run. Sized for the
few-hundred-row programs produced by the design reformulation, not for sparse
or large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexFailureError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


@dataclass
class LinearProgram:
    """min objective.x + offset s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""

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

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class SimplexResult:
    """Solve outcome; `iterations` counts phase 1 and 2 pivots and
    `lex_iterations` those of the lexicographic pass."""

    status: str  # "optimal" | "infeasible" | "unbounded"
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


def _run_phase(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
               enter: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Minimize cost over the tableau, letting only `enter` columns enter.

    Returns the status and the number of pivots taken.
    """
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
            return "optimal", it
        col = int(candidates[0])  # Bland: smallest improving index
        row = _leaving_row(tableau, basis, col)
        if row is None:
            return "unbounded", it
        it += 1
        if it > max_iter:
            raise SimplexFailureError(
                f"simplex stalled after {it} iterations (cap {max_iter})"
            )
        _pivot(tableau, basis, row, col)


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Two-phase simplex solve of a LinearProgram.

    Returns the lexicographically smallest optimal basic solution, or an
    explicit infeasible/unbounded status. Raises SimplexFailureError past the
    iteration cap, which defaults to 10 * (rows + structural variables) per
    phase and per lexicographic stage.
    """
    n = lp.n_vars
    m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
    m = m_ub + m_eq
    if max_iter is None:
        max_iter = max(10 * (m + n), 100)

    A = np.vstack([lp.a_ub, lp.a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([lp.b_ub, lp.b_eq])
    # Row equilibration keeps pivot tolerances meaningful across scales.
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), 1e-12)
    A = A / scale[:, None]
    b = b / scale

    # Slack columns for inequality rows.
    cols = np.hstack([A, np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    flip = b < 0.0
    cols[flip] *= -1.0
    b = np.abs(b)

    # Artificial columns wherever no identity column is available.
    needs_art = [bool(flip[r]) or r >= m_ub for r in range(m)]
    art_cols = [r for r in range(m) if needs_art[r]]
    n_art = len(art_cols)
    full = np.hstack([cols, np.zeros((m, n_art))])
    for j, r in enumerate(art_cols):
        full[r, n + m_ub + j] = 1.0

    basis = n + np.arange(m)  # each inequality row's slack
    basis[art_cols] = n + m_ub + np.arange(n_art)

    n_cols = n + m_ub + n_art
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n_cols] = full
    tableau[:m, n_cols] = b

    iterations = 0
    if n_art:
        cost1 = np.zeros(n_cols)
        cost1[n + m_ub:] = 1.0
        status, iterations = _run_phase(tableau, basis, cost1,
                                        np.ones(n_cols, dtype=bool), max_iter)
        if status == "unbounded":  # pragma: no cover - phase 1 is bounded below
            raise SimplexFailureError("phase 1 reported unbounded")
        if tableau[m, n_cols] < -FEAS_TOL:
            return SimplexResult("infeasible", None, None, iterations)
        # Drive remaining artificials out of the basis.
        for r in range(m):
            if basis[r] >= n + m_ub:
                piv = np.nonzero(np.abs(tableau[r, : n + m_ub]) > PIVOT_TOL)[0]
                if piv.size:
                    _pivot(tableau, basis, r, int(piv[0]))
                # Otherwise the row is redundant; its artificial stays basic
                # at zero and never re-enters (phase-2 cost ignores it).

    # Artificial columns are barred from re-entering in phase 2.
    enter = np.arange(n_cols) < n + m_ub
    cost2 = np.zeros(n_cols)
    cost2[:n] = lp.objective
    status, pivots = _run_phase(tableau, basis, cost2, enter, max_iter)
    iterations += pivots
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations)

    # Columns with a positive reduced cost are zero on the optimal face;
    # barring them keeps every later stage on that face.
    lex_iterations = 0
    for j in range(n):
        enter &= tableau[m, :n_cols] <= PIVOT_TOL
        cost = np.zeros(n_cols)
        cost[j] = 1.0
        status, pivots = _run_phase(tableau, basis, cost, enter, max_iter)
        if status != "optimal":  # pragma: no cover - x_j >= 0 bounds the stage
            raise SimplexFailureError("lexicographic stage reported unbounded")
        lex_iterations += pivots

    x = np.zeros(n_cols)
    x[basis] = tableau[:m, n_cols]
    x_struct = np.where(np.abs(x[:n]) < 1e-12, 0.0, x[:n])
    objective = float(lp.objective @ x_struct + lp.objective_offset)
    return SimplexResult("optimal", x_struct, objective, iterations, lex_iterations)
