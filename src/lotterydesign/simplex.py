"""Dense two-phase simplex solver for small linear programs.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0 on an explicit
tableau. Bland's rule (smallest index enters, smallest basic index breaks
ratio ties) rules out cycling; rows are max-abs equilibrated so the pivot
tolerance is scale-free. Sized for the few-hundred-row programs produced by
the design reformulation, not for sparse or large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    var_names: list[str] = field(default_factory=list)
    ub_labels: list[str] = field(default_factory=list)
    eq_labels: list[str] = field(default_factory=list)
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
        if not self.var_names:
            self.var_names = [f"x{j}" for j in range(n)]

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_phase(tableau: np.ndarray, basis: list[int], cost: np.ndarray,
               n_cols: int, n_enter: int, max_iter: int,
               iters_used: int) -> tuple[str, int]:
    m = tableau.shape[0] - 1
    # Rebuild the reduced-cost row for the given cost vector.
    tableau[m, :n_cols] = cost
    tableau[m, n_cols] = 0.0
    for r, bj in enumerate(basis):
        if cost[bj] != 0.0:
            tableau[m] -= cost[bj] * tableau[r]

    it = iters_used
    while True:
        obj_row = tableau[m, :n_enter]
        candidates = np.nonzero(obj_row < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal", it
        col = int(candidates[0])  # Bland: smallest improving index
        ratios = []
        for r in range(m):
            a = tableau[r, col]
            if a > PIVOT_TOL:
                ratios.append((tableau[r, n_cols] / a, basis[r], r))
        if not ratios:
            return "unbounded", it
        _, _, row = min(ratios)  # ties resolved by smallest basic variable
        it += 1
        if it > max_iter:
            raise SimplexFailureError(
                f"simplex stalled after {it} iterations (cap {max_iter})"
            )
        _pivot(tableau, basis, row, col)


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Two-phase simplex solve of a LinearProgram.

    Returns an optimal basic solution, or an explicit infeasible/unbounded
    status. Raises SimplexFailureError past the iteration cap, which defaults
    to 10 * (rows + structural variables) per phase.
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

    basis = []
    art_iter = iter(range(n_art))
    for r in range(m):
        basis.append(n + m_ub + next(art_iter) if needs_art[r] else n + r)

    n_cols = n + m_ub + n_art
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n_cols] = full
    tableau[:m, n_cols] = b

    iterations = 0
    if n_art:
        cost1 = np.zeros(n_cols)
        cost1[n + m_ub:] = 1.0
        status, iterations = _run_phase(tableau, basis, cost1, n_cols, n_cols,
                                        max_iter, 0)
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
    cost2 = np.zeros(n_cols)
    cost2[:n] = lp.objective
    status, iterations = _run_phase(tableau, basis, cost2, n_cols, n + m_ub,
                                    max_iter, iterations)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations)

    x = np.zeros(n_cols)
    for r, bj in enumerate(basis):
        x[bj] = tableau[r, n_cols]
    x_struct = np.where(np.abs(x[:n]) < 1e-12, 0.0, x[:n])
    objective = float(lp.objective @ x_struct + lp.objective_offset)
    return SimplexResult("optimal", x_struct, objective, iterations)
