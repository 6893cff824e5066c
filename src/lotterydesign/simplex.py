"""Dense dual simplex solver for small linear programs with nonnegative costs.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, with c >= 0.
Equality rows become pairs of opposed inequalities, so the all-slack basis,
whose reduced costs are c, is dual feasible and the dual simplex (Lemke 1954;
Chvatal, Linear Programming, 1983, ch. 10) starts there with no phase 1; c >= 0
is bounded below, so a solve ends optimal or infeasible. The tableau is
condensed (Tucker; Chvatal's dictionaries): one row per basic variable
`basis[r]` plus the reduced costs, one column per nonbasic variable
`nonbasic[j]` plus the right-hand side. Bland's rule (the infeasible row with
the smallest basic variable leaves, the smallest variable among minimum ratios
enters) rules out cycling for any fixed order of the variables (Bland, Math.
Oper. Res. 2, 1977); `solve_lp` numbers the structural variables from last to
first, then the slacks. Rows are max-abs equilibrated so the pivot tolerance
is scale-free. A primal lexicographic pass then minimizes each structural
variable in turn, first to last, over the optimal face (Isermann, OR Spektrum
4, 1982), so ties between optimal vertices break the same way on every run.
The two orders are reversed on purpose. Where several structural variables
have reduced cost 0, as every perturbation does under the design LP's
objective R, the dual ratio test ties among them and the last one enters, so
the first ones stay nonbasic at 0, where the lexicographic optimum has them.
Case 30's dual phase then ends at that optimum and the pass only certifies
it: 14 dual and no lexicographic pivots, where numbering first to last took
12 and 28 (BENCH_28.json). Sized for the few-hundred-row programs of the
design reformulation.

A pivot subtracts its rank-1 update only from the rows with a nonzero entry in
the pivot column when those are under a quarter of the tableau, and from the
whole tableau otherwise. Gathering and scattering rows costs more per row than
one whole-tableau subtraction, so the row update pays only on a sparse column
of a wide tableau: timed per update, it was faster below about half the rows
on a design LP's 154 x 62 tableau, but only below about a tenth on case 30's
107 x 22 one. A quarter lies between the two, and far from both programs: a
design LP's column is about 6 % nonzero and case 30's about 80 %. Updating
only the touched rows on every pivot made case 30's solve about a fifth
slower (BENCH_25.json). Both give the same pivots and every bit of x: a
skipped row would have had `t - 0*y` subtracted, which changes no nonzero
entry and at most turns a -0.0 into +0.0. No comparison tells -0.0 from
+0.0, no arithmetic here turns a zero's sign into a nonzero value, and
`solve_lp` returns +0.0 for every entry below 1e-12. Each of Bland's choices
is one masked key: the variable indices at the eligible least-ratio
positions, a sentinel above every index elsewhere, then an argmin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexFailureError

PIVOT_TOL = 1e-9
_NONE = np.iinfo(np.intp).max  # above every variable index


@dataclass
class LinearProgram:
    """min objective.x s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0, for a
    nonnegative objective."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

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


def _pivot(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, row: int, col: int):
    """Swap basis[row] and nonbasic[col]: the full-tableau pivot with the basic
    columns dropped, the leaving variable's pivoted unit column taking `col`.
    Besides the pivot row, only rows with a nonzero entry in `col` change, so
    when they are under a quarter of the tableau only they are updated."""
    pivot = tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau[row] /= pivot
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0 / pivot
    rows = factor.nonzero()[0]
    if 4 * rows.size < factor.size:
        tableau[rows] -= factor[rows, None] * tableau[row]
    else:
        tableau -= factor[:, None] * tableau[row]
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _smallest(index: np.ndarray, chosen: np.ndarray) -> int | None:
    """Bland's choice: the position of the smallest variable in `index` among
    the `chosen` positions, or None when none is chosen."""
    key = np.where(chosen, index, _NONE)
    if key.size:
        at = int(key.argmin())
        if chosen[at]:
            return at
    return None


def _least_ratios(numerator: np.ndarray, denominator: np.ndarray,
                  eligible: np.ndarray) -> np.ndarray:
    """The eligible positions whose ratio is the least under exact float equality."""
    ratios = np.divide(numerator, denominator, out=np.full(eligible.size, np.inf), where=eligible)
    return eligible & (ratios == ratios.min(initial=np.inf))


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Bland's ratio test: the minimum ratio under exact float equality, ties
    to the smallest basic variable; None when no entry of `col` is positive."""
    m = tableau.shape[0] - 1
    column = tableau[:m, col]
    return _smallest(basis, _least_ratios(tableau[:m, -1], column, column > PIVOT_TOL))


def _dual_phase(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                max_iter: int) -> tuple[str, int]:
    """Dual simplex from a dual-feasible basis under Bland's rule; returns
    "optimal" or "infeasible" and the number of pivots taken."""
    m = tableau.shape[0] - 1
    rhs, costs = tableau[:m, -1], tableau[m, :-1]
    for it in range(max_iter + 1):
        row = _smallest(basis, rhs < -PIVOT_TOL)
        if row is None:
            return "optimal", it
        entries = tableau[row, :-1]
        col = _smallest(nonbasic, _least_ratios(costs, -entries, entries < -PIVOT_TOL))
        if col is None:
            # The row sets a sum of nonnegative terms to a negative value.
            return "infeasible", it
        if it < max_iter:
            _pivot(tableau, basis, nonbasic, row, col)
    raise SimplexFailureError(f"simplex stalled after {max_iter + 1} iterations (cap {max_iter})")


def _run_phase(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, row: int,
               enter: np.ndarray, max_iter: int) -> int:
    """Minimize the basic variable of `row` by the primal simplex, letting only
    `enter` variables enter (Bland: the smallest improving variable index);
    returns the number of pivots taken."""
    m = tableau.shape[0] - 1
    costs = tableau[m, :-1]
    np.subtract(0.0, tableau[row], out=tableau[m])  # reduced costs of a unit cost
    for it in range(max_iter + 1):
        col = _smallest(nonbasic, enter[nonbasic] & (costs < -PIVOT_TOL))
        if col is None:
            return it
        row = _leaving_row(tableau, basis, col)
        if row is None:  # pragma: no cover - a nonnegative cost is bounded below
            raise SimplexFailureError("lexicographic stage found no leaving row")
        if it < max_iter:
            _pivot(tableau, basis, nonbasic, row, col)
    raise SimplexFailureError(f"simplex stalled after {max_iter + 1} iterations (cap {max_iter})")


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Dual simplex solve of a LinearProgram from its all-slack basis.

    Returns the lexicographically smallest optimal basic solution, or an
    explicit infeasible status. Bland's rule runs over structural variable j
    numbered n - 1 - j, ahead of the slacks, so dual ratio ties go to the
    later variables and the dual phase tends to end where the lexicographic
    stages, run over j = 0, 1, ..., have nothing left to move. Raises
    SimplexFailureError past the iteration cap, which defaults to
    10 * (rows + structural variables) for the dual phase and for each
    lexicographic stage.
    """
    n = lp.n_vars
    if max_iter is None:
        max_iter = max(10 * (lp.b_ub.size + lp.b_eq.size + n), 100)

    A = np.vstack([lp.a_ub, lp.a_eq, -lp.a_eq])
    b = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq])
    m = b.size
    # Row equilibration keeps pivot tolerances meaningful across scales.
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), 1e-12)
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = A / scale[:, None]
    tableau[:m, n] = b / scale
    tableau[m, :n] = lp.objective
    basis = n + np.arange(m)  # each row's slack
    nonbasic = n - 1 - np.arange(n)  # column j holds structural variable j as n - 1 - j

    status, iterations = _dual_phase(tableau, basis, nonbasic, max_iter)
    if status == "infeasible":
        return SimplexResult("infeasible", None, None, iterations)

    # Variables with a positive reduced cost are zero on the optimal face; barring
    # them keeps later stages on it. A nonbasic x_j is 0 with reduced cost 1, so
    # its stage only bars it. Once no nonbasic variable may enter, none can pivot.
    enter = np.ones(n + m, dtype=bool)
    lex_iterations = 0
    for j in range(n - 1, -1, -1):  # structural variables 0, 1, ... in turn
        enter[nonbasic] &= tableau[m, :n] <= PIVOT_TOL
        if not enter[nonbasic].any():
            break
        row = np.flatnonzero(basis == j)
        if row.size:
            lex_iterations += _run_phase(tableau, basis, nonbasic, int(row[0]), enter, max_iter)
        else:
            enter[j] = False

    x = np.zeros(n + m)
    x[basis] = tableau[:m, n]
    x = x[:n][::-1]  # back to the LinearProgram's order
    x_struct = np.where(np.abs(x) < 1e-12, 0.0, x)
    objective = float(lp.objective @ x_struct)
    return SimplexResult("optimal", x_struct, objective, iterations, lex_iterations)
