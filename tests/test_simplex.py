import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lotterydesign import simplex
from lotterydesign.errors import SimplexFailureError
from lotterydesign.simplex import PIVOT_TOL, LinearProgram, _leaving_row, _pivot, solve_lp


def feasible_vertices(lp: LinearProgram, tol=1e-9):
    """Every basic feasible point of an LP, found by brute force.

    Folds equalities into opposing inequalities and x >= 0 into rows, then
    solves every n-subset of rows with an invertible submatrix. Exponential;
    for small test programs only.
    """
    n = lp.n_vars
    rows = [lp.a_ub, -np.eye(n)]
    rhs = [lp.b_ub, np.zeros(n)]
    if lp.b_eq.size:
        rows.extend([lp.a_eq, -lp.a_eq])
        rhs.extend([lp.b_eq, -lp.b_eq])
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    vertices = []
    for subset in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ x <= b + tol):
            vertices.append(x)
    return vertices


def vertex_enumeration_oracle(lp: LinearProgram, tol=1e-9):
    """Brute-force LP minimum over the basic feasible points; None if none."""
    values = [float(lp.objective @ x) for x in feasible_vertices(lp, tol)]
    return min(values) if values else None


def lexicographic_vertex_oracle(lp: LinearProgram, lex_order, tol=1e-7):
    """The optimal vertex that minimizes the lex_order coordinates in turn.

    A lexicographic minimum over a polytope is a vertex, so filtering the
    optimal vertices one coordinate at a time finds it.
    """
    vertices = feasible_vertices(lp)
    values = np.array([float(lp.objective @ x) for x in vertices])
    keep = [x for x, v in zip(vertices, values)
            if v <= values.min() + tol * max(1.0, abs(values.min()))]
    for j in lex_order:
        low = min(x[j] for x in keep)
        keep = [x for x in keep if x[j] <= low + tol * max(1.0, abs(low))]
    return keep[0]


def random_bounded_lp(rng, n):
    """Feasible LP with a nonnegative cost on a compact polytope.

    A box row keeps the polytope compact, and a row -sum(x) <= -t cuts off the
    origin, so the all-slack start is infeasible and the solve must pivot.
    """
    m = int(rng.integers(1, 4))
    a_ub = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.uniform(0.2, 1.5, n)  # interior certificate
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, m)
    a_ub = np.vstack([a_ub, np.ones(n), -np.ones(n)])
    b_ub = np.append(b_ub, [x0.sum() + rng.uniform(1.0, 4.0),
                            -rng.uniform(0.1, 0.9) * x0.sum()])
    c = rng.uniform(0.0, 1.0, n)
    return LinearProgram(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0))


class TestKnownPrograms:
    def test_simple_minimum(self):
        # min x + y s.t. x + y >= 4, x <= 3: optimum 4 on the x + y face.
        lp = LinearProgram([1.0, 1.0], [[-1, -1], [1, 0]], [-4, 3],
                           np.zeros((0, 2)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0, abs=1e-9)

    def test_equality_row(self):
        # min x + 2y s.t. x + y = 1: optimum at (1, 0).
        lp = LinearProgram([1.0, 2.0], np.zeros((0, 2)), np.zeros(0),
                           [[1.0, 1.0]], [1.0])
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_negative_rhs_feasible(self):
        # x >= 2 written as -x <= -2.
        lp = LinearProgram([1.0], [[-1.0]], [-2.0], np.zeros((0, 1)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.x == pytest.approx([2.0], abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram([1.0, 1.0], [[1, 1], [-1, -1]], [1.0, -3.0],
                           np.zeros((0, 2)), np.zeros(0))
        assert solve_lp(lp).status == "infeasible"

    def test_degenerate_vertex_terminates(self):
        # Three faces through one point (x >= 1, y >= 1, x + y >= 2); Bland's
        # rule must not cycle.
        lp = LinearProgram([1.0, 1.0], [[-1, 0], [0, -1], [-1, -1]],
                           [-1.0, -1.0, -2.0], np.zeros((0, 2)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-9)

    def test_iteration_cap_raises(self):
        # x + y >= 1 cuts off the all-slack start, so one dual pivot is needed.
        lp = LinearProgram([1.0, 1.0], [[-1, -1]], [-1.0],
                           np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(SimplexFailureError):
            solve_lp(lp, max_iter=0)

    def test_rejects_nonfinite_data(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, np.inf], [[1, 1]], [1.0],
                          np.zeros((0, 2)), np.zeros(0))

    def test_rejects_negative_objective(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LinearProgram([1.0, -0.5], [[1, 1]], [1.0],
                          np.zeros((0, 2)), np.zeros(0))


class TestAgainstVertexOracle:
    def test_fifty_random_programs(self):
        rng = np.random.default_rng(31)
        checked = pivots = 0
        while checked < 50:
            n = int(rng.integers(2, 6))
            lp = random_bounded_lp(rng, n)
            oracle = vertex_enumeration_oracle(lp)
            assert oracle is not None  # construction guarantees feasibility
            res = solve_lp(lp)
            assert res.status == "optimal"
            assert abs(res.objective - oracle) <= 1e-7
            assert np.all(lp.a_ub @ res.x <= lp.b_ub + 1e-8)
            assert np.all(res.x >= -1e-12)
            pivots += res.iterations
            checked += 1
        assert pivots > 0  # the dual phase moved off the slack basis

    def test_random_programs_with_equalities(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            lp = random_bounded_lp(rng, n)
            x0 = rng.uniform(0.1, 1.0, n)
            a_eq = rng.uniform(-1.0, 1.0, (1, n))
            lp = LinearProgram(lp.objective, lp.a_ub, lp.b_ub, a_eq, a_eq @ x0)
            # The pinned hyperplane may or may not cut the box; compare
            # whatever both methods conclude.
            oracle = vertex_enumeration_oracle(lp)
            res = solve_lp(lp)
            if oracle is None:
                assert res.status in ("infeasible", "optimal")
                if res.status == "optimal":  # pragma: no cover - tolerance edge
                    continue
            else:
                assert res.status == "optimal"
                assert abs(res.objective - oracle) <= 1e-7
            checked += 1


def random_tied_lp(rng, n):
    """Feasible bounded LP with small-integer data: ties and degenerate
    vertices abound. A 0/1 point x0 is feasible, a box row bounds the
    polytope, and a row -sum(x) <= -t with t >= 1 cuts off the origin."""
    m = int(rng.integers(1, 4))
    x0 = rng.integers(0, 2, n)
    x0[rng.integers(n)] = 1
    a = rng.integers(-2, 3, (m, n))
    a_ub = np.vstack([a, np.ones((1, n)), -np.ones((1, n))]).astype(float)
    b_ub = np.concatenate([a @ x0 + rng.integers(0, 3, m),
                           [x0.sum() + rng.integers(0, 4), -rng.integers(1, x0.sum() + 1)]])
    c = rng.integers(0, 2, n).astype(float)
    return LinearProgram(c, a_ub, b_ub.astype(float), np.zeros((0, n)), np.zeros(0))


class TestLexicographicPass:
    def test_breaks_ties_toward_smallest_coordinates(self):
        # min x0 s.t. x0 >= 1, x0 + x1 + x2 = 3: the optimal face is
        # x0 = 1, x1 + x2 = 2; x1 is minimized before x2.
        lp = LinearProgram([1.0, 0.0, 0.0], [[-1.0, 0.0, 0.0]], [-1.0],
                           [[1.0, 1.0, 1.0]], [3.0])
        res = solve_lp(lp)
        assert res.x == pytest.approx([1.0, 0.0, 2.0], abs=1e-12)
        assert res.objective == 1.0

    def test_unique_optimum_runs_no_stage(self, monkeypatch):
        # min x0 + x1 s.t. x0 >= 1, x1 >= 2: both slacks leave the basis with
        # reduced cost 1, so the optimal face is one vertex and no stage runs.
        stages = []
        monkeypatch.setattr(simplex, "_run_phase",
                            lambda *args: stages.append(args) or 0)
        lp = LinearProgram([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0],
                           np.zeros((0, 2)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.x.tolist() == [1.0, 2.0]
        assert res.iterations == 2
        assert res.lex_iterations == 0
        assert stages == []

    @pytest.mark.parametrize("a_ub, b_ub, expected", [
        # Draws 7 and 27 of the seed-34 programs below: with c = 0 the dual
        # phase stops off the lexicographic optimum, so the pass pivots.
        ([[0, 1, -2], [-1, 1, -2], [1, 1, 1], [-1, -1, -1]], [-2, -1, 4, -2], [0.0, 0.0, 2.0]),
        ([[-1, -1], [-1, 0], [1, -2], [1, 1], [-1, -1]], [0, 0, -1, 2, -1], [0.0, 1.0]),
    ])
    def test_pass_pivots_off_the_dual_vertex(self, a_ub, b_ub, expected):
        n = len(expected)
        lp = LinearProgram(np.zeros(n), a_ub, b_ub, np.zeros((0, n)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.lex_iterations > 0
        assert res.x == pytest.approx(lexicographic_vertex_oracle(lp, range(n)), abs=1e-12)
        assert res.x.tolist() == expected

    def test_random_tied_programs_match_vertex_oracle(self):
        rng = np.random.default_rng(34)
        pivots = lex_pivots = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            lp = random_tied_lp(rng, n)
            res = solve_lp(lp)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(vertex_enumeration_oracle(lp), abs=1e-9)
            assert res.x == pytest.approx(lexicographic_vertex_oracle(lp, range(n)), abs=1e-7)
            pivots += res.iterations
            lex_pivots += res.lex_iterations
        assert pivots > 0  # the dual phase moved off the slack basis
        assert lex_pivots > 0  # the pass moved off the dual phase's vertex


@st.composite
def small_integer_programs(draw):
    """Nonnegative-cost programs with n <= 4, up to 3 inequality and 0-2
    equality rows of small integers: ties, degenerate vertices and
    infeasible programs all occur. Half have zero cost and rows that hold at
    an integer point x0 >= 0: every feasible vertex of those is optimal, so
    only the lexicographic pass picks the point."""
    n = draw(st.integers(1, 4))
    m_ub, m_eq = draw(st.integers(0, 3)), draw(st.integers(0, 2))

    def ints(k, lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))

    a_ub = np.reshape(ints(m_ub * n, -2, 2), (m_ub, n))
    a_eq = np.reshape(ints(m_eq * n, -2, 2), (m_eq, n))
    if draw(st.booleans()):
        x0 = np.array(ints(n, 0, 2))
        return LinearProgram([0] * n, a_ub, a_ub @ x0 + ints(m_ub, 0, 2), a_eq, a_eq @ x0)
    return LinearProgram(ints(n, 0, 2), a_ub, ints(m_ub, -3, 3), a_eq, ints(m_eq, -3, 3))


class TestPropertyAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(small_integer_programs())
    def test_status_objective_and_lexicographic_point(self, lp):
        oracle = vertex_enumeration_oracle(lp)
        res = solve_lp(lp)
        assert (res.status == "infeasible") == (oracle is None)
        if oracle is not None:
            assert abs(res.objective - oracle) <= 1e-7
            assert res.x == pytest.approx(
                lexicographic_vertex_oracle(lp, range(lp.n_vars)), abs=1e-7)


class TestVectorizedKernels:
    """The condensed pivot and the ratio test against the row loops of the
    full tableau they replaced, and Bland's rule on variable indices."""

    @staticmethod
    def loop_pivot(tableau, basis, row, col):
        tableau[row] /= tableau[row, col]
        for r in range(tableau.shape[0]):
            if r != row and tableau[r, col] != 0.0:
                tableau[r] -= tableau[r, col] * tableau[row]
        basis[row] = col

    @staticmethod
    def loop_leaving_row(tableau, basis, col):
        ratios = [(tableau[r, -1] / tableau[r, col], basis[r], r)
                  for r in range(tableau.shape[0] - 1) if tableau[r, col] > PIVOT_TOL]
        return min(ratios)[2] if ratios else None

    @staticmethod
    def condensed(full, nonbasic):
        """The nonbasic columns of a full tableau, in `nonbasic` order, and
        its right-hand side."""
        return full[:, [*nonbasic, -1]]

    def test_bitwise_equal_on_random_tableaux(self):
        rng = np.random.default_rng(35)
        branches = {"rows": 0, "whole": 0}
        for draw in range(400):
            # A full tableau over n + m variables with an identity basis on
            # random variables; small integers and zeros give exact ratio
            # ties and skipped rows. Every other draw is tall with mostly zero
            # columns, as the design LPs' tableaus are.
            if draw % 2:
                m, n, density = int(rng.integers(1, 8)), int(rng.integers(1, 8)), 1.0
            else:
                m, n = int(rng.integers(8, 41)), int(rng.integers(1, 12))
                density = float(rng.choice([0.05, 0.2, 0.6]))
            order = rng.permutation(n + m)
            basis, nonbasic = order[:m], order[m:]
            full = np.zeros((m + 1, n + m + 1))
            full[:, nonbasic] = rng.integers(-3, 4, (m + 1, n)) * (rng.random((m + 1, n)) < density)
            full[:m, basis] = np.eye(m)
            full[:m, -1] = rng.integers(0, 3, m)  # nonnegative right-hand sides
            tableau = self.condensed(full, nonbasic)
            col = int(rng.integers(n))
            row = _leaving_row(tableau, basis, col)
            assert row == self.loop_leaving_row(full, basis, nonbasic[col])
            if row is None:
                continue
            # `_pivot` updates only the other rows with a nonzero entry in
            # `col` when they are under a quarter of the tableau.
            others = np.count_nonzero(tableau[:, col]) - 1
            branches["rows" if 4 * others < m + 1 else "whole"] += 1
            full_basis = basis.copy()
            expected_nonbasic = nonbasic.copy()
            expected_nonbasic[col] = basis[row]
            self.loop_pivot(full, full_basis, row, nonbasic[col])
            _pivot(tableau, basis, nonbasic, row, col)
            assert np.array_equal(full[:m, full_basis], np.eye(m))
            assert np.array_equal(tableau, self.condensed(full, expected_nonbasic))
            assert np.array_equal(basis, full_basis)
            assert np.array_equal(nonbasic, expected_nonbasic)
        assert min(branches.values()) >= 50, branches

    def test_dual_tie_enters_the_smallest_variable(self):
        # Basic x1 = -1 + x2 + x0 is infeasible and both columns have ratio 1;
        # column 0 holds variable 2 and column 1 variable 0, so column 1 enters.
        tableau = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 0.0]])
        basis, nonbasic = np.array([1]), np.array([2, 0])
        assert simplex._dual_phase(tableau, basis, nonbasic, 10) == ("optimal", 1)
        assert basis.tolist() == [0]
        assert nonbasic.tolist() == [2, 1]

    def test_primal_entering_is_the_smallest_variable(self):
        # Minimizing basic x1 = 1 - x2 - x0: both columns improve; column 0
        # holds variable 2 and column 1 variable 0, so column 1 enters.
        tableau = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        basis, nonbasic = np.array([1]), np.array([2, 0])
        enter = np.ones(3, dtype=bool)
        assert simplex._run_phase(tableau, basis, nonbasic, 0, enter, 10) == 1
        assert basis.tolist() == [0]
        assert nonbasic.tolist() == [2, 1]
