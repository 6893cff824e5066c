import itertools

import numpy as np
import pytest

from lotterydesign.errors import SimplexFailureError
from lotterydesign.simplex import LinearProgram, solve_lp


def vertex_enumeration_oracle(lp: LinearProgram, tol=1e-9):
    """Brute-force LP minimum by enumerating basic feasible points.

    Folds equalities into opposing inequalities and x >= 0 into rows, then
    checks every n-subset of rows with an invertible submatrix. Exponential;
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
    best = None
    for subset in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ x <= b + tol):
            value = float(lp.objective @ x)
            if best is None or value < best:
                best = value
    return best


def random_bounded_lp(rng, n):
    """Feasible LP with a bounded minimum: box row keeps the polytope compact."""
    m = int(rng.integers(1, 4))
    a_ub = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.uniform(0.2, 1.5, n)  # interior certificate
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, m)
    a_ub = np.vstack([a_ub, np.ones(n)])
    b_ub = np.append(b_ub, x0.sum() + rng.uniform(1.0, 4.0))
    c = rng.uniform(-1.0, 1.0, n)
    return LinearProgram(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0))


class TestKnownPrograms:
    def test_simple_minimum(self):
        # min -x - y s.t. x + y <= 4, x <= 3: optimum -4 on the x + y face.
        lp = LinearProgram([-1.0, -1.0], [[1, 1], [1, 0]], [4, 3],
                           np.zeros((0, 2)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-4.0, abs=1e-9)

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

    def test_unbounded(self):
        lp = LinearProgram([-1.0, 0.0], [[0, 1]], [1.0],
                           np.zeros((0, 2)), np.zeros(0))
        assert solve_lp(lp).status == "unbounded"

    def test_degenerate_vertex_terminates(self):
        # Three faces through one point; Bland's rule must not cycle.
        lp = LinearProgram([-1.0, -1.0], [[1, 0], [0, 1], [1, 1]],
                           [1.0, 1.0, 2.0], np.zeros((0, 2)), np.zeros(0))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-9)

    def test_iteration_cap_raises(self):
        lp = LinearProgram([-1.0, -1.0], [[1, 1]], [1.0],
                           np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(SimplexFailureError):
            solve_lp(lp, max_iter=0)

    def test_rejects_nonfinite_data(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, np.inf], [[1, 1]], [1.0],
                          np.zeros((0, 2)), np.zeros(0))


class TestAgainstVertexOracle:
    def test_fifty_random_programs(self):
        rng = np.random.default_rng(31)
        checked = 0
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
            checked += 1

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
