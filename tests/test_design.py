import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from lotterydesign import (
    BenefitProfile,
    ConstraintSet,
    DesignPoint,
    DesignProblem,
    build_reformulation,
    design,
    game,
    individual_rationality_rows,
    payoffs,
    solve_design,
    solve_equilibrium,
    solve_lp,
    verify_design,
)
from lotterydesign.errors import ExactnessViolationError, InvariantViolationError

from oracles import brute_force_bilevel, highs_lexicographic, unfolded_design_lp
from test_simplex import lexicographic_vertex_oracle

README = Path(__file__).resolve().parents[1] / "README.md"
MIN_S1 = ConstraintSet([[-1.0, 0.0, 0.0]], [-2.0], ("min_s1",))  # s_1 >= 2
# s_1 >= 2 and s_1 <= 1: no design satisfies both.
CONFLICT = ConstraintSet([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [-2.0, 1.0], ("lo", "hi"))


@pytest.fixture
def i2_problem(i2_profile):
    return DesignProblem(i2_profile, ConstraintSet.empty(2), alpha=1.0)


def random_feasible_problem(rng, n):
    """Random profile plus affine rows slack at a seeded optimal-budget point."""
    coeffs = rng.uniform(0.7, 2.5, n)
    while coeffs.sum() <= 1.1:
        coeffs = rng.uniform(0.7, 2.5, n)
    profile = BenefitProfile.scaled_log(coeffs)
    g_star = profile.g_star
    weights = rng.uniform(0.2, 1.0, n)
    c0 = g_star * weights / weights.sum()
    r0 = float(rng.uniform(0.5, 2.0))
    s0 = c0 + r0 * profile.slopes(g_star)
    m = int(rng.integers(1, 3))
    a = rng.uniform(-1.0, 1.0, (m, n + 1))
    b = a @ np.append(s0, r0) + rng.uniform(0.3, 1.0, m)
    labels = tuple(f"row{k}" for k in range(m))
    problem = DesignProblem(
        profile, ConstraintSet(a, b, labels),
        alpha=float(rng.choice([0.0, 1.0])))
    return problem, r0


def stratified(rng, lo, hi, n):
    """n uniform draws from [lo, hi], one from each of n equal slices, shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def group_floor_problem(seed, n=60):
    """Design with investment floors and caps plus 30 group-sum floors.

    Floors sum past G* so the reward binds above its floor; each group row
    asks sum_{i in g} s_i >= sum_{i in g} floor_i + U[0.2, 1] G*/n over a
    random 10-player group, which leaves a large, degenerate optimal face.
    """
    rng = np.random.default_rng(seed)
    coeffs = stratified(rng, 0.6, 3.0, n)
    g_star = coeffs.sum() - 1.0
    floors = stratified(rng, 0.5, 1.5, n) * (g_star + 57.0) / n
    caps = floors + stratified(rng, 1.0, 3.0, n) * g_star / n
    eye = np.hstack([np.eye(n), np.zeros((n, 1))])
    groups = np.zeros((30, n + 1))
    group_rhs = np.zeros(30)
    for k in range(30):
        members = rng.choice(n, 10, replace=False)
        groups[k, members] = -1.0
        group_rhs[k] = -(floors[members].sum() + rng.uniform(0.2, 1.0) * g_star / n)
    a = np.vstack([-eye, eye, groups])
    b = np.concatenate([-floors, caps, group_rhs])
    labels = tuple(f"row{k}" for k in range(b.size))
    return DesignProblem(BenefitProfile.scaled_log(coeffs),
                         ConstraintSet(a, b, labels), alpha=1.0)


def pair_floor_problem(seed, n=60):
    """Design with a floor and a cap on every investment and 30 pair caps.

    As in the benchmark's design inputs, the floors sum past G* so the reward
    binds above its floor, and each pair row caps s_i + s_j - 0.1 R.
    """
    rng = np.random.default_rng(seed)
    coeffs = stratified(rng, 0.6, 3.0, n)
    g_star = coeffs.sum() - 1.0
    floors = stratified(rng, 0.5, 1.5, n) * (g_star + 57.0) / n
    caps = floors + stratified(rng, 1.0, 3.0, n) * g_star / n
    eye = np.hstack([np.eye(n), np.zeros((n, 1))])
    pairs = np.zeros((30, n + 1))
    pair_rhs = np.zeros(30)
    for k in range(30):
        i, j = rng.choice(n, 2, replace=False)
        pairs[k, [i, j, n]] = 1.0, 1.0, -0.1
        pair_rhs[k] = floors[i] + floors[j] + rng.uniform(1.0, 3.0) * g_star / n
    a = np.vstack([-eye, eye, pairs])
    b = np.concatenate([-floors, caps, pair_rhs])
    labels = tuple(f"row{k}" for k in range(b.size))
    return DesignProblem(BenefitProfile.scaled_log(coeffs),
                         ConstraintSet(a, b, labels), alpha=1.0)


# Row kinds of `floor_problems`, per player; see its docstring.
_ROW_KINDS = ("floor", "looser", "reward", "nonnegative", "cap", "conflict", "pair")


@st.composite
def floor_problems(draw):
    """Designs whose rows mix floors with rows that look like floors but are not.

    Each player i has a floor l_i and draws up to four rows, each scaled by
    k in {1/2, 1, 2, 3}: its floor -k s_i <= -k l_i (drawn twice, a duplicate
    or a tie), a looser floor, a floor with a reward term, a row -k s_i <= b
    with b >= 0, a cap k s_i <= k (l_i + d) above the floor, a cap below the
    floor and a cap on s_i + s_{i+1}. Returns the problem and whether some
    player drew both its floor and a cap below it, which no design meets.
    """
    n = draw(st.integers(2, 6))
    profile = BenefitProfile.scaled_log(
        draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n)))
    unit = (profile.g_star + 1.0) / n
    floors = [draw(st.floats(0.1, 2.0)) * unit for _ in range(n)]
    a, b, conflicted = [], [], False
    for i in range(n):
        kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), max_size=4))
        conflicted |= "floor" in kinds and "conflict" in kinds
        for kind in kinds:
            k = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
            row = np.zeros(n + 1)
            row[i] = -k
            bound = -k * floors[i]
            if kind == "looser":
                bound *= draw(st.floats(0.2, 0.9))
            elif kind == "reward":
                row[n] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 0.5))
            elif kind == "nonnegative":
                bound = draw(st.sampled_from([0.0, unit]))
            elif kind in ("cap", "conflict", "pair"):
                row[i] = k
                width = (draw(st.floats(0.3, 3.0)) if kind != "conflict"
                         else -draw(st.floats(0.2, 0.8)))
                bound = k * floors[i] * (1.0 + width)
                if kind == "pair":
                    j = (i + 1) % n
                    row[j] = k
                    bound += k * floors[j]
            a.append(row)
            b.append(bound)
    rows = ConstraintSet(np.reshape(a, (-1, n + 1)), b, tuple(f"row{k}" for k in range(len(b))))
    return DesignProblem(profile, rows, alpha=1.0), conflicted


def assert_matches_highs(problem, sol):
    """Status, R* and c* of `sol` against HiGHS on the unfolded (R, c) program."""
    x = highs_lexicographic(unfolded_design_lp(problem))
    assert sol.status == ("infeasible" if x is None else "optimal")
    if x is not None:
        assert sol.design.reward == pytest.approx(x[0], rel=1e-9)
        assert np.max(np.abs(sol.design.perturbation - x[1:])) <= 1e-6 * problem.profile.g_star


class TestConstraintSet:
    def test_row_builder_and_residuals(self):
        cs = ConstraintSet([[1.0, 0.0, -0.5]], [2.0], ("cap",))
        assert cs.n_rows == 1 and cs.n_players == 2
        res = cs.residuals([3.0, 0.0], 1.0)
        assert res == pytest.approx([3.0 - 0.5 - 2.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvariantViolationError):
            ConstraintSet(np.zeros((2, 3)), np.zeros(1), ("a", "b"))

    def test_stacking(self):
        a = ConstraintSet.empty(2)
        b = ConstraintSet([[1.0, 1.0, 0.0]], [1.0], ("r",))
        assert a.stacked(b).labels == ("r",)


class TestDesignProblem:
    @pytest.mark.parametrize("alpha, floor", [(-1.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
                                              (1.0, 0.0), (1.0, math.inf), (1.0, math.nan)])
    def test_weight_and_floor_must_be_finite_and_in_range(self, i2_profile, alpha, floor):
        with pytest.raises(InvariantViolationError):
            DesignProblem(i2_profile, ConstraintSet.empty(2), alpha=alpha, reward_floor=floor)

    def test_floor_at_the_pivot_tolerance_is_rejected(self, i2_profile):
        # The floor row -R <= -1e-9 is met at R = 0 within the simplex's pivot
        # tolerance, so the LP would return R = 0.
        with pytest.raises(InvariantViolationError, match="pivot tolerance 1e-09"):
            DesignProblem(i2_profile, ConstraintSet.empty(2), reward_floor=1e-9)

    def test_floor_above_the_pivot_tolerance_sets_the_reward(self, i2_profile):
        sol = solve_design(DesignProblem(i2_profile, ConstraintSet.empty(2), reward_floor=2e-9))
        assert sol.status == "optimal"
        assert sol.design.reward == 2e-9
        assert "reward_floor" in sol.binding


class TestBuildReformulation:
    def test_unconstrained_shape(self, i2_problem):
        lp, floors = build_reformulation(i2_problem)
        assert floors.tolist() == [0.0, 0.0]
        # Only the reward floor: -R <= -floor; the budget row sums c.
        assert lp.a_ub.tolist() == [[-1.0, 0.0, 0.0]]
        assert lp.a_eq.tolist() == [[0.0, 1.0, 1.0]]
        assert lp.b_eq == pytest.approx([1.0], abs=1e-9)
        assert lp.objective.tolist() == [1.0, 0.0, 0.0]

    def test_row_composition_with_equilibrium_map(self, i2_profile):
        # h_i'(G*) = 0.5 at G* = 1. The floor s_1 >= 2 folds into x_1 = s_1 - 2:
        # it leaves the rows, and c_1 = x_1 + 2 - 0.5 R >= 0 takes its place as
        # 0.5 R - x_1 <= 2. A row over s_1 sees s_1 = x_1 + 2, so s_1 + s_2 <= 5
        # becomes 0.5 R + x_1 + c_2 <= 3. A row that is not a floor and leaves
        # s_1 out keeps today's composition: -s_2 + 0.25 R <= -0.5 becomes
        # -0.25 R - c_2 <= -0.5.
        rows = MIN_S1.stacked(ConstraintSet([[1.0, 1.0, 0.0], [0.0, -1.0, 0.25]],
                                            [5.0, -0.5], ("pair", "s2_with_reward")))
        lp, floors = build_reformulation(DesignProblem(i2_profile, rows, alpha=1.0))
        assert floors.tolist() == [2.0, 0.0]
        assert lp.a_ub.tolist() == [[0.5, 1.0, 1.0], [-0.25, 0.0, -1.0],
                                    [0.5, -1.0, 0.0], [-1.0, 0.0, 0.0]]
        assert lp.b_ub.tolist() == [3.0, -0.5, 2.0, -1e-3]
        # sum(c) = 1 is x_1 + 2 - 0.5 R + c_2 = 1.
        assert lp.a_eq.tolist() == [[-0.5, 1.0, 1.0]]
        assert lp.b_eq.tolist() == [-1.0]

    def test_tightest_floor_folds(self, i2_profile):
        # Three floors on s_1: s_1 >= 1, 2 s_1 >= 4 and s_1 >= 2. The tightest
        # bound is 2; of the two rows that give it, the first folds. The other
        # two stay rows over x_1 = s_1 - 2: -x_1 <= 1 and -x_1 <= 0.
        rows = ConstraintSet([[-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                             [-1.0, -4.0, -2.0], ("loose", "tight", "tie"))
        lp, floors = build_reformulation(DesignProblem(i2_profile, rows, alpha=1.0))
        assert floors.tolist() == [2.0, 0.0]
        assert lp.a_ub.tolist() == [[0.0, -1.0, 0.0], [0.0, -1.0, 0.0],
                                    [0.5, -1.0, 0.0], [-1.0, 0.0, 0.0]]
        assert lp.b_ub.tolist() == [1.0, 0.0, 2.0, -1e-3]

    def test_rows_with_reward_terms(self):
        # Column 0 of each row is a_s . grad_h(G*) + a_R and the c columns
        # are a_s, in the given row order; the reward floor comes last.
        profile = BenefitProfile.scaled_log([1.3, 2.1, 0.9])
        a = np.array([[1.0, -0.5, 0.25, 2.0],
                      [0.0, 1.0, -1.0, -0.75],
                      [-2.0, 0.5, 1.5, 0.5],
                      [0.3, 0.3, 0.3, -3.0]])
        b = np.array([4.0, -1.0, 2.5, 0.5])
        lp, floors = build_reformulation(DesignProblem(
            profile, ConstraintSet(a, b, ("w", "x", "y", "z")), reward_floor=0.25))
        assert not floors.any()
        grad = profile.slopes(profile.g_star).tolist()
        for row, lp_row in zip(a.tolist(), lp.a_ub.tolist()):
            expected = sum(a_i * g_i for a_i, g_i in zip(row[:3], grad)) + row[3]
            assert lp_row[0] == pytest.approx(expected, rel=1e-12)
            assert lp_row[1:] == row[:3]
        assert lp.a_ub[-1].tolist() == [-1.0, 0.0, 0.0, 0.0]
        assert lp.b_ub.tolist() == [4.0, -1.0, 2.5, 0.5, -0.25]
        assert lp.a_eq.tolist() == [[0.0, 1.0, 1.0, 1.0]]
        assert lp.b_eq.tolist() == [profile.g_star]

    def test_case_study_row_count(self, case30_scenario, i30_profile):
        from lotterydesign import build_dr_constraints

        cons = build_dr_constraints(case30_scenario)
        problem = DesignProblem(i30_profile, cons, alpha=1.0)
        lp, floors = build_reformulation(problem)
        # 20 demand caps + 1 balance + 82 line rows, plus the reward floor.
        assert cons.n_rows == 103
        assert lp.a_ub.shape == (104, 21)
        # No row is a floor: the program is the one over (R, c), bit for bit.
        assert not floors.any()
        slopes = i30_profile.slopes(i30_profile.g_star)
        assert np.array_equal(lp.a_ub[:-1, 0], cons.a[:, :20] @ slopes + cons.a[:, 20])
        assert np.array_equal(lp.b_ub, np.append(cons.b, -problem.reward_floor))


class TestFloorFold:
    @settings(max_examples=150, deadline=None)
    @given(floor_problems())
    def test_matches_highs_on_the_unfolded_program(self, drawn):
        problem, conflicted = drawn
        sol = solve_design(problem)
        if conflicted:
            assert sol.status == "infeasible"
        assert_matches_highs(problem, sol)

    def test_floor_below_the_reward_share_keeps_c_nonnegative(self, i2_profile):
        # s_1 >= 2 sets R* = 2 and c* = (1, 0), so s_2 = R* h_2'(G*) = 1 lies
        # above the floor s_2 >= 0.1. Only c_2 >= 0, the row that replaces the
        # folded floor, holds R* there: without it R falls to 1.1 and c_2 to -0.45.
        rows = MIN_S1.stacked(ConstraintSet([[0.0, -1.0, 0.0]], [-0.1], ("min_s2",)))
        problem = DesignProblem(i2_profile, rows, alpha=1.0)
        assert build_reformulation(problem)[1].tolist() == [2.0, 0.1]
        sol = solve_design(problem)
        assert sol.design.reward == pytest.approx(2.0, rel=1e-12)
        assert sol.design.perturbation == pytest.approx([1.0, 0.0], abs=1e-12)
        assert_matches_highs(problem, sol)

    def test_nothing_folds(self):
        # Rows that look like floors: a reward term, a right-hand side of 0 and
        # of 1, a positive coefficient, and a second nonzero coefficient.
        profile = BenefitProfile.scaled_log([1.3, 2.1, 0.9])
        a = np.array([[-1.0, 0.0, 0.0, 0.5],
                      [0.0, -2.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0, 0.0],
                      [0.0, 3.0, 0.0, 0.0],
                      [-1.0, -1e-3, 0.0, 0.0]])
        b = np.array([-1.0, 0.0, 1.0, 4.0, -0.5])
        problem = DesignProblem(profile, ConstraintSet(a, b, tuple("vwxyz")))
        lp, floors = build_reformulation(problem)
        slopes = profile.slopes(profile.g_star)
        assert not floors.any()
        assert np.array_equal(lp.a_ub[:-1, 0], a[:, :3] @ slopes + a[:, 3])
        assert np.array_equal(lp.a_ub[:-1, 1:], a[:, :3])
        assert np.array_equal(lp.b_ub, np.append(b, -problem.reward_floor))
        assert lp.a_eq.tolist() == [[0.0, 1.0, 1.0, 1.0]]
        assert lp.b_eq.tolist() == [profile.g_star]
        assert_matches_highs(problem, solve_design(problem))

    def test_bound_out_of_float_range_does_not_fold(self, i2_profile):
        # -1e30 s_1 <= -1e-300 bounds s_1 by 1e-330, which rounds to 0, and
        # -1e-10 s_2 <= -1e300 by 1e310, which rounds to inf: both stay rows.
        rows = ConstraintSet([[-1e30, 0.0, 0.0], [0.0, -1e-10, 0.0]], [-1e-300, -1e300],
                             ("under", "over"))
        lp, floors = build_reformulation(DesignProblem(i2_profile, rows))
        assert floors.tolist() == [0.0, 0.0]
        assert lp.b_ub.tolist() == [-1e-300, -1e300, -1e-3]

    def test_sixty_floors_take_few_dual_pivots(self):
        # One pivot per floor from the all-slack start took 62-63 here.
        problem = pair_floor_problem(0)
        lp, floors = build_reformulation(problem)
        assert np.array_equal(floors, -problem.constraints.b[:60])
        assert solve_lp(lp).iterations <= 5
        assert_matches_highs(problem, solve_design(problem))


class TestSolveDesign:
    def test_unconstrained_rests_on_floor(self, i2_problem):
        sol = solve_design(i2_problem)
        assert sol.status == "optimal"
        assert sol.design.reward == pytest.approx(i2_problem.reward_floor, abs=1e-12)
        assert sol.design.perturbation_total == pytest.approx(1.0, abs=1e-9)
        # Lexicographic tie-break drains the earliest coordinates first.
        assert sol.design.perturbation == pytest.approx([0.0, 1.0], abs=1e-9)
        assert sol.objective == pytest.approx(i2_problem.reward_floor + 1.0, abs=1e-9)
        assert "reward_floor" in sol.binding

    def test_forced_investment(self, i2_profile):
        problem = DesignProblem(i2_profile, MIN_S1, alpha=1.0)
        sol = solve_design(problem)
        assert sol.design.reward == pytest.approx(2.0, abs=1e-9)
        assert sol.design.perturbation == pytest.approx([1.0, 0.0], abs=1e-9)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert "min_s1" in sol.binding
        assert sol.predicted_investments == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_near_binding_row_is_not_binding(self, i2_profile):
        # A copy of min_s1 whose bound is 1e-5 lower: its residual lies between the
        # binding test's 1e-7 and 1e-3, relative to max(1, |b|).
        rows = ConstraintSet([[-1.0, 0.0, 0.0]] * 2, [-2.0, -2.0 + 1e-5], ("min_s1", "near"))
        sol = solve_design(DesignProblem(i2_profile, rows, alpha=1.0))
        assert sol.design.reward == pytest.approx(2.0, abs=1e-9)
        assert sol.binding == ("min_s1",)

    def test_infeasible_rows_reported(self, i2_profile):
        sol = solve_design(DesignProblem(i2_profile, CONFLICT, alpha=1.0))
        assert sol.status == "infeasible"
        assert sol.design is None

    def test_alpha_enters_objective_as_constant(self, i2_profile):
        for alpha in (0.0, 2.5):
            problem = DesignProblem(i2_profile, ConstraintSet.empty(2), alpha=alpha)
            sol = solve_design(problem)
            assert sol.objective == pytest.approx(
                problem.reward_floor + alpha * 1.0, abs=1e-8)


class TestLexicographicOptimum:
    def test_small_designs_match_vertex_oracle(self):
        rng = np.random.default_rng(61)
        for k in range(21):
            n = 2 + k % 7
            problem, _ = random_feasible_problem(rng, n)
            sol = solve_design(problem)
            x = lexicographic_vertex_oracle(unfolded_design_lp(problem), range(n + 1))
            assert sol.status == "optimal"
            assert sol.design.reward == pytest.approx(x[0], rel=1e-7, abs=1e-9)
            assert sol.design.perturbation == pytest.approx(
                x[1:], abs=1e-7 * max(1.0, problem.profile.g_star))

    @pytest.mark.parametrize("n, seed", [(60, s) for s in range(8)] + [(30, 8), (45, 9)])
    def test_group_floors_match_highs(self, n, seed):
        # At N = 60, seeds 0, 1, 3 and 6 once raised "lexicographic refinement
        # lost feasibility" when each coordinate was re-solved with the
        # earlier ones pinned to floats.
        problem = group_floor_problem(seed, n)
        sol = solve_design(problem)
        assert sol.status == "optimal"
        x = highs_lexicographic(unfolded_design_lp(problem))
        assert sol.design.reward == pytest.approx(x[0], rel=1e-9)
        assert np.max(np.abs(sol.design.perturbation - x[1:])) <= 1e-6 * problem.profile.g_star
        verify_design(problem, sol)

    def test_case_study_one_solve_within_pivot_budget(self, case30_scenario, i30_profile,
                                                      monkeypatch):
        from lotterydesign import build_dr_constraints

        solve_lp = design.solve_lp
        results = []

        def counted(*args, **kwargs):
            results.append(solve_lp(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(design, "solve_lp", counted)
        problem = DesignProblem(i30_profile,
                                build_dr_constraints(case30_scenario), alpha=1.0)
        sol = solve_design(problem)
        assert len(results) == 1
        assert sol.lp_iterations == results[0].iterations + results[0].lex_iterations
        # The dual phase breaks its ratio ties toward the last perturbations,
        # so it ends at the lexicographic optimum and the pass only certifies it.
        assert results[0].lex_iterations == 0
        assert sol.lp_iterations <= 20
        assert sol.design.reward == pytest.approx(3358.0, abs=1e-6)
        assert sol.design.perturbation[0] == 0.0

    def test_case_study_optimal_face_is_not_a_vertex(self, case30_scenario, i30_profile):
        # HiGHS, with R fixed at R*, can spend the whole budget on c_1, which
        # the lexicographic optimum sets to 0: the tie-break decides c.
        from lotterydesign import build_dr_constraints

        problem = DesignProblem(i30_profile,
                                build_dr_constraints(case30_scenario), alpha=1.0)
        lp = unfolded_design_lp(problem)
        cost = np.zeros(lp.n_vars)
        cost[1] = -1.0
        res = linprog(cost, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                      bounds=[(3358.0, 3358.0)] + [(0.0, None)] * (lp.n_vars - 1),
                      method="highs")
        assert res.status == 0, res.message
        assert res.x[1] == pytest.approx(i30_profile.g_star, rel=1e-9)


class TestIndividualRationality:
    def test_simplified_rows(self, i2_profile):
        rows = individual_rationality_rows(i2_profile)
        # c_i <= h_i(G*) = ln 2, written over (s, R).
        assert rows.b == pytest.approx([math.log(2.0)] * 2, abs=1e-9)
        assert rows.a[0] == pytest.approx([1.0, 0.0, -0.5], abs=1e-9)

    def test_rows_cut_off_greedy_budget(self, i2_profile):
        # Forcing c_1 = 1 > ln 2 violates individual rationality.
        ir = individual_rationality_rows(i2_profile)
        # -s_1 + 0.5 R <= -1, i.e. c_1 >= 1
        force = ConstraintSet([[-1.0, 0.0, 0.5]], [-1.0], ("force_c1",))
        problem = DesignProblem(i2_profile, ir.stacked(force), alpha=1.0)
        assert solve_design(problem).status == "infeasible"
        # Without the rationality rows the same forcing is fine.
        assert solve_design(
            DesignProblem(i2_profile, force, alpha=1.0)).status == "optimal"

    def test_even_split_is_rational(self, i2_profile):
        d = DesignPoint(1.0, np.array([0.5, 0.5]))
        eq = solve_equilibrium(i2_profile, d)
        for u in payoffs(i2_profile, d, eq.s_star):
            assert u == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)
            assert u > 0.0


class TestVerifyDesign:
    def test_passes_on_unconstrained_optimum(self, i2_problem):
        sol = solve_design(i2_problem)
        report, eq = verify_design(i2_problem, sol)
        assert eq.G == pytest.approx(i2_problem.profile.g_star, abs=1e-9)
        assert eq.s_star == pytest.approx(sol.predicted_investments, abs=1e-9)
        assert report["all_active"]
        assert report["payoff_gap"] <= 1e-9
        assert report["aggregate_payoff"] == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-9)

    def test_inactive_player_fails_only_all_active(self):
        # At a reward floor of 5e-9 the tie-break leaves player 1 no perturbation,
        # so it invests R h_1'(G*) = 5e-10, below TOL_ACTIVE. The equilibrium
        # meets every other check.
        profile = BenefitProfile.scaled_log([1.0, 9.0])
        problem = DesignProblem(profile, ConstraintSet.empty(2), alpha=1.0, reward_floor=5e-9)
        sol = solve_design(problem)
        assert sol.predicted_investments[0] == pytest.approx(5e-10, rel=1e-6)
        with pytest.raises(ExactnessViolationError) as excinfo:
            verify_design(problem, sol)
        report = excinfo.value.report
        assert report["all_active"] is False
        for name, tolerance in (("good_gap", "good_gap"), ("prediction_gap", "prediction_gap"),
                                ("worst_constraint_residual", "constraint_residual"),
                                ("payoff_gap", "payoff_gap")):
            assert report[name] <= game.TOLERANCES[tolerance]["value"], name

    def test_rejects_unsolved_input(self, i2_profile):
        problem = DesignProblem(i2_profile, CONFLICT, alpha=1.0)
        sol = solve_design(problem)
        with pytest.raises(ValueError):
            verify_design(problem, sol)

    def test_detects_constraint_violation(self, i2_problem, i2_profile):
        sol = solve_design(i2_problem)
        # Verify against a *different* problem whose rows the point violates:
        # the tie-break parks the whole budget on player 2, so cap s_2.
        tight = DesignProblem(
            i2_profile,
            ConstraintSet([[0.0, 1.0, 0.0]], [0.1], ("cap",)),
            alpha=1.0)
        with pytest.raises(ExactnessViolationError) as excinfo:
            verify_design(tight, sol)
        assert excinfo.value.report["worst_constraint_residual"] > 0.0
        assert excinfo.value.equilibrium.G == pytest.approx(1.0, abs=1e-9)


    def test_aggregate_payoff_is_correctly_rounded(self, i2_problem, monkeypatch):
        # Ten 0.1s add up to 1.0 when the sum is correctly rounded, and to
        # 0.9999999999999999 one at a time in index order.
        monkeypatch.setattr(game, "_payoffs", lambda *args: [0.1] * 10)
        with pytest.raises(ExactnessViolationError) as excinfo:
            verify_design(i2_problem, solve_design(i2_problem))
        assert excinfo.value.report["aggregate_payoff"] == 1.0


class TestBruteForceOracle:
    def test_matches_lp_on_forced_investment(self, i2_profile):
        problem = DesignProblem(i2_profile, MIN_S1, alpha=1.0)
        lp_sol = solve_design(problem)
        oracle = brute_force_bilevel(problem, r_lo=0.05, r_hi=4.0, resolution=0.02)
        assert oracle.status == "optimal"
        assert abs(oracle.objective - lp_sol.objective) <= 2 * 0.02 * (1 + 1.0)
        assert oracle.design.reward == pytest.approx(2.0, abs=0.05)
        assert oracle.design.perturbation[0] == pytest.approx(1.0, abs=0.05)

    def test_budget_off_optimum_never_reaches_it(self, i2_profile):
        # Slices with sum(c) pinned away from G* cannot induce the optimal
        # good: the grid finds nothing within 1e-3 of it.
        problem = DesignProblem(i2_profile, ConstraintSet.empty(2), alpha=1.0)
        hits = []
        for reward in np.linspace(0.2, 5.0, 25):
            for t in np.linspace(0.0, 0.6, 7):
                eq = solve_equilibrium(i2_profile,
                                       DesignPoint(float(reward),
                                                   np.array([t, 0.6 - t])))
                hits.append(abs(eq.G - problem.profile.g_star) <= 1e-3)
        assert not any(hits)

    def test_player_cap(self):
        profile = BenefitProfile.scaled_log([1.0] * 4)
        problem = DesignProblem(profile, ConstraintSet.empty(4), alpha=1.0)
        with pytest.raises(ValueError):
            brute_force_bilevel(problem, 0.1, 1.0, 0.1)


class TestExactness:
    def test_randomized_reformulation_matches_oracle(self):
        rng = np.random.default_rng(42)
        resolution = 0.02
        for k in range(6):
            n = 2 if k % 2 == 0 else 3
            problem, r0 = random_feasible_problem(rng, n)
            lp_sol = solve_design(problem)
            assert lp_sol.status == "optimal"
            verify_design(problem, lp_sol)
            oracle = brute_force_bilevel(
                problem, r_lo=problem.reward_floor, r_hi=r0 + 1.5,
                resolution=resolution)
            assert oracle.status == "optimal"
            gap = abs(oracle.objective - lp_sol.objective)
            assert gap <= 2 * resolution * (1 + problem.alpha)


class TestReadmeExample:
    def test_library_example_runs(self, capsys):
        # The README's "Library example" block, run as written.
        section = README.read_text().split("## Library example", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
        # The first line prints s* and G as the comment beside it gives them.
        first = capsys.readouterr().out.splitlines()[0]
        assert [float(v) for v in re.findall(r"[\d.e-]+", first)] == pytest.approx(
            [0.75, 0.75, 0.5], abs=1e-12)
        sol = namespace["sol"]
        assert sol.design.reward == pytest.approx(2.0, abs=1e-9)
        assert sol.design.perturbation == pytest.approx([1.0, 0.0], abs=1e-9)
