import math

import numpy as np
import pytest

from lotterydesign import (
    BenefitProfile,
    ConstraintSet,
    DesignPoint,
    DesignProblem,
    LotteryInstance,
    brute_force_bilevel,
    build_reformulation,
    individual_rationality_rows,
    solve_design,
    solve_equilibrium,
    verify_design,
)
from lotterydesign.errors import ExactnessViolationError, InvariantViolationError

@pytest.fixture
def i2_problem(i2_instance):
    return DesignProblem(i2_instance, ConstraintSet.empty(2), alpha=1.0)


def random_feasible_problem(rng, n):
    """Random instance plus affine rows slack at a seeded optimal-budget point."""
    coeffs = rng.uniform(0.7, 2.5, n)
    while coeffs.sum() <= 1.1:
        coeffs = rng.uniform(0.7, 2.5, n)
    profile = BenefitProfile.scaled_log(coeffs)
    g_star = profile.socially_optimal_good()
    weights = rng.uniform(0.2, 1.0, n)
    c0 = g_star * weights / weights.sum()
    r0 = float(rng.uniform(0.5, 2.0))
    s0 = c0 + r0 * profile.slopes(g_star)
    m = int(rng.integers(1, 3))
    a = rng.uniform(-1.0, 1.0, (m, n + 1))
    b = a @ np.append(s0, r0) + rng.uniform(0.3, 1.0, m)
    labels = tuple(f"row{k}" for k in range(m))
    problem = DesignProblem(
        LotteryInstance(profile), ConstraintSet(a, b, labels),
        alpha=float(rng.choice([0.0, 1.0])))
    return problem, r0


class TestConstraintSet:
    def test_row_builder_and_residuals(self):
        cs = ConstraintSet.from_rows([("cap", [1.0, 0.0], -0.5, 2.0)])
        assert cs.n_rows == 1 and cs.n_players == 2
        res = cs.residuals([3.0, 0.0], 1.0)
        assert res == pytest.approx([3.0 - 0.5 - 2.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvariantViolationError):
            ConstraintSet(np.zeros((2, 3)), np.zeros(1), ("a", "b"))

    def test_stacking(self):
        a = ConstraintSet.empty(2)
        b = ConstraintSet.from_rows([("r", [1.0, 1.0], 0.0, 1.0)])
        assert a.stacked(b).labels == ("r",)


class TestBuildReformulation:
    def test_unconstrained_shape(self, i2_problem):
        lp = build_reformulation(i2_problem)
        assert lp.var_names == ["R", "c[0]", "c[1]"]
        assert lp.ub_labels == ["reward_floor"]
        assert lp.eq_labels == ["perturbation_budget"]
        assert lp.b_eq == pytest.approx([1.0], abs=1e-9)
        assert lp.objective_offset == pytest.approx(1.0, abs=1e-9)

    def test_row_composition_with_equilibrium_map(self, i2_instance):
        # s_1 >= 2 becomes -c_1 - h_1'(G*)*R <= -2 with h_1'(1) = 0.5.
        cs = ConstraintSet.from_rows([("min_s1", [-1.0, 0.0], 0.0, -2.0)])
        lp = build_reformulation(DesignProblem(i2_instance, cs, alpha=1.0))
        assert lp.a_ub[0] == pytest.approx([-0.5, -1.0, 0.0], abs=1e-9)
        assert lp.b_ub[0] == -2.0

    def test_case_study_row_count(self, case30_scenario, i30_profile):
        from lotterydesign import build_dr_constraints

        cons = build_dr_constraints(case30_scenario)
        problem = DesignProblem(LotteryInstance(i30_profile), cons, alpha=1.0)
        lp = build_reformulation(problem)
        # 20 demand caps + 1 balance + 82 line rows, plus the reward floor.
        assert cons.n_rows == 103
        assert lp.a_ub.shape == (104, 21)


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

    def test_forced_investment(self, i2_instance):
        cs = ConstraintSet.from_rows([("min_s1", [-1.0, 0.0], 0.0, -2.0)])
        problem = DesignProblem(i2_instance, cs, alpha=1.0)
        sol = solve_design(problem)
        assert sol.design.reward == pytest.approx(2.0, abs=1e-9)
        assert sol.design.perturbation == pytest.approx([1.0, 0.0], abs=1e-9)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert "min_s1" in sol.binding
        assert sol.predicted_investments == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_infeasible_rows_reported(self, i2_instance):
        cs = ConstraintSet.from_rows([
            ("lo", [-1.0, 0.0], 0.0, -2.0),  # s_1 >= 2
            ("hi", [1.0, 0.0], 0.0, 1.0),    # s_1 <= 1
        ])
        sol = solve_design(DesignProblem(i2_instance, cs, alpha=1.0))
        assert sol.status == "infeasible"
        assert sol.design is None

    def test_alpha_enters_objective_as_constant(self, i2_instance):
        for alpha in (0.0, 2.5):
            problem = DesignProblem(i2_instance, ConstraintSet.empty(2), alpha=alpha)
            sol = solve_design(problem)
            assert sol.objective == pytest.approx(
                problem.reward_floor + alpha * 1.0, abs=1e-8)


class TestIndividualRationality:
    def test_simplified_rows(self, i2_profile):
        rows = individual_rationality_rows(i2_profile)
        # c_i <= h_i(G*) = ln 2, written over (s, R).
        assert rows.b == pytest.approx([math.log(2.0)] * 2, abs=1e-9)
        assert rows.a[0] == pytest.approx([1.0, 0.0, -0.5], abs=1e-9)

    def test_rows_cut_off_greedy_budget(self, i2_instance, i2_profile):
        # Forcing c_1 = 1 > ln 2 violates individual rationality.
        ir = individual_rationality_rows(i2_profile)
        force = ConstraintSet.from_rows(
            [("force_c1", [-1.0, 0.0], 0.5, -1.0)])  # -s_1 + 0.5 R <= -1, i.e. c_1 >= 1
        problem = DesignProblem(i2_instance, ir.stacked(force), alpha=1.0)
        assert solve_design(problem).status == "infeasible"
        # Without the rationality rows the same forcing is fine.
        assert solve_design(
            DesignProblem(i2_instance, force, alpha=1.0)).status == "optimal"

    def test_even_split_is_rational(self, i2_instance):
        eq = solve_equilibrium(i2_instance, DesignPoint(1.0, np.array([0.5, 0.5])))
        from lotterydesign import payoff

        for i in range(2):
            u = payoff(i2_instance, DesignPoint(1.0, np.array([0.5, 0.5])),
                       eq.s_star, i)
            assert u == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)
            assert u > 0.0


class TestVerifyDesign:
    def test_passes_on_unconstrained_optimum(self, i2_problem):
        sol = solve_design(i2_problem)
        report, eq = verify_design(i2_problem, sol)
        assert eq.G == pytest.approx(i2_problem.g_star, abs=1e-9)
        assert eq.s_star == pytest.approx(sol.predicted_investments, abs=1e-9)
        assert report["all_active"]
        assert report["payoff_gap"] <= 1e-9
        assert report["aggregate_payoff"] == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-9)

    def test_rejects_unsolved_input(self, i2_instance):
        cs = ConstraintSet.from_rows([("lo", [-1.0, 0.0], 0.0, -2.0),
                                      ("hi", [1.0, 0.0], 0.0, 1.0)])
        problem = DesignProblem(i2_instance, cs, alpha=1.0)
        sol = solve_design(problem)
        with pytest.raises(ValueError):
            verify_design(problem, sol)

    def test_detects_constraint_violation(self, i2_problem, i2_instance):
        sol = solve_design(i2_problem)
        # Verify against a *different* problem whose rows the point violates:
        # the tie-break parks the whole budget on player 2, so cap s_2.
        tight = DesignProblem(
            i2_instance,
            ConstraintSet.from_rows([("cap", [0.0, 1.0], 0.0, 0.1)]),
            alpha=1.0)
        with pytest.raises(ExactnessViolationError) as excinfo:
            verify_design(tight, sol)
        assert excinfo.value.report["worst_constraint_residual"] > 0.0
        assert excinfo.value.equilibrium.G == pytest.approx(1.0, abs=1e-9)


class TestBruteForceOracle:
    def test_matches_lp_on_forced_investment(self, i2_instance):
        cs = ConstraintSet.from_rows([("min_s1", [-1.0, 0.0], 0.0, -2.0)])
        problem = DesignProblem(i2_instance, cs, alpha=1.0)
        lp_sol = solve_design(problem)
        oracle = brute_force_bilevel(problem, r_lo=0.05, r_hi=4.0, resolution=0.02)
        assert oracle.status == "optimal"
        assert abs(oracle.objective - lp_sol.objective) <= 2 * 0.02 * (1 + 1.0)
        assert oracle.design.reward == pytest.approx(2.0, abs=0.05)
        assert oracle.design.perturbation[0] == pytest.approx(1.0, abs=0.05)

    def test_budget_off_optimum_never_reaches_it(self, i2_instance):
        # Slices with sum(c) pinned away from G* cannot induce the optimal
        # good: the grid finds nothing within 1e-3 of it.
        problem = DesignProblem(i2_instance, ConstraintSet.empty(2), alpha=1.0)
        hits = []
        for reward in np.linspace(0.2, 5.0, 25):
            for t in np.linspace(0.0, 0.6, 7):
                eq = solve_equilibrium(i2_instance,
                                       DesignPoint(float(reward),
                                                   np.array([t, 0.6 - t])))
                hits.append(abs(eq.G - problem.g_star) <= 1e-3)
        assert not any(hits)

    def test_player_cap(self, i2_instance):
        profile = BenefitProfile.scaled_log([1.0] * 4)
        problem = DesignProblem(LotteryInstance(profile),
                                ConstraintSet.empty(4), alpha=1.0)
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
