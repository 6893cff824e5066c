"""Acceptance gate: every criterion at its contracted tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Shared randomized corpora are generated once per session from fixed
seeds; expected values come from in-test oracles (bisection, grid search,
vertex enumeration, finite differences), never from the code paths they check.
"""

import math
import time

import numpy as np
import pytest

from lotterydesign import (
    BenefitProfile,
    ConstraintSet,
    DesignPoint,
    DesignProblem,
    LotteryInstance,
    best_response_oracle,
    brute_force_bilevel,
    build_dr_constraints,
    check_properties,
    equilibrium_sensitivities,
    monetize,
    payoff,
    poa_bounds,
    reward_threshold,
    shift_factor_matrix,
    solve_design,
    solve_equilibrium,
    true_poa,
    verify_design,
)
from lotterydesign.simplex import solve_lp

from conftest import random_profile
from test_design import random_feasible_problem
from test_game import cancellation_escape_exists, sample_sound_pair
from test_grid import RADIAL, RING
from test_simplex import random_bounded_lp, vertex_enumeration_oracle


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def equilibrium_corpus():
    """200 well-posed (instance, design, equilibrium) triples, fixed seed.

    A fifth of the draws pin the perturbation budget at the optimum so the
    design point attains the socially optimal good and the feasibility check
    applies there.
    """
    rng = np.random.default_rng(20260809)
    corpus = []
    while len(corpus) < 200:
        profile = random_profile(rng, n=int(rng.integers(1, 7)))
        instance = LotteryInstance(profile)
        n = profile.n_players
        if n == 1:
            d = DesignPoint(float(rng.uniform(0.1, 50.0)), np.zeros(1))
            corpus.append((instance, d, solve_equilibrium(instance, d)))
            continue
        if rng.random() < 0.2:
            g_star = profile.socially_optimal_good()
            weights = rng.uniform(0.2, 1.0, n)
            c = g_star * weights / weights.sum()
            reward = max(reward_threshold(profile, c), float(c.sum()))
            reward += float(rng.uniform(0.1, 10.0))
            d = DesignPoint(reward, c)
            eq = solve_equilibrium(instance, d)
            if cancellation_escape_exists(instance, d, eq):
                continue
        else:
            d, eq = sample_sound_pair(rng, profile, instance)
        corpus.append((instance, d, eq))
    return corpus


class TestCriterion1CaseStudy:
    def test_case_study_golden_numbers(self, case30, i30_profile):
        t0 = time.time()
        scenario = monetize(case30, 1.3, 0.1, 1.0)
        problem = DesignProblem(
            LotteryInstance(i30_profile), build_dr_constraints(scenario), alpha=1.0)
        sol = solve_design(problem)
        verification, _ = verify_design(problem, sol)
        elapsed = time.time() - t0

        g_star = problem.g_star
        reward = sol.design.reward
        total = float(sol.predicted_investments.sum())
        agg = verification["aggregate_payoff"]
        gen = float(scenario.generation_dollars.sum())
        checks = [
            ("G*", abs(g_star - 2317.0) <= 0.5),
            ("R*", abs(reward - 3358.0) <= 0.005 * 3358.0),
            ("sum s*", abs(total - 5675.0) <= 0.005 * 5675.0),
            ("payoff", abs(agg - 15644.0) <= 0.001 * 15644.0),
            ("generation", abs(gen - 18921.0) <= 0.5),
            ("runtime", elapsed <= 10.0),
        ]
        detail = (f"G*={g_star:.2f} R*={reward:.2f} sum={total:.2f} "
                  f"payoff={agg:.2f} gen={gen:.2f} in {elapsed:.2f}s")
        report("1 case-study golden numbers", all(ok for _, ok in checks), detail)


class TestCriterion2Exactness:
    def test_reformulation_matches_bilevel_oracle(self):
        rng = np.random.default_rng(77)
        resolution = 0.02
        t0 = time.time()
        worst_gap, worst_allow = 0.0, math.inf
        for k in range(20):
            problem, r0 = random_feasible_problem(rng, 2 if k % 2 == 0 else 3)
            lp_sol = solve_design(problem)
            assert lp_sol.status == "optimal"
            verify_design(problem, lp_sol)
            oracle = brute_force_bilevel(
                problem, r_lo=problem.reward_floor, r_hi=r0 + 1.5,
                resolution=resolution)
            assert oracle.status == "optimal"
            gap = abs(oracle.objective - lp_sol.objective)
            allow = 2 * resolution * (1 + problem.alpha)
            worst_gap = max(worst_gap, gap / allow)
            worst_allow = min(worst_allow, allow - gap)
        elapsed = time.time() - t0
        ok = worst_gap <= 1.0 and elapsed <= 120.0
        report("2 reformulation exactness", ok,
               f"20 instances, worst gap at {worst_gap:.0%} of allowance, "
               f"{elapsed:.1f}s")


class TestCriterion3EquilibriumCorrectness:
    def test_foc_and_no_profitable_deviation(self, equilibrium_corpus):
        worst_foc, worst_gain = 0.0, -math.inf
        for instance, d, eq in equilibrium_corpus:
            worst_foc = max(worst_foc, eq.max_foc_violation)
            for i in range(instance.n_players):
                br = best_response_oracle(instance, d, np.delete(eq.s_star, i), i)
                trial = eq.s_star.copy()
                trial[i] = br
                gain = payoff(instance, d, trial, i) - payoff(instance, d, eq.s_star, i)
                worst_gain = max(worst_gain, gain)
        ok = worst_foc <= 1e-8 and worst_gain <= 1e-5
        report("3 equilibrium correctness", ok,
               f"200 pairs, max FOC residual {worst_foc:.2e}, "
               f"max unilateral gain {worst_gain:.2e}")


class TestCriterion4PropertySuite:
    def test_feasibility_bracket_and_monotonicity(self, equilibrium_corpus):
        names = ("pool_covers_perturbation", "good_bracketed",
                 "reward_sensitivity_sign", "perturbation_sensitivity_sign",
                 "investment_lower_bound")
        worst = {name: math.inf for name in names}
        counted = {name: 0 for name in names}
        for instance, d, eq in equilibrium_corpus:
            for check in check_properties(instance, d, eq):
                if check.name in worst and check.holds is not None:
                    worst[check.name] = min(worst[check.name], check.margin)
                    counted[check.name] += 1
        ok = all(counted[n] > 0 and worst[n] >= -1e-9 for n in names)
        detail = ", ".join(f"{n}:{worst[n]:.2e}({counted[n]})" for n in names)
        report("4 property suite", ok, detail)


class TestCriterion5PoaSandwich:
    def test_bound_containment(self, equilibrium_corpus):
        worst = math.inf
        for instance, d, eq in equilibrium_corpus:
            profile = instance.profile
            pb = poa_bounds(profile, d)
            payoff_eq = profile.aggregate_value(eq.G) - eq.G
            ends = sorted(profile.aggregate_value(g) - g
                          for g in (pb.g_lower, pb.g_upper))
            worst = min(worst, payoff_eq - ends[0], ends[1] - payoff_eq)
        report("5a sandwich containment", worst >= -1e-7,
               f"200 pairs, min containment margin {worst:.2e}")

    def test_poa_values_and_limit(self, i2_instance):
        values = {r: true_poa(i2_instance, DesignPoint(r, np.zeros(2)))
                  for r in (1.0, 10.0, 100.0, 1e6)}
        seq = [values[r] for r in (1.0, 10.0, 100.0, 1e6)]
        checks = [
            abs(values[1.0] - 1.2425) <= 1e-3,
            all(a > b for a, b in zip(seq, seq[1:])),
            abs(values[1e6] - 1.0) <= 1e-3,
        ]
        report("5b efficiency limit", all(checks),
               f"PoA(1)={values[1.0]:.6f}, PoA(1e6)={values[1e6]:.8f}, "
               "strictly decreasing")


class TestCriterion6Sensitivities:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        worst_rel = 0.0
        for _ in range(50):
            profile = random_profile(rng, n=int(rng.integers(2, 6)))
            instance = LotteryInstance(profile)
            n = profile.n_players
            g_star = profile.socially_optimal_good()
            c = rng.uniform(0.0, g_star / n, n)
            reward = reward_threshold(profile, c) + float(rng.uniform(0.2, 10.0))
            d = DesignPoint(reward, c)
            eq = solve_equilibrium(instance, d)
            assert len(eq.active_set) == n
            dG_dR, dG_dc = equilibrium_sensitivities(instance, d, eq)

            h = 1e-5 * max(1.0, reward)
            fd = (solve_equilibrium(instance, DesignPoint(reward + h, c)).G
                  - solve_equilibrium(instance, DesignPoint(reward - h, c)).G) / (2 * h)
            tol = max(1e-6, 1e-4 * abs(dG_dR))
            worst_rel = max(worst_rel, abs(dG_dR - fd) / tol)

            i = int(rng.integers(0, n))
            h = 1e-5
            c_hi, c_lo = c.copy(), c.copy()
            c_hi[i] += h
            c_lo[i] = max(c_lo[i] - h, 0.0)
            fd = (solve_equilibrium(instance, DesignPoint(reward, c_hi)).G
                  - solve_equilibrium(instance, DesignPoint(reward, c_lo)).G) / (
                      c_hi[i] - c_lo[i])
            tol = max(1e-6, 1e-4 * abs(dG_dc[i]))
            worst_rel = max(worst_rel, abs(dG_dc[i] - fd) / tol)
        report("6 sensitivity formulas", worst_rel <= 1.0,
               f"50 all-active instances, worst error at {worst_rel:.0%} of tolerance")


class TestCriterion7ShiftFactors:
    def test_flows_and_bounds(self, case30):
        h_radial = shift_factor_matrix(RADIAL)
        flows = h_radial @ np.array([0.0, 0.0, -5.0, -7.0])
        radial_ok = np.max(np.abs(flows - np.array([12.0, 5.0, 7.0]))) <= 1e-9

        h_ring = shift_factor_matrix(RING)
        ring_ok = (abs(h_ring[0, 1] + 2.0 / 3.0) <= 1e-9
                   and abs(h_ring[1, 1] - 1.0 / 3.0) <= 1e-9
                   and abs(h_ring[2, 1] - 1.0 / 3.0) <= 1e-9)

        h30 = shift_factor_matrix(case30)
        bounded = h30.min() >= -1.0 - 1e-9 and h30.max() <= 1.0 + 1e-9
        report("7 shift factors", radial_ok and ring_ok and bounded,
               f"radial exact, ring 2/3 vs 1/3, case30 range "
               f"[{h30.min():.6f}, {h30.max():.6f}]")


class TestCriterion8Simplex:
    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        checked = 0
        while checked < 50:
            lp = random_bounded_lp(rng, int(rng.integers(2, 6)))
            oracle = vertex_enumeration_oracle(lp)
            assert oracle is not None
            res = solve_lp(lp)
            assert res.status == "optimal"
            worst = max(worst, abs(res.objective - oracle))
            checked += 1
        report("8 simplex correctness", worst <= 1e-7,
               f"50 programs, max objective gap {worst:.2e}")
