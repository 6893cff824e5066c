"""Apply each named mutant to a copy of the tree, and require its tests to fail.

    python3 tools/mutants.py

`MUTANTS` is a table of named mutants. Each names a file, an exact text in
it, the text that replaces it, and the tests (pytest node ids) that must
catch the change. The tool copies the tree, without `.git` and caches, to a
temporary directory. It first runs every listed test there, unmutated: they
must pass. Then it applies one mutant at a time and runs
`python -m pytest -x -q` on that mutant's tests. A mutant survives when they
pass.

Prints one line per mutant and the seconds its run took. The outcomes are:
- `killed`: a test failed (pytest exit code 1);
- `SURVIVED`: every test passed;
- `BROKEN`: the tests could not run, for example because the mutant does
  not import;
- `NO MATCH`: the old text does not occur exactly once, so a refactor that
  changes the text must update the table.

Exits 1 if any mutant is not `killed` or the unmutated tests fail, and 0
otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DESIGN = "src/lotterydesign/design.py"
GAME = "src/lotterydesign/game.py"
HARNESS = "src/lotterydesign/harness.py"

# name: (file, old text, new text, tests that must fail)
MUTANTS = {
    # Status rules: each verb's status reads every check that decides it.
    "equilibrium_status_ignores_property_rows": (
        HARNESS,
        '    ok = (eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"]\n'
        '          and all(row["holds"] is not False for row in properties))\n',
        '    ok = eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"]\n',
        ["tests/test_harness.py::TestEquilibriumVerb::test_failing_property_row_fails_the_status"]),
    "analyze_status_ignores_graded_ok": (
        HARNESS,
        "    ok = (graded.ok.all() and (graded.equilibria.max_foc_violation\n",
        "    ok = ((graded.equilibria.max_foc_violation\n",
        ["tests/test_harness.py::TestAnalyzeVerb::test_one_failing_row_fails_the_sweep"]),
    "verify_design_ignores_all_active": (
        DESIGN,
        '        and report["all_active"]\n',
        "",
        ["tests/test_design.py::TestVerifyDesign::test_inactive_player_fails_only_all_active"]),
    # Tolerances that decide report content.
    "tol_active_1e-6": (
        GAME,
        "TOL_ACTIVE = 1e-9\n",
        "TOL_ACTIVE = 1e-6\n",
        ["tests/test_game.py::TestSolveEquilibrium::test_investment_just_above_tol_active_is_active"]),
    "binding_residual_1e-3": (
        DESIGN,
        "np.abs(resid) <= 1e-7 * np.maximum(1.0, np.abs(cons.b))",
        "np.abs(resid) <= 1e-3 * np.maximum(1.0, np.abs(cons.b))",
        ["tests/test_design.py::TestSolveDesign::test_near_binding_row_is_not_binding"]),
    # The floor fold of the design LP.
    "fold_drops_nonnegative_c_rows": (
        DESIGN,
        "    a_ub[k:-1, 0] = slopes[folded]  # c_i >= 0 of each player with a floor\n",
        "    a_ub[k:-1, 0] = 0.0\n",
        ["tests/test_design.py::TestFloorFold::test_floor_below_the_reward_share_keeps_c_nonnegative"]),
    "fold_rows_with_two_coefficients": (
        DESIGN,
        "if count == 1 and coeff < 0.0 and",
        "if coeff < 0.0 and",
        ["tests/test_design.py::TestFloorFold::test_nothing_folds"]),
    "no_fold": (
        DESIGN,
        "    rows = np.flatnonzero((b < 0.0) & (a[:, n] == 0.0))\n",
        "    rows = np.flatnonzero((b < -math.inf) & (a[:, n] == 0.0))\n",
        ["tests/test_design.py::TestFloorFold::test_sixty_floors_take_few_dual_pivots"]),
    "fold_keeps_slopes_in_reward_column": (
        DESIGN,
        "a[:, :n] @ np.where(floors > 0.0, 0.0, slopes) + a[:, n]",
        "a[:, :n] @ slopes + a[:, n]",
        ["tests/test_design.py::TestBuildReformulation::test_row_composition_with_equilibrium_map"]),
    "fold_first_floor_not_tightest": (
        DESIGN,
        "coeff < 0.0 and floors[i] < rhs / coeff < math.inf:",
        "coeff < 0.0 and floors[i] == 0.0 < rhs / coeff < math.inf:",
        ["tests/test_design.py::TestBuildReformulation::test_tightest_floor_folds"]),
    "fold_last_of_tied_floors": (
        DESIGN,
        "coeff < 0.0 and floors[i] < rhs / coeff < math.inf:",
        "coeff < 0.0 and floors[i] <= rhs / coeff < math.inf:",
        ["tests/test_design.py::TestBuildReformulation::test_tightest_floor_folds"]),
    "fold_keeps_other_rows_rhs": (
        DESIGN,
        "        b = b[keep] - a[:, folded] @ floors[folded]\n",
        "        b = b[keep]\n",
        ["tests/test_design.py::TestBuildReformulation::test_row_composition_with_equilibrium_map"]),
    "fold_budget_row_as_unfolded": (
        DESIGN,
        "        a_eq=np.append(0.0 - math.fsum(slopes[folded].tolist()), np.ones(n)),\n",
        "        a_eq=np.append(0.0, np.ones(n)),\n",
        ["tests/test_design.py::TestBuildReformulation::test_row_composition_with_equilibrium_map"]),
    "fold_rows_with_a_reward_term": (
        DESIGN,
        "    rows = np.flatnonzero((b < 0.0) & (a[:, n] == 0.0))\n",
        "    rows = np.flatnonzero(b < 0.0)\n",
        ["tests/test_design.py::TestFloorFold::test_nothing_folds"]),
    "fold_no_clamp_at_zero": (
        DESIGN,
        "    c = np.maximum(res.x[1:] + np.where(floors > 0.0, floors - reward * slopes, 0.0), 0.0)\n",
        "    c = res.x[1:] + np.where(floors > 0.0, floors - reward * slopes, 0.0)\n",
        ["tests/test_design.py::TestLexicographicOptimum::test_group_floors_match_highs"]),
    "fold_maps_back_without_reward_share": (
        DESIGN,
        "np.where(floors > 0.0, floors - reward * slopes, 0.0)",
        "np.where(floors > 0.0, floors, 0.0)",
        ["tests/test_design.py::TestFloorFold::test_floor_below_the_reward_share_keeps_c_nonnegative"]),
    # One summation rule: correctly rounded totals outside Phi.
    "payoff_sum_in_index_order": (
        GAME,
        "    return math.fsum(_payoffs(profile, design, s))\n",
        "    total = 0.0\n"
        "    for u in _payoffs(profile, design, s):\n"
        "        total += u\n"
        "    return total\n",
        ["tests/test_design.py::TestVerifyDesign::test_aggregate_payoff_is_correctly_rounded",
         "tests/test_harness.py::TestEquilibriumVerb::test_aggregate_payoff_is_correctly_rounded"]),
    "perturbation_total_numpy_sum": (
        GAME,
        "        total = math.fsum(terms)\n",
        "        total = float(np.array(terms).sum())\n",
        ["tests/test_game.py::TestOrderFreeTotals"]),
}


def pytest(tree: Path, tests) -> int:
    """pytest's exit code for `tests` in `tree`, run with `-x`: 0 when they
    pass, 1 when one fails, another code when they could not run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode of a mutant
    env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src/ on the path
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, capture_output=True, text=True)
    return run.returncode


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", "out"))
        every_test = sorted({test for *_, tests in MUTANTS.values() for test in tests})
        start = time.perf_counter()
        code = pytest(tree, every_test)
        if code:
            print(f"unmutated tests fail with exit code {code} "
                  f"({time.perf_counter() - start:.1f} s)")
            return 1
        print(f"unmutated tests pass ({time.perf_counter() - start:.1f} s)")
        for name, (file, old, new, tests) in MUTANTS.items():
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"NO MATCH  {name}: {file} holds its old text {text.count(old)} times")
                failed = True
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new))
            try:
                code = pytest(tree, tests)
            finally:
                path.write_text(text)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (pytest exit code {code})")
            print(f"{outcome}  {name} ({time.perf_counter() - start:.1f} s)")
            failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
