"""Checks that the benchmark's checks bite.

    python3 bench/selftest.py

Produces real outputs with the program, confirms each reference check
accepts them, then feeds each check a deliberately perturbed copy and
confirms it rejects it: R* off by 1e-4 relative, two c* coordinates swapped
along the optimal face, one investment of a corpus equilibrium shifted by
1e-3, and a sweep row whose public good is outside its bracket. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys

import numpy as np

import workloads
from run import ROOT, SRC, WORK


def verdict(check) -> list[str]:
    """The problems `check(stats)` records."""
    stats = workloads.Stats()
    check(stats)
    return stats.problems


def swapped_on_face(c, reward, a, rows_a, rows_b):
    """c with two coordinates swapped so that it stays feasible but is
    lexicographically larger, or None if no such swap exists."""
    w = a / a.sum()
    for i in range(c.size):
        for j in range(i + 1, c.size):
            if c[j] <= c[i] + 1e-6 * a.sum():
                continue
            trial = c.copy()
            trial[[i, j]] = trial[[j, i]]
            s = trial + reward * w
            slack = rows_a @ np.append(s, reward) - rows_b
            if np.all(slack <= 1e-9 * np.maximum(1.0, np.abs(rows_b))):
                return trial
    return None


def main() -> int:
    sys.path.insert(0, str(SRC))
    import lotterydesign as ld

    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cases = []
    try:
        design = workloads.DesignLp(ROOT)
        design.generate(0, work)
        design.prepare(ld)
        out = work / "casestudy"
        report = ld.harness.run_scenario(
            "casestudy", ld.harness.ScenarioConfig.from_file(design.case30),
            out_dir=out).report

        def design_check(results):
            return lambda stats: workloads.check_design(
                stats, "casestudy", results, design.a30, *design.rows30, design.ref30)

        results = report["results"]
        cases.append(("casestudy output accepted", False,
                      lambda stats: design.check_casestudy(stats, report, out)))
        off = copy.deepcopy(results)
        off["reward"] = results["reward"] * (1.0 + 1e-4)
        off["predicted_investments"] = (np.asarray(results["perturbation"])
                                        + off["reward"] * design.a30 / design.a30.sum())
        cases.append(("R* off by 1e-4 relative", True, design_check(off)))
        c = np.asarray(results["perturbation"], dtype=float)
        trial = swapped_on_face(c, results["reward"], design.a30, *design.rows30)
        if trial is None:
            print("SELFTEST no feasible swap on the case-30 optimal face")
            return 1
        swap = copy.deepcopy(results)
        swap["perturbation"] = trial
        swap["predicted_investments"] = (trial + results["reward"] * design.a30
                                         / design.a30.sum())
        cases.append(("c* coordinates swapped along the optimal face", True,
                      design_check(swap)))

        games = workloads.SmallGames(ROOT)
        games.generate(0, work)
        games.prepare(ld)
        regime, path, a30, c30 = games.sweeps[0]
        sweep = ld.harness.run_scenario(
            "analyze", ld.harness.ScenarioConfig.from_file(path),
            out_dir=work / "analyze").report
        cases.append(("analyze c0 sweep accepted", False,
                      lambda stats: games.check_sweep(stats, regime, sweep, a30, c30)))
        bad = copy.deepcopy(sweep)
        row = bad["results"]["sweep"][100]
        row["public_good"] = (float(np.sum(a30)) - 1.0) * (1.0 + 1e-6)
        cases.append(("analyze row with G outside its bracket", True,
                      lambda stats: games.check_sweep(stats, regime, bad, a30, c30)))
        # The first corpus point the program solves correctly, then the same
        # output with one investment shifted: the run must count as failed.
        for config, a, c, R in games.corpus:
            corpus_report = ld.harness.run_scenario(
                "equilibrium", ld.harness.ScenarioConfig(config, work),
                out_dir=work / "equilibrium").report
            if corpus_report["status"] == "ok" and games.judge_equilibrium(
                    workloads.Stats(), corpus_report, a, c, R) is None:
                break

        def judged(report, a=a, c=c, R=R):
            def check(stats):
                reason = games.judge_equilibrium(stats, report, a, c, R)
                stats.check(reason is None, f"corpus run judged failed: {reason}")
            return check

        cases.append(("corpus point accepted", False, judged(corpus_report)))
        moved = copy.deepcopy(corpus_report)
        moved["results"]["investments"] = np.asarray(
            corpus_report["results"]["investments"]) + np.eye(len(a))[0] * 1e-3
        cases.append(("corpus investment shifted by 1e-3", True, judged(moved)))

        ok = True
        for name, should_reject, check in cases:
            problems = verdict(check)
            good = bool(problems) == should_reject
            ok = ok and good
            print(f"SELFTEST {name}: {'PASS' if good else 'FAIL'} "
                  f"({'rejected: ' + '; '.join(problems) if problems else 'accepted'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {'all checks bite' if ok else 'FAILURES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
