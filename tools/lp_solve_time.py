"""Time `solve_lp` on the benchmark's design LPs and check them against HiGHS.

    python3 tools/lp_solve_time.py [--repeats 30]

Builds the eight design_lp problems of benchmark seed 7 with the benchmark's
own input generator in a temporary directory, plus `configs/case30.yaml`. Runs
each once through `run_scenario` to capture the DesignProblem that its verb
hands to `build_reformulation` and the LinearProgram it hands to `solve_lp`,
then times `build_reformulation` alone on that problem and `solve_lp` alone on
that program. Prints one JSON object with, per LP, the tableau shape, the main
and lexicographic pivot counts, and the median milliseconds of a build and of
a solve. Exits 1 when any R* or c*
differs from the benchmark's HiGHS reference (`refs.design_lp_reference`) by
more than 1e-9 relative to max(1, |value|), else 0.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
import lotterydesign  # noqa: E402
from lotterydesign import ScenarioConfig, design, run_scenario, simplex  # noqa: E402

BENCH_SEED = 7
REL = 1e-9


def captured(verb: str, config: Path, out: Path):
    """The DesignProblem a verb's run hands to `build_reformulation`, and the
    LinearProgram it hands to `solve_lp`."""
    with mock.patch.object(design, "build_reformulation",
                           wraps=design.build_reformulation) as build, \
            mock.patch.object(design, "solve_lp", wraps=simplex.solve_lp) as solve:
        run_scenario(verb, ScenarioConfig.from_file(config), out_dir=out)
    return build.call_args.args[0], solve.call_args.args[0]


def median_ms(call, arg, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def measure(problem, lp, ref, repeats: int) -> dict:
    with mock.patch.object(simplex, "_pivot", wraps=simplex._pivot) as spy:
        res = simplex.solve_lp(lp)
    r_ref, c_ref = ref
    matches = res.status == "optimal" and all(
        workloads.close(float(x), float(y), rel=REL)
        for x, y in zip(res.x, [r_ref, *c_ref]))
    return {
        "tableau": "x".join(map(str, spy.call_args.args[0].shape)) if spy.called else None,
        "main_pivots": res.iterations,
        "lex_pivots": res.lex_iterations,
        "build_ms": median_ms(design.build_reformulation, problem, repeats),
        "solve_ms": median_ms(simplex.solve_lp, lp, repeats),
        "matches_highs": bool(matches),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    bench = workloads.DesignLp(ROOT)
    out = {"seed": BENCH_SEED, "repeats": args.repeats}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        bench.generate(BENCH_SEED, work)
        bench.prepare(lotterydesign)
        runs = [(f"design_lp:{k}", "design", p.config, p.ref)
                for k, p in enumerate(bench.problems)]
        runs.append(("configs/case30.yaml", "casestudy", bench.case30, bench.ref30))
        for name, verb, config, ref in runs:
            out[name] = measure(*captured(verb, config, work / "out"), ref, args.repeats)
    print(json.dumps(out, indent=2))
    return 0 if all(v["matches_highs"] for v in out.values() if isinstance(v, dict)) else 1


if __name__ == "__main__":
    sys.exit(main())
