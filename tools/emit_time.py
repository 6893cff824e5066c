"""Time report emission for the equilibrium verb and the two analyze sweeps.

    python3 tools/emit_time.py [--repeats 5]

Builds the benchmark's small_games inputs for seed 7 with its own input
generator in a temporary directory: the 2000-point equilibrium corpus (2-5
players) and the two 30-player, 200-reward analyze sweeps (c = 0 and c > 0).
Each corpus point is run through `run_scenario("equilibrium")` into one
output directory, as the benchmark does, and for every point the stages of
that run are also timed on their own. `_run_equilibrium` is split at its
`solve_equilibrium` call into build (the profile and the design point),
solve, and grade (`check_properties`, the aggregate payoff and the true price
of anarchy); then come encode (`_report_json` of the report) and write
(`_write_artifact`, overwriting report.json in place). As a reference it
times `Path.write_text` of the same bytes, which truncates the file first.
Every name the stages are timed through is in each tree that has
`_report_json`, so the script times an older tree the same way. Each sweep is run through
`run_scenario("analyze")` 20 times per repeat, and each run also times
`_report_json` of its report and `_sweep_csv_rows` (the rows of sweep.csv)
from the report's columns. Prints one JSON object with the median
microseconds per equilibrium run of each stage, over every point of every
repeat, and the median milliseconds per sweep run of each stage.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from lotterydesign import harness  # noqa: E402

BENCH_SEED = 7
SWEEP_RUNS = 20  # per sweep and repeat
STAGES = ("build", "solve", "grade", "encode", "write", "run_scenario",
          "write_text_reference")
SWEEP_STAGES = ("report_json", "csv_rows", "run_scenario")
CSV_COLUMNS = ("reward", "public_good", "poa_true", "g_lower", "g_upper", "poa_lower",
               "poa_upper")
SOLVE = harness.solve_equilibrium


def time_point(cfg, out, times):
    clock = time.perf_counter
    marks = []

    def solve(profile, point):
        marks.append(clock())
        eq = SOLVE(profile, point)
        marks.append(clock())
        return eq

    harness.solve_equilibrium = solve  # the name _run_equilibrium calls
    try:
        start = clock()
        status, results, properties, _ = harness._run_equilibrium(cfg)
        end = clock()
    finally:
        harness.solve_equilibrium = SOLVE
    times["build"].append(marks[0] - start)
    times["solve"].append(marks[1] - marks[0])
    times["grade"].append(end - marks[1])
    report = harness._report("equilibrium", cfg.get("seed", 0), status, results, properties)
    report["artifacts"] = ["report.json"]
    start = clock()
    text = harness._report_json(report)
    times["encode"].append(clock() - start)
    path = out / "report.json"
    start = clock()
    harness._write_artifact(path, text)
    times["write"].append(clock() - start)
    start = clock()
    harness.run_scenario("equilibrium", cfg, out_dir=out)
    times["run_scenario"].append(clock() - start)
    start = clock()
    path.write_text(text)
    times["write_text_reference"].append(clock() - start)


def time_sweep(cfg, out, times):
    clock = time.perf_counter
    start = clock()
    result = harness.run_scenario("analyze", cfg, out_dir=out)
    times["run_scenario"].append(clock() - start)
    start = clock()
    harness._report_json(result.report)
    times["report_json"].append(clock() - start)
    rows = result.report["results"]["sweep"]
    columns = [[row[name] for row in rows] for name in CSV_COLUMNS]
    start = clock()
    harness._sweep_csv_rows(*columns)
    times["csv_rows"].append(clock() - start)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    inputs = workloads.SmallGames(ROOT)
    times = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs.generate(BENCH_SEED, work)
        (work / "equilibrium").mkdir()
        sweeps = [(regime, harness.ScenarioConfig.from_file(path))
                  for regime, path, *_ in inputs.sweeps]
        sweep_times = {regime: {stage: [] for stage in SWEEP_STAGES} for regime, _ in sweeps}
        for _ in range(args.repeats):
            for config, *_ in inputs.corpus:
                time_point(harness.ScenarioConfig(config, work), work / "equilibrium", times)
            for regime, cfg in sweeps:
                for _ in range(SWEEP_RUNS):
                    time_sweep(cfg, work / f"analyze_{regime}", sweep_times[regime])
    print(json.dumps({
        "points": len(inputs.corpus),
        "repeats": args.repeats,
        "median_us": {stage: statistics.median(times[stage]) * 1e6 for stage in STAGES},
        "analyze_seed": BENCH_SEED,
        "analyze_runs": args.repeats * SWEEP_RUNS,
        "analyze_median_ms": {
            regime: {stage: statistics.median(stage_times[stage]) * 1e3
                     for stage in SWEEP_STAGES}
            for regime, stage_times in sweep_times.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
