"""Time the stages of the equilibrium verb over the benchmark's corpus.

    python3 tools/emit_time.py [--repeats 5]

Builds the small_games corpus (2000 equilibrium points of 2-5 players) with
the benchmark's own input generator and runs each point through
`run_scenario("equilibrium")` into one output directory, as the benchmark
does. For every point it also times the stages of that run on their own:
`_run_equilibrium` (solve and grade), `_report_json` (encode the report) and
`_write_artifact` (overwrite report.json in place). As a reference it times
`Path.write_text` of the same bytes, which truncates the file first. Prints
one JSON object with the median microseconds per run of each, over every
point of every repeat.
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

STAGES = ("run_equilibrium", "report_json", "write_artifact", "run_scenario",
          "write_text_reference")


def time_point(cfg, out, times):
    clock = time.perf_counter
    start = clock()
    harness._run_equilibrium(cfg)
    times["run_equilibrium"].append(clock() - start)
    start = clock()
    result = harness.run_scenario("equilibrium", cfg, out_dir=out)
    times["run_scenario"].append(clock() - start)
    start = clock()
    text = harness._report_json(result.report)
    times["report_json"].append(clock() - start)
    path = out / "report.json"
    start = clock()
    harness._write_artifact(path, text)
    times["write_artifact"].append(clock() - start)
    start = clock()
    path.write_text(text)
    times["write_text_reference"].append(clock() - start)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    corpus = workloads.SmallGames(ROOT)
    times = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        corpus.generate(0, work)
        for _ in range(args.repeats):
            for config, *_ in corpus.corpus:
                time_point(harness.ScenarioConfig(config, work), work / "equilibrium", times)
    print(json.dumps({
        "points": len(corpus.corpus),
        "repeats": args.repeats,
        "median_us": {stage: statistics.median(times[stage]) * 1e6 for stage in STAGES},
    }, indent=2))


if __name__ == "__main__":
    main()
