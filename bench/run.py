"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload design_lp --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports `lotterydesign` from its
`src/`. Set-up (importing the package in a fresh interpreter plus generating
the inputs) is repeated five times and its median reported as `setup_s`.
Rounds of the workload's operations then run, closed loop, until `--seconds`
have passed; a started round is always finished. End-to-end times are scaled
by the yardstick timed around them (see `yardstick.py`). The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
the traced run with `--trace 1`. A summary with the failure tally goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_p50_s": "s",
                    "a_p50_s": "s", "b_p50_s": "s"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import lotterydesign; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of lotterydesign in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"cannot import lotterydesign from {SRC}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](ROOT)
    try:
        # Set-up is scaled like the operations, by yardstick passes around it.
        setup_yard = yardstick.Yardstick()
        timed = []
        for _ in range(SETUP_REPEATS):
            for _ in range(setup_yard.most):
                setup_yard.measure_pass()
            start = time.perf_counter()
            seconds = import_seconds()
            shutil.rmtree(run_dir, ignore_errors=True)
            generating = time.perf_counter()
            workload.generate(args.seed, run_dir)
            end = time.perf_counter()
            timed.append((seconds + end - generating, start, end))
        for _ in range(setup_yard.most):
            setup_yard.measure_pass()
        setups = [setup_yard.scale(*t) for t in timed]

        sys.path.insert(0, str(SRC))
        import lotterydesign as ld

        workload.prepare(ld)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()

        stats = workloads.Stats()
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            stats.slot = 0
            workload.run_round(ld, stats)
            rounds += 1
        stats.yardstick.measure_pass()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(stats.failures.values())
    passes = stats.yardstick.seconds
    if args.trace:
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.round_p50_s"] = stats.round_p50()
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "traces" / f"{args.workload}-s{args.seed}.json")
        units = {name: ("count" if name.endswith(("_calls", "pivots_main", "pivots_lex",
                                                   ".iterations")) else "s")
                 for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "round_p50_s": stats.round_p50()}
        metrics.update(workload.end_to_end(stats))
        units = END_TO_END_UNITS

    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "attempted": stats.attempted, "failed": failed,
               "failures": dict(sorted(stats.failures.items())),
               "failure_detail": dict(sorted(stats.detail.items())),
               "problems": len(stats.problems), "first_problems": stats.problems[:10],
               "figures": workload.roadmap_figures(stats),
               "setup_measured_s": statistics.median(t[0] for t in timed),
               "yardstick_s": {"n": len(passes), "min": min(passes),
                               "p50": statistics.median(passes), "max": max(passes)},
               "samples": {kind: {"n": len(v), "min": min(v), "p50": statistics.median(v)}
                           for kind, v in sorted(stats.times.items()) if v}}
    if tracer is not None:
        summary["skipped_wrappers"] = tracer.skipped
    print(json.dumps(summary), file=sys.stderr)

    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"no measurement for {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
