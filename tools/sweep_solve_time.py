"""Time the equilibrium solves of the benchmark's two analyze sweeps.

    python3 tools/sweep_solve_time.py [--seed 7] [--repeats 30]

Builds the small_games sweeps of a seed (30 players, 200 rewards, c = 0 and
c > 0) with the benchmark's own input generator, then times a loop of
`solve_equilibrium` calls (brentq, one reward at a time) against one
`solve_sweep` call (find_root over all rewards). Prints one JSON object with
the median seconds of each, the find_root evaluation count, and the largest
relative difference in G between the two.
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

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from lotterydesign import BenefitProfile, DesignPoint, LotteryInstance  # noqa: E402
from lotterydesign.game import solve_equilibrium, solve_sweep  # noqa: E402


def median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    sweeps = workloads.SmallGames(ROOT)
    with tempfile.TemporaryDirectory() as work:
        sweeps.generate(args.seed, Path(work))
    out = {"seed": args.seed, "players": sweeps.players, "rewards": len(sweeps.rewards)}
    for regime, _, a, c in sweeps.sweeps:
        profile = BenefitProfile.scaled_log(a)
        instance = LotteryInstance(profile)
        rewards = np.sort(sweeps.rewards)
        loop_s, points = median_seconds(
            lambda: [solve_equilibrium(instance, DesignPoint(float(r), c)) for r in rewards],
            args.repeats)
        batch_s, sweep = median_seconds(lambda: solve_sweep(profile, c, rewards), args.repeats)
        goods = np.array([p.G for p in points])
        out[regime] = {
            "brentq_loop_s": loop_s,
            "find_root_s": batch_s,
            "find_root_evaluations": int(sweep.iterations.max()),
            "max_rel_diff_G": float(np.max(np.abs(sweep.G - goods) / np.maximum(1.0, goods))),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
