"""Time the equilibrium solves of the benchmark's two analyze sweeps.

    python3 tools/sweep_solve_time.py [--seed 7] [--repeats 30]

Builds the small_games sweeps of a seed (30 players, 200 rewards, c = 0 and
c > 0) with the benchmark's own input generator, then times three solvers of
the same equation: a loop of `solve_equilibrium` calls (the package's
plain-float Chandrupatla loop, one reward at a time), one `solve_sweep` call
(its numpy Chandrupatla loop over all rewards) and, as a reference, scipy's
elementwise `find_root` on the same brackets and tolerances (scipy >= 1.15).
Prints one JSON object with the median seconds of each, the most evaluations
of Phi any reward took, whether `solve_sweep`'s goods and evaluation counts
are bitwise equal to `find_root`'s, and whether its goods, evaluation counts
and largest FOC violations are bitwise equal to the `solve_equilibrium`
loop's. Exits 1 when the last comparison fails; the `find_root` one is
report-only.
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
from scipy.optimize.elementwise import find_root  # noqa: E402

import workloads  # noqa: E402
from lotterydesign import BenefitProfile, DesignPoint  # noqa: E402
from lotterydesign.game import (  # noqa: E402
    _RTOL, _XTOL, _bracket, _phi, solve_equilibrium, solve_sweep)


def median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def find_root_sweep(profile, c, rewards):
    # solve_sweep's root-find as scipy's find_root runs it.
    c_bar = float(np.sum(c))
    lo, hi = _bracket(rewards, c_bar, profile)
    a, c = profile.coefficients[:, None], np.asarray(c, dtype=float)[:, None]
    return find_root(lambda G, R: _phi(G, R, c_bar, a, -R * c), (lo, hi),
                     args=(rewards,), tolerances={"xatol": _XTOL, "xrtol": _RTOL})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    sweeps = workloads.SmallGames(ROOT)
    with tempfile.TemporaryDirectory() as work:
        sweeps.generate(args.seed, Path(work))
    out = {"seed": args.seed, "players": sweeps.players, "rewards": len(sweeps.rewards)}
    parity = True
    for regime, _, a, c in sweeps.sweeps:
        profile = BenefitProfile.scaled_log(a)
        rewards = np.sort(sweeps.rewards)
        loop_s, points = median_seconds(
            lambda: [solve_equilibrium(profile, DesignPoint(float(r), c)) for r in rewards],
            args.repeats)
        sweep_s, sweep = median_seconds(lambda: solve_sweep(profile, c, rewards), args.repeats)
        find_root_s, root = median_seconds(lambda: find_root_sweep(profile, c, rewards),
                                           args.repeats)
        goods = np.array([p.G for p in points])
        violations = np.array([p.max_foc_violation for p in points])
        equal_to_loop = bool(
            sweep.G.tobytes() == goods.tobytes()
            and sweep.iterations.tolist() == [p.iterations for p in points]
            and sweep.max_foc_violation.tobytes() == violations.tobytes())
        parity = parity and equal_to_loop
        out[regime] = {
            "solve_equilibrium_loop_s": loop_s,
            "solve_sweep_s": sweep_s,
            "find_root_s": find_root_s,
            "max_evaluations": int(sweep.iterations.max()),
            "bitwise_equal_to_find_root": bool(
                sweep.G.tobytes() == root.x.tobytes()
                and np.array_equal(sweep.iterations, root.nfev)),
            "bitwise_equal_to_solve_equilibrium_loop": equal_to_loop,
        }
    print(json.dumps(out, indent=2))
    return 0 if parity else 1


if __name__ == "__main__":
    sys.exit(main())
