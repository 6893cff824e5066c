"""Time each layer on the benchmark's seed-7 inputs, and check three of them.

    python3 tools/layer_time.py [--repeats 5]

Builds the design_lp and small_games inputs of benchmark seed 7 once, with the
benchmark's own generator in a temporary directory. Each repeat runs every
timed call once, in turn, so a slow spell of the shared machine falls on all
layers alike. Prints one JSON object with a section per layer, named after the
tool it replaced so that recorded figures still map onto it. Each section's
function returns its timed calls and a `finish(repeats)` that turns their spans
into the section and whether its gate holds:

- `sweep_solve_time`: median seconds to solve each 30-player, 200-reward
  analyze sweep (c = 0 and c > 0) by a loop of `solve_equilibrium` calls and
  by one `solve_sweep` call, and the most Phi evaluations a reward took.
  Once per run, not per repeat, it also counts the points of the 2000-point
  equilibrium corpus where `solve_equilibrium` has the bits of the row of
  `solve_sweep(profile, c, [R])`.
- `emit_time`: median microseconds per run of the 2000-point equilibrium
  corpus, written to one report.json as the benchmark does, of each stage:
  `_run_equilibrium` split at its `solve_equilibrium` call into build, solve
  and grade; encode (`_report_json`); write (`_write_artifact`); the whole
  `run_scenario`; and a truncate-first `Path.write_text` of the same bytes.
  Each stage's median is also given over the encode median of the same run
  (`median_over_encode`): encoding does the same work in every tree, so the
  ratio compares trees measured at different times with the shared machine's
  drift divided out. Also the median milliseconds of each sweep's
  `run_scenario`, `_report_json` and `_sweep_csv_rows`, run 20 times per
  repeat among the corpus points.
- `parse_time`: per `configs/*.yaml` file and seed-7 input, its size, its
  reader (`block`, or `yaml.load` when the line reader hands it on) and the
  median milliseconds of `ScenarioConfig.from_file` and of `yaml.load`. Per
  design_lp input also the median milliseconds of the benchmark's whole
  `design` operation (`ScenarioConfig.from_file`, then `run_scenario`), and
  the read's share of it: the `from_file` median over the operation's.
- `lp_solve_time`: per design_lp input and `configs/case30.yaml`, the tableau
  shape, pivot counts, the number of lexicographic stages a solve runs (calls
  to `_run_phase`) and median milliseconds of `build_reformulation`,
  `solve_lp`, and the dual phase and lexicographic stages of a solve (timed
  by wrappers on further solves), on the problem and LP its verb builds.

Exits 1 when a gate fails: a sweep differs from the loop in any bit of G,
evaluation count or largest FOC violation; a corpus point's
`solve_equilibrium` differs from its one-reward sweep in any bit of G,
evaluation count, investments, pool or largest FOC violation; an R* or c* is
off the benchmark's HiGHS reference by more than 1e-9 relative to
max(1, |value|); a `from_file` document is not repr-equal to yaml.load's (repr
tells 1 from 1.0 and True, and a NaN from anything else); or a seed-7 input is
not read by `block`.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
import lotterydesign  # noqa: E402
from lotterydesign import (  # noqa: E402
    BenefitProfile, DesignPoint, ScenarioConfig, design, harness, run_scenario, simplex,
    solve_equilibrium, solve_sweep)

BENCH_SEED = 7
SWEEP_RUNS = 20  # per analyze sweep and repeat
REL = 1e-9
STAGES = ("build", "solve", "grade", "encode", "write", "run_scenario", "write_text_reference")
SWEEP_STAGES = ("report_json", "csv_rows", "run_scenario")
CSV_COLUMNS = ("reward", "public_good", "poa_true", "g_lower", "g_upper", "poa_lower",
               "poa_upper")
clock = time.perf_counter


def in_turn(calls, repeats, spans):
    """Run each (key, call) of `calls` once per repeat, in turn, appending the
    (start, end) clock readings of each run to spans[key]."""
    for _ in range(repeats):
        for key, call in calls:
            start = clock()
            call()
            spans[key].append((start, clock()))


def spied(module, name, key, spans, call):
    """`call`, run with `module.name` replaced by a wrapper that appends the
    (start, end) of each call it gets to spans[key]."""
    inner = getattr(module, name)

    def spy(*args):
        start = clock()
        try:
            return inner(*args)
        finally:
            spans[key].append((start, clock()))

    def run():
        setattr(module, name, spy)
        try:
            call()
        finally:
            setattr(module, name, inner)
    return run


def median(spans, unit):
    """The median length of `spans`, in `unit`s per second."""
    return statistics.median(end - start for start, end in spans) * unit


def within(outer, inner):
    """For each outer span, the total length of the inner spans that start in it."""
    return [sum(end - start for start, end in inner if a <= start <= b) for a, b in outer]


def solve_loop(profile, c, rewards):
    return [solve_equilibrium(profile, DesignPoint(float(r), c)) for r in rewards]


def point_is_sweep_row(a, c, reward):
    """Whether `solve_equilibrium` at (reward, c) has the bits of its row of
    `solve_sweep(profile, c, [reward])`."""
    profile = BenefitProfile.scaled_log(a)
    point = solve_equilibrium(profile, DesignPoint(reward, c))
    row = solve_sweep(profile, c, [reward])
    return (np.float64(point.G).tobytes() == row.G.tobytes()
            and point.iterations == int(row.iterations[0])
            and point.s_star.tobytes() == row.s_star[0].tobytes()
            and np.float64(point.pool).tobytes() == row.pool.tobytes()
            and np.float64(point.max_foc_violation).tobytes() == row.max_foc_violation.tobytes())


def sweep_solve_time(games, spans):
    rewards = np.sort(games.rewards)
    corpus_rows = sum(point_is_sweep_row(a, c, R) for _, a, c, R in games.corpus)
    rows, calls = {}, []
    for regime, _, a, c in games.sweeps:
        profile = BenefitProfile.scaled_log(a)
        points, sweep = solve_loop(profile, c, rewards), solve_sweep(profile, c, rewards)
        rows[regime] = {"max_evaluations": int(sweep.iterations.max()),
                        "bitwise_equal_to_solve_equilibrium_loop": bool(
                            sweep.G.tobytes() == np.array([p.G for p in points]).tobytes()
                            and sweep.iterations.tolist() == [p.iterations for p in points]
                            and sweep.max_foc_violation.tobytes() == np.array(
                                [p.max_foc_violation for p in points]).tobytes())}
        calls += [(("loop", regime), partial(solve_loop, profile, c, rewards)),
                  (("sweep", regime), partial(solve_sweep, profile, c, rewards))]

    def finish(repeats):
        out = {"seed": BENCH_SEED, "players": games.players, "rewards": len(rewards)}
        for regime, row in rows.items():
            out[regime] = {"solve_equilibrium_loop_s": median(spans["loop", regime], 1.0),
                           "solve_sweep_s": median(spans["sweep", regime], 1.0), **row}
        out["corpus"] = {"points": len(games.corpus),
                         "bitwise_equal_to_solve_sweep_row": corpus_rows}
        return out, corpus_rows == len(games.corpus) and all(
            row["bitwise_equal_to_solve_equilibrium_loop"] for row in rows.values())
    return calls, finish


def emit_time(games, work, spans):
    sweep_calls = []
    for regime, path, *_ in games.sweeps:
        cfg, out = ScenarioConfig.from_file(path), work / "out" / f"analyze_{regime}"
        report = run_scenario("analyze", cfg, out_dir=out).report
        columns = [[row[name] for row in report["results"]["sweep"]] for name in CSV_COLUMNS]
        sweep_calls += [(("run_scenario", regime),
                         partial(run_scenario, "analyze", cfg, out_dir=out)),
                        (("report_json", regime), partial(harness._report_json, report)),
                        (("csv_rows", regime), partial(harness._sweep_csv_rows, *columns))]
    out = work / "out" / "equilibrium"
    out.mkdir(parents=True)
    path = out / "report.json"
    calls, every = [], len(games.corpus) // SWEEP_RUNS
    for k, (config, *_) in enumerate(games.corpus):
        cfg = ScenarioConfig(config, work)
        status, results, properties, _ = harness._run_equilibrium(cfg)
        report = harness._report("equilibrium", cfg.get("seed", 0), status, results, properties)
        report["artifacts"] = ["report.json"]
        text = harness._report_json(report)
        calls += [("equilibrium", spied(harness, "solve_equilibrium", "solve", spans,
                                        partial(harness._run_equilibrium, cfg))),
                  ("encode", partial(harness._report_json, report)),
                  ("write", partial(harness._write_artifact, path, text)),
                  ("run_scenario", partial(run_scenario, "equilibrium", cfg, out_dir=out)),
                  ("write_text_reference", partial(path.write_text, text))]
        if k % every == every - 1:
            calls += sweep_calls

    def finish(repeats):
        # One solve per _run_equilibrium run: build ends where it starts, grade starts where
        # it ends.
        pairs = list(zip(spans["equilibrium"], spans["solve"], strict=True))
        spans["build"] = [(start, solve[0]) for (start, _), solve in pairs]
        spans["grade"] = [(solve[1], end) for (_, end), solve in pairs]
        median_us = {stage: median(spans[stage], 1e6) for stage in STAGES}
        return {
            "points": len(games.corpus),
            "repeats": repeats,
            "median_us": median_us,
            "median_over_encode": {stage: round(us / median_us["encode"], 4)
                                   for stage, us in median_us.items()},
            "analyze_seed": BENCH_SEED,
            "analyze_runs": repeats * SWEEP_RUNS,
            "analyze_median_ms": {
                regime: {stage: median(spans[stage, regime], 1e3) for stage in SWEEP_STAGES}
                for regime, *_ in games.sweeps},
        }, True
    return calls, finish


def reader(text, loader):
    """The reader `ScenarioConfig.from_file` builds `text` with."""
    try:
        harness._read_block(text, loader)
        return "block"
    except harness._Fallback:
        return "yaml.load"


def design_operation(path, out):
    """The benchmark's `design` operation on one input: read it, then run the verb."""
    return run_scenario("design", ScenarioConfig.from_file(path), out_dir=out)


def parse_time(work, designs, spans):
    loader = harness._YAML_LOADER
    paths = [(f"configs/{p.name}", p) for p in sorted((ROOT / "configs").glob("*.yaml"))]
    paths += [(f"bench:{BENCH_SEED}/{p.name}", p) for p in sorted(work.glob("*.yaml"))]
    files, mismatches, unread, calls = {}, [], [], []
    for name, path in paths:
        text = path.read_text()
        if repr(ScenarioConfig.from_file(path).raw) != repr(yaml.load(text, Loader=loader)):
            mismatches.append(name)
        files[name] = {"kb": round(len(text.encode()) / 1024, 1), "reader": reader(text, loader)}
        if name.startswith("bench:") and files[name]["reader"] != "block":
            unread.append(name)
        calls += [(("from_file", name), partial(ScenarioConfig.from_file, path)),
                  (("yaml_load", name), partial(yaml.load, text, Loader=loader))]
        if path in designs:
            calls.append((("design", name), partial(design_operation, path, work / "out" / name)))

    def finish(repeats):
        for name, row in files.items():
            row.update(from_file_ms=round(median(spans["from_file", name], 1e3), 3),
                       yaml_load_ms=round(median(spans["yaml_load", name], 1e3), 3))
            if spans["design", name]:
                row["design_ms"] = round(median(spans["design", name], 1e3), 3)
                row["read_share"] = round(row["from_file_ms"] / row["design_ms"], 3)
        return {"loader": loader.__name__, "repeats": repeats, "files": files,
                "mismatches": mismatches, "not_read_by_lines": unread}, not (mismatches or unread)
    return calls, finish


def captured(verb, config, out):
    """The DesignProblem a verb's run hands to `build_reformulation`, and the
    LinearProgram it hands to `solve_lp`."""
    with mock.patch.object(design, "build_reformulation",
                           wraps=design.build_reformulation) as build, \
            mock.patch.object(design, "solve_lp", wraps=simplex.solve_lp) as solve:
        run_scenario(verb, ScenarioConfig.from_file(config), out_dir=out)
    return build.call_args.args[0], solve.call_args.args[0]


def lp_solve_time(bench, work, spans):
    bench.prepare(lotterydesign)
    runs = [(f"design_lp:{k}", "design", p.config, p.ref) for k, p in enumerate(bench.problems)]
    runs.append(("configs/case30.yaml", "casestudy", bench.case30, bench.ref30))
    rows, matches, calls = {}, {}, []
    for name, verb, config, (r_ref, c_ref) in runs:
        problem, lp = captured(verb, config, work / "out" / "lp")
        res = simplex.solve_lp(lp)
        rows[name] = {  # the tableau has a row per row of a_ub, a_eq and -a_eq, and a column
            # per structural variable, plus the reduced costs and the right-hand side
            "tableau": f"{lp.b_ub.size + 2 * lp.b_eq.size + 1}x{lp.n_vars + 1}",
            "main_pivots": res.iterations,
            "lex_pivots": res.lex_iterations,
        }
        matches[name] = res.status == "optimal" and all(
            workloads.close(float(x), float(y), rel=REL) for x, y in zip(res.x, [r_ref, *c_ref]))
        phases = spied(simplex, "_dual_phase", ("dual", name), spans,
                       spied(simplex, "_run_phase", ("lex", name), spans,
                             partial(simplex.solve_lp, lp)))
        calls += [(("build", name), partial(design.build_reformulation, problem)),
                  (("solve", name), partial(simplex.solve_lp, lp)),
                  (("phases", name), phases)]

    def finish(repeats):
        out = {"seed": BENCH_SEED, "repeats": repeats}
        for name, row in rows.items():
            solves = spans["phases", name]
            out[name] = {**row, "lex_stages": len(spans["lex", name]) // len(solves),
                         "build_ms": median(spans["build", name], 1e3),
                         "solve_ms": median(spans["solve", name], 1e3),
                         "dual_ms": statistics.median(within(solves, spans["dual", name])) * 1e3,
                         "lex_ms": statistics.median(within(solves, spans["lex", name])) * 1e3,
                         "matches_highs": matches[name]}
        return out, all(matches.values())
    return calls, finish


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    spans = defaultdict(list)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        design_lp, games = workloads.DesignLp(ROOT), workloads.SmallGames(ROOT)
        design_lp.generate(BENCH_SEED, work)
        games.generate(BENCH_SEED, work)
        sections = {"sweep_solve_time": sweep_solve_time(games, spans),
                    "emit_time": emit_time(games, work, spans),
                    "parse_time": parse_time(
                        work, [p.config for p in design_lp.problems], spans),
                    "lp_solve_time": lp_solve_time(design_lp, work, spans)}
        in_turn([call for calls, _ in sections.values() for call in calls], args.repeats, spans)
    results = {name: finish(args.repeats) for name, (_, finish) in sections.items()}
    print(json.dumps({name: section for name, (section, _) in results.items()}, indent=2))
    return 0 if all(ok for _, ok in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
