"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload generates its inputs (scenario files or in-memory scenario
configs), computes its references once with `refs` (untimed), and then runs
rounds of the same operations. Only the program's calls are timed. Every
operation's output is checked; a failed check is recorded in `Stats.problems`,
an operation that raises or that hits a known fault in `Stats.failures`.

Functions are looked up on their modules at call time (`ld.harness.
run_scenario`, not a name bound at import), so the tracer's wrappers see the
benchmark's own calls too.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import yaml

import refs
import yardstick

# libyaml's dumper when present: it only speeds up writing the inputs.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# The two faults the benchmark keeps as failed operations (see README).
FAULT1 = "fault1_ok_on_non_equilibrium"
FAULT2 = "fault2_active_set_cap"

REL = 1e-9          # relative agreement with a reference computed in float64
KKT_TOL = 1e-7      # largest first-order residual accepted at an equilibrium


class Stats:
    """Per-run tallies: operation times, failures and failed checks."""

    def __init__(self):
        self.times = defaultdict(list)       # kind -> measured seconds, one per operation
        # Every round runs the same operations in the same order; slot k is
        # the k-th operation of a round.
        self.slot = 0
        # One entry per timed operation: (kind, slot, seconds, start, end).
        self.ops = []
        self.yardstick = yardstick.Yardstick()
        self._scaled = None
        self.attempted = 0
        self.failures = Counter()            # reason -> count
        self.detail = Counter()              # diagnostics that are not failures
        self.problems: list[str] = []

    def record(self, kind, start, end):
        self.times[kind].append(end - start)
        self.ops.append((kind, self.slot, end - start, start, end))
        self.slot += 1

    def scaled(self):
        """(kind, slot, scaled seconds) of every operation, once the run is over."""
        if self._scaled is None:
            scale = self.yardstick.scale
            self._scaled = [(kind, slot, scale(seconds, start, end))
                            for kind, slot, seconds, start, end in self.ops]
        return self._scaled

    def scaled_p50(self, kind):
        return p50([t for k, _, t in self.scaled() if k == kind])

    def slot_p50_mean(self, kind):
        """Mean over a round's `kind` operations of each one's median scaled time."""
        by_slot = defaultdict(list)
        for k, slot, seconds in self.scaled():
            if k == kind:
                by_slot[slot].append(seconds)
        return statistics.fmean(p50(v) for v in by_slot.values()) if by_slot else math.nan

    def round_p50(self):
        """A round assembled from each operation's median scaled time."""
        by_slot = defaultdict(list)
        for _, slot, seconds in self.scaled():
            by_slot[slot].append(seconds)
        return sum(statistics.median(v) for v in by_slot.values()) if by_slot else math.nan

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def close(x, y, rel=REL, floor=1.0):
    return abs(x - y) <= rel * max(floor, abs(x), abs(y))


def p50(values):
    return statistics.median(values) if values else math.nan


def stratified(rng, lo, hi, n):
    """n uniform draws from [lo, hi], one from each of n equal slices, shuffled.

    Every seed then gets inputs of the same make-up, and so the same amount
    of work, while the values themselves change with the seed.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def failure_reason(exc) -> str:
    name = type(exc).__name__
    if name == "NonconvergenceError" and "did not settle" in str(exc):
        return FAULT2
    return f"other:{name}"


def _timed(stats, kind, call):
    """Run and time one operation; return its result, None if it raised."""
    stats.attempted += 1
    stats.yardstick.catch_up()
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that fails is counted, not fatal
        stats.failures[failure_reason(exc)] += 1
        stats.slot += 1
        return None
    stats.record(kind, start, time.perf_counter())
    return result


def write_yaml(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.dump(data, Dumper=_DUMPER, sort_keys=False))


def _players(a):
    return [{"player_id": i + 1, "family": "scaled_log", "coefficient": float(x)}
            for i, x in enumerate(a)]


def _pipeline(ld, verb, config_path, out_dir):
    cfg = ld.harness.ScenarioConfig.from_file(config_path)
    return ld.harness.run_scenario(verb, cfg, out_dir=out_dir)


# ---------------------------------------------------------------------------
# design_lp: casestudy on configs/case30.yaml alternating with seeded
# 60-player design problems with 150 inline rows.

class DesignProblem:
    """One seeded design problem: its scenario file, coefficients and rows."""

    def __init__(self, config, a, rows_a, rows_b):
        self.config = config
        self.a = a
        self.rows_a = rows_a
        self.rows_b = rows_b
        self.ref = None


class DesignLp:
    name = "design_lp"
    n_players = 60
    # The simplex's pivot count, and so a solve's time, differs from one
    # problem to the next by up to a fifth; a round solves several problems
    # so that every seed does about the same work.
    n_problems = 8

    def __init__(self, root: Path):
        self.root = root
        self.case30 = root / "configs" / "case30.yaml"

    def generate(self, seed: int, work: Path):
        self.problems = [self.generate_problem(np.random.default_rng([seed, k]), seed,
                                               work / f"design60_{k}.yaml")
                         for k in range(self.n_problems)]
        self.work = work

    def generate_problem(self, rng, seed, path):
        n = self.n_players
        a = stratified(rng, 0.6, 3.0, n)
        gs = refs.g_star(a)
        # Minimum investments sum past G*, so the reward binds above its floor.
        floors = stratified(rng, 0.5, 1.5, n) * (gs + 57.0) / n
        caps = floors + stratified(rng, 1.0, 3.0, n) * gs / n
        rows = []
        for i in range(n):
            rows.append((f"min_s{i + 1}", -np.eye(n)[i], 0.0, -floors[i]))
        for i in range(n):
            rows.append((f"cap_s{i + 1}", np.eye(n)[i], 0.0, caps[i]))
        for k in range(30):
            i, j = rng.choice(n, 2, replace=False)
            row = np.zeros(n)
            row[[i, j]] = 1.0
            rows.append((f"pair{k + 1}", row, -0.1,
                         floors[i] + floors[j] + rng.uniform(1.0, 3.0) * gs / n))
        config = {
            "profile": {"players": _players(a)},
            "alpha": 1.0,
            "reward_floor": 0.001,
            "constraints": {"source": "inline", "rows": [
                {"label": label, "s_coeffs": [float(v) for v in s], "r_coeff": r,
                 "rhs": float(rhs)} for label, s, r, rhs in rows]},
            "seed": seed,
        }
        write_yaml(path, config)
        return DesignProblem(path, a, np.array([np.append(s, r) for _, s, r, _ in rows]),
                             np.array([rhs for *_, rhs in rows]))

    def prepare(self, ld):
        raw = yaml.safe_load(self.case30.read_text())
        grid = raw["constraints"]["grid"]
        case_text = (self.root / "src" / "lotterydesign" / "data"
                     / f"{grid['case_file'].split(':', 1)[1]}.m").read_text()
        scenario = ld.grid.monetize(ld.grid.parse_case(case_text),
                                    float(grid["demand_scale"]),
                                    float(grid["rate_dollars_per_kwh"]),
                                    float(grid["horizon_hours"]))
        cons = ld.grid.build_dr_constraints(scenario)
        self.golden = raw["golden"]
        self.a30 = float(raw["casestudy"]["coefficient_offset"]) + np.array(
            scenario.load_bus_ids, dtype=float)
        self.rows30 = (np.array(cons.a), np.array(cons.b))
        self.ref30 = refs.design_lp_reference(self.a30, *self.rows30,
                                              float(raw["reward_floor"]))
        for problem in self.problems:
            problem.ref = refs.design_lp_reference(problem.a, problem.rows_a,
                                                   problem.rows_b, 0.001)
        self.artifacts = {}

    def run_round(self, ld, stats):
        for k, problem in enumerate(self.problems):
            out = self.work / "casestudy"
            res = _timed(stats, "casestudy",
                         lambda: _pipeline(ld, "casestudy", self.case30, out))
            if res is not None:
                self.check_casestudy(stats, res.report, out)
            out = self.work / f"design_{k}"
            res = _timed(stats, "design",
                         lambda: _pipeline(ld, "design", problem.config, out))
            if res is not None:
                results = res.report["results"]
                stats.check(res.report["status"] == "ok",
                            f"design {k} status {res.report['status']}")
                check_design(stats, f"design {k}", results, problem.a,
                             problem.rows_a, problem.rows_b, problem.ref)
                self.check_artifacts(stats, f"design_{k}", out, res.artifacts)

    def check_casestudy(self, stats, report, out):
        results = report["results"]
        stats.check(report["status"] == "ok", f"casestudy status {report['status']}")
        for name, spec in self.golden.items():
            expected = float(spec["value"])
            tol = (float(spec["tol_abs"]) if "tol_abs" in spec
                   else float(spec["tol_rel"]) * abs(expected))
            stats.check(abs(float(results[name]) - expected) <= tol,
                        f"casestudy {name} {results[name]} vs paper {expected}")
        check_design(stats, "casestudy", results, self.a30, *self.rows30, self.ref30)
        total = float(np.sum(results["perturbation"])) + results["reward"]
        stats.check(close(results["total_investment"], total),
                    "casestudy sum s* != G* + R*")
        stats.check(close(results["aggregate_payoff"],
                          refs.aggregate_payoff(self.a30, refs.g_star(self.a30))),
                    "casestudy aggregate payoff differs from sum h_i(G*) - G*")
        self.check_artifacts(stats, "casestudy", out, report["artifacts"])

    def check_artifacts(self, stats, kind, out, names):
        blobs = {name: (out / name).read_bytes() for name in names}
        first = self.artifacts.setdefault(kind, blobs)
        stats.check(blobs == first, f"{kind} artifacts differ between repetitions")

    def end_to_end(self, stats):
        return {"a_p50_s": stats.scaled_p50("casestudy"),
                "b_p50_s": stats.slot_p50_mean("design")}

    def roadmap_figures(self, stats):
        cs = stats.times["casestudy"]
        figures = {"casestudy_p50_s": p50(cs), "design_p50_s": p50(stats.times["design"])}
        if len(cs) >= 40:
            figures["casestudy_p90_s"] = statistics.quantiles(cs, n=10)[-1]
        return figures


def check_design(stats, kind, results, a, rows_a, rows_b, ref):
    """Designed point against HiGHS and the closed forms."""
    r_ref, c_ref = ref
    gs = refs.g_star(a)
    reward = float(results["reward"])
    c = np.asarray(results["perturbation"], dtype=float)
    stats.check(close(results["socially_optimal_good"], gs, rel=1e-12),
                f"{kind} G* {results['socially_optimal_good']!r} != sum(a)-1 = {gs!r}")
    stats.check(close(reward, r_ref, rel=1e-7),
                f"{kind} R* {reward!r} != HiGHS {r_ref!r}")
    gap = float(np.max(np.abs(c - c_ref)))
    stats.check(gap <= 1e-6 * max(1.0, gs),
                f"{kind} c* is not the lexicographically smallest optimum (gap {gap:.3g})")
    stats.check(close(float(c.sum()), gs), f"{kind} sum c* != G*")
    s = c + reward * np.asarray(a) / np.sum(a)
    stats.check(np.allclose(results["predicted_investments"], s, rtol=REL, atol=REL),
                f"{kind} s* differs from c* + R* h'(G*)")
    slack = rows_a @ np.append(s, reward) - rows_b
    stats.check(bool(np.all(slack <= 1e-7 * np.maximum(1.0, np.abs(rows_b)))),
                f"{kind} constraint violated at s* by {float(slack.max()):.3g}")


# ---------------------------------------------------------------------------
# small_games: two 30-player analyze sweeps and the fixed 2000-point
# equilibrium corpus.


class SmallGames:
    name = "small_games"
    players = 30
    rewards = np.geomspace(0.05, 1e4, 200)
    corpus_seed = 0     # fixed: the corpus holds the two known faults
    corpus_size = 2000
    sweeps_per_round = 4

    def __init__(self, root: Path):
        self.root = root

    def generate(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        n = self.players
        a = stratified(rng, 0.6, 3.0, n)
        c_pos = stratified(rng, 0.0, 2.0 * refs.g_star(a) / n, n)
        self.sweeps = []
        for regime, c in (("c0", np.zeros(n)), ("cpos", c_pos)):
            path = work / f"analyze_{regime}.yaml"
            write_yaml(path, {
                "profile": {"players": _players(a)},
                "sweep": {"rewards": [float(r) for r in self.rewards],
                          "perturbation": [float(x) for x in c]},
                "seed": seed,
            })
            self.sweeps.append((regime, path, a, c))
        rng = np.random.default_rng(self.corpus_seed)
        self.corpus = []
        for k in range(self.corpus_size):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.6, 3.0, n)
            c = rng.uniform(0.0, 2.0 * refs.g_star(a) / n, n)
            R = float(rng.uniform(0.05, 20.0))
            # Kept in memory: 2000 files would make set-up mostly file writing.
            config = {
                "profile": {"players": _players(a)},
                "design_point": {"reward": R, "perturbation": [float(x) for x in c]},
                "seed": self.corpus_seed,
            }
            self.corpus.append((config, a, c, R))
        self.work = work

    def prepare(self, ld):
        regime, _, a, c = self.sweeps[0]
        self.share_roots = [refs.share_root_good(a, c, float(R)) for R in self.rewards]

    def run_round(self, ld, stats):
        # The corpus is split into four chunks with both sweeps before each,
        # so a run times each sweep four times per pass over the corpus.
        chunk = -(-self.corpus_size // self.sweeps_per_round)
        for start in range(0, self.corpus_size, chunk):
            for regime, path, a, c in self.sweeps:
                out = self.work / f"analyze_{regime}"
                res = _timed(stats, f"analyze_{regime}",
                             lambda: _pipeline(ld, "analyze", path, out))
                if res is not None:
                    self.check_sweep(stats, regime, res.report, a, c)
            for point in self.corpus[start:start + chunk]:
                self.run_point(ld, stats, *point)

    def run_point(self, ld, stats, config, a, c, R):
        res = _timed(stats, "equilibrium", lambda: ld.harness.run_scenario(
            "equilibrium", ld.harness.ScenarioConfig(config, self.work),
            out_dir=self.work / "equilibrium"))
        if res is not None:
            reason = self.judge_equilibrium(stats, res.report, a, c, R)
            if reason:
                stats.failures[reason] += 1

    def judge_equilibrium(self, stats, report, a, c, R):
        """Failure reason of one corpus run, or None when it succeeded.

        A run succeeds when its status is "ok" exactly when the deviation
        search finds no profitable deviation.
        """
        results = report["results"]
        s = np.asarray(results["investments"], dtype=float)
        gain, _, kind = refs.deviation_search(a, c, R, s)
        deviates = gain > 1e-7 * max(1.0, R)
        ok = report["status"] == "ok"
        if ok and deviates:
            stats.detail[f"{FAULT1}:{kind}"] += 1
            return FAULT1
        if ok:
            kkt = refs.kkt_violation(a, c, R, s)
            consistent = close(float(s.sum()), results["public_good"] + R)
            if kkt > KKT_TOL or not consistent:
                return "other:bad_equilibrium"
            return None
        if not deviates:
            return "other:status_without_deviation"
        return None

    def check_sweep(self, stats, regime, report, a, c):
        stats.check(report["status"] == "ok", f"analyze {regime} status {report['status']}")
        rows = report["results"]["sweep"]
        stats.check(len(rows) == len(self.rewards), f"analyze {regime}: {len(rows)} rows")
        gs, c_bar = refs.g_star(a), float(np.sum(c))
        lo, hi = min(c_bar, gs), max(c_bar, gs)
        for k, row in enumerate(rows):
            G = row["public_good"]
            where = f"analyze {regime} R={row['reward']:.6g}"
            stats.check(close(row["reward"], self.rewards[k]), f"{where}: reward order")
            stats.check(lo - REL * hi <= G <= hi * (1 + REL), f"{where}: G outside bracket")
            slack = REL * max(1.0, row["poa_true"]) if math.isfinite(row["poa_true"]) else 0
            stats.check(row["poa_lower"] - slack <= row["poa_true"] <= row["poa_upper"] + slack,
                        f"{where}: poa_true {row['poa_true']!r} outside "
                        f"[{row['poa_lower']!r}, {row['poa_upper']!r}]")
            expected = refs.poa_from_good(a, G)
            stats.check(close(row["poa_true"], expected) if math.isfinite(expected)
                        else row["poa_true"] == expected,
                        f"{where}: poa_true {row['poa_true']!r} != closed form {expected!r}")
            if regime == "c0":
                stats.check(close(G, self.share_roots[k]),
                            f"{where}: G={G!r} != share-function root "
                            f"{self.share_roots[k]!r}")

    def end_to_end(self, stats):
        return {"a_p50_s": stats.scaled_p50("analyze_c0"),
                "b_p50_s": stats.scaled_p50("analyze_cpos")}

    def roadmap_figures(self, stats):
        runs = stats.times["equilibrium"]
        return {"analyze_c0_p50_s": p50(stats.times["analyze_c0"]),
                "analyze_cpos_p50_s": p50(stats.times["analyze_cpos"]),
                "equilibrium_verb_per_s": len(runs) / sum(runs) if runs else math.nan}


WORKLOADS = {w.name: w for w in (DesignLp, SmallGames)}
