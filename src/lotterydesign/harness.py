"""Scenario configuration, end-to-end pipelines, and report emission.

A scenario is a single YAML file naming the benefit profile, the design point
or sweep, the constraint source, and output options. Pipelines:

- equilibrium: solve one design point, grade the feasibility/bound properties
- analyze: sweep rewards, tabulating the good, the price of anarchy, and its
  closed-form sandwich
- design: build and solve the reformulated program, then verify the optimum
  against the true equilibrium
- casestudy: ingest a grid case, monetize it, design, verify, and emit the
  per-bus and per-line figure data

Artifacts (report.json plus CSVs) are byte-deterministic for a fixed config
and seed.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analysis, design as design_mod, grid as grid_mod
from .benefit import BenefitProfile
from .errors import ConfigError, ExactnessViolationError
from .game import TOLERANCES, DesignPoint, LotteryInstance, payoff, solve_equilibrium

SCHEMA_VERSION = 1


@dataclass
class ScenarioConfig:
    """Parsed scenario file plus the directory it was loaded from."""

    raw: dict
    base_dir: Path

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls(raw, path.parent)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError(f"config is missing required key '{key}'")
        return self.raw[key]


@dataclass
class HarnessResult:
    status: str
    report: dict
    out_dir: Path
    artifacts: list[str]


def _profile_from_config(cfg: ScenarioConfig) -> tuple[BenefitProfile, list]:
    spec = cfg.require("profile")
    players = spec.get("players") if isinstance(spec, dict) else None
    if not players:
        raise ConfigError("profile.players must be a nonempty list")
    ids, coefficients = [], []
    for entry in players:
        family = entry.get("family", "scaled_log")
        if family != "scaled_log":
            raise ConfigError(f"unsupported benefit family {family!r}")
        if "coefficient" not in entry:
            raise ConfigError("each player needs a 'coefficient'")
        ids.append(entry.get("player_id", len(ids) + 1))
        coefficients.append(float(entry["coefficient"]))
    return BenefitProfile.scaled_log(coefficients), ids


def _resolve_case_text(cfg: ScenarioConfig, case_file: str) -> str:
    if case_file.startswith("builtin:"):
        name = case_file.split(":", 1)[1]
        resource = importlib.resources.files("lotterydesign").joinpath(f"data/{name}.m")
        if not resource.is_file():
            raise ConfigError(f"unknown builtin case {name!r}")
        return resource.read_text()
    path = Path(case_file)
    if not path.is_absolute():
        path = cfg.base_dir / path
    if not path.is_file():
        raise ConfigError(f"case file not found: {path}")
    return path.read_text()


def _scenario_from_config(cfg: ScenarioConfig) -> grid_mod.DrScenario:
    section = cfg.get("constraints", {}).get("grid")
    if not section:
        raise ConfigError("constraints.grid section is required for this pipeline")
    case = grid_mod.parse_case(_resolve_case_text(cfg, section.get("case_file", "")))
    return grid_mod.monetize(
        case,
        demand_scale=float(section.get("demand_scale", 1.0)),
        rate=float(section.get("rate_dollars_per_kwh", 0.1)),
        hours=float(section.get("horizon_hours", 1.0)),
    )


def _constraints_from_config(cfg: ScenarioConfig, n_players: int):
    section = cfg.get("constraints", {"source": "none"})
    source = section.get("source", "none")
    if source == "none":
        return design_mod.ConstraintSet.empty(n_players)
    if source == "inline":
        rows = section.get("rows")
        if not rows:
            raise ConfigError("constraints.source=inline requires nonempty rows")
        return design_mod.ConstraintSet.from_rows(
            (row.get("label", f"row{k}"), row["s_coeffs"], row.get("r_coeff", 0.0),
             row["rhs"])
            for k, row in enumerate(rows)
        )
    if source == "grid":
        return grid_mod.build_dr_constraints(_scenario_from_config(cfg))
    raise ConfigError(f"unknown constraints source {source!r}")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        if math.isnan(value):  # pragma: no cover - pipelines never emit NaN
            return "nan"
        return value
    return value


def emit_report(out_dir: Path, report: dict, csv_files: dict) -> list[str]:
    """Write report.json and CSV artifacts with deterministic bytes.

    `csv_files` maps file name -> (header row, iterable of preformatted string
    rows). The report's artifact list is filled in here.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = ["report.json"] + sorted(csv_files)
    report["artifacts"] = artifacts
    payload = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    (out_dir / "report.json").write_text(payload)
    for name in sorted(csv_files):
        header, rows = csv_files[name]
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return artifacts


def _money(v: float) -> str:
    text = f"{float(v):.2f}"
    # A tiny negative rounds to "-0.00"; print zero without a sign.
    return "0.00" if text == "-0.00" else text


def _property_dicts(checks) -> list[dict]:
    return [c.to_dict() for c in checks]


def _properties_ok(checks) -> bool:
    return all(c.holds is not False for c in checks)


def _run_equilibrium(cfg: ScenarioConfig) -> tuple[str, dict, list, dict]:
    profile, ids = _profile_from_config(cfg)
    instance = LotteryInstance(profile)
    point = cfg.require("design_point")
    c = np.asarray(point.get("perturbation", [0.0] * profile.n_players), dtype=float)
    dp = DesignPoint(float(point["reward"]), c)
    eq = solve_equilibrium(instance, dp)
    checks = analysis.check_properties(instance, dp, eq)
    agg = sum(payoff(instance, dp, eq.s_star, i) for i in range(instance.n_players))
    results = {
        "player_ids": ids,
        "reward": dp.reward,
        "perturbation": dp.perturbation,
        "perturbation_total": dp.perturbation_total,
        "investments": eq.s_star,
        "public_good": eq.G,
        "pool": eq.pool,
        "active_set": list(eq.active_set),
        "max_foc_violation": eq.max_foc_violation,
        "iterations": eq.iterations,
        "aggregate_payoff": agg,
        "poa_true": analysis.true_poa(instance, dp, eq),
    }
    ok = eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"] and _properties_ok(checks)
    return ("ok" if ok else "verification_failed"), results, _property_dicts(checks), {}


def _bounds_dict(bounds) -> dict:
    return {
        "g_lower": bounds.g_lower,
        "g_upper": bounds.g_upper,
        "poa_lower": bounds.poa_lower,
        "poa_upper": bounds.poa_upper,
        "assured_active_count": bounds.assured_active_count,
    }


def _analyze_one(instance, c, reward):
    dp = DesignPoint(reward, c)
    eq = solve_equilibrium(instance, dp)
    bounds = analysis.poa_bounds(instance.profile, dp)
    checks = analysis.check_properties(instance, dp, eq, bounds=bounds)
    return {
        "reward": reward,
        "public_good": eq.G,
        "poa_true": analysis.true_poa(instance, dp, eq),
        "poa_lower": bounds.poa_lower,
        "poa_upper": bounds.poa_upper,
        "g_lower": bounds.g_lower,
        "g_upper": bounds.g_upper,
        # Statement-form bounds are primary; the tightened variant is
        # reported alongside, never silently substituted.
        "bounds": {
            "statement": _bounds_dict(bounds),
            "proof_tightened": _bounds_dict(
                analysis.poa_bounds(instance.profile, dp, variant="proof")),
        },
        "ok": _properties_ok(checks),
    }


def _run_analyze(cfg: ScenarioConfig) -> tuple[str, dict, list, dict]:
    profile, ids = _profile_from_config(cfg)
    instance = LotteryInstance(profile)
    sweep = cfg.require("sweep")
    rewards = [float(r) for r in sweep.get("rewards", [])]
    c = np.asarray(sweep.get("perturbation", [0.0] * profile.n_players), dtype=float)
    rows = [_analyze_one(instance, c, r) for r in rewards]
    rows.sort(key=lambda row: row["reward"])

    def fmt(v):
        return repr(float(v)) if math.isfinite(v) else "+inf"

    csv_rows = [
        [_money(r["reward"]), _money(r["public_good"]), fmt(r["poa_true"]),
         fmt(r["poa_lower"]), fmt(r["poa_upper"]), _money(r["g_lower"]),
         _money(r["g_upper"])]
        for r in rows
    ]
    csvs = {"sweep.csv": (
        ["reward", "public_good", "poa_true", "poa_lower", "poa_upper",
         "g_lower", "g_upper"], csv_rows)}
    results = {
        "player_ids": ids,
        "perturbation": c,
        "sweep": [{k: v for k, v in row.items() if k != "ok"} for row in rows],
    }
    ok = all(row["ok"] for row in rows)
    return ("ok" if ok else "verification_failed"), results, [], csvs


def _design_problem(cfg: ScenarioConfig, profile: BenefitProfile,
                    constraints: design_mod.ConstraintSet) -> design_mod.DesignProblem:
    """The design problem of a scenario, individual-rationality rows stacked."""
    ir = cfg.get("individual_rationality", {})
    if "encoding" in ir:
        raise ConfigError("individual_rationality.encoding was removed; "
                          "delete the key (the rows are always c_i <= h_i(G*))")
    if ir.get("enabled", False):
        constraints = constraints.stacked(design_mod.individual_rationality_rows(profile))
    return design_mod.DesignProblem(
        LotteryInstance(profile),
        constraints,
        alpha=float(cfg.get("alpha", 1.0)),
        reward_floor=float(cfg.get("reward_floor", design_mod.DEFAULT_REWARD_FLOOR)),
    )


def _solve_and_verify(problem):
    """Solve the design LP and verify an optimum against the true equilibrium.

    Returns (status, solution, verification report, equilibrium); the last
    two are None unless the LP is optimal.
    """
    sol = design_mod.solve_design(problem)
    if sol.status != "optimal":
        return sol.status, sol, None, None
    try:
        verification, eq = design_mod.verify_design(problem, sol)
        return "ok", sol, verification, eq
    except ExactnessViolationError as exc:
        return "verification_failed", sol, exc.report, exc.equilibrium


def _design_results(problem, sol, verification) -> dict:
    return {
        "status": sol.status,
        "reward": sol.design.reward if sol.design else None,
        "perturbation": sol.design.perturbation if sol.design else None,
        "perturbation_total": sol.design.perturbation_total if sol.design else None,
        "objective": sol.objective,
        "predicted_investments": sol.predicted_investments,
        "binding": list(sol.binding),
        "socially_optimal_good": problem.g_star,
        "verification": verification,
    }


def _run_design(cfg: ScenarioConfig) -> tuple[str, dict, list, dict]:
    profile, ids = _profile_from_config(cfg)
    problem = _design_problem(
        cfg, profile, _constraints_from_config(cfg, profile.n_players))
    status, sol, verification, _ = _solve_and_verify(problem)
    results = _design_results(problem, sol, verification)
    if sol.status == "optimal":
        results["player_ids"] = ids
    return status, results, [], {}


def _golden_checks(cfg: ScenarioConfig, actual: dict) -> tuple[list[dict], bool]:
    table = []
    golden = cfg.get("golden", {})
    for name, spec in sorted(golden.items()):
        if name not in actual:
            raise ConfigError(f"golden target {name!r} is not produced by this pipeline")
        value = actual[name]
        expected = float(spec["value"])
        if "tol_abs" in spec:
            tol = float(spec["tol_abs"])
        elif "tol_rel" in spec:
            tol = float(spec["tol_rel"]) * abs(expected)
        else:
            raise ConfigError(f"golden target {name!r} needs tol_abs or tol_rel")
        table.append({
            "name": name,
            "expected": expected,
            "actual": value,
            "tolerance": tol,
            "ok": abs(value - expected) <= tol,
        })
    return table, all(row["ok"] for row in table)


def _run_casestudy(cfg: ScenarioConfig) -> tuple[str, dict, list, dict]:
    scenario = _scenario_from_config(cfg)
    offset = float(cfg.get("casestudy", {}).get("coefficient_offset", 100.0))
    profile = BenefitProfile.scaled_log(
        [offset + b for b in scenario.load_bus_ids])
    problem = _design_problem(cfg, profile, grid_mod.build_dr_constraints(scenario))
    status, sol, verification, eq = _solve_and_verify(problem)
    if sol.status != "optimal":
        return status, _design_results(problem, sol, None), [], {}

    s = eq.s_star
    c = sol.design.perturbation
    demand = scenario.demand_dollars
    flows = (scenario.shift_factors_gen @ scenario.generation_dollars
             - scenario.shift_factors_load @ (demand - s))
    limits = scenario.line_limit_dollars

    results = _design_results(problem, sol, verification)
    results.update({
        "load_bus_ids": list(scenario.load_bus_ids),
        "total_investment": float(s.sum()),
        "aggregate_payoff": verification["aggregate_payoff"],
        "total_demand": float(demand.sum()),
        "generation_total": float(scenario.generation_dollars.sum()),
        "adjusted_demand_total": float((demand - s).sum()),
        "max_line_utilization_pct": float(
            np.max(np.abs(flows) / np.where(np.isfinite(limits), limits, np.inf)) * 100.0
        ),
    })
    golden_table, golden_ok = _golden_checks(cfg, {
        "socially_optimal_good": problem.g_star,
        "reward": sol.design.reward,
        "total_investment": results["total_investment"],
        "aggregate_payoff": results["aggregate_payoff"],
        "generation_total": results["generation_total"],
    })
    results["golden"] = golden_table

    allocation_rows = [
        [str(bus), _money(c[k]), _money(s[k])]
        for k, bus in enumerate(scenario.load_bus_ids)
    ]
    demand_rows = [
        [str(bus), _money(demand[k]), _money(demand[k] - s[k])]
        for k, bus in enumerate(scenario.load_bus_ids)
    ]
    line_rows = []
    for k, br in enumerate(scenario.case.branches):
        limit = limits[k]
        util = abs(flows[k]) / limit * 100.0 if math.isfinite(limit) else 0.0
        line_rows.append([
            f"{br.from_bus}-{br.to_bus}", _money(flows[k]),
            _money(limit) if math.isfinite(limit) else "+inf", f"{util:.4f}",
        ])
    csvs = {
        "allocation.csv": (["bus", "c_star", "s_star"], allocation_rows),
        "demand.csv": (["bus", "demand", "adjusted"], demand_rows),
        "lines.csv": (["line", "flow", "limit", "utilization_pct"], line_rows),
    }
    status = status if golden_ok else "verification_failed"
    return status, results, [], csvs


_PIPELINES = {
    "equilibrium": _run_equilibrium,
    "analyze": _run_analyze,
    "design": _run_design,
    "casestudy": _run_casestudy,
}


def run_scenario(verb: str, cfg: ScenarioConfig, out_dir=None, seed=None) -> HarnessResult:
    """Execute one pipeline and write its artifacts.

    Returns a HarnessResult whose status is "ok" only when every verification
    in the pipeline passed; config errors raise ConfigError instead.
    """
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    out_dir = Path(out_dir if out_dir is not None else cfg.get("output_dir", "out"))

    if verb not in _PIPELINES:
        raise ConfigError(f"unknown pipeline verb {verb!r}")
    status, results, properties, csvs = _PIPELINES[verb](cfg)

    report = {
        "schema_version": SCHEMA_VERSION,
        "verb": verb,
        "seed": seed,
        "status": status,
        "tolerances": TOLERANCES,
        "results": results,
        "properties": properties,
    }
    artifacts = emit_report(out_dir, report, csvs)
    return HarnessResult(status, report, out_dir, artifacts)


def load_report_schema() -> dict:
    text = importlib.resources.files("lotterydesign").joinpath(
        "schemas/report.schema.json").read_text()
    return json.loads(text)


# The IEEE 30-bus case study of configs/case30.yaml, built in so that an
# installed selftest needs no config file; a test keeps the two equal.
CASE30_SCENARIO = {
    "alpha": 1.0,
    "reward_floor": 0.001,
    "constraints": {
        "source": "grid",
        "grid": {"case_file": "builtin:case30", "demand_scale": 1.3,
                 "rate_dollars_per_kwh": 0.1, "horizon_hours": 1.0},
    },
    "casestudy": {"coefficient_offset": 100},
    "golden": {
        "socially_optimal_good": {"value": 2317, "tol_abs": 0.5},
        "reward": {"value": 3358, "tol_rel": 0.005},
        "total_investment": {"value": 5675, "tol_rel": 0.005},
        "aggregate_payoff": {"value": 15644, "tol_rel": 0.001},
        "generation_total": {"value": 18921, "tol_abs": 0.5},
    },
}


def _selftest_cases(seed: int):
    """Yield (name, passed, detail) for the built-in check battery."""
    from .game import best_response_oracle

    profile2 = BenefitProfile.scaled_log([1.0, 1.0])
    inst2 = LotteryInstance(profile2)

    eq = solve_equilibrium(inst2, DesignPoint(1.0, np.zeros(2)))
    yield ("two_player_equilibrium",
           abs(eq.G - 0.5) <= 1e-9 and np.allclose(eq.s_star, 0.75, atol=1e-9),
           f"G={eq.G:.12f}")

    dp = DesignPoint(1.0, np.array([0.5, 0.5]))
    eq = solve_equilibrium(inst2, dp)
    yield ("optimal_budget_hits_optimum",
           abs(eq.G - 1.0) <= 1e-9 and np.allclose(eq.s_star, 1.0, atol=1e-9),
           f"G={eq.G:.12f}")

    rl = analysis.reward_threshold(profile2, np.zeros(2))
    yield ("reward_threshold", abs(rl - 1.0) <= 1e-9, f"R_L={rl:.12f}")

    poa1 = analysis.true_poa(inst2, DesignPoint(1.0, np.zeros(2)))
    yield ("poa_at_unit_reward", abs(poa1 - 1.2425) <= 1e-3, f"PoA={poa1:.6f}")

    poa_inf = analysis.true_poa(inst2, DesignPoint(1e6, np.zeros(2)))
    yield ("poa_limit", abs(poa_inf - 1.0) <= 1e-3, f"PoA={poa_inf:.8f}")

    problem = design_mod.DesignProblem(
        inst2, design_mod.ConstraintSet.empty(2), alpha=1.0)
    sol = design_mod.solve_design(problem)
    design_mod.verify_design(problem, sol)
    yield ("unconstrained_design",
           sol.status == "optimal"
           and abs(sol.design.reward - problem.reward_floor) <= 1e-9,
           f"R*={sol.design.reward:.6f}")

    rng = np.random.default_rng(seed)
    worst_foc, worst_margin, worst_gain = 0.0, math.inf, 0.0
    done = 0
    while done < 20:
        n = int(rng.integers(2, 5))
        coeffs = rng.uniform(0.6, 3.0, n)
        while coeffs.sum() <= 1.1:
            coeffs = rng.uniform(0.6, 3.0, n)
        profile = BenefitProfile.scaled_log(coeffs)
        inst = LotteryInstance(profile)
        g_star = profile.socially_optimal_good()
        if rng.random() < 0.5:
            c = np.zeros(n)
            reward = float(rng.uniform(0.1, 50.0))
        else:
            c = rng.uniform(0.0, g_star / n, n)
            reward = max(analysis.reward_threshold(profile, c), float(c.sum()))
            reward += float(rng.uniform(0.1, 10.0))
        dp = DesignPoint(reward, c)
        eq = solve_equilibrium(inst, dp)
        # Skip points where voiding the lottery beats a negative payoff: the
        # literal payoff has no pure equilibrium there.
        payoffs = [payoff(inst, dp, eq.s_star, i) for i in range(n)]
        total = float(eq.s_star.sum())
        if any(p < -1e-6 and total - eq.s_star[i] < reward
               for i, p in enumerate(payoffs)):
            continue
        done += 1
        worst_foc = max(worst_foc, eq.max_foc_violation)
        for check in analysis.check_properties(inst, dp, eq):
            if check.holds is not None:
                worst_margin = min(worst_margin, check.margin)
        i = int(rng.integers(0, n))
        br = best_response_oracle(inst, dp, np.delete(eq.s_star, i), i)
        trial = eq.s_star.copy()
        trial[i] = br
        gain = payoff(inst, dp, trial, i) - payoff(inst, dp, eq.s_star, i)
        worst_gain = max(worst_gain, gain)
    yield ("random_corpus_foc", worst_foc <= 1e-8, f"max residual {worst_foc:.2e}")
    yield ("random_corpus_properties", worst_margin >= -1e-7,
           f"min margin {worst_margin:.2e}")
    yield ("random_corpus_best_response", worst_gain <= 1e-5,
           f"max unilateral gain {worst_gain:.2e}")

    status, results, _, _ = _run_casestudy(ScenarioConfig(CASE30_SCENARIO, Path(".")))
    # A failed or infeasible design fails every golden row with it.
    rows = {row["name"]: row for row in results.get("golden", [])}
    for name in sorted(CASE30_SCENARIO["golden"]):
        row = rows.get(name, {"ok": False, "actual": math.nan})
        yield (f"golden_{name}", row["ok"] and status == "ok",
               f"{name}={row['actual']:.3f}, status {status}")


def run_selftest(seed: int = 0, out_dir=None) -> tuple[bool, list[str], dict]:
    """Run the property battery and golden-number checks.

    Returns (all passed, printable lines, report dict); writes report.json
    when out_dir is given.
    """
    lines, entries = [], []
    ok = True
    for name, passed, detail in _selftest_cases(seed):
        ok = ok and passed
        lines.append(f"SELFTEST {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        entries.append({"name": name, "ok": bool(passed), "detail": detail})
    report = {
        "schema_version": SCHEMA_VERSION,
        "verb": "selftest",
        "seed": int(seed),
        "status": "ok" if ok else "verification_failed",
        "tolerances": TOLERANCES,
        "results": {"checks": entries},
        "properties": [],
        "artifacts": [],
    }
    if out_dir is not None:
        emit_report(Path(out_dir), report, {})
    return ok, lines, report
