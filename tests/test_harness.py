import hashlib
import json
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from lotterydesign import ScenarioConfig, analysis, design, game, harness
from lotterydesign import run_scenario, run_selftest
from lotterydesign.cli import main as cli_main
from lotterydesign.errors import ConfigError
from lotterydesign.harness import CASE30_SCENARIO, _money, load_report_schema

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

I2_PLAYERS = """\
profile:
  players:
    - {player_id: 1, family: scaled_log, coefficient: 1.0}
    - {player_id: 2, family: scaled_log, coefficient: 1.0}
"""

CASESTUDY = """\
alpha: 1.0
seed: 0
constraints:
  source: grid
  grid:
    case_file: builtin:case30
    demand_scale: 1.3
    rate_dollars_per_kwh: 0.1
    horizon_hours: 1.0
casestudy:
  coefficient_offset: 100
golden:
  socially_optimal_good: {value: 2317, tol_abs: 0.5}
  reward: {value: 3358, tol_rel: 0.005}
  total_investment: {value: 5675, tol_rel: 0.005}
  aggregate_payoff: {value: 15644, tol_rel: 0.001}
  generation_total: {value: 18921, tol_abs: 0.5}
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def dir_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


@pytest.fixture(scope="module")
def schema():
    return load_report_schema()


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ScenarioConfig.from_file(tmp_path / "nope.yaml")

    def test_non_mapping_rejected(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            ScenarioConfig.from_file(path)

    def test_missing_profile_key(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, "alpha: 1\n"))
        with pytest.raises(ConfigError, match="profile"):
            run_scenario("equilibrium", cfg, out_dir=tmp_path / "out")

    def test_unknown_verb(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, I2_PLAYERS))
        with pytest.raises(ConfigError, match="verb"):
            run_scenario("optimize", cfg, out_dir=tmp_path / "out")

    def test_missing_case_file(self, tmp_path):
        text = CASESTUDY.replace("builtin:case30", "missing.m")
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="missing.m"):
            run_scenario("casestudy", cfg, out_dir=tmp_path / "out")


class TestEquilibriumVerb:
    def test_optimal_point(self, tmp_path, schema):
        text = I2_PLAYERS + "design_point: {reward: 1.0, perturbation: [0.5, 0.5]}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("equilibrium", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, schema)
        assert report["results"]["investments"] == pytest.approx([1.0, 1.0])
        assert report["results"]["public_good"] == pytest.approx(1.0)
        assert report["results"]["poa_true"] == pytest.approx(1.0)
        names = {p["property"] for p in report["properties"]}
        assert "payoff_sandwich" in names


class TestAnalyzeVerb:
    def test_sweep_monotone_poa(self, tmp_path, schema):
        text = I2_PLAYERS + (
            "sweep:\n  rewards: [1, 2, 5, 10, 100]\n"
            "  perturbation: [0, 0]\n")
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("analyze", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, schema)
        poa = [row["poa_true"] for row in report["results"]["sweep"]]
        assert poa == sorted(poa, reverse=True)
        assert poa[-1] < 1.001
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "reward,public_good,poa_true,poa_lower,poa_upper,g_lower,g_upper"
        assert len(lines) == 6
        assert lines[1].split(",")[4] == "+inf"  # vacuous bound at R = 1

    def test_empty_sweep_writes_header_only(self, tmp_path, schema):
        text = I2_PLAYERS + "sweep: {rewards: [], perturbation: [0, 0]}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("analyze", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, schema)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1


class TestDesignVerb:
    def test_unconstrained(self, tmp_path, schema):
        text = I2_PLAYERS + "alpha: 1.0\nconstraints: {source: none}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("design", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, schema)
        assert report["results"]["reward"] == pytest.approx(0.001)
        assert report["results"]["perturbation_total"] == pytest.approx(1.0)
        assert report["results"]["verification"]["all_active"] is True

    def test_inline_rows(self, tmp_path):
        text = I2_PLAYERS + (
            "alpha: 1.0\nconstraints:\n  source: inline\n  rows:\n"
            "    - {label: min_s1, s_coeffs: [-1, 0], r_coeff: 0.0, rhs: -2.0}\n")
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("design", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        assert result.report["results"]["reward"] == pytest.approx(2.0, abs=1e-8)
        assert "min_s1" in result.report["results"]["binding"]

    def test_infeasible_exits_nonzero_via_cli(self, tmp_path, capsys):
        text = I2_PLAYERS + (
            "constraints:\n  source: inline\n  rows:\n"
            "    - {label: lo, s_coeffs: [-1, 0], rhs: -2.0}\n"
            "    - {label: hi, s_coeffs: [1, 0], rhs: 1.0}\n")
        path = write_config(tmp_path, text)
        code = cli_main(["design", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "infeasible"

    def test_individual_rationality_toggle(self, tmp_path):
        force = ("    - {label: force_c1, s_coeffs: [-1, 0], r_coeff: 0.5, "
                 "rhs: -1.0}\n")
        base = I2_PLAYERS + ("constraints:\n  source: inline\n  rows:\n" + force)
        cfg = ScenarioConfig.from_file(write_config(tmp_path, base))
        assert run_scenario("design", cfg, out_dir=tmp_path / "a").status == "ok"
        with_ir = base + "individual_rationality: {enabled: true}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, with_ir, "ir.yaml"))
        result = run_scenario("design", cfg, out_dir=tmp_path / "b")
        assert result.status == "infeasible"

    @pytest.mark.parametrize("verb, text", [("design", I2_PLAYERS),
                                            ("casestudy", CASESTUDY)],
                             ids=["design", "casestudy"])
    def test_removed_encoding_key_rejected(self, tmp_path, verb, text):
        text += "individual_rationality: {enabled: true, encoding: simplified}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="individual_rationality.encoding"):
            run_scenario(verb, cfg, out_dir=tmp_path / "out")


class TestCasestudyVerb:
    def test_golden_numbers_and_artifacts(self, tmp_path, schema):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, CASESTUDY))
        result = run_scenario("casestudy", cfg, out_dir=tmp_path / "out")
        assert result.status == "ok"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, schema)
        golden = {g["name"]: g for g in report["results"]["golden"]}
        assert all(g["ok"] for g in golden.values())
        assert golden["reward"]["actual"] == pytest.approx(3358.0, rel=5e-3)

        lines = (tmp_path / "out" / "lines.csv").read_text().splitlines()
        assert len(lines) == 42  # header + 41 branches
        for row in lines[1:]:
            assert float(row.split(",")[3]) <= 100.0 + 1e-6
        allocation = (tmp_path / "out" / "allocation.csv").read_text().splitlines()
        assert allocation[0] == "bus,c_star,s_star"
        assert len(allocation) == 21
        demand = (tmp_path / "out" / "demand.csv").read_text().splitlines()
        assert len(demand) == 21
        adjusted = sum(float(r.split(",")[2]) for r in demand[1:])
        assert adjusted == pytest.approx(18921.0, abs=0.5)
        for row in lines + allocation + demand:
            assert "-0.00" not in row.split(",")

    def test_money_never_prints_negative_zero(self):
        assert _money(-0.0) == "0.00"
        assert _money(-1e-9) == "0.00"
        assert _money(-0.004) == "0.00"
        assert _money(-0.006) == "-0.01"
        assert _money(2317.0) == "2317.00"

    def test_golden_mismatch_reported_not_forced(self, tmp_path):
        text = CASESTUDY.replace("{value: 3358, tol_rel: 0.005}",
                                 "{value: 3000, tol_rel: 0.005}")
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        result = run_scenario("casestudy", cfg, out_dir=tmp_path / "out")
        assert result.status == "verification_failed"
        golden = {g["name"]: g for g in result.report["results"]["golden"]}
        assert golden["reward"]["ok"] is False
        assert golden["reward"]["actual"] == pytest.approx(3358.0, rel=5e-3)


class TestSinglePass:
    """Each pipeline solves, verifies and bounds each point once."""

    def test_casestudy_solves_the_equilibrium_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return game.solve_equilibrium(*args, **kwargs)

        for module in (harness, design, analysis):
            monkeypatch.setattr(module, "solve_equilibrium", counted)
        cfg = ScenarioConfig.from_file(CONFIGS / "case30.yaml")
        assert run_scenario("casestudy", cfg, out_dir=tmp_path).status == "ok"
        assert len(calls) == 1

    def test_analyze_bounds_each_reward_once_per_variant(self, tmp_path, monkeypatch):
        raw = analysis._compute_bounds
        variants = []

        def counted(profile, design_point, variant, strict):
            variants.append(variant)
            return raw(profile, design_point, variant, strict)

        monkeypatch.setattr(analysis, "_compute_bounds", counted)
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        assert len(cfg.require("sweep")["rewards"]) == 5
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "ok"
        assert Counter(variants) == {"statement": 5, "proof": 5}

    def test_selftest_case30_matches_config(self):
        config = ScenarioConfig.from_file(CONFIGS / "case30.yaml")
        for key in ("constraints", "casestudy", "alpha", "reward_floor", "golden"):
            assert CASE30_SCENARIO[key] == config.require(key), key


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        text = I2_PLAYERS + (
            "sweep:\n  rewards: [1, 5, 10]\n  perturbation: [0, 0]\n")
        path = write_config(tmp_path, text)
        for name in ("one", "two"):
            cfg = ScenarioConfig.from_file(path)
            run_scenario("analyze", cfg, out_dir=tmp_path / name)
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")

    def test_casestudy_deterministic(self, tmp_path):
        path = write_config(tmp_path, CASESTUDY)
        for name in ("one", "two"):
            cfg = ScenarioConfig.from_file(path)
            run_scenario("casestudy", cfg, out_dir=tmp_path / name)
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli_main(["design", "--config", str(tmp_path / "missing.yaml")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_ok_exit_code(self, tmp_path, capsys):
        text = I2_PLAYERS + "design_point: {reward: 1.0, perturbation: [0.5, 0.5]}\n"
        path = write_config(tmp_path, text)
        code = cli_main(["equilibrium", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "status=ok" in capsys.readouterr().out

    def test_env_output_override(self, tmp_path, monkeypatch, capsys):
        text = I2_PLAYERS + "design_point: {reward: 1.0, perturbation: [0.5, 0.5]}\n"
        path = write_config(tmp_path, text)
        monkeypatch.setenv("LOTTERYDESIGN_OUT", str(tmp_path / "from_env"))
        assert cli_main(["equilibrium", "--config", str(path)]) == 0
        assert (tmp_path / "from_env" / "report.json").is_file()


class TestSelftest:
    def test_selftest_passes_and_reports(self, tmp_path, schema):
        ok, lines, report = run_selftest(seed=0, out_dir=tmp_path / "out")
        assert ok
        assert all(line.startswith("SELFTEST ") for line in lines)
        jsonschema.validate(report, schema)
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(on_disk, schema)
