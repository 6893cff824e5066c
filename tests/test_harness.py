import contextlib
import csv
import hashlib
import importlib.resources
import io
import json
import math
import pkgutil
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import lotterydesign
from lotterydesign import ScenarioConfig, analysis, benefit, design, game, harness
from lotterydesign import BenefitProfile, DesignPoint, run_scenario, run_selftest
from lotterydesign.cli import main as cli_main
from lotterydesign.errors import ConfigError
from lotterydesign.harness import CASE30_SCENARIO, _money, _report_json

from oracles import poa_bounds

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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


# (verb, scenario text, key the ConfigError names): sections that are not
# mappings, mappings without a key the pipeline reads, and fields that are not
# numbers or not of the players' length.
INLINE = I2_PLAYERS + "constraints: {source: inline, rows: [%s]}\n"
POINT = I2_PLAYERS + "design_point: {reward: 1, perturbation: %s}\n"
SWEEP = I2_PLAYERS + "sweep: {rewards: %s, perturbation: %s}\n"
MALFORMED = [
    pytest.param("equilibrium", "profile: {players: [1.0, 2.0]}\ndesign_point: {reward: 1}\n",
                 "profile.players[0]", id="player"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: 3\n", "design_point",
                 id="design_point"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: {perturbation: [0, 0]}\n",
                 "reward", id="reward"),
    pytest.param("analyze", I2_PLAYERS + "sweep: [1, 2]\n", "sweep", id="sweep"),
    pytest.param("design", I2_PLAYERS + "constraints: inline\n", "constraints",
                 id="constraints"),
    pytest.param("design", INLINE % "3", "constraints.rows[0]", id="row"),
    pytest.param("design", INLINE % "{s_coeffs: [-1, 0]}", "rhs", id="row_rhs"),
    pytest.param("design", INLINE % "{rhs: -2.0}", "s_coeffs", id="row_s_coeffs"),
    pytest.param("design", INLINE % "{s_coeffs: [-1, 0], rhs: -2.0}, {s_coeffs: [1], rhs: 5}",
                 "constraints.rows[1].s_coeffs", id="row_s_coeffs_ragged"),
    pytest.param("design", INLINE % "{s_coeffs: [1.0, x], rhs: 1}",
                 "constraints.rows[0].s_coeffs", id="row_s_coeffs_not_a_number"),
    pytest.param("design", INLINE % "{s_coeffs: 5, rhs: 1}", "constraints.rows[0].s_coeffs",
                 id="row_s_coeffs_scalar"),
    pytest.param("design", INLINE % "{s_coeffs: [-1, 0], rhs: [1]}", "constraints.rows[0].rhs",
                 id="row_rhs_list"),
    pytest.param("design", INLINE % ("{s_coeffs: [-1, 0], rhs: 1%s}" % ("0" * 400)),
                 "constraints.rows[0].rhs", id="row_rhs_overflows"),
    pytest.param("design", INLINE % ("{s_coeffs: [-1, 0], r_coeff: 1%s, rhs: 1}" % ("0" * 400)),
                 "constraints.rows[0].r_coeff", id="row_r_coeff_overflows"),
    pytest.param("design", INLINE % "{s_coeffs: [1, 0, 0], rhs: 1}",
                 "constraints.rows[0].s_coeffs", id="row_s_coeffs_player_count"),
    pytest.param("design", INLINE % "{s_coeffs: [true, 0], r_coeff: false, rhs: true}",
                 "constraints.rows[0].s_coeffs", id="row_bools"),
    pytest.param("design", INLINE % "{s_coeffs: [-1, 0], r_coeff: false, rhs: 1}",
                 "constraints.rows[0].r_coeff", id="row_r_coeff_bool"),
    pytest.param("design", INLINE % "{s_coeffs: [-1, 0], rhs: -2.0}, {s_coeffs: [-1, 0], rhs: yes}",
                 "constraints.rows[1].rhs", id="row_rhs_bool"),
    pytest.param("design", I2_PLAYERS + "individual_rationality: true\n",
                 "individual_rationality", id="individual_rationality"),
    pytest.param("design", I2_PLAYERS + "individual_rationality: {enabled: 'false'}\n",
                 "individual_rationality.enabled", id="individual_rationality_enabled_string"),
    pytest.param("casestudy", CASESTUDY.replace("  grid:\n", "  grid: builtin:case30\n  x:\n"),
                 "constraints.grid", id="grid"),
    pytest.param("casestudy", CASESTUDY.replace("builtin:case30", "5"),
                 "constraints.grid.case_file", id="case_file_not_a_string"),
    pytest.param("casestudy", CASESTUDY.replace("casestudy:\n  coefficient_offset: 100",
                                                "casestudy: 100"), "casestudy", id="casestudy"),
    pytest.param("casestudy", CASESTUDY.split("golden:")[0] + "golden: [reward]\n", "golden",
                 id="golden"),
    pytest.param("equilibrium", I2_PLAYERS.replace("coefficient: 1.0}", "coefficient: x}", 1)
                 + "design_point: {reward: 1}\n", "profile.players[0].coefficient",
                 id="coefficient_not_a_number"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: {reward: x}\n",
                 "design_point.reward", id="reward_not_a_number"),
    pytest.param("equilibrium", POINT % "[0, x]", "design_point.perturbation",
                 id="perturbation_not_a_number"),
    pytest.param("equilibrium", POINT % "[0, 0, 0]", "design_point.perturbation",
                 id="perturbation_player_count"),
    pytest.param("equilibrium", POINT % "0", "design_point.perturbation",
                 id="perturbation_scalar"),
    pytest.param("equilibrium", POINT % "[0, 0]" + "seed: x\n", "seed", id="seed_not_a_number"),
    pytest.param("analyze", SWEEP % ("[1, x]", "[0, 0]"), "sweep.rewards",
                 id="rewards_not_a_number"),
    pytest.param("analyze", SWEEP % ("5", "[0, 0]"), "sweep.rewards", id="rewards_scalar"),
    pytest.param("analyze", SWEEP % ('"25"', "[0, 0]"), "sweep.rewards", id="rewards_string"),
    pytest.param("analyze", SWEEP % ("{25: 1}", "[0, 0]"), "sweep.rewards", id="rewards_mapping"),
    pytest.param("analyze", SWEEP % ("[1]", "x"), "sweep.perturbation",
                 id="sweep_perturbation_not_a_number"),
    pytest.param("analyze", SWEEP % ("[1]", "[0]"), "sweep.perturbation",
                 id="sweep_perturbation_player_count"),
    pytest.param("design", I2_PLAYERS + "alpha: x\n", "alpha", id="alpha_not_a_number"),
    pytest.param("design", I2_PLAYERS + "reward_floor: x\n", "reward_floor",
                 id="reward_floor_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("coefficient_offset: 100", "coefficient_offset: x"),
                 "casestudy.coefficient_offset", id="coefficient_offset_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("demand_scale: 1.3", "demand_scale: x"),
                 "constraints.grid.demand_scale", id="demand_scale_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("rate_dollars_per_kwh: 0.1",
                                                "rate_dollars_per_kwh: [0.1]"),
                 "constraints.grid.rate_dollars_per_kwh", id="rate_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("horizon_hours: 1.0", "horizon_hours: x"),
                 "constraints.grid.horizon_hours", id="horizon_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: x, tol_abs: 0.5}"),
                 "golden.socially_optimal_good.value", id="golden_value_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: 2317, tol_abs: x}"),
                 "golden.socially_optimal_good.tol_abs", id="golden_tol_abs_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 3358, tol_rel: 0.005}",
                                                "{value: 3358, tol_rel: x}"),
                 "golden.reward.tol_rel", id="golden_tol_rel_not_a_number"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 3358, tol_rel: 0.005}", "3358"),
                 "golden.reward", id="golden_row"),
    # Numbers out of their field's range.
    pytest.param("equilibrium", I2_PLAYERS.replace("coefficient: 1.0}", "coefficient: 0}", 1)
                 + "design_point: {reward: 1}\n", "profile.players[0].coefficient",
                 id="coefficient_nonpositive"),
    pytest.param("equilibrium", I2_PLAYERS.replace("coefficient: 1.0}", "coefficient: 0.3}")
                 + "design_point: {reward: 1}\n", "profile.players", id="coefficients_sum_to_one"),
    pytest.param("casestudy", CASESTUDY.replace("coefficient_offset: 100",
                                                "coefficient_offset: -1000"),
                 "casestudy.coefficient_offset", id="coefficient_offset_nonpositive"),
    pytest.param("casestudy", CASESTUDY.replace("coefficient_offset: 100",
                                                "coefficient_offset: -1.0e400"),
                 "casestudy.coefficient_offset", id="coefficient_offset_not_finite"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: {reward: 0}\n",
                 "design_point.reward", id="reward_nonpositive"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: {reward: .inf}\n",
                 "design_point.reward", id="reward_not_finite"),
    pytest.param("equilibrium", POINT % "[-1, 0]", "design_point.perturbation",
                 id="perturbation_negative"),
    pytest.param("equilibrium", POINT % "[0, .nan]", "design_point.perturbation",
                 id="perturbation_nan"),
    pytest.param("analyze", SWEEP % ("[1]", "[0, -1]"), "sweep.perturbation",
                 id="sweep_perturbation_negative"),
    pytest.param("analyze", SWEEP % ("[1]", "[.nan, 0]"), "sweep.perturbation",
                 id="sweep_perturbation_nan"),
    pytest.param("analyze", SWEEP % ("[1, 0]", "[0, 0]"), "sweep.rewards",
                 id="rewards_nonpositive"),
    pytest.param("analyze", SWEEP % ("[]", "[0, 0]"), "sweep.rewards", id="rewards_empty"),
    pytest.param("analyze", I2_PLAYERS + "sweep: {perturbation: [0, 0]}\n", "sweep.rewards",
                 id="rewards_missing"),
    pytest.param("design", I2_PLAYERS + "alpha: -1\n", "alpha", id="alpha_negative"),
    pytest.param("design", I2_PLAYERS + "alpha: .nan\n", "alpha", id="alpha_nan"),
    pytest.param("design", I2_PLAYERS + "reward_floor: 0\n", "reward_floor",
                 id="reward_floor_nonpositive"),
    pytest.param("design", I2_PLAYERS + "reward_floor: .inf\n", "reward_floor",
                 id="reward_floor_inf"),
    pytest.param("design", I2_PLAYERS + "reward_floor: 1.0e-9\n",
                 "reward_floor must be finite and above the simplex pivot tolerance 1e-09",
                 id="reward_floor_at_pivot_tol"),
    pytest.param("casestudy", CASESTUDY.replace("demand_scale: 1.3", "demand_scale: 0"),
                 "constraints.grid.demand_scale", id="demand_scale_nonpositive"),
    pytest.param("casestudy", CASESTUDY.replace("rate_dollars_per_kwh: 0.1",
                                                "rate_dollars_per_kwh: -0.1"),
                 "constraints.grid.rate_dollars_per_kwh", id="rate_nonpositive"),
    pytest.param("casestudy", CASESTUDY.replace("horizon_hours: 1.0", "horizon_hours: 0"),
                 "constraints.grid.horizon_hours", id="horizon_nonpositive"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: 2317, tol_abs: -0.5}"),
                 "golden.socially_optimal_good.tol_abs", id="golden_tol_abs_negative"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: 2317, tol_abs: .nan}"),
                 "golden.socially_optimal_good.tol_abs", id="golden_tol_abs_nan"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 3358, tol_rel: 0.005}",
                                                "{value: 3358, tol_rel: -1}"),
                 "golden.reward.tol_rel", id="golden_tol_rel_negative"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 3358, tol_rel: 0.005}",
                                                "{value: .nan, tol_rel: 0.005}"),
                 "golden.reward.value", id="golden_value_nan"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: .inf, tol_abs: 0.5}"),
                 "golden.socially_optimal_good.value", id="golden_value_inf"),
    pytest.param("equilibrium", POINT % "[0, 0]" + "seed: 1.5\n", "seed",
                 id="seed_not_an_integer"),
    pytest.param("equilibrium", POINT % "[0, 0]" + "seed: true\n", "seed", id="seed_bool"),
    # Values a report echoes, or that name its output, of a type it cannot hold.
    pytest.param("equilibrium", I2_PLAYERS.replace("player_id: 1,", "player_id: 2020-01-01,")
                 + "design_point: {reward: 1}\n", "profile.players[0].player_id",
                 id="player_id_date"),
    pytest.param("equilibrium", I2_PLAYERS.replace("player_id: 2,", "player_id: 2.5,")
                 + "design_point: {reward: 1}\n", "profile.players[1].player_id",
                 id="player_id_float"),
    pytest.param("equilibrium", POINT % "[0, 0]" + "output_dir: 5\n", "output_dir",
                 id="output_dir_not_a_string"),
    pytest.param("equilibrium", POINT % "[0, 0]" + "output_dir:\n", "output_dir",
                 id="output_dir_empty"),
    pytest.param("casestudy", CASESTUDY + "  1: {value: 1, tol_abs: 1}\n", "golden",
                 id="golden_name_not_a_string"),
    # Bools where a number is expected: float() would read them as 1.0 and 0.0.
    pytest.param("equilibrium", I2_PLAYERS.replace("coefficient: 1.0}", "coefficient: true}", 1)
                 + "design_point: {reward: 1}\n", "profile.players[0].coefficient",
                 id="coefficient_bool"),
    pytest.param("equilibrium", I2_PLAYERS + "design_point: {reward: true}\n",
                 "design_point.reward", id="reward_bool"),
    pytest.param("equilibrium", POINT % "[false, 0]", "design_point.perturbation",
                 id="perturbation_bool"),
    pytest.param("analyze", SWEEP % ("[true, 2]", "[0, 0]"), "sweep.rewards", id="rewards_bool"),
    pytest.param("analyze", SWEEP % ("[1]", "[0, false]"), "sweep.perturbation",
                 id="sweep_perturbation_bool"),
    pytest.param("design", I2_PLAYERS + "alpha: true\n", "alpha", id="alpha_bool"),
    pytest.param("design", I2_PLAYERS + "reward_floor: true\n", "reward_floor",
                 id="reward_floor_bool"),
    pytest.param("casestudy", CASESTUDY.replace("coefficient_offset: 100",
                                                "coefficient_offset: true"),
                 "casestudy.coefficient_offset", id="coefficient_offset_bool"),
    pytest.param("casestudy", CASESTUDY.replace("demand_scale: 1.3", "demand_scale: true"),
                 "constraints.grid.demand_scale", id="demand_scale_bool"),
    pytest.param("casestudy", CASESTUDY.replace("{value: 2317, tol_abs: 0.5}",
                                                "{value: 2317, tol_abs: true}"),
                 "golden.socially_optimal_good.tol_abs", id="golden_tol_abs_bool"),
]


def entry_config(coefficients, perturbation):
    """A scenario with these YAML tokens as its players' coefficients and as
    the perturbation of its design point and of its sweep."""
    players = "".join(f"    - {{player_id: {k}, coefficient: {a}}}\n"
                      for k, a in enumerate(coefficients, 1))
    c = ", ".join(perturbation)
    return (f"profile:\n  players:\n{players}design_point: {{reward: 1.0, perturbation: [{c}]}}\n"
            f"sweep: {{rewards: [1.0, 2.0], perturbation: [{c}]}}\n")


# Malformed entries, and a total past the largest float, of the lists that are
# checked on floats up to game._FLOAT_PLAYERS players and on numpy vectors
# above it, at 2 and at 40 players, each also a MALFORMED case: (verb,
# scenario text, the ConfigError's text).
BAD_ENTRIES = {"null": "null", "nan": ".nan", "inf": ".inf", "negative": "-1.0",
               "bool": "true", "list": "[1.0]", "string": "x"}
ENTRY_ERRORS = []
for n in (2, 40):
    ones, zeros = ["1.0"] * (n - 1), ["0.0"] * (n - 1)
    cases = [("equilibrium", f"coefficients_sum_below_one_{n}",
              entry_config([repr(0.5 / n)] * n, ["0.0"] * n), "profile.players",
              "profile.players: aggregate marginal at zero must exceed 1, got 0.5")]
    for kind, entry in BAD_ENTRIES.items():
        number = kind in ("nan", "inf", "negative")
        key = "profile.players[0].coefficient"
        cases.append(("equilibrium", f"coefficient_{kind}_{n}",
                      entry_config([entry] + ones, ["0.0"] * n), key,
                      f"{key} must be a " + ("finite number > 0" if number else "number")))
        for verb, key in (("equilibrium", "design_point.perturbation"),
                          ("analyze", "sweep.perturbation")):
            cases.append((verb, f"{verb}_perturbation_{kind}_{n}",
                          entry_config(["1.0"] + ones, [entry] + zeros), key,
                          f"{key}: perturbation entries must be finite and >= 0"
                          if number or kind == "null"
                          else f"{key} must be a list of {n} numbers"))
    for verb, key in (("equilibrium", "design_point.perturbation"),
                      ("analyze", "sweep.perturbation")):
        cases.append((verb, f"{verb}_perturbation_total_past_the_largest_float_{n}",
                      entry_config(["1.0"] * n, ["1.0e308", "1.0e308"] + zeros[1:]), key,
                      f"{key}: perturbation total must be finite"))
    for verb, name, text, key, message in cases:
        ENTRY_ERRORS.append(pytest.param(verb, text, message, id=name))
        MALFORMED.append(pytest.param(verb, text, key, id=f"entry_{name}"))


# Every module that selects the float or the numpy form by player count.
FORM_MODULES = [module for module in (
    importlib.import_module(f"lotterydesign.{info.name}")
    for info in pkgutil.iter_modules(lotterydesign.__path__)) if hasattr(module, "_FLOAT_PLAYERS")]


@contextlib.contextmanager
def numpy_forms():
    """Every design point built, solved and graded on numpy vectors."""
    with contextlib.ExitStack() as stack:
        for module in FORM_MODULES:
            stack.enter_context(mock.patch.object(module, "_FLOAT_PLAYERS", 0))
        yield


# A two-bus MATPOWER-subset case: the reference bus 1 feeds a 10 MW load at bus 2.
TWO_BUS_CASE = """\
mpc.baseMVA = 100;
mpc.bus = [
	1	3	0;
	2	1	10;
];
mpc.gen = [
	1	10;
];
mpc.branch = [
	1	2	0	0.1	0	50;
];
"""


def read_yaml(text, loader=harness._YAML_LOADER):
    """`harness._load_yaml(text, loader)`'s document, and the reader that built it.

    "block" for the line reader, "yaml.load" when it handed the text on.
    """
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        value = harness._load_yaml(text, loader)[0]
    return value, "yaml.load" if load.called else "block"


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
    resource = importlib.resources.files("lotterydesign").joinpath("schemas/report.schema.json")
    return json.loads(resource.read_text())


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ScenarioConfig.from_file(tmp_path / "nope.yaml")

    def test_non_mapping_rejected(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            ScenarioConfig.from_file(path)

    def test_malformed_yaml_rejected(self, tmp_path):
        path = write_config(tmp_path, "profile: {players: [\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            ScenarioConfig.from_file(path)

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="libyaml not built")
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_loaders_agree_on_shipped_configs(self, path):
        # The C loader is used when present; the reader must build the same
        # dict with it and with the pure-Python loader.
        text = path.read_text()
        expected = repr(yaml.load(text, Loader=yaml.CSafeLoader))
        assert repr(yaml.load(text, Loader=yaml.SafeLoader)) == expected
        assert repr(ScenarioConfig.from_file(path).raw) == expected
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            assert repr(harness._load_yaml(text, loader)[0]) == expected

    def test_missing_profile_key(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, "alpha: 1\n"))
        with pytest.raises(ConfigError, match="profile"):
            run_scenario("equilibrium", cfg, out_dir=tmp_path / "out")

    def test_unknown_verb(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, I2_PLAYERS))
        with pytest.raises(ConfigError, match="verb"):
            run_scenario("optimize", cfg, out_dir=tmp_path / "out")

    @pytest.mark.parametrize("verb, text, key", MALFORMED)
    def test_malformed_section_raises_config_error(self, tmp_path, verb, text, key):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_scenario(verb, cfg, out_dir=tmp_path / "out")

    @pytest.mark.parametrize("verb, text, key", MALFORMED)
    def test_malformed_section_exits_one_via_cli(self, tmp_path, capsys, verb, text, key):
        path = write_config(tmp_path, text)
        code = cli_main([verb, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("verb, text, message", ENTRY_ERRORS)
    def test_entry_errors_keep_their_text(self, tmp_path, verb, text, message):
        # The float checks raise numpy's errors, on either side of the cutoff.
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        for forms in (contextlib.nullcontext, numpy_forms):
            with forms(), pytest.raises(ConfigError) as info:
                run_scenario(verb, cfg, out_dir=tmp_path / "out")
            assert str(info.value) == message

    @pytest.mark.parametrize("n", [2, 40])
    def test_numeric_strings_are_numbers(self, tmp_path, n):
        # YAML 1.1 reads an undotted 1e3 as a string, and numpy's conversion
        # reads that string as 1000.0.
        for verb in ("equilibrium", "analyze"):
            reports = []
            for a, c in (("1e3", "1e-1"), ("1000.0", "0.1")):
                cfg = ScenarioConfig.from_file(write_config(
                    tmp_path, entry_config([a] + ["1.0"] * (n - 1), [c] + ["0.0"] * (n - 1))))
                out = tmp_path / a
                run_scenario(verb, cfg, out_dir=out)
                reports.append((out / "report.json").read_bytes())
            assert cfg.raw["sweep"]["perturbation"][0] == 0.1
            assert reports[0] == reports[1]

    def test_config_seed_is_checked_when_overridden(self, tmp_path, capsys):
        # As output_dir is: a bad value in the file is an error whatever overrides it.
        path = write_config(tmp_path, POINT % "[0, 0]" + "seed: x\n")
        with pytest.raises(ConfigError, match="seed"):
            run_scenario("equilibrium", ScenarioConfig.from_file(path), out_dir=tmp_path / "out",
                         seed=3)
        code = cli_main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--seed", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err

    @pytest.mark.parametrize("old, new, key", [
        ("  generation_total:", "  1:", "golden"),
        ("  generation_total:", "  load_total:", "golden"),
        ("{value: 2317, tol_abs: 0.5}", "{value: 2317}", "golden"),
        ("{value: 3358, tol_rel: 0.005}", "{value: .nan, tol_rel: 0.005}", "golden.reward.value"),
        ("{value: 2317, tol_abs: 0.5}", "{value: 2317, tol_abs: -0.5}",
         "golden.socially_optimal_good.tol_abs"),
        ("{value: 3358, tol_rel: 0.005}", "{value: 3358, tol_rel: x}", "golden.reward.tol_rel"),
    ], ids=["name_not_a_string", "unknown_target", "no_tolerance", "value_nan",
            "tol_abs_negative", "tol_rel_not_a_number"])
    def test_golden_section_is_checked_before_the_solve(self, tmp_path, old, new, key):
        cfg = ScenarioConfig.from_file(write_config(tmp_path, CASESTUDY.replace(old, new)))
        with mock.patch.object(design, "solve_lp", wraps=design.solve_lp) as solve_lp:
            with pytest.raises(ConfigError, match=re.escape(key)):
                run_scenario("casestudy", cfg, out_dir=tmp_path / "out")
        assert solve_lp.call_count == 0

    def test_golden_section_is_compared_after_the_solve(self, tmp_path):
        # The counting wrapper above sees the casestudy's one solve.
        cfg = ScenarioConfig.from_file(write_config(tmp_path, CASESTUDY))
        with mock.patch.object(design, "solve_lp", wraps=design.solve_lp) as solve_lp:
            result = run_scenario("casestudy", cfg, out_dir=tmp_path / "out")
        assert solve_lp.call_count == 1
        assert [row["name"] for row in result.report["results"]["golden"]] == sorted(
            CASE30_SCENARIO["golden"])

    def test_missing_case_file(self, tmp_path):
        text = CASESTUDY.replace("builtin:case30", "missing.m")
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="missing.m"):
            run_scenario("casestudy", cfg, out_dir=tmp_path / "out")

    @pytest.mark.parametrize("old, new, message", [
        ("\t2\t1\t10;", "\t2\t1\tten;", "line 4: non-numeric field 'ten' in table 'bus'"),
        ("\t0.1\t0\t50;", "\t0\t0\t50;", "branch 1-2 needs positive reactance"),
        ("= 100;", "= 1.0.0;", "non-numeric scalar 'baseMVA' '1.0.0'"),
        ("\t1\t3\t0;", "\tnan\t3\t0;", "line 3: bus_id 'nan' in table 'bus' is not an integer"),
        ("\t2\t1\t10;", "\t2\tinf\t10;",
         "line 4: bus_type 'inf' in table 'bus' is not an integer"),
        ("gen = [\n\t1\t", "gen = [\n\t1e400\t",
         "line 7: bus_id '1e400' in table 'gen' is not an integer"),
        ("\t1\t2\t0\t0.1", "\t1.5\t2\t0\t0.1",
         "line 10: from_bus '1.5' in table 'branch' is not an integer"),
    ], ids=["non_numeric_field", "zero_reactance", "non_numeric_base_mva", "nan_bus_id",
            "inf_bus_type", "overflowing_gen_bus", "fractional_branch_end"])
    def test_bad_case_file_is_a_config_error(self, tmp_path, capsys, old, new, message):
        (tmp_path / "two_bus.m").write_text(TWO_BUS_CASE.replace(old, new))
        path = write_config(tmp_path, CASESTUDY.replace("builtin:case30", "two_bus.m"))
        expected = f"constraints.grid.case_file: {message}"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            run_scenario("casestudy", ScenarioConfig.from_file(path), out_dir=tmp_path / "out")
        code = cli_main(["casestudy", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert expected in capsys.readouterr().err


# Plain scalars that resolve to something other than a str, or look as if
# they might: YAML 1.1 reads "1e3" as a str and "012" as octal.
_TRICKY = ["1e3", "1.0e3", "012", "0x1F", "0b101", "1_000", "1:30", "190:20:30.15", "yes", "Off",
           "~", "null", "", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "-0.0", ".inf",
           "-.inf", ".NaN", "+1", "-0", ".5", "1.", "1.5e+3", "<<", "=", "- a", "a: b", "#"]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(_TRICKY) | st.text(max_size=6))
_KEYS = st.sampled_from(_TRICKY) | st.text(max_size=6) | st.integers() | st.floats()
_DOCUMENTS = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=24)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_BLOCK_LINE = harness._BLOCK_LINE
_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
_LARGE = yaml.dump({"rows": [{"s_coeffs": [0.5] * 60, "rhs": 1.0}] * 40}, Dumper=_DUMPER)
_BLOCK = yaml.dump({"rows": [{"rhs": float(k), "s_coeffs": [0.5] * 60} for k in range(40)]},
                   Dumper=_DUMPER)


def _plain_name(name):
    """Whether the dumper writes `name` as a plain scalar that reads back as itself."""
    try:
        return (yaml.dump(name, Dumper=_DUMPER).startswith(f"{name}\n")
                and yaml.load(name, Loader=yaml.SafeLoader) == name)
    except yaml.YAMLError:
        return False


# Documents the dumper writes as plain tokens in block style: no nested list
# (written "- - "), no empty collection (written "[]" or "{}"), no string it
# would quote, and keys short enough to be written without "? ".
_NAMES = st.from_regex(r"[A-Za-z0-9_.+][A-Za-z0-9_.+-]{0,7}", fullmatch=True).filter(_plain_name)
_TOKENS = st.none() | st.booleans() | st.integers() | st.floats() | _NAMES
# Long lists drawn from a small pool, as a design file's rows are: runs of
# "- token" items that repeat a few tokens, with new ones mid-run.
_LONG_LISTS = st.lists(_TOKENS, min_size=1, max_size=5, unique_by=repr).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80))
_TOKEN_MAPPINGS = st.recursive(
    st.dictionaries(_TOKENS, _TOKENS, min_size=1, max_size=4),
    lambda kids: st.dictionaries(_TOKENS, _TOKENS | kids | _LONG_LISTS
                                 | st.lists(_TOKENS | kids, min_size=1, max_size=4),
                                 min_size=1, max_size=4),
    max_leaves=24)


_EDITS = ["none", "add", "drop", "rename", "repeat", "run_length", "run_null", "deeper",
          "not_token", "no_newline"]


@st.composite
def record_texts(draw):
    """PyYAML's text of a sequence of 2-30 mappings with the same 1-5 keys in
    the same order, each key's value a token in every mapping or a run of
    tokens in every mapping, nested 0-2 mappings deep; then one mapping
    edited (see `edit_record`). Returns the text and the edit."""
    keys = draw(st.lists(_NAMES | st.integers(-99, 99), min_size=1, max_size=5, unique_by=repr))
    runs = [draw(st.booleans()) for _ in keys]
    # The values come from a drawn pool, picked by a seeded generator: drawing
    # each of up to 900 values would take most of the test's time.
    pool = draw(st.lists(_TOKENS, min_size=1, max_size=5, unique_by=repr))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    siblings = [{key: rng.choices(pool, k=rng.randint(1, 6)) if run else rng.choice(pool)
                 for key, run in zip(keys, runs)} for _ in range(draw(st.integers(2, 30)))]
    document = {"items": siblings}
    for _ in range(draw(st.integers(0, 2))):
        document = {"outer": document}
    if draw(st.booleans()):
        document["tail"] = 1
    text = yaml.dump(document, Dumper=_DUMPER, default_flow_style=False, sort_keys=False)
    edit = draw(st.sampled_from(_EDITS))
    return edit_record(text, edit, draw(st.integers(0, 10 ** 6))), edit


def edit_record(text, edit, k):
    """`text` with one mapping of its "items" sequence edited as `edit` names,
    the mapping and the field chosen by k."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.lstrip() == "items:")
    dash = lines[at][:-len("items:")] + "- "
    keys = " " * len(dash)
    starts = [i for i, line in enumerate(lines) if line.startswith(dash)]
    start = starts[k % len(starts)]
    stop = start + 1
    while stop < len(lines) and lines[stop].startswith(keys):
        stop += 1
    item = lines[start:stop]
    # Each field's lines: its key line, then its run's items.
    heads = [i for i, line in enumerate(item) if not line.startswith(keys + "- ")]
    fields = [item[a:b] for a, b in zip(heads, heads[1:] + [len(item)])]
    f = k % len(fields)
    field = fields[f]
    runs = [g for g in fields if len(g) > 1]
    if edit == "add":
        item.append(keys + "added: 1")
    elif edit == "drop":
        del fields[f]
        if fields and f == 0:
            fields[0][0] = dash + fields[0][0][len(keys):]
        item = sum(fields, [])
    elif edit == "rename":  # a "." in the key made "x", which a regex "." would match
        colon = field[0].index(":", len(keys))
        name = field[0][len(keys):colon]
        name = name.replace(".", "x", 1) if "." in name else "renamed"
        field[0] = field[0][:len(keys)] + name + field[0][colon:]
        item = sum(fields, [])
    elif edit == "repeat":
        item += [keys + field[0][len(keys):]] + field[1:]
    elif edit in ("run_length", "run_null") and runs:
        run = runs[k % len(runs)]
        if edit == "run_null":
            del run[1:]
        elif len(run) > 2 and k % 2:
            del run[-1]
        else:
            run.append(run[1])
        item = sum(fields, [])
    elif edit == "deeper":
        item.append(keys + ("  deeper: 1" if k % 2 else "  - 1"))
    elif edit == "not_token":
        bad = ["a b", "a: b", "- 1", ""][k % 4]
        if len(field) > 1:
            field[-1] = keys + "- " + bad
        else:
            field[0] = field[0][:field[0].index(":", len(keys)) + 1] + " " + bad
        item = sum(fields, [])
    lines[start:stop] = item
    return "\n".join(lines) + ("" if edit == "no_newline" else "\n")


class LineCount:
    """`harness._BLOCK_LINE`, counting the lines matched against it."""

    count = 0

    def match(self, *args):
        self.count += 1
        return _BLOCK_LINE.match(*args)


def outcome(call):
    """repr of what `call()` returns, or the type and text of what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def bench_inputs(seed, work):
    """The file inputs of one benchmark seed, written by the benchmark's generator."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    workloads.DesignLp(ROOT).generate(seed, work)
    workloads.SmallGames(ROOT).generate(seed, work)
    return sorted(work.glob("*.yaml"))


class TestYamlReader:
    """`harness._load_yaml` builds what yaml.load builds from the same text.

    Values are compared by repr, not ==: 1 == 1.0 == True and nan != nan
    would hide a difference in type or a NaN.
    """

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=150, deadline=None)
    @given(document=_DOCUMENTS, flow=st.sampled_from([False, None, True]))
    def test_dumped_documents(self, loader, document, flow):
        text = yaml.dump(document, Dumper=_DUMPER, default_flow_style=flow)
        assert repr(harness._load_yaml(text, loader)[0]) == repr(yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=150, deadline=None)
    @given(document=_TOKEN_MAPPINGS)
    def test_token_documents_are_read_by_lines(self, loader, document):
        text = yaml.dump(document, Dumper=_DUMPER, default_flow_style=False)
        value, reader = read_yaml(text, loader)
        assert repr(value) == repr(yaml.load(text, Loader=loader))
        assert reader == "block"

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=150, deadline=None)
    @given(document=_TOKEN_MAPPINGS,
           edits=st.lists(st.tuples(st.sampled_from(["in", "out", "drop", "copy"]),
                                    st.integers(0, 10 ** 6)), min_size=1, max_size=3))
    def test_reindented_dumps(self, loader, document, edits):
        # Lines moved in or out, dropped or copied: whatever the line reader
        # accepts must be what yaml.load builds, and the rest must fall back.
        lines = yaml.dump(document, Dumper=_DUMPER, default_flow_style=False).splitlines()
        for edit, k in edits:
            k %= len(lines)
            if edit == "in":
                lines[k] = " " + lines[k]
            elif edit == "out":
                lines[k] = lines[k].removeprefix(" ")
            elif edit == "drop" and len(lines) > 1:
                del lines[k]
            elif edit == "copy":
                lines.insert(k, lines[(k * 7) % len(lines)])
        text = "\n".join(lines) + "\n"
        assert outcome(lambda: harness._load_yaml(text, loader)[0]) == outcome(
            lambda: yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=100, deadline=None)
    @given(drawn=record_texts())
    def test_edited_records(self, loader, drawn):
        # Mappings laid out as their sequence's first one are read in one
        # match each, and an edited one by lines: the document is yaml.load's.
        # Only a deeper line or an item that is not a token leaves the line
        # reader's subset and may go to yaml.load.
        text, edit = drawn
        lines = LineCount()
        with mock.patch.object(harness, "_BLOCK_LINE", lines), \
                mock.patch.object(yaml, "load", wraps=yaml.load) as load:
            got = outcome(lambda: harness._load_yaml(text, loader)[0])
        assert got == outcome(lambda: yaml.load(text, Loader=loader))
        if edit not in ("deeper", "not_token"):
            assert not load.called
        if edit == "none":
            # By lines: the lines down to the second mapping's first, and "tail".
            text_lines = text.splitlines()
            dash = next(line for line in text_lines if line.lstrip() == "items:")[:-6] + "- "
            second = [n for n, line in enumerate(text_lines) if line.startswith(dash)][1]
            assert lines.count <= second + 2

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    def test_token_scalars_resolve_to_constructed_tags(self, loader):
        # `_plain_scalar` looks up the constructor of whatever tag a token
        # resolves to, with no fallback: each resolver keyed on a character
        # that can start a token, or on None, must name a tag with a safe
        # constructor. The merge key "<<" and value key "=" have none, and
        # no token starts with "<" or "=".
        checked = 0
        for first, resolvers in loader.yaml_implicit_resolvers.items():
            if first is None or re.fullmatch(harness._TOKEN, first + "0"):
                for tag, _ in resolvers:
                    assert tag in loader.yaml_constructors, (first, tag)
                    checked += 1
        assert checked > 0

    def test_bench_inputs(self, tmp_path):
        paths = bench_inputs(7, tmp_path)
        assert len(paths) == 10
        for path in paths:
            text = path.read_text()
            value, reader = read_yaml(text)
            assert repr(value) == repr(yaml.load(text, Loader=harness._YAML_LOADER))
            assert reader == "block"

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", [
        "a: 1\na: 2\nb:\n- c: 1\n  c: 2\n  d:\n- e\na: 3\n",
        "a:\n  - 1\n  - b:\n      c: 1\n    d:\n    - 2\nf:\n  g\nh:\n",
        "null: 1\n1: 2\n1.0: 3\n.nan: 4\n.NaN: 5\n-a: 6\n+: 7\n.: 8\n...: 9\n",
        "a:\n- 1e3\n- 012\n- 0x1F\n- 1_000\n- -0.0\n- -.inf\n- yes\n- 2001-12-14\n- x-y.z",
        "k" * 1024 + ": 1\n",
        "a:\n- x\n- x\n- 1\n- x\n- 1.0\n- 1\nb: 1\n",
        "a:\n- 1\n- 2\n- 1\n- k: v\n  j: 1\n- 2\n- 3\n",
        "a:\n- 1\n- 2\n- 1",
        "a:\n  b:\n  - 1\n  - 2\n  - 1\nc: 3\n",
        "a:\n  b:\n  - 1\n  - 2\n  c: 3\n",
        "a:\n- 1\n- 2\n- b:\n  - 3\n  - 1\n  c:\n    - 2\n    - 4\n    - 2\n- 5\n- 1\n",
        "a:\n- b:\n  - 1\n- 1234\n- 1\n",
        "a:\n- 1.\n- -0.\n- +1.5e+3\n- 1.5E-3\n- 1.0e3\n- 1_0.5\n- .5\n- 1.5e+400\n- 1.\n",
        "a:\n- k: 1\n  r:\n  - x\n  - 2\n- k: 2\n  r:\n  - 3\n- k: 3\n  r:\n  - x\n  - y\nb: 1\n",
        "a:\n- k: 1\n- k: 2\n  j: 3\n- k: 4\n",
        "a:\n- k: 1\n  r:\n  - 1\n- k: 2\n  r:\n- k: 3\n  r:\n  - 2\n",
        "a:\n- k: 1\n  r:\n  - 1\n- k: 2\n  r:\n  - b: 1\n- k: 3\n  r:\n  - 2\n",
        "a:\n- k: 1\n- k: 2\n- k: 3",
        "a:\n- k: 1\n  r:\n  - 1\n- k: 2\n  r:\n  - 2",
        "a:\n- k: 1\n- 5\n- k: 2\n- k: 3\n",
        "a:\n- k: 1\n  m:\n  - x: 1\n  - x: 2\n- k: 2\n  m:\n  - x: 3\n  - x: 4\n",
        "a:\n- k: 1\n  k: 2\n- k: 3\n  k: 4\n- k: 5\n  k: 6\n",
        "a:\n- 1: x\n  1.0: y\n  null: z\n- 1: a\n  1.0: b\n  null: c\n",
        "a:\n- k: 1\n  j:\n    x: 1\n- k: 2\n  j:\n    x: 2\n",
        "a:\n- k:\n    - 1\n- k:\n    - 2\n",
        "a:\n  b:\n  - k: 1\n  - k: 2\n  - k: 3\nc:\n- k: 4\n- j: 5\n- j: 6\n",
    ], ids=["duplicates", "nesting", "scalar_keys", "scalars", "longest_key", "run_new_token",
            "run_then_mapping", "run_at_eof", "run_then_dedented_key", "run_then_key",
            "nested_runs", "item_then_dedented_item", "floats", "records", "record_extra_key",
            "record_null_run", "record_mapping_in_run", "record_at_eof", "record_run_at_eof",
            "record_after_scalar_item", "record_nested_records", "record_repeated_key",
            "record_equal_keys", "record_mapping_value", "record_indented_run",
            "records_at_two_indents"])
    def test_read_by_lines(self, loader, text):
        # A repeated key keeps its first place and its last value; a key with
        # no deeper line below it is null. A run of "- token" items ends at a
        # line of any other kind, which is read as a line. A "- key:" item
        # laid out otherwise than its sequence's first one is read by lines.
        value, reader = read_yaml(text, loader)
        assert repr(value) == repr(yaml.load(text, Loader=loader))
        assert reader == "block"

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("end", ["", "\n", "\ntail: 1\n"], ids=["no_newline", "newline", "tail"])
    def test_later_records_are_one_match_each(self, loader, end):
        # The line loop reads the first mapping and the second one's first
        # line, then "tail"; a final newline does not join the last run.
        text = "a:\n- k: 1\n  r:\n  - 1\n  - 2\n- k: 2\n  r:\n  - 3\n- k: 3\n  r:\n  - 4\n  - 5" + end
        lines = LineCount()
        with mock.patch.object(harness, "_BLOCK_LINE", lines):
            value, reader = read_yaml(text, loader)
        assert repr(value) == repr(yaml.load(text, Loader=loader))
        assert reader == "block"
        assert lines.count == 5 + ("tail" in end)

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    def test_float_tokens(self, loader):
        # `_plain_scalar` returns float(token) for the first two forms of the
        # float resolver without walking the resolvers: float must come first
        # for every character they start with, and the value match yaml.load's.
        for first in "-+.0123456789":
            assert loader.yaml_implicit_resolvers[first][0][0] == "tag:yaml.org,2002:float"
        for token in ["1.", "-0.", "+1.5e+3", "1.5E-3", "1.0e3", "1_0.5", "190:20:30.15", ".5",
                      ".5e-3", "-.5", ".5_1", ".", "1.5e+400"]:
            value = harness._plain_scalar(token, loader)
            assert repr(value) == repr(yaml.load(token, Loader=loader))

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    def test_int_tokens(self, loader):
        # `_plain_scalar` returns int(token) for the tokens `_INT` matches
        # without walking the resolvers: int must be the first resolver that
        # takes each of them, and the value match yaml.load's. Other int forms
        # go through the resolvers to the constructor.
        for token in ["0", "-0", "+0", "7", "-12", "+345", "98765432109876543210"]:
            assert harness._INT.fullmatch(token)
            resolvers = (loader.yaml_implicit_resolvers[token[0]]
                         + loader.yaml_implicit_resolvers.get(None, []))
            assert next(tag for tag, regexp in resolvers if regexp.match(token)) == (
                "tag:yaml.org,2002:int")
        for token in ["0", "-0", "+0", "7", "-12", "+345", "98765432109876543210", "012",
                      "0x1F", "-0b101", "1_000", "190:20", "00", "+"]:
            value = harness._plain_scalar(token, loader)
            assert repr(value) == repr(yaml.load(token, Loader=loader)), token

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", [
        "k" * 1025 + ": 1\n",
        "a: 1\n  b\n",
        "a: 1\n...\n",
        "---\na: 1\n",
        "a: 1\n# note\n",
        "a: 1\n\nb: 2\n",
        "a:\t1\n",
        "a: 1\r\nb: 2\r\n",
        "a:\n- - 1\n",
        "a:\n- 1\n-\n",
        "- 1\n- 2\n",
        "a:\n- 1\n- 2\n- a b\n- 1\n",
        "a:\n- 1\n- 2\n- a:b\n- 1\n",
        "a:\n- 1\n- \n- 1\n",
        "a:\n- 1\n-  2\n- 1\n",
        "a:\n- 1\n- 1\n- - 1\n",
        "a:\n- 1\n- 2\n- 1\n- 2001-13-45\n- 2\n",
        "a:\n- k: 1\n  r:\n  - 1\n- k: 2\n  r:\n  - a b\n",
        "a:\n- k: 1\n  r:\n  - 1\n- k: 2\n  r:\n  - \n",
        "a:\n- k: 1\n- k: 2\n    x\n",
        "a:\n- k: 1\n- k: a b\n",
        "a:\n- k: 1\n- k: 2001-13-45\n",
    ], ids=["long_key", "continuation", "document_end", "document_start", "comment", "blank_line",
            "tab", "crlf", "nested_item", "empty_item", "top_level_list", "run_item_with_space",
            "run_item_with_colon", "run_empty_item", "run_item_indented", "run_nested_item",
            "run_bad_timestamp", "record_run_item_with_space", "record_run_empty_item",
            "record_continuation", "record_value_with_space", "record_bad_timestamp"])
    def test_line_reader_fallbacks(self, loader, text):
        # The line reader hands these on; the document or error is yaml.load's.
        with pytest.raises(harness._Fallback):
            harness._read_block(text, loader)
        assert outcome(lambda: harness._load_yaml(text, loader)[0]) == outcome(
            lambda: yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", [
        "a: &x [1, 2]\nb: *x\n",
        "a: !!str 1\nb: ! 2\n",
        "base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  y: 3\n",
        "a: [1, {<<: 2}]\n",
        "? [a, b]\n: 1\n",
        "=: 1\n",
        "a: 1\n---\nb: 2\n",
        "a: 2001-13-45\n",
    ], ids=["alias", "tag", "merge", "merge_without_alias", "complex_key", "value_key",
            "two_documents", "bad_timestamp"])
    def test_fallback_constructs(self, loader, text):
        # Each is handed to yaml.load, which builds it or raises as before.
        with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
            got = outcome(lambda: harness._load_yaml(text, loader)[0])
        assert load.called
        assert got == outcome(lambda: yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("text", [_LARGE + "tail: [1, 2\n", "", "- 1\n- 2\n",
                                      "a: 1\n---\nb: 2\n",
                                      _BLOCK.replace("\n- rhs: 30.0\n", "\n - rhs: 30.0\n")],
                             ids=["deep_syntax_error", "empty", "top_level_list",
                                  "two_documents", "deep_block_indent"])
    def test_parse_errors_keep_their_message(self, tmp_path, text):
        # The message yaml.load's error or value gave before the reader.
        path = write_config(tmp_path, text)
        try:
            yaml.load(text, Loader=harness._YAML_LOADER)
            expected = f"config {path} must be a mapping"
        except yaml.YAMLError as exc:
            expected = f"cannot parse config {path}: {exc}"
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_file(path)
        assert str(info.value) == expected


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

    def test_aggregate_payoff_is_correctly_rounded(self, tmp_path, monkeypatch):
        # Ten 0.1s add up to 1.0 when the sum is correctly rounded, and to
        # 0.9999999999999999 one at a time in index order.
        monkeypatch.setattr(game, "_payoffs", lambda *args: [0.1] * 10)
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_equilibrium.yaml")
        report = run_scenario("equilibrium", cfg, out_dir=tmp_path).report
        assert report["results"]["aggregate_payoff"] == 1.0


    def test_failing_property_row_fails_the_status(self, tmp_path, monkeypatch):
        # The status reads the property rows: with the closed-form dG/dR
        # negated, the reward-sensitivity row alone fails, and the FOC
        # residual stays within its tolerance.
        text = I2_PLAYERS + "design_point: {reward: 1.0, perturbation: [0, 0]}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        assert run_scenario("equilibrium", cfg, out_dir=tmp_path).status == "ok"
        sensitivities = analysis._good_sensitivities
        monkeypatch.setattr(analysis, "_good_sensitivities",
                            lambda *args: (-sensitivities(*args)[0], sensitivities(*args)[1]))
        report = run_scenario("equilibrium", cfg, out_dir=tmp_path).report
        assert report["status"] == "verification_failed"
        assert [row["property"] for row in report["properties"] if row["holds"] is False] == [
            "reward_sensitivity_sign"]
        assert report["results"]["max_foc_violation"] <= game.TOLERANCES["foc_residual"]["value"]


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

    def test_rows_hold_each_bound_once(self, tmp_path):
        # Statement bounds at the top of a row, the tightened variant under
        # proof_tightened, and the assured count, which both share, once.
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        profile, _ = harness._profile_from_config(cfg)
        c = np.asarray(cfg.require("sweep")["perturbation"], dtype=float)
        rows = run_scenario("analyze", cfg, out_dir=tmp_path).report["results"]["sweep"]
        names = {"g_lower", "g_upper", "poa_lower", "poa_upper"}

        def assert_bounds(values, bounds):
            # The good bounds match exactly; the prices of anarchy go through
            # numpy's log1p over a sweep and math.log1p at one point.
            assert [values["g_lower"], values["g_upper"]] == [bounds.g_lower, bounds.g_upper]
            assert [values["poa_lower"], values["poa_upper"]] == pytest.approx(
                [bounds.poa_lower, bounds.poa_upper], rel=1e-13)

        assert len(rows) == 5
        for row in rows:
            point = DesignPoint(row["reward"], c)
            statement = poa_bounds(profile, point)
            proof = poa_bounds(profile, point, proof=True)
            assert set(row) == names | {"reward", "public_good", "poa_true",
                                        "assured_active_count", "proof_tightened"}
            assert set(row["proof_tightened"]) == names
            assert_bounds(row, statement)
            assert_bounds(row["proof_tightened"], proof)
            assert row["assured_active_count"] == statement.assured_active_count
            assert row["assured_active_count"] == proof.assured_active_count

    def test_nonpositive_reward_is_rejected(self, tmp_path):
        text = I2_PLAYERS + "sweep: {rewards: [1, 0], perturbation: [0, 0]}\n"
        cfg = ScenarioConfig.from_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match=re.escape("sweep.rewards")):
            run_scenario("analyze", cfg, out_dir=tmp_path / "out")

    def test_foc_residual_above_contract_fails_the_sweep(self, tmp_path, monkeypatch):
        # The equilibrium verb's FOC rule: a tolerance no residual meets
        # fails every row.
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "ok"
        monkeypatch.setitem(game.TOLERANCES["foc_residual"], "value", -1.0)
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "verification_failed"

    def test_one_failing_row_fails_the_sweep(self, tmp_path, monkeypatch):
        # The status reads graded.ok: with the closed-form dG/dR negated at
        # the first reward only, that row alone fails a property, and every
        # FOC residual stays within its tolerance.
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        sensitivities = analysis._good_sensitivities

        def flipped(a_sum, n, R, c_bar, G):
            dG_dR, dG_dc = sensitivities(a_sum, n, R, c_bar, G)
            return np.where(np.arange(np.size(R)) == 0, -dG_dR, dG_dR), dG_dc

        monkeypatch.setattr(analysis, "_good_sensitivities", flipped)
        profile, _ = harness._profile_from_config(cfg)
        graded = analysis.analyze_sweep(profile, [0.0, 0.0], cfg.require("sweep")["rewards"])
        assert graded.ok.tolist() == [False, True, True, True, True]
        assert (graded.equilibria.max_foc_violation
                <= game.TOLERANCES["foc_residual"]["value"]).all()
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "verification_failed"


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

    @pytest.mark.parametrize("field", ["s_coeffs", "r_coeff", "rhs"])
    def test_bool_in_a_row_is_rejected_by_every_reader(self, tmp_path, field):
        # float() reads true as 1.0. The bool is in the third row, which the
        # line reader reads in one match; flow style goes to yaml.load, and a
        # config built in memory has no reader to say it holds no bool.
        rows = [{"label": f"r{k}", "s_coeffs": [-1.0, 0.0], "r_coeff": 0.0, "rhs": -1.0}
                for k in range(3)]
        raw = {"profile": {"players": [{"player_id": 1, "coefficient": 1.0},
                                       {"player_id": 2, "coefficient": 1.0}]},
               "constraints": {"source": "inline", "rows": rows}}

        def configs(name):
            dumps = [yaml.dump(raw, Dumper=_DUMPER, default_flow_style=flow, sort_keys=False)
                     for flow in (False, True)]
            assert [read_yaml(text)[1] for text in dumps] == ["block", "yaml.load"]
            return [ScenarioConfig(raw, tmp_path)] + [
                ScenarioConfig.from_file(write_config(tmp_path, text, f"{name}{k}.yaml"))
                for k, text in enumerate(dumps)]

        assert [cfg.bools for cfg in configs("ok")] == [True, False, True]
        with pytest.raises(TypeError):  # only the reader may clear the note
            ScenarioConfig(raw, tmp_path, False)
        for cfg in configs("ok"):
            assert run_scenario("design", cfg, out_dir=tmp_path / "out").status == "ok"
        rows[2][field] = [True, 0.0] if field == "s_coeffs" else True
        expected = f"constraints.rows[2].{field} must be a " + (
            "list of 2 finite numbers" if field == "s_coeffs" else "finite number")
        rows[1]["rhs"] = math.nan  # an earlier bad field is named first
        for message in ("constraints.rows[1].rhs must be a finite number", expected):
            for cfg in configs("bool"):
                assert cfg.bools
                with pytest.raises(ConfigError) as info:
                    run_scenario("design", cfg, out_dir=tmp_path / "out")
                assert str(info.value) == message
            rows[1]["rhs"] = -1.0

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
        assert _money([-0.0, -1e-9, -0.004, -0.006, 2317.0]) == [
            "0.00", "0.00", "0.00", "-0.01", "2317.00"]

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

        for module in (harness, design):
            monkeypatch.setattr(module, "solve_equilibrium", counted)
        cfg = ScenarioConfig.from_file(CONFIGS / "case30.yaml")
        assert run_scenario("casestudy", cfg, out_dir=tmp_path).status == "ok"
        assert len(calls) == 1

    def test_equilibrium_checks_each_vector_once(self, tmp_path, monkeypatch):
        # The config reader checks the perturbation, and neither the design
        # point nor the aggregate payoff checks it, or the solved
        # investments, again.
        calls = Counter()
        for module, name in ((harness, "_checked_perturbation"),
                             (game, "_checked_perturbation"), (game, "_check_profile_shape")):
            monkeypatch.setattr(module, name, lambda *args, raw=getattr(module, name), name=name:
                                calls.update([name]) or raw(*args))
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_equilibrium.yaml")
        assert run_scenario("equilibrium", cfg, out_dir=tmp_path).status == "ok"
        assert calls == {"_checked_perturbation": 1}

    def test_analyze_checks_the_perturbation_once(self, tmp_path, monkeypatch):
        # The config reader checks it, and the sweep does not check it again.
        calls = []
        for module in (harness, game):
            monkeypatch.setattr(module, "_checked_perturbation",
                                lambda *args, raw=game._checked_perturbation:
                                calls.append(args) or raw(*args))
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "ok"
        assert len(calls) == 1

    def test_analyze_bounds_each_variant_once_per_sweep(self, tmp_path, monkeypatch):
        # The bounds are closed forms in R: one evaluation per variant covers
        # every reward of the sweep.
        raw = analysis._compute_bounds
        calls = []

        def counted(profile, terms, rewards, proof):
            calls.append((proof, np.shape(rewards)))
            return raw(profile, terms, rewards, proof)

        monkeypatch.setattr(analysis, "_compute_bounds", counted)
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        assert len(cfg.require("sweep")["rewards"]) == 5
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "ok"
        assert Counter(calls) == {(False, (5,)): 1, (True, (5,)): 1}

    def test_analyze_builds_bracket_slopes_and_threshold_once(self, tmp_path, monkeypatch):
        # The bracket and the slopes at its top feed the threshold, both bound
        # variants and the graded properties of the whole sweep.
        calls = Counter()
        for owner, name in ((analysis, "_terms"), (analysis, "_threshold"),
                            (BenefitProfile, "slopes")):
            monkeypatch.setattr(owner, name, lambda *args, raw=getattr(owner, name), name=name:
                                calls.update([name]) or raw(*args))
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_analyze.yaml")
        assert run_scenario("analyze", cfg, out_dir=tmp_path).status == "ok"
        assert calls == {"_terms": 1, "_threshold": 1, "slopes": 1}

    def test_settle_sums_the_investments_once(self, monkeypatch):
        # The consistency check and the FOC residuals read one total.
        calls = []
        raw = game._sum_players
        monkeypatch.setattr(game, "_sum_players", lambda x: calls.append(x.shape) or raw(x))
        a, c = np.array([1.0, 1.0]), np.array([0.5, 0.5])
        _, s, _, violation = game._settle(a, c, 1.0, 1.0, 1.0)
        assert s.tolist() == [1.0, 1.0] and violation <= 1e-15
        assert calls == [(2,)]

    @pytest.mark.parametrize("verb, config", [("equilibrium", "two_player_equilibrium.yaml"),
                                              ("design", "two_player_design.yaml")])
    def test_aggregate_payoff_summed_once(self, tmp_path, monkeypatch, verb, config):
        calls = []
        for module in (harness, design):
            monkeypatch.setattr(module, "_payoff_sum", lambda *args, raw=game._payoff_sum:
                                calls.append(args) or raw(*args))
        cfg = ScenarioConfig.from_file(CONFIGS / config)
        assert run_scenario(verb, cfg, out_dir=tmp_path).status == "ok"
        assert len(calls) == 1

    def test_selftest_case30_matches_config(self):
        config = ScenarioConfig.from_file(CONFIGS / "case30.yaml")
        for key in ("constraints", "casestudy", "alpha", "reward_floor", "golden"):
            assert CASE30_SCENARIO[key] == config.require(key), key


def _jsonable_reference(value):
    # The report conversion that preceded the one-pass encoder, narrowed to
    # the values a report holds, kept as the oracle: its output through
    # json.dumps is the specified encoding.
    kind = type(value)
    if kind is dict:
        if any(type(k) is not str for k in value):
            raise TypeError("report keys must be str")
        return {k: _jsonable_reference(v) for k, v in value.items()}
    if kind is np.ndarray and value.ndim:
        value, kind = value.tolist(), list
    if kind is list:
        return [_jsonable_reference(v) for v in value]
    if kind is float:
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        return "nan" if math.isnan(value) else value
    if value is None or kind in (bool, int, str):
        return value
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def reference_report_json(report) -> str:
    return json.dumps(_jsonable_reference(report), indent=2, sort_keys=True) + "\n"


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=True, allow_infinity=True))
# Dict keys, among them strs that read as numbers.
_KEY_LISTS = st.lists(st.sampled_from(["a", "b", "1", "-1", "1.0"]) | st.text(max_size=3),
                      min_size=1, max_size=4, unique=True)


def _same_shape_dicts(values, max_size=3):
    # Lists of dicts that share one key tuple: one dict layout, reused.
    return _KEY_LISTS.flatmap(lambda keys: st.lists(
        st.fixed_dictionaries({key: values for key in keys}), min_size=1, max_size=max_size))


_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
        | st.lists(st.floats(), max_size=4).map(np.array)
        | _same_shape_dicts(inner)
    ),
    max_leaves=25,
)


class TestReportEncoding:
    """report.json bytes equal json.dumps of the converted report."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_configs(self, tmp_path, path):
        ran = []
        for verb in ("equilibrium", "analyze", "design", "casestudy"):
            cfg = ScenarioConfig.from_file(path)
            try:
                result = run_scenario(verb, cfg, out_dir=tmp_path / verb)
            except ConfigError:  # the config does not configure this verb
                continue
            ran.append(verb)
            assert (tmp_path / verb / "report.json").read_text() == (
                reference_report_json(result.report)), verb
        assert ran

    def test_selftest_report(self, tmp_path):
        _, _, report = run_selftest(seed=0, out_dir=tmp_path)
        assert (tmp_path / "report.json").read_text() == reference_report_json(report)

    def test_adversarial_report(self):
        report = {
            "floats": [math.inf, -math.inf, math.nan, -0.0, 1e-310, 1.5e300, 0.1],
            "arrays": [np.array([]), np.zeros((2, 0)), np.arange(6.0).reshape(2, 3),
                       np.array([[1, 2], [3, 4]]), np.array([math.inf, 1.0]),
                       np.array([math.nan, -0.0], dtype=np.float32)],
            "containers": [[], {}, [[{}], {"x": []}], [[[]]]],
            "strings": ['quote " and backslash \\', "tab\tnewline\n\x00\x1f",
                        "caf\u00e9 \u2713 \U0001f600", ""],
            "keys": {"": 0, "10": 1, "9": 2, "caf\u00e9": 3, "a\nb": 4, "A": 5},
            "literals": [True, False, None, 0, -12345678901234567890],
            "tolerances": game.TOLERANCES,
        }
        assert _report_json(report) == reference_report_json(report)

    def test_equal_keys_of_other_types_get_their_own_text(self):
        # Dicts that share keys with a shape already laid out, in another
        # order, number or depth, or with values of other types.
        shapes = [{"a": 0, "1": 1}, {"1": 1, "a": 0}, {"a": 0.0, "1": True}, {"a": 0},
                  {"a": 0, "1": 1, "10": 2}, {"x": {"a": 0, "1": 1}}, {"1": {"1": {"1": 1}}}]
        for value in shapes:
            assert _report_json(value) == reference_report_json(value), value
            assert _report_json([value]) == reference_report_json([value]), value

    @settings(max_examples=100, deadline=None)
    @given(_KEY_LISTS, st.lists(_SCALARS, min_size=8, max_size=8),
           st.lists(_SCALARS, min_size=8, max_size=8))
    def test_one_shape_reused(self, keys, first, second):
        # Two dicts of one shape, back to back and then at two depths.
        a, b = dict(zip(keys, first)), dict(zip(keys, second))
        for value in (a, b, {"x": a, "y": [b]}, [b, {"z": a}]):
            assert _report_json(value) == reference_report_json(value)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_random_nested_values(self, value):
        assert _report_json(value) == reference_report_json(value)

    @pytest.mark.parametrize("bad", [
        {1, 2}, object(), np.bool_(True), np.array(1.0), {1: "a"}, {1.5: "a"}, {True: "a"},
        ("a", 1), np.float64(0.5), np.int64(3), {"a": 0, 1: 1}, np.str_("a"),
    ], ids=["set", "object", "numpy_bool", "zero_d_array", "int_key", "float_key", "true_key",
            "tuple", "numpy_float", "numpy_int", "mixed_keys", "str_subclass"])
    def test_unsupported_values_raise(self, bad):
        report = {"results": [bad]}
        with pytest.raises(TypeError):
            reference_report_json(report)
        with pytest.raises(TypeError):
            _report_json(report)


def reference_csv(header, rows) -> str:
    # csv.writer's text for the same cells: a cell that needs quoting, or a
    # line ending other than "\r\n", makes it differ from the joined lines.
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


class TestCsvEncoding:
    """Each CSV's bytes equal csv.writer's output for the same cells."""

    def test_shipped_configs_and_bench_sweeps(self, tmp_path):
        paths = sorted(CONFIGS.glob("*.yaml")) + bench_inputs(7, tmp_path / "inputs")
        checked = Counter()
        for k, path in enumerate(paths):
            for verb in harness._PIPELINES:
                out = tmp_path / str(k) / verb
                with mock.patch.object(harness, "emit_report",
                                       wraps=harness.emit_report) as emit:
                    try:
                        run_scenario(verb, ScenarioConfig.from_file(path), out_dir=out)
                    except ConfigError:  # the file does not configure this verb
                        continue
                for name, (header, rows) in emit.call_args.args[2].items():
                    text = (out / name).read_bytes().decode("ascii")
                    assert text == reference_csv(header, rows), (path.name, name)
                    checked[name] += 1
        # The shipped sweep, the seed-7 c = 0 and c > 0 sweeps, and case 30's three.
        assert checked == {"sweep.csv": 3, "allocation.csv": 1, "demand.csv": 1,
                           "lines.csv": 1}


# Floats a sweep column may hold: both zeros, NaN, the infinities, subnormals.
_SWEEP_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                                 0.1, 1.0]) | st.floats()


@st.composite
def sweep_columns(draw):
    """The eleven float columns and the int column of a sweep of 1-8 rows, drawn
    from a pool of at most six floats, so that values repeat within and across
    columns."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(_SWEEP_FLOATS, min_size=1, max_size=6))
    floats = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for _ in range(11)]
    return floats, draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))


# A column holding each kind, both zeros twice and a subnormal repeated.
_MIXED = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 5e-324, -0.0, 0.1]


class TestSweepColumns:
    """An analyze sweep is written to report.json and sweep.csv from its
    columns' texts, each distinct float formatted once."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_columns())
    @example(([_MIXED, _MIXED[::-1], *[_MIXED[k:] + _MIXED[:k] for k in range(9)]],
              list(range(9))))
    def test_columns_match_the_value_by_value_encoding(self, drawn):
        (reward, good, poa, *bounds), counts = drawn
        statement, proof = bounds[:4], bounds[4:]
        rows, columns, csv_rows = harness._sweep_rows(reward, good, poa, counts, statement, proof)
        # The list of rows at three depths, and beside a list it is not.
        for report in (rows, {"results": {"sweep": rows}}, [{"a": [rows, list(rows)]}]):
            assert _report_json(report, {id(rows): columns}) == reference_report_json(report)

        def ratio(values):  # sweep.csv's ratio cells before the column texts
            return [repr(v) if math.isfinite(v) else "+inf" for v in values]

        g_lower, g_upper, poa_lower, poa_upper = statement
        assert csv_rows == list(zip(_money(reward), _money(good), ratio(poa), ratio(poa_lower),
                                    ratio(poa_upper), _money(g_lower), _money(g_upper)))

    def test_keys_with_percent_signs(self):
        # The row template escapes a key's "%".
        rows = [{"a%s": 1.0, "%": {"%%": 2}}, {"a%s": -0.0, "%": {"%%": 3}}]
        columns = {"a%s": ["1.0", "-0.0"], "%": {"%%": ["2", "3"]}}
        assert _report_json({"x": rows}, {id(rows): columns}) == reference_report_json({"x": rows})

    def test_each_distinct_float_is_formatted_once_per_run(self, tmp_path, monkeypatch):
        # repr runs once per distinct finite float of a sweep (0.0 and -0.0
        # are one), for report.json and sweep.csv together, and never on a
        # non-finite one. The perturbation is written value by value, and the
        # tolerance table's text is kept from the run before.
        paths = [CONFIGS / "two_player_analyze.yaml"] + [
            path for path in bench_inputs(7, tmp_path / "inputs") if "analyze" in path.name]
        assert len(paths) == 3
        calls, zeros = Counter(), 0

        def counted(value):
            if type(value) is float:
                calls[value] += 1
            return repr(value)

        for k, path in enumerate(paths):
            cfg = ScenarioConfig.from_file(path)
            run_scenario("analyze", cfg, out_dir=tmp_path / str(k))
            calls.clear()
            monkeypatch.setattr(harness, "repr", counted, raising=False)
            result = run_scenario("analyze", cfg, out_dir=tmp_path / str(k))
            monkeypatch.undo()
            results = result.report["results"]
            assert (tmp_path / str(k) / "report.json").read_text() == (
                reference_report_json(result.report))
            floats = {value for row in results["sweep"]
                      for value in (*row.values(), *row["proof_tightened"].values())
                      if type(value) is float}
            written = Counter(map(float, results["perturbation"]))
            assert all(map(math.isfinite, calls)), path.name
            for value in floats:
                assert calls[value] == math.isfinite(value) + written[value], (path.name, value)
            zeros += 0.0 in floats
        assert zeros  # zero g_lower rows


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


@st.composite
def scenarios(draw):
    """(a, c, reward, rewards) of a random scenario of 2-50 players, as floats."""
    n = draw(st.integers(2, 50))
    a = draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n))
    c = [0.0] * n
    if draw(st.booleans()):
        c = draw(st.lists(st.floats(0.0, 2.0 * (sum(a) - 1.0) / n) | st.just(-0.0),
                          min_size=n, max_size=n))
    reward = 10.0 ** draw(st.floats(-2.0, 4.0))
    rewards = [10.0 ** e for e in draw(st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=4))]
    return a, c, reward, rewards


def spread(n):
    # A scenario of n players whose sums have 8 or more terms when n >= 8.
    return (np.linspace(0.6, 3.0, n).tolist(), np.linspace(0.0, 1.0, n).tolist(), 2.0,
            [0.05, 1.0, 43.6])


def run_bytes(verb, raw, out):
    """The bytes of each artifact a run of `verb` writes, or what it raises."""
    try:
        result = run_scenario(verb, ScenarioConfig(raw, out), out_dir=out)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    return {name: (out / name).read_bytes() for name in result.artifacts}


class TestFloatFormParity:
    """Up to game._FLOAT_PLAYERS players a design point is checked, built,
    solved and graded on floats, and its reports have the numpy forms' bytes."""

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    # From 8 terms numpy's sums add pairwise, where `_sum_players` adds in
    # index order; 35 players are the last on floats and 36 the first on
    # numpy vectors.
    @example(spread(8))
    @example(spread(game._FLOAT_PLAYERS))
    @example(spread(game._FLOAT_PLAYERS + 1))
    def test_reports_match_the_numpy_forms(self, case):
        a, c, reward, rewards = case
        players = [{"player_id": k, "coefficient": x} for k, x in enumerate(a, 1)]
        raw = {"profile": {"players": players},
               "design_point": {"reward": reward, "perturbation": c},
               "sweep": {"rewards": rewards, "perturbation": c}}
        with tempfile.TemporaryDirectory() as tmp:
            for verb in ("equilibrium", "analyze"):
                took = []  # per profile built: whether its coefficients took the float form
                with mock.patch.object(benefit, "_plain_floats", lambda x, raw=benefit._plain_floats:
                                       took.append(raw(x)) or took[-1]):
                    floats = run_bytes(verb, raw, Path(tmp, "floats"))
                assert took == [len(a) <= game._FLOAT_PLAYERS]
                with numpy_forms():
                    vectors = run_bytes(verb, raw, Path(tmp, "numpy"))
                assert floats == vectors


class TestArtifactWrites:
    """Artifacts are rewritten in place and truncated to their new length."""

    EQUILIBRIUM = I2_PLAYERS + "design_point: {reward: 1.5, perturbation: [0.25, 0]}\n"

    def test_shorter_run_overwrites_longer_files(self, tmp_path):
        rewards = ", ".join(repr(float(r)) for r in np.geomspace(0.05, 1e4, 200))
        long_path = write_config(tmp_path, I2_PLAYERS + (
            f"sweep:\n  rewards: [{rewards}]\n  perturbation: [0, 0]\n"), "long.yaml")
        short_path = write_config(tmp_path, I2_PLAYERS + (
            "sweep:\n  rewards: [1, 5, 10]\n  perturbation: [0, 0]\n"), "short.yaml")
        reused = tmp_path / "reused"
        run_scenario("analyze", ScenarioConfig.from_file(long_path), out_dir=reused)
        long_sizes = {p.name: p.stat().st_size for p in reused.iterdir()}
        (reused / "report.json").write_text("garbage\n" * 100_000)
        run_scenario("analyze", ScenarioConfig.from_file(short_path), out_dir=reused)
        run_scenario("analyze", ScenarioConfig.from_file(short_path),
                     out_dir=tmp_path / "fresh")
        assert dir_digest(reused) == dir_digest(tmp_path / "fresh")
        for p in reused.iterdir():
            assert p.stat().st_size < long_sizes[p.name]

    ANALYZE = I2_PLAYERS + "sweep: {rewards: [1, 5], perturbation: [0.25, 0]}\n"

    def test_tolerance_table_is_never_stale(self, tmp_path, monkeypatch):
        # Each patch follows one that compares equal but is written apart
        # (0.0 and -0.0; 1, 1.0 and True), so a cache keyed on equality
        # alone would write the previous text.
        patches = [("value", 3.25e-6, "3.25e-06"), ("value", 0.0, "0.0"),
                   ("value", -0.0, "-0.0"), ("value", 1, "1"), ("value", 1.0, "1.0"),
                   ("value", True, "true"), ("origin", "patched origin", '"patched origin"')]
        for verb, text in (("equilibrium", self.EQUILIBRIUM), ("analyze", self.ANALYZE)):
            cfg = ScenarioConfig.from_file(write_config(tmp_path, text))

            def report_text(name):
                out = tmp_path / verb / name
                result = run_scenario(verb, cfg, out_dir=out)
                text = (out / "report.json").read_text()
                assert text == reference_report_json(result.report)
                return text

            original = report_text("original")
            assert '"value": 1e-06' in original
            for k, (field, value, written) in enumerate(patches):
                monkeypatch.setitem(game.TOLERANCES["good_gap"], field, value)
                patched = report_text(f"patched{k}")
                assert f'"{field}": {written}' in patched
                assert patched != original
            monkeypatch.undo()
            assert report_text("restored") == original

    def test_missing_nested_out_dir_is_made(self, tmp_path, capsys):
        path = write_config(tmp_path, self.EQUILIBRIUM)
        out = tmp_path / "a" / "b" / "c"
        result = run_scenario("equilibrium", ScenarioConfig.from_file(path), out_dir=out)
        assert (out / "report.json").read_text() == reference_report_json(result.report)
        out = tmp_path / "d" / "e"
        assert cli_main(["equilibrium", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "report.json").is_file()

    def test_out_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, self.EQUILIBRIUM)
        out = tmp_path / "out"
        out.write_text("a regular file\n")
        with pytest.raises(OSError):
            run_scenario("equilibrium", ScenarioConfig.from_file(path), out_dir=out)
        code = cli_main(["equilibrium", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err
        assert out.read_text() == "a regular file\n"

    def test_write_error_raises_and_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, self.EQUILIBRIUM)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        with pytest.raises(OSError):
            run_scenario("equilibrium", ScenarioConfig.from_file(path), out_dir=out)
        code = cli_main(["equilibrium", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err


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

    def test_empty_env_output_keeps_config_output_dir(self, tmp_path, monkeypatch, capsys):
        text = I2_PLAYERS + ("output_dir: from_config\n"
                             "design_point: {reward: 1.0, perturbation: [0.5, 0.5]}\n")
        path = write_config(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LOTTERYDESIGN_OUT", "")
        assert cli_main(["equilibrium", "--config", str(path)]) == 0
        assert (tmp_path / "from_config" / "report.json").is_file()
        assert not (tmp_path / "report.json").exists()


class TestSelftest:
    def test_selftest_passes_and_reports(self, tmp_path, schema):
        ok, lines, report = run_selftest(seed=0, out_dir=tmp_path / "out")
        assert ok
        assert all(line.startswith("SELFTEST ") for line in lines)
        jsonschema.validate(report, schema)
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(on_disk, schema)

    def test_skipped_corpus_points_are_counted(self):
        # Seed 13 draws two random points where withdrawing to cancel the
        # lottery beats a negative payoff, so the certificate proves they are
        # not equilibria; seed 0 draws none.
        for seed, skipped in ((13, 2), (0, 0)):
            _, lines, _ = run_selftest(seed=seed)
            corpus = [line for line in lines if "random_corpus_" in line]
            assert len(corpus) == 3
            for line in corpus:
                assert line.startswith("SELFTEST random_corpus_") and ": PASS (" in line
                if skipped:
                    assert line.endswith(
                        f"; 20 points, {skipped} skipped: not an equilibrium "
                        f"(withdrawing cancels the lottery: {skipped}))")
                else:
                    assert line.endswith("; 20 points, 0 skipped)")
