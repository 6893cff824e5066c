"""In-memory span recorder that wraps the program's public functions.

Wrappers are installed at the names where the pipelines look functions up
(for example `lotterydesign.harness.solve_equilibrium` and
`lotterydesign.design.solve_lp`), so the program itself is unchanged. Each
call records a span (name, start, end, parent); counters are read from
the returned objects. A target that a later version no longer has is skipped
and listed in `skipped`, and so is a returned field that no longer exists.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("benefit", "game", "analysis", "simplex", "design", "grid", "harness")

# (module path, attribute path, span name). The span name starts with the
# module that defines the function, whatever module it is looked up in.
TARGETS = (
    ("lotterydesign.benefit", "BenefitProfile.scaled_log", "benefit.scaled_log"),
    ("lotterydesign.benefit", "BenefitProfile.socially_optimal_good",
     "benefit.socially_optimal_good"),
    ("lotterydesign.benefit", "BenefitProfile.socially_optimal_payoff",
     "benefit.socially_optimal_payoff"),
    ("lotterydesign.benefit", "BenefitProfile.invert_aggregate", "benefit.invert_aggregate"),
    ("lotterydesign.benefit", "BenefitProfile.aggregate_value", "benefit.aggregate_value"),
    ("lotterydesign.benefit", "BenefitProfile.slopes", "benefit.slopes"),
    ("lotterydesign.game", "solve_equilibrium", "game.solve_equilibrium"),
    ("lotterydesign.harness", "solve_equilibrium", "game.solve_equilibrium"),
    ("lotterydesign.design", "solve_equilibrium", "game.solve_equilibrium"),
    ("lotterydesign.analysis", "solve_equilibrium", "game.solve_equilibrium"),
    ("lotterydesign.harness", "payoff", "game.payoff"),
    ("lotterydesign.design", "payoff", "game.payoff"),
    ("lotterydesign.analysis", "equilibrium_sensitivities",
     "game.equilibrium_sensitivities"),
    ("lotterydesign.analysis", "poa_bounds", "analysis.poa_bounds"),
    ("lotterydesign.analysis", "check_properties", "analysis.check_properties"),
    ("lotterydesign.analysis", "true_poa", "analysis.true_poa"),
    ("lotterydesign.design", "solve_lp", "simplex.solve_lp"),
    ("lotterydesign.design", "build_reformulation", "design.build_reformulation"),
    ("lotterydesign.design", "solve_design", "design.solve_design"),
    ("lotterydesign.design", "verify_design", "design.verify_design"),
    ("lotterydesign.grid", "parse_case", "grid.parse_case"),
    ("lotterydesign.grid", "monetize", "grid.monetize"),
    ("lotterydesign.grid", "build_dr_constraints", "grid.build_dr_constraints"),
    ("lotterydesign.harness", "emit_report", "harness.emit_report"),
    ("lotterydesign.harness", "run_scenario", "harness.run_scenario"),
)

# Returned fields read as counters, by span name.
RESULT_FIELDS = {
    "game.solve_equilibrium": "iterations",
    "simplex.solve_lp": "iterations",
    "design.solve_design": "lp_iterations",
}


class Tracer:
    """Records the spans of wrapped calls."""

    def __init__(self):
        # Each span: [name, start, end, parent index, counter or None].
        self.spans: list[list] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []

    def install(self):
        for module_name, attr_path, span_name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(f"{module_name}:{attr_path}")
                continue
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.skipped.append(f"{module_name}:{attr_path}")
                continue
            setattr(owner, attr, self._wrap(raw, span_name))

    def _wrap(self, raw, span_name):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, span_name))
        field = RESULT_FIELDS.get(span_name)
        spans, stack = self.spans, self._stack

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if field is not None:
                span[4] = getattr(result, field, None)
            return result

        return wrapper

    def dump(self, path):
        """Write the spans column by column, times in microseconds from the first."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        columns = {
            "name": [index[span[0]] for span in self.spans],
            "start_us": [round((span[1] - origin) * 1e6) for span in self.spans],
            "end_us": [round((span[2] - origin) * 1e6) for span in self.spans],
            "parent": [span[3] for span in self.spans],
            "counter": [span[4] for span in self.spans],
        }
        with open(path, "w") as fh:
            json.dump({"names": names, "skipped": self.skipped, "spans": columns}, fh)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round: inclusive span times, self times, counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        by_name = defaultdict(list)
        for k, (name, start, end, parent, _) in enumerate(spans):
            by_name[name].append(k)
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(k)
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = dict.fromkeys(MODULES, 0.0)
        counted = defaultdict(int)
        for k, (name, start, end, parent, counter) in enumerate(spans):
            duration = end - start
            total[name] += duration
            calls[name] += 1
            counted[name] += counter or 0
            module = name.split(".", 1)[0]
            if module in self_time:
                self_time[module] += duration - child_time[k]
        # The lexicographic pass is solve_design minus its first solve_lp
        # child (the main solve) and its build_reformulation child.
        main_s = lex_s = 0.0
        pivots_main = pivots_lex = 0
        for k in by_name["design.solve_design"]:
            _, start, end, _, lp_iterations = spans[k]
            kids = [spans[j] for j in children[k]]
            lps = [kid for kid in kids if kid[0] == "simplex.solve_lp"]
            lex_s += end - start - sum(kid[2] - kid[1] for kid in kids
                                       if kid[0] == "design.build_reformulation")
            if lps:
                main_s += lps[0][2] - lps[0][1]
                lex_s -= lps[0][2] - lps[0][1]
                if lps[0][4] is not None and lp_iterations is not None:
                    pivots_main += lps[0][4]
                    pivots_lex += lp_iterations - lps[0][4]

        per = 1.0 / max(rounds, 1)
        out = {
            "benefit.scaled_log_s": total["benefit.scaled_log"] * per,
            "benefit.socially_optimal_good_s": total["benefit.socially_optimal_good"] * per,
            "benefit.socially_optimal_good_calls": calls["benefit.socially_optimal_good"] * per,
        }
        out.update({
            "game.solve_equilibrium_s": total["game.solve_equilibrium"] * per,
            "game.solve_equilibrium_calls": calls["game.solve_equilibrium"] * per,
            "game.iterations": counted["game.solve_equilibrium"] * per,
            "analysis.poa_bounds_s": total["analysis.poa_bounds"] * per,
            "analysis.check_properties_s": total["analysis.check_properties"] * per,
            "analysis.true_poa_s": total["analysis.true_poa"] * per,
            "simplex.main_s": main_s * per,
            "simplex.lex_s": lex_s * per,
            "simplex.solve_lp_calls": calls["simplex.solve_lp"] * per,
            "simplex.pivots_main": pivots_main * per,
            "simplex.pivots_lex": pivots_lex * per,
            "design.build_reformulation_s": total["design.build_reformulation"] * per,
            "design.solve_design_s": total["design.solve_design"] * per,
            "design.verify_design_s": total["design.verify_design"] * per,
            "grid.parse_case_s": total["grid.parse_case"] * per,
            "grid.monetize_s": total["grid.monetize"] * per,
            "grid.build_dr_constraints_s": total["grid.build_dr_constraints"] * per,
            "harness.emit_report_s": total["harness.emit_report"] * per,
            "harness.run_scenario_self_s": sum(
                spans[k][2] - spans[k][1] - child_time[k]
                for k in by_name["harness.run_scenario"]) * per,
        })
        for module in MODULES:
            out[f"{module}.self_s"] = self_time[module] * per
        return out
