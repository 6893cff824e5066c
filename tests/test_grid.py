import numpy as np
import pytest

from lotterydesign import (
    Branch,
    Bus,
    Generator,
    GridCase,
    build_dr_constraints,
    monetize,
    parse_case,
    shift_factor_matrix,
)
from lotterydesign.errors import CaseParseError, CaseValidationError, DomainError


def toy_case(branches, demands, gens, slack=1):
    ids = sorted({b for br in branches for b in (br[0], br[1])})
    buses = tuple(
        Bus(i, 3 if i == slack else 1, demands.get(i, 0.0)) for i in ids)
    generators = tuple(Generator(b, p) for b, p in gens)
    branch_objs = tuple(Branch(f, t, x, lim) for f, t, x, lim in branches)
    return GridCase(100.0, buses, generators, branch_objs)


def case_text(case):
    """The MATPOWER-subset tables of a case; parse_case inverts this exactly."""
    lines = ["function mpc = case", "mpc.version = '2';",
             f"mpc.baseMVA = {case.base_mva:g};", "mpc.bus = ["]
    lines += [f"\t{b.bus_id}\t{b.bus_type}\t{b.demand_mw:g}\t0\t0\t0\t1\t1\t0\t135\t1\t1.05\t0.95;"
              for b in case.buses]
    lines += ["];", "mpc.gen = ["]
    lines += [f"\t{g.bus_id}\t{g.output_mw:g}\t0\t0\t0\t1\t100\t1\t0\t0;"
              for g in case.generators]
    lines += ["];", "mpc.branch = ["]
    lines += [f"\t{br.from_bus}\t{br.to_bus}\t0\t{br.reactance:g}\t0\t{br.limit_mw:g}"
              "\t0\t0\t0\t0\t1\t-360\t360;" for br in case.branches]
    lines.append("];")
    return "\n".join(lines) + "\n"


TWO_BUS = toy_case([(1, 2, 0.1, 50.0)], {2: 10.0}, [(1, 10.0)])

# Star network 1-2, 2-3, 2-4: radial, so flows follow unique paths.
RADIAL = toy_case(
    [(1, 2, 0.1, 100.0), (2, 3, 0.2, 100.0), (2, 4, 0.25, 100.0)],
    {3: 5.0, 4: 7.0}, [(1, 12.0)])

RING = toy_case(
    [(1, 2, 0.1, 100.0), (2, 3, 0.1, 100.0), (3, 1, 0.1, 100.0)],
    {2: 10.0}, [(1, 10.0)])


class TestParseCase:
    def test_case30_inventory(self, case30):
        assert len(case30.buses) == 30
        assert len(case30.generators) == 6
        assert len(case30.branches) == 41
        assert len(case30.load_bus_ids) == 20
        assert case30.slack_bus == 1
        assert case30.gen_bus_ids == (1, 2, 13, 22, 23, 27)
        assert sum(b.demand_mw for b in case30.buses) == pytest.approx(189.2)
        assert sum(g.output_mw for g in case30.generators) == pytest.approx(189.21)

    def test_round_trip(self):
        assert parse_case(case_text(RADIAL)) == RADIAL
        assert parse_case(case_text(TWO_BUS)) == TWO_BUS

    def test_integral_float_ids_read_as_ints(self):
        text = case_text(TWO_BUS).replace("\t2\t1\t10\t", "\t2.0\t1e0\t10\t")
        assert parse_case(text) == TWO_BUS

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "2.5"])
    def test_non_integral_to_bus_names_the_field(self, token):
        text = case_text(TWO_BUS).replace("\t1\t2\t0\t", f"\t1\t{token}\t0\t")
        with pytest.raises(CaseParseError, match=f"to_bus '{token}' in table 'branch'"):
            parse_case(text)

    def test_missing_table_names_it(self, case30_text):
        broken = case30_text.replace("mpc.branch", "mpc.other")
        with pytest.raises(CaseParseError, match="branch"):
            parse_case(broken)

    def test_non_numeric_field_reports_line(self, case30_text):
        broken = case30_text.replace("\t1\t3\t0\t", "\t1\t3\toops\t", 1)
        with pytest.raises(CaseParseError, match=r"line \d+.*oops"):
            parse_case(broken)

    def test_missing_base_mva(self):
        with pytest.raises(CaseParseError, match="baseMVA"):
            parse_case(case_text(RADIAL).replace("baseMVA", "base"))

    def test_disconnected_network_rejected(self):
        text = case_text(toy_case([(1, 2, 0.1, 10.0)], {2: 1.0}, [(1, 1.0)]))
        text = text.replace("mpc.bus = [", "mpc.bus = [\n\t9\t1\t5\t0\t0\t0\t1\t1\t0\t135\t1\t1.05\t0.95;")
        with pytest.raises(CaseValidationError, match="disconnected"):
            parse_case(text)

    def test_slack_count_enforced(self):
        with pytest.raises(CaseValidationError, match="reference"):
            toy_case([(1, 2, 0.1, 10.0)], {2: 1.0}, [(1, 1.0)], slack=99)

    def test_positive_reactance_enforced(self):
        with pytest.raises(CaseValidationError, match="reactance"):
            toy_case([(1, 2, 0.0, 10.0)], {2: 1.0}, [(1, 1.0)])


class TestShiftFactors:
    def test_two_bus_line(self):
        h = shift_factor_matrix(TWO_BUS)
        # Injection at bus 2 flows entirely against the 1->2 orientation.
        assert h == pytest.approx(np.array([[0.0, -1.0]]), abs=1e-12)

    def test_ring_splits_two_thirds(self):
        h = shift_factor_matrix(RING)
        col = h[:, 1]  # response to injection at bus 2
        assert col[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)  # direct line 1-2
        assert col[1] == pytest.approx(1.0 / 3.0, abs=1e-12)   # two-hop path
        assert col[2] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_slack_column_is_zero(self, case30):
        h = shift_factor_matrix(case30)
        index = case30.bus_index()
        assert np.abs(h[:, index[case30.slack_bus]]).max() == 0.0

    def test_case30_entries_bounded(self, case30):
        h = shift_factor_matrix(case30)
        assert h.min() >= -1.0 - 1e-9
        assert h.max() <= 1.0 + 1e-9

    def test_radial_flows_match_path_tracing(self):
        h = shift_factor_matrix(RADIAL)
        # Withdrawals at buses 3 and 4 (injections -5, -7) are served from the
        # slack, so power runs down the unique paths 1->2->3 and 1->2->4:
        # line 1-2 carries 5+7, line 2-3 carries 5, line 2-4 carries 7.
        injection = np.array([0.0, 0.0, -5.0, -7.0])
        flows = h @ injection
        assert flows == pytest.approx([12.0, 5.0, 7.0], abs=1e-9)

    def test_kirchhoff_balance_on_case30(self, case30):
        rng = np.random.default_rng(41)
        h = shift_factor_matrix(case30)
        index = case30.bus_index()
        nb = len(case30.buses)
        x = rng.uniform(-5.0, 5.0, nb)
        x[index[case30.slack_bus]] = 0.0
        x[index[case30.slack_bus]] = -x.sum()  # balanced injection
        flows = h @ x
        net = np.zeros(nb)
        for k, br in enumerate(case30.branches):
            net[index[br.from_bus]] += flows[k]
            net[index[br.to_bus]] -= flows[k]
        assert net == pytest.approx(x, abs=1e-8)


class TestMonetize:
    def test_generator_conversion(self, case30_scenario):
        # 23.54 MW at bus 1 for one hour at $0.1/kWh.
        k = case30_scenario.gen_bus_ids.index(1)
        assert case30_scenario.generation_dollars[k] == pytest.approx(2354.0)

    def test_zero_demand_buses_excluded(self, case30):
        scenario = monetize(case30, 1.0, 0.1, 1.0)
        assert 5 not in scenario.load_bus_ids  # bus 5 carries no demand
        assert len(scenario.load_bus_ids) == 20

    def test_totals(self, case30_scenario):
        assert case30_scenario.generation_dollars.sum() == pytest.approx(18921.0)
        assert case30_scenario.demand_dollars.sum() == pytest.approx(
            1.3 * 18920.0, abs=0.5)

    def test_rejects_nonpositive_parameters(self, case30):
        for kwargs in ({"demand_scale": 0.0}, {"rate": -0.1}, {"hours": 0.0}):
            full = {"demand_scale": 1.3, "rate": 0.1, "hours": 1.0, **kwargs}
            with pytest.raises(DomainError):
                monetize(case30, **full)


class TestDrConstraints:
    def test_case30_rows(self, case30_scenario):
        cons = build_dr_constraints(case30_scenario)
        assert cons.n_rows == 20 + 1 + 2 * 41
        assert cons.labels[0] == "demand_cap[bus2]"
        assert "generation_balance" in cons.labels

    def test_balance_row_forces_total_shift(self, case30_scenario):
        cons = build_dr_constraints(case30_scenario)
        k = cons.labels.index("generation_balance")
        # At zero shift the adjusted demand exceeds generation by ~5675.
        residual = cons.residuals(np.zeros(20), 1.0)[k]
        assert residual == pytest.approx(24596.0 - 18921.0, abs=0.5)
        # Shifting exactly the gap (evenly) satisfies the row with equality.
        s = np.full(20, (24596.0 - 18921.0) / 20.0)
        assert cons.residuals(s, 1.0)[k] == pytest.approx(0.0, abs=1e-9)

    def test_unscaled_demand_is_balanced(self, case30):
        scenario = monetize(case30, 1.0, 0.1, 1.0)
        cons = build_dr_constraints(scenario)
        k = cons.labels.index("generation_balance")
        assert cons.residuals(np.zeros(20), 1.0)[k] <= 1e-6

    def test_demand_caps_match_scaled_loads(self, case30_scenario):
        cons = build_dr_constraints(case30_scenario)
        assert cons.b[:20] == pytest.approx(case30_scenario.demand_dollars)

    def test_tight_line_forces_shift(self):
        # Two buses, generation at the slack, one line too small for the
        # scaled demand: the flow rows force shifting at bus 2.
        case = toy_case([(1, 2, 0.1, 8.0)], {2: 10.0}, [(1, 10.0)])
        scenario = monetize(case, 1.0, 0.1, 1.0)
        cons = build_dr_constraints(scenario)
        labels = list(cons.labels)
        rows = [labels.index("line_upper[0:1-2]"), labels.index("line_lower[0:1-2]")]
        # Unshifted: the line must carry $1000 against an $800 limit.
        assert max(cons.residuals(np.zeros(1), 1.0)[rows]) == pytest.approx(200.0)
        # Shifting $200 at bus 2 restores feasibility.
        assert max(cons.residuals(np.array([200.0]), 1.0)[rows]) <= 1e-9

    def test_unlimited_branches_dropped(self):
        case = toy_case([(1, 2, 0.1, 0.0)], {2: 10.0}, [(1, 10.0)])
        cons = build_dr_constraints(monetize(case, 1.0, 0.1, 1.0))
        assert all(not lab.startswith("line_") for lab in cons.labels)
        assert cons.n_rows == 2  # demand cap + balance

    def test_unlimited_line_between_limited_ones(self):
        # Ring 1-2-3 with the middle line unlimited: each limited line gives
        # its upper row, then its lower row, in branch order.
        case = toy_case([(1, 2, 0.1, 100.0), (2, 3, 0.1, 0.0), (3, 1, 0.1, 50.0)],
                        {2: 10.0, 3: 5.0}, [(1, 15.0)])
        scenario = monetize(case, 1.0, 0.1, 1.0)
        cons = build_dr_constraints(scenario)
        assert cons.labels == ("demand_cap[bus2]", "demand_cap[bus3]", "generation_balance",
                               "line_upper[0:1-2]", "line_lower[0:1-2]",
                               "line_upper[2:3-1]", "line_lower[2:3-1]")
        base_flow = (scenario.shift_factors_gen @ scenario.generation_dollars
                     - scenario.shift_factors_load @ scenario.demand_dollars)
        for row, line in ((3, 0), (5, 2)):
            response = scenario.shift_factors_load[line]
            limit = scenario.line_limit_dollars[line]
            assert np.array_equal(cons.a[row], np.append(response, 0.0))
            assert np.array_equal(cons.a[row + 1], np.append(-response, 0.0))
            assert cons.b[row] == limit - base_flow[line]
            assert cons.b[row + 1] == limit + base_flow[line]
        assert np.array_equal(cons.a[:3], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])


class TestCaseStudyFeasibility:
    def test_designed_point_satisfies_all_rows(self, case30_scenario, i30_profile):
        from lotterydesign import (
            DesignProblem,
            solve_design,
            solve_equilibrium,
        )

        cons = build_dr_constraints(case30_scenario)
        problem = DesignProblem(i30_profile, cons, alpha=1.0)
        sol = solve_design(problem)
        eq = solve_equilibrium(i30_profile, sol.design)
        assert cons.residuals(eq.s_star, sol.design.reward).max() <= 1e-6
        # Line headroom stays strictly positive (mirrors the utilization plot).
        flows = (case30_scenario.shift_factors_gen @ case30_scenario.generation_dollars
                 - case30_scenario.shift_factors_load
                 @ (case30_scenario.demand_dollars - eq.s_star))
        utilization = np.abs(flows) / case30_scenario.line_limit_dollars
        assert utilization.max() <= 1.0 + 1e-9
