"""Power-system cases, DC shift factors, and demand-response constraints.

Reads a MATPOWER-style text case (bus/gen/branch tables, the columns needed
for DC analysis), computes the injection shift factor matrix of the DC power
flow, and converts a demand-shifting scenario into monetary affine constraints
on the lottery: per-bus shift caps, an aggregate generation balance, and line
flow limits in both directions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .design import ConstraintSet
from .errors import CaseParseError, CaseValidationError, DomainError


@dataclass(frozen=True)
class Bus:
    bus_id: int
    bus_type: int  # 1 load, 2 generator, 3 reference
    demand_mw: float


@dataclass(frozen=True)
class Generator:
    bus_id: int
    output_mw: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance: float  # p.u.
    limit_mw: float  # 0 means unlimited in the source data


@dataclass(frozen=True)
class GridCase:
    """Validated network: one reference bus, positive reactances, connected."""

    base_mva: float
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseValidationError("duplicate bus ids")
        known = set(ids)
        slacks = [b.bus_id for b in self.buses if b.bus_type == 3]
        if len(slacks) != 1:
            raise CaseValidationError(
                f"exactly one reference (type 3) bus required, found {len(slacks)}"
            )
        for g in self.generators:
            if g.bus_id not in known:
                raise CaseValidationError(f"generator references unknown bus {g.bus_id}")
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            if not br.reactance > 0.0:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} needs positive reactance"
                )
        # Connectivity via depth-first search over the branch graph.
        adjacency: dict[int, set[int]] = {i: set() for i in ids}
        for br in self.branches:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
        seen, frontier = {slacks[0]}, [slacks[0]]
        while frontier:
            reached = adjacency[frontier.pop()] - seen
            seen |= reached
            frontier += reached
        if seen != known:
            missing = sorted(known - seen)
            raise CaseValidationError(f"network is disconnected; unreachable buses {missing}")

    @property
    def slack_bus(self) -> int:
        return next(b.bus_id for b in self.buses if b.bus_type == 3)

    @property
    def load_bus_ids(self) -> tuple[int, ...]:
        return tuple(sorted(b.bus_id for b in self.buses if b.demand_mw > 0.0))

    @property
    def gen_bus_ids(self) -> tuple[int, ...]:
        return tuple(sorted({g.bus_id for g in self.generators}))

    def bus_index(self) -> dict[int, int]:
        return {b.bus_id: k for k, b in enumerate(self.buses)}


def _parse_table(text: str, name: str, min_cols: int,
                 int_fields: tuple[str, ...]) -> list[list[float]]:
    """The rows of a table as floats, its leading `int_fields` as ints."""
    # The table runs from its header to the first "];" after it.
    match = re.search(rf"mpc\.{name}\s*=\s*\[", text)
    end = -1 if match is None else text.find("];", match.end())
    if end < 0:
        raise CaseParseError(f"missing table '{name}'")
    offset = text.count("\n", 0, match.end())
    rows = []
    for k, raw in enumerate(text[match.end():end].splitlines()):
        line = raw.split("%")[0].strip().rstrip(";").strip()
        if not line:
            continue
        lineno = offset + k + 1
        fields = []
        tokens = line.split()
        for token in tokens:
            try:
                fields.append(float(token))
            except ValueError:
                raise CaseParseError(
                    f"line {lineno}: non-numeric field {token!r} in table '{name}'"
                ) from None
        if len(fields) < min_cols:
            raise CaseParseError(
                f"line {lineno}: table '{name}' row has {len(fields)} columns, "
                f"needs at least {min_cols}"
            )
        for k, field_name in enumerate(int_fields):
            if not fields[k].is_integer():  # also False for nan and inf
                raise CaseParseError(
                    f"line {lineno}: {field_name} {tokens[k]!r} in table '{name}' "
                    "is not an integer"
                )
            fields[k] = int(fields[k])
        rows.append(fields)
    if not rows:
        raise CaseParseError(f"table '{name}' is empty")
    return rows


def parse_case(text: str) -> GridCase:
    """Parse a MATPOWER-style case (bus/gen/branch subset; extra columns ignored)."""
    match = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;", text)
    if match is None:
        raise CaseParseError("missing scalar 'baseMVA'")
    try:
        base_mva = float(match.group(1))
    except ValueError:
        raise CaseParseError(f"non-numeric scalar 'baseMVA' {match.group(1)!r}") from None

    buses = tuple(
        Bus(bus_id=f[0], bus_type=f[1], demand_mw=f[2])
        for f in _parse_table(text, "bus", 3, ("bus_id", "bus_type"))
    )
    generators = tuple(
        Generator(bus_id=f[0], output_mw=f[1])
        for f in _parse_table(text, "gen", 2, ("bus_id",))
    )
    branches = tuple(
        Branch(from_bus=f[0], to_bus=f[1], reactance=f[3], limit_mw=f[5])
        for f in _parse_table(text, "branch", 6, ("from_bus", "to_bus"))
    )
    return GridCase(base_mva, buses, generators, branches)


def shift_factor_matrix(case: GridCase) -> np.ndarray:
    """Injection shift factors of the DC power flow, referenced to the slack.

    Entry (l, b) is the MW flow change on line l (measured from->to) per MW
    injected at bus b and withdrawn at the reference bus; the reference column
    is identically zero.
    """
    index = case.bus_index()
    nb, nl = len(case.buses), len(case.branches)
    lines = np.arange(nl)
    incidence = np.zeros((nl, nb))
    incidence[lines, [index[br.from_bus] for br in case.branches]] = 1.0
    incidence[lines, [index[br.to_bus] for br in case.branches]] = -1.0
    b_f = incidence / np.array([[br.reactance] for br in case.branches])
    b_bus = incidence.T @ b_f

    slack = index[case.slack_bus]
    keep = [j for j in range(nb) if j != slack]
    reduced = b_bus[np.ix_(keep, keep)]
    try:
        # reduced is symmetric: solve for H^T columns directly.
        h_keep = np.linalg.solve(reduced, b_f[:, keep].T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - caught at validation
        raise CaseValidationError(f"singular susceptance matrix: {exc}") from None
    h = np.zeros((nl, nb))
    h[:, keep] = h_keep
    return h


@dataclass(frozen=True)
class DrScenario:
    """Monetized demand-response data derived from a grid case.

    Demands are scaled by `demand_scale` (generation is not) and everything is
    converted to dollars at `rate` $/kWh over `hours`: $ = MW * hours * 1000 *
    rate. `shift_factors_load`/`shift_factors_gen` are the injection shift
    factor columns of the load and generator buses.
    """

    case: GridCase
    demand_scale: float
    rate: float
    hours: float
    load_bus_ids: tuple[int, ...] = field(init=False)
    gen_bus_ids: tuple[int, ...] = field(init=False)
    demand_dollars: np.ndarray = field(init=False)
    generation_dollars: np.ndarray = field(init=False)
    line_limit_dollars: np.ndarray = field(init=False)
    shift_factors_load: np.ndarray = field(init=False)
    shift_factors_gen: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("demand_scale", "rate", "hours"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        to_dollars = self.hours * 1000.0 * self.rate
        case = self.case
        load_ids = case.load_bus_ids
        gen_ids = case.gen_bus_ids
        demand_mw = {b.bus_id: b.demand_mw for b in case.buses}
        demand = np.array([demand_mw[b] for b in load_ids])
        generation_mw = dict.fromkeys(gen_ids, 0.0)  # summed over each bus's generators
        for g in case.generators:
            generation_mw[g.bus_id] += g.output_mw
        generation = np.array([generation_mw[b] for b in gen_ids])
        limits = np.array([
            br.limit_mw if br.limit_mw > 0.0 else math.inf for br in case.branches
        ])
        h = shift_factor_matrix(case)
        index = case.bus_index()
        for name, value in (
            ("load_bus_ids", load_ids),
            ("gen_bus_ids", gen_ids),
            ("demand_dollars", demand * self.demand_scale * to_dollars),
            ("generation_dollars", generation * to_dollars),
            ("line_limit_dollars", limits * to_dollars),
            ("shift_factors_load", h[:, [index[b] for b in load_ids]]),
            ("shift_factors_gen", h[:, [index[b] for b in gen_ids]]),
        ):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_players(self) -> int:
        return len(self.load_bus_ids)


def monetize(case: GridCase, demand_scale: float, rate: float,
             hours: float) -> DrScenario:
    """Convert a case into monetary demand-response data (see DrScenario)."""
    return DrScenario(case, demand_scale, rate, hours)


def build_dr_constraints(scenario: DrScenario) -> ConstraintSet:
    """Affine demand-response constraints over (shifted demand s, reward R).

    Rows: each bus can shift at most its demand; total adjusted demand cannot
    exceed total generation; and both signs of every finite line limit, with
    line flows written as the constant pre-shift flow plus the shift-factor
    response to s. All quantities are in dollars; the reward column is zero
    throughout (the grid does not see R directly).
    """
    n = scenario.n_players
    limited = np.flatnonzero(np.isfinite(scenario.line_limit_dollars))  # the rest: no limit
    limits = scenario.line_limit_dollars[limited]
    base_flow = (scenario.shift_factors_gen @ scenario.generation_dollars
                 - scenario.shift_factors_load @ scenario.demand_dollars)[limited]
    response = scenario.shift_factors_load[limited]
    # Each limited line's upper row, then its lower row, in branch order.
    a = np.zeros((n + 1 + 2 * limited.size, n + 1))
    a[:n, :n] = np.eye(n)
    a[n, :n] = -1.0
    a[n + 1:, :n] = np.stack((response, -response), axis=1).reshape(-1, n)
    total_gap = (math.fsum(scenario.generation_dollars.tolist())
                 - math.fsum(scenario.demand_dollars.tolist()))
    line_rhs = np.stack((limits - base_flow, limits + base_flow), axis=1)
    b = np.concatenate((scenario.demand_dollars, [total_gap], line_rhs.reshape(-1)))
    branches = scenario.case.branches
    tags = [f"{k}:{branches[k].from_bus}-{branches[k].to_bus}" for k in limited.tolist()]
    labels = ([f"demand_cap[bus{bus}]" for bus in scenario.load_bus_ids]
              + ["generation_balance"]
              + [f"{side}[{tag}]" for tag in tags for side in ("line_upper", "line_lower")])
    return ConstraintSet(a, b, tuple(labels))
