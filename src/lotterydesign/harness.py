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

A scenario file reads to the document `yaml.load` builds with the safe
loader: a line reader takes the block layout PyYAML's dumper writes, and
yaml.load itself reads any other file (see `_load_yaml`).

Artifacts (report.json plus CSVs) are byte-deterministic for a fixed config
and seed. report.json is encoded in one pass, sorting and encoding the keys of
each dict shape once per process; an analyze sweep's floats are formatted once
per distinct value, by column, for report.json and sweep.csv (`_sweep_rows`).
The encoder takes only the values a report holds (see `_report_json`), so the
config values a report echoes are checked where they are read. Each artifact
is overwritten in place: the new bytes go over the old ones and the file is
then truncated to their length. The output directory is made only when the
first write finds it missing. Truncating first (open "w") and renaming a new
file over the old one both cost far more on ext4: with its default
`auto_da_alloc` option, a file truncated to zero or replaced by a rename has
its data written back when it is closed, about 110 us per artifact against
6 us for an in-place rewrite. The rewrite is not atomic: a crash mid-write can
leave new bytes followed by the rest of the old file, where truncating first
could leave a short file.
"""

from __future__ import annotations

import importlib.resources
import itertools
import math
import operator
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import yaml

from . import analysis, design as design_mod, grid as grid_mod
from .benefit import BenefitProfile, _plain_floats
from .errors import (CaseParseError, CaseValidationError, ConfigError,
                     ExactnessViolationError, InvariantViolationError)
from .game import (TOLERANCES, DesignPoint, _checked_perturbation, _design_point,
                   _payoff_sum, certify_equilibrium, solve_equilibrium)

SCHEMA_VERSION = 1
# libyaml's safe loader when present; the pure-Python loader reads the same
# documents more slowly.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The first two forms of PyYAML's float resolver without an underscore. Float
# is the first resolver for every character such a token can start with, and
# its value is `float(text)`.
_FLOAT = re.compile(r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?")
# The ints whose `int` is what SafeConstructor builds: no underscore,
# sexagesimal part, leading zero or base prefix. Int is the first resolver that
# takes them (float needs a "."). Other forms go to the resolvers.
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_RESOLVERS: dict = {}  # (loader, first character) -> the implicit resolvers a token tries
_SAFE_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_NO_KEY = object()


class _Fallback(Exception):
    """The document holds something `_load_yaml` leaves to yaml.load."""


def _plain_scalar(text: str, loader):
    """A plain scalar's value: its implicitly resolved tag, then that tag's constructor."""
    if _FLOAT.fullmatch(text):
        return float(text)
    if _INT.fullmatch(text):
        return int(text)
    resolvers = _RESOLVERS.get((loader, text[:1]))
    if resolvers is None:
        table = loader.yaml_implicit_resolvers
        resolvers = _RESOLVERS[loader, text[:1]] = table.get(text[:1], []) + table.get(None, [])
    for tag, regexp in resolvers:
        if regexp.match(text):
            break
    else:
        return text
    try:
        return loader.yaml_constructors[tag](_SAFE_CONSTRUCTOR, yaml.ScalarNode(tag, text))
    except (ValueError, OverflowError, yaml.YAMLError):
        # A date out of range, say: yaml.load raises its own error for it,
        # unless the stream fails to parse first.
        raise _Fallback from None


def _load_yaml(text: str, loader=_YAML_LOADER) -> tuple:
    """`yaml.load(text, Loader=loader)`, read by `_read_block` when it takes the
    text, and False if it did and saw no bool (True: there may be one).

    PyYAML turns the parser's events into nodes and the nodes into values in
    Python, and on a large scenario file even making one Python event object
    per node is most of the parse. `_read_block` reads a block-style document
    whose scalars are all plain tokens, the layout PyYAML's dumper writes,
    without the parser: a line at a time, except that a run of "- token"
    items is read in one step, and so is each later "- key:" mapping item of
    a sequence laid out as its first one. Any other stream goes to yaml.load
    whole, which accepts or rejects it exactly as before, so a syntax error
    raises yaml.load's yaml.YAMLError. The text alone chooses the reader.
    """
    try:
        return _read_block(text, loader)
    except _Fallback:
        return yaml.load(text, Loader=loader), True


_TOKEN = r"(?:[\w.+]|-(?=[\w.+]))[\w.+-]*"
# A line `_read_block` reads: its indent, at most one "- ", then "key:",
# "key: token" or "token".
_BLOCK_LINE = re.compile(rf"( *)(- )?(?:({_TOKEN}):(?: ({_TOKEN}))?|({_TOKEN}))\Z")
_WHOLE_TOKEN = re.compile(rf"{_TOKEN}\Z")
# Characters that no such line holds and that hand-written files often do:
# comments, quotes, flow collections, anchors, aliases, tags, block scalars.
_NOT_BLOCK = "#'\"[]{}&*!|>\t\r"
_SIMPLE_KEY_LENGTH = 1024  # the longest implicit key libyaml and PyYAML accept


def _record(span: str, indent: str, scalar) -> tuple:
    """The layout of `span`, a "- key:" mapping item at `indent`: a regex of a sibling
    (its keys in order, each value a token or a run's text up to the next key's ":",
    then a line indented less than the keys or the end), its keys resolved, which
    values are runs, and a run's item separator. Tokens hold no ":", and the caller
    takes a run only if each item split from it is a whole token."""
    column = indent + "  "
    fields = re.findall(rf"^(?:{indent}- |{column})({_TOKEN}):( ?)", span, re.M)
    run = rf"\n{column}- ([^:]*)"
    pattern = "\n".join(f"{column}{re.escape(name)}:" + (f" ({_TOKEN})" if inline else run)
                        for name, inline in fields)
    return (re.compile(rf"{indent}- {pattern[len(column):]}(?=\n(?!{column})|\Z)"),
            [scalar(name) for name, _ in fields], [not inline for _, inline in fields],
            f"\n{column}- ")


def _read_block(text: str, loader) -> tuple:
    """A block-style mapping whose scalars are all plain tokens, and whether a
    token resolved to a bool; or _Fallback.

    Block rules: a sequence at its key's column is that key's value, "- key:"
    opens a compact mapping two columns in, a key with no deeper line below it
    is null, and a repeated key keeps its first place and its last value. A
    comment, blank line, empty or nested "- ", or a line indented past the
    structure (a plain scalar's continuation) raises _Fallback, as does any
    other line outside the subset, before a value is returned.

    The text is walked by offsets; known tokens are looked up directly, new ones
    resolved. A run of "- token" items is read in one step up to an item that is
    not a lone token. From a sequence's second "- key:" mapping item on, each item
    is read in one match of the first one's layout (`_record`), or by lines when
    it does not match or a run in it holds an item that is not a token.
    """
    if any(char in text for char in _NOT_BLOCK):
        raise _Fallback
    plain = {}  # token -> value; a large scenario repeats most of them
    records = {}  # id of a sequence -> the offset of its first "- key:" item, then its layout

    def scalar(token):
        value = plain.get(token, _NO_KEY)
        if value is _NO_KEY:
            value = plain[token] = _plain_scalar(token, loader)
        return value

    def resolved(items):
        # The values of `items`, or None when one of them is not a token.
        try:
            return [plain[item] for item in items]
        except KeyError:
            unseen = set(items).difference(plain)
        if not all(map(_WHOLE_TOKEN.match, unseen)):
            return None
        plain.update((item, _plain_scalar(item, loader)) for item in unseen)
        return [plain[item] for item in items]

    root = container = {}
    column, key, stack = 0, _NO_KEY, []  # key: the container's key whose value is below
    pos, end = 0, len(text) - text.endswith("\n")  # an empty text is one blank line
    while pos <= end:
        nl = text.find("\n", pos, end) % (end + 1)  # the line's end: "\n" or `end`
        match = _BLOCK_LINE.match(text, pos, nl)
        pos = nl + 1
        if match is None:
            raise _Fallback
        indent, dash, name, value, token = match.groups()
        at = len(indent)
        if key is not _NO_KEY:
            if at > column or dash and at == column:  # the key's value starts here
                if not dash and token is not None:
                    container[key], key = scalar(token), _NO_KEY
                    continue
                new = [] if dash else {}
                container[key] = new
                stack.append((column, container))
                column, container = at, new
            else:
                container[key] = None
            key = _NO_KEY
        while at < column:
            column, container = stack.pop()
        if not dash and type(container) is list:  # a sequence at its key's column ends
            column, container = stack.pop()
        if at != column or (type(container) is list) != bool(dash) or not (dash or name):
            raise _Fallback
        if dash and name is None:
            container.append(scalar(token))
            sep = f"\n{indent}- "  # a run ends before a line without it ("|\Z" tries all offsets)
            stop = re.compile(f"\n(?!{indent}- )").search(text, nl, end)  # re caches the regex
            stop = stop.start() if stop else end
            items = text[pos + len(sep) - 1:stop].split(sep)
            if (values := resolved(items)) is None:  # read from the first non-token on by lines
                cut = next(k for k, item in enumerate(items) if not _WHOLE_TOKEN.match(item))
                stop = pos + cut * len(sep) + sum(map(len, items[:cut])) - 1
                values = resolved(items[:cut])
            container.extend(values)
            pos = stop + 1
            continue
        if dash:
            start = match.start()
            layout = records.setdefault(id(container), start)
            if type(layout) is int and layout < start:  # the second item: compile the first's
                layout = records[id(container)] = _record(text[layout:start], indent, scalar)
            if type(layout) is tuple:  # read this item and the next ones while they match
                regex, names, is_run, item_sep = layout
                while whole := regex.match(text, start, end):
                    new = {}
                    for item_key, run, group in zip(names, is_run, whole.groups()):
                        new[item_key] = resolved(group.split(item_sep)) if run else scalar(group)
                        if run and new[item_key] is None:  # an item that is not a token
                            break  # read this mapping by lines
                    else:
                        container.append(new)
                        pos = start = whole.end() + 1
                        continue
                    break
                if start != match.start():
                    continue
            new = {}
            container.append(new)
            stack.append((column, container))
            column, container = at + 2, new
        if len(name) > _SIMPLE_KEY_LENGTH:
            raise _Fallback
        if value is None:
            key = scalar(name)
        else:
            container[scalar(name)] = scalar(value)
    if key is not _NO_KEY:
        container[key] = None
    return root, bool in set(map(type, plain.values()))


@dataclass
class ScenarioConfig:
    """Parsed scenario file plus the directory it was loaded from."""

    raw: dict
    base_dir: Path
    bools: bool = field(default=True, init=False, repr=False)  # False: its reader saw no bool

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw, bools = _load_yaml(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
        cfg = cls(raw, path.parent)
        cfg.bools = bools
        return cfg

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


def _mapping(value, name: str, *required: str) -> dict:
    """`value` if it is a mapping with every `required` key, else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    for key in required:
        if key not in value:
            raise ConfigError(f"{name} is missing required key '{key}'")
    return value


def _number(value, name: str) -> float:
    """`float(value)`, or ConfigError naming the field.

    A bool is not a number here, although float() reads true as 1.0.
    """
    try:
        if type(value) is bool:
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number") from None


def _has_bool(value) -> bool:
    """Whether a value read from YAML is or holds a bool, which float() would take."""
    return any(type(v) is bool for v in (value if isinstance(value, list) else [value]))


def _finite(value, name: str, low: float = -math.inf) -> float:
    """`value` as a finite float >= `low`, or ConfigError naming the field."""
    number = _number(value, name)
    if not math.isfinite(number) or number < low:
        bound = "" if low == -math.inf else f" >= {low:g}"
        raise ConfigError(f"{name} must be a finite number{bound}")
    return number


def _positive(value, name: str) -> float:
    """`value` as a finite float > 0, or ConfigError naming the field."""
    number = _number(value, name)
    if not 0.0 < number < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0")
    return number


def _perturbation(value, name: str, n: int) -> tuple[np.ndarray, float]:
    """`value` as a vector of n finite floats >= 0 and its total, or ConfigError
    naming the field.

    A list of n floats goes to `_checked_perturbation` as it is, to be
    checked on floats up to `_FLOAT_PLAYERS` players.
    """
    if not (_plain_floats(value) and len(value) == n):
        try:
            if isinstance(value, list) and _has_bool(value):
                raise TypeError
            value = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None or value.shape != (n,):
            raise ConfigError(f"{name} must be a list of {n} numbers")
    try:
        return _checked_perturbation(value)
    except InvariantViolationError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _profile_from_config(cfg: ScenarioConfig) -> tuple[BenefitProfile, list]:
    players = _mapping(cfg.require("profile"), "profile").get("players")
    if not players or not isinstance(players, list):
        raise ConfigError("profile.players must be a nonempty list")
    ids, coefficients = [], []
    for k, entry in enumerate(players):
        if not isinstance(entry, dict) or "coefficient" not in entry:
            _mapping(entry, f"profile.players[{k}]", "coefficient")  # raises
        family = entry.get("family", "scaled_log")
        if family != "scaled_log":
            raise ConfigError(f"unsupported benefit family {family!r}")
        player_id = entry.get("player_id", k + 1)
        if type(player_id) is not int and type(player_id) is not str:
            raise ConfigError(f"profile.players[{k}].player_id must be an integer or a string")
        ids.append(player_id)
        coefficients.append(entry["coefficient"])
    try:
        if _has_bool(coefficients):
            raise TypeError
        profile = BenefitProfile.scaled_log(coefficients)
    except (TypeError, ValueError, OverflowError, InvariantViolationError):
        # Read one at a time only to name the first coefficient out of range.
        profile = _benefit_profile([_positive(a, f"profile.players[{k}].coefficient")
                                    for k, a in enumerate(coefficients)], "profile.players")
    return profile, ids


def _benefit_profile(coefficients: list, name: str) -> BenefitProfile:
    """The profile of these coefficients, or ConfigError naming the field they come from."""
    try:
        return BenefitProfile.scaled_log(coefficients)
    except InvariantViolationError as exc:
        raise ConfigError(f"{name}: {exc}") from None


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
    section = _mapping(cfg.get("constraints", {}), "constraints", "grid")["grid"]
    section = _mapping(section, "constraints.grid")
    case_file = section.get("case_file", "")
    if not isinstance(case_file, str):
        raise ConfigError("constraints.grid.case_file must be a string")
    try:
        case = grid_mod.parse_case(_resolve_case_text(cfg, case_file))
    except (CaseParseError, CaseValidationError) as exc:
        raise ConfigError(f"constraints.grid.case_file: {exc}") from None
    return grid_mod.monetize(
        case,
        demand_scale=_positive(section.get("demand_scale", 1.0), "constraints.grid.demand_scale"),
        rate=_positive(section.get("rate_dollars_per_kwh", 0.1),
                       "constraints.grid.rate_dollars_per_kwh"),
        hours=_positive(section.get("horizon_hours", 1.0), "constraints.grid.horizon_hours"),
    )


def _inline_constraints(rows: list[dict], n_players: int, bools: bool):
    """A config's inline rows as a ConstraintSet, or ConfigError naming a bad field.

    The matrix is built in one pass; only when that fails are the rows read
    one at a time, to name the first field that is not finite numbers. A bool is not
    a number, though float() takes it: unless `bools` is False, the rows are scanned.
    """
    expected = {"s_coeffs": f"a list of {n_players} finite numbers",
                "r_coeff": "a finite number", "rhs": "a finite number"}
    for k, row in enumerate(rows):
        if not isinstance(row["s_coeffs"], list) or len(row["s_coeffs"]) != n_players:
            raise ConfigError(f"constraints.rows[{k}].s_coeffs must be {expected['s_coeffs']}")
    s_coeffs, r_coeffs, rhs = ([row.get(key, 0.0) for row in rows]
                               for key in ("s_coeffs", "r_coeff", "rhs"))
    try:
        if bools and (_has_bool(r_coeffs + rhs) or any(map(_has_bool, s_coeffs))):
            raise TypeError
        a = np.empty((len(rows), n_players + 1))
        a[:, :-1], a[:, -1] = s_coeffs, r_coeffs
        return design_mod.ConstraintSet(
            a, rhs, [str(row.get("label", f"row{k}")) for k, row in enumerate(rows)])
    except (TypeError, ValueError, OverflowError, InvariantViolationError):
        for k, row in enumerate(rows):
            for key, ndim in (("s_coeffs", 1), ("r_coeff", 0), ("rhs", 0)):
                value = row.get(key, 0.0)
                try:
                    value = None if _has_bool(value) else np.array(value, dtype=float)
                except (TypeError, ValueError, OverflowError):
                    value = None
                if value is None or value.ndim != ndim or not np.isfinite(value).all():
                    raise ConfigError(
                        f"constraints.rows[{k}].{key} must be {expected[key]}") from None
        raise


def _constraints_from_config(cfg: ScenarioConfig, n_players: int):
    section = _mapping(cfg.get("constraints", {"source": "none"}), "constraints")
    source = section.get("source", "none")
    if source == "none":
        return design_mod.ConstraintSet.empty(n_players)
    if source == "inline":
        rows = section.get("rows")
        if not rows or not isinstance(rows, list):
            raise ConfigError("constraints.source=inline requires nonempty rows")
        for k, row in enumerate(rows):
            if not isinstance(row, dict) or "s_coeffs" not in row or "rhs" not in row:
                _mapping(row, f"constraints.rows[{k}]", "s_coeffs", "rhs")  # raises
        return _inline_constraints(rows, n_players, cfg.bools)
    if source == "grid":
        return grid_mod.build_dr_constraints(_scenario_from_config(cfg))
    raise ConfigError(f"unknown constraints source {source!r}")


# Dict layouts by shape (keys, indent): the key heads in output order
# (separator, line break and indent, encoded key, ": "), a getter of the values
# in that order, the values' line break and indent, and the closing text.
# Reports repeat a few fixed shapes many times: each sweep row, the tolerance
# table, each property dict.
_LAYOUTS: dict = {}


def _layout(shape) -> tuple:
    """A dict shape's layout, kept in `_LAYOUTS`; TypeError if a key is not a str.

    Only a new shape's keys are checked: a str subclass equal to the keys of a
    shape already laid out is written as those keys.
    """
    keys, newline = shape
    if any(type(key) is not str for key in keys):
        raise TypeError(f"report keys must be str, got {keys!r}")
    order = sorted(keys)
    inner = newline + "  "
    heads = tuple(("," if n else "{") + inner + encode_basestring_ascii(key) + ": "
                  for n, key in enumerate(order))
    # An itemgetter of two or more keys returns a tuple of their values. The
    # first key is asked for twice so that one key gives a tuple too; the
    # zip with the heads drops the extra value.
    layout = _LAYOUTS[shape] = (heads, operator.itemgetter(*order, order[0]), inner,
                                newline + "}")
    return layout


_TOLERANCE_TEXT = [None, ""]  # the last key and text of `_tolerance_text`


def _tolerance_text(newline: str) -> str:
    """TOLERANCES encoded at this indent, once per distinct content.

    A row is a value and an origin (the report schema). Values of one type
    that compare equal encode alike but for the float zeros, so the key holds
    each value's type and sign: 1, 1.0 and True key apart, as do 0.0 and -0.0.
    A copy of the table is encoded in full; its line breaks are all indents.
    """
    key = newline, tuple([(name, type(v := row["value"]), v, v == 0 and math.copysign(1.0, v),
                           row["origin"]) for name, row in TOLERANCES.items()])
    if key != _TOLERANCE_TEXT[0]:
        _TOLERANCE_TEXT[:] = key, _report_json(dict(TOLERANCES))[:-1].replace("\n", newline)
    return _TOLERANCE_TEXT[1]


def _row_template(columns: dict, newline: str, order: list) -> str:
    """A %-template of `columns`' shape at this indent; its columns go to `order`."""
    shape = (tuple(columns), newline)
    heads, values, inner, close = _LAYOUTS.get(shape) or _layout(shape)
    parts = []
    for head, column in zip(heads, values(columns)):
        parts.append(head.replace("%", "%%"))
        if type(column) is dict:
            parts.append(_row_template(column, inner, order))
        else:
            parts.append("%s")
            order.append(column)
    return "".join(parts) + close


def _report_json(report: dict, columns: dict | None = None) -> str:
    """The bytes of report.json, built in one pass over the report.

    A report holds dicts with str keys, lists, strs, ints, floats, bools,
    None, numpy arrays of one or more dimensions and the TOLERANCES table; any
    other value or key (a subclass, a tuple, a numpy scalar, a 0-d array)
    raises TypeError. Matches `json.dumps(indent=2, sort_keys=True) + "\n"`
    with arrays made `tolist()` and non-finite floats made the strings
    "+inf", "-inf" and "nan". Keys are sorted and encoded once per dict
    shape (`_layout`), the tolerance table once per content
    (`_tolerance_text`), and strs, ints and floats are written in the loop
    over their dict or list.
    `columns` maps the id of a list of same-shape dicts to their values' texts
    as columns, shaped as one of them (`_sweep_rows`): the list is written from
    those, one %-template filled per dict.
    """
    parts = []
    append = parts.append
    isfinite, text = math.isfinite, encode_basestring_ascii

    def write(pairs, newline):
        # Each (head, value) pair of a dict or list: the head, then the
        # value's text. `newline` is the line break plus the values' indent.
        for head, value in pairs:
            append(head)
            kind = type(value)
            if kind is float:
                append(repr(value) if isfinite(value) else '"nan"' if value != value
                       else '"+inf"' if value > 0 else '"-inf"')
            elif kind is str:
                append(text(value))
            elif kind is int:
                append(repr(value))
            elif value is None or value is True or value is False:
                append("null" if value is None else "true" if value else "false")
            elif value is TOLERANCES:
                append(_tolerance_text(newline))
            elif kind is dict and value:
                shape = (tuple(value), newline)
                heads, values, inner, close = _LAYOUTS.get(shape) or _layout(shape)
                write(zip(heads, values(value)), inner)
                append(close)
            elif kind is list and value:
                inner = newline + "  "
                if columns and id(value) in columns:
                    order = []
                    template = _row_template(columns[id(value)], inner, order)
                    append("[" + inner + ("," + inner).join(map(template.__mod__, zip(*order))))
                else:
                    write(zip(itertools.chain(("[" + inner,), itertools.repeat("," + inner)),
                              value), inner)
                append(newline + "]")
            elif kind is dict or kind is list:
                append("{}" if kind is dict else "[]")
            elif kind is np.ndarray and value.ndim:
                write((("", value.tolist()),), newline)
            else:
                raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    write((("", report),), "\n")
    append("\n")
    return "".join(parts)


def _write_artifact(path: Path, text: str) -> None:
    """Overwrite the file at `path` with the ASCII bytes of `text`, in place.

    Writes over the old bytes, then truncates the file to the new length;
    see the module docstring for why it does not truncate first.
    """
    data = text.encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def emit_report(out_dir: Path, report: dict, csv_files: dict, columns=None) -> list[str]:
    """Write report.json and CSV artifacts with deterministic bytes.

    `csv_files` maps file name -> (header row, iterable of preformatted string
    rows), each row's cells joined by "," with "\r\n" after it: no cell (a
    formatted number, "+inf" or a label of bus ids) needs quoting; `columns`
    goes to `_report_json`. The report's artifact list is filled in here.
    """
    artifacts = ["report.json"] + sorted(csv_files)
    report["artifacts"] = artifacts
    text = _report_json(report, columns)
    try:
        _write_artifact(out_dir / "report.json", text)
    except FileNotFoundError:  # the directory is made only when missing
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_artifact(out_dir / "report.json", text)
    for name in sorted(csv_files):
        header, rows = csv_files[name]
        lines = [",".join(header), *map(",".join, rows), ""]
        _write_artifact(out_dir / name, "\r\n".join(lines))
    return artifacts


def _money(values) -> list[str]:
    """Each value with two decimals; a tiny negative prints as "0.00", not "-0.00"."""
    return ["0.00" if text == "-0.00" else text for text in map("%.2f".__mod__, values)]


def _run_equilibrium(cfg: ScenarioConfig) -> tuple[str, dict, list, dict, dict]:
    profile, ids = _profile_from_config(cfg)
    point = _mapping(cfg.require("design_point"), "design_point", "reward")
    c, c_bar = _perturbation(point.get("perturbation", [0.0] * profile.n_players),
                             "design_point.perturbation", profile.n_players)
    dp = _design_point(_positive(point["reward"], "design_point.reward"), c, c_bar)
    eq = solve_equilibrium(profile, dp)
    properties = analysis.check_properties(profile, dp, eq)
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
        "aggregate_payoff": _payoff_sum(profile, dp, eq.s_star),
        "poa_true": analysis.true_poa(profile, eq),
    }
    ok = (eq.max_foc_violation <= TOLERANCES["foc_residual"]["value"]
          and all(row["holds"] is not False for row in properties))
    return ("ok" if ok else "verification_failed"), results, properties, {}, {}


_BOUND_FIELDS = ("g_lower", "g_upper", "poa_lower", "poa_upper")


def _sweep_rows(reward, good, poa, counts, statement, proof) -> tuple[list, dict, list]:
    """A sweep's report.json rows, their texts as `_report_json` takes them, and
    sweep.csv's rows, whose ratio cells are those texts ("+inf" if not finite).
    statement and proof hold a list per bound field, in `_BOUND_FIELDS` order."""
    # Statement-form bounds are primary; the tightened variant is reported
    # alongside, never silently substituted. Both certify the same players.
    rows = [{"reward": r, "public_good": g, "poa_true": p, "assured_active_count": k,
             "g_lower": gl, "g_upper": gu, "poa_lower": pl, "poa_upper": pu,
             "proof_tightened": {"g_lower": tgl, "g_upper": tgu, "poa_lower": tpl,
                                 "poa_upper": tpu}}
            for r, g, p, k, gl, gu, pl, pu, tgl, tgu, tpl, tpu
            in zip(reward, good, poa, counts, *statement, *proof)]
    # One repr per distinct float of the sweep. 0.0 and -0.0 are one dict key,
    # so a column holding a zero is mapped value by value.
    floats = [reward, good, poa, *statement, *proof]
    by_value = {v: repr(v) if math.isfinite(v) else '"nan"' if v != v else '"+inf"' if v > 0
                else '"-inf"' for v in set(itertools.chain.from_iterable(floats))}
    texts = [[by_value[v] if v else "-0.0" if math.copysign(1.0, v) < 0 else "0.0"
              for v in column] if 0.0 in column else list(map(by_value.__getitem__, column))
             for column in floats]
    statement_texts, proof_texts = texts[3:7], texts[7:]
    columns = {"reward": texts[0], "public_good": texts[1], "poa_true": texts[2],
               "assured_active_count": list(map(repr, counts)),
               **dict(zip(_BOUND_FIELDS, statement_texts)),
               "proof_tightened": dict(zip(_BOUND_FIELDS, proof_texts))}
    ratios = (["+inf" if text[0] == '"' else text for text in column]
              for column in (texts[2], *statement_texts[2:]))
    return rows, columns, list(zip(_money(reward), _money(good), *ratios,
                                   _money(statement[0]), _money(statement[1])))


def _run_analyze(cfg: ScenarioConfig) -> tuple[str, dict, list, dict, dict]:
    profile, ids = _profile_from_config(cfg)
    sweep = _mapping(cfg.require("sweep"), "sweep")
    rewards = sweep.get("rewards")
    try:
        rewards = (np.sort([float(r) for r in rewards])
                   if isinstance(rewards, list) and not _has_bool(rewards) else None)
    except (TypeError, ValueError, OverflowError):
        rewards = None
    if rewards is None or not rewards.size or not (0.0 < rewards[0] and rewards[-1] < math.inf):
        raise ConfigError("sweep.rewards must be a nonempty list of finite numbers > 0")
    c, c_bar = _perturbation(sweep.get("perturbation", [0.0] * profile.n_players),
                             "sweep.perturbation", profile.n_players)
    # The rewards and c are checked here, so the sweep does not check them again.
    graded = analysis._analyze_sweep(profile, c, c_bar, rewards)
    reward, good, poa = rewards.tolist(), graded.equilibria.G.tolist(), graded.poa_true.tolist()
    statement, proof = ([getattr(bounds, name).tolist() for name in _BOUND_FIELDS]
                        for bounds in (graded.bounds, graded.proof_bounds))
    counts = graded.bounds.assured_active_count.tolist()
    rows, columns, csv_rows = _sweep_rows(reward, good, poa, counts, statement, proof)
    csvs = {"sweep.csv": (
        ["reward", "public_good", "poa_true", "poa_lower", "poa_upper",
         "g_lower", "g_upper"], csv_rows)}
    results = {"player_ids": ids, "perturbation": c, "sweep": rows}
    # The equilibrium verb's rule, row by row: FOC residuals within the
    # solver contract and every property that applies holding.
    ok = (graded.ok.all() and (graded.equilibria.max_foc_violation
                               <= TOLERANCES["foc_residual"]["value"]).all())
    return ("ok" if ok else "verification_failed"), results, [], csvs, {id(rows): columns}


def _design_problem(cfg: ScenarioConfig, profile: BenefitProfile,
                    constraints: design_mod.ConstraintSet) -> design_mod.DesignProblem:
    """The design problem of a scenario, individual-rationality rows stacked."""
    ir = _mapping(cfg.get("individual_rationality", {}), "individual_rationality")
    if "encoding" in ir:
        raise ConfigError("individual_rationality.encoding was removed; "
                          "delete the key (the rows are always c_i <= h_i(G*))")
    enabled = ir.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError("individual_rationality.enabled must be true or false")
    if enabled:
        constraints = constraints.stacked(design_mod.individual_rationality_rows(profile))
    alpha = _finite(cfg.get("alpha", 1.0), "alpha", 0.0)
    reward_floor = _positive(cfg.get("reward_floor", design_mod.DEFAULT_REWARD_FLOOR),
                             "reward_floor")
    try:
        return design_mod.DesignProblem(profile, constraints, alpha=alpha,
                                        reward_floor=reward_floor)
    except InvariantViolationError as exc:  # a reward_floor too small for the simplex
        raise ConfigError(str(exc)) from None


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
        "socially_optimal_good": problem.profile.g_star,
        "verification": verification,
    }


def _run_design(cfg: ScenarioConfig) -> tuple[str, dict, list, dict, dict]:
    profile, ids = _profile_from_config(cfg)
    problem = _design_problem(
        cfg, profile, _constraints_from_config(cfg, profile.n_players))
    status, sol, verification, _ = _solve_and_verify(problem)
    results = _design_results(problem, sol, verification)
    if sol.status == "optimal":
        results["player_ids"] = ids
    return status, results, [], {}, {}


# The casestudy results a `golden` entry may name.
_GOLDEN_TARGETS = ("socially_optimal_good", "reward", "total_investment", "aggregate_payoff",
                   "generation_total")


def _golden_specs(cfg: ScenarioConfig) -> list[tuple[str, float, float]]:
    """The `golden` section as sorted (name, expected, tolerance) rows, or ConfigError."""
    golden = _mapping(cfg.get("golden", {}), "golden")
    if any(type(name) is not str for name in golden):
        raise ConfigError("golden target names must be strings")
    specs = []
    for name, spec in sorted(golden.items()):
        if name not in _GOLDEN_TARGETS:
            raise ConfigError(f"golden target {name!r} is not produced by this pipeline")
        spec = _mapping(spec, f"golden.{name}", "value")
        expected = _finite(spec["value"], f"golden.{name}.value")
        if "tol_abs" in spec:
            tol = _finite(spec["tol_abs"], f"golden.{name}.tol_abs", 0.0)
        elif "tol_rel" in spec:
            tol = _finite(spec["tol_rel"], f"golden.{name}.tol_rel", 0.0) * abs(expected)
        else:
            raise ConfigError(f"golden target {name!r} needs tol_abs or tol_rel")
        specs.append((name, expected, tol))
    return specs


def _golden_checks(specs: list, actual: dict) -> tuple[list[dict], bool]:
    table = [{"name": name, "expected": expected, "actual": actual[name], "tolerance": tol,
              "ok": abs(actual[name] - expected) <= tol} for name, expected, tol in specs]
    return table, all(row["ok"] for row in table)


def _run_casestudy(cfg: ScenarioConfig) -> tuple[str, dict, list, dict, dict]:
    scenario = _scenario_from_config(cfg)
    offset = _mapping(cfg.get("casestudy", {}), "casestudy").get("coefficient_offset", 100.0)
    offset = _number(offset, "casestudy.coefficient_offset")
    profile = _benefit_profile([offset + b for b in scenario.load_bus_ids],
                               "casestudy.coefficient_offset")
    problem = _design_problem(cfg, profile, grid_mod.build_dr_constraints(scenario))
    golden = _golden_specs(cfg)  # checked before the solve, compared after it
    status, sol, verification, eq = _solve_and_verify(problem)
    if sol.status != "optimal":
        return status, _design_results(problem, sol, None), [], {}, {}

    s = eq.s_star
    c = sol.design.perturbation
    demand = scenario.demand_dollars
    flows = (scenario.shift_factors_gen @ scenario.generation_dollars
             - scenario.shift_factors_load @ (demand - s))
    limits = scenario.line_limit_dollars
    utilization = np.abs(flows) / limits * 100.0  # 0 on a line without a limit (+inf)

    results = _design_results(problem, sol, verification)
    results.update({
        "load_bus_ids": list(scenario.load_bus_ids),
        "total_investment": math.fsum(s.tolist()),
        "aggregate_payoff": verification["aggregate_payoff"],
        "total_demand": math.fsum(demand.tolist()),
        "generation_total": math.fsum(scenario.generation_dollars.tolist()),
        "adjusted_demand_total": math.fsum((demand - s).tolist()),
        "max_line_utilization_pct": float(np.max(utilization)),
    })
    results["golden"], golden_ok = _golden_checks(golden, results)

    buses = list(map(str, scenario.load_bus_ids))
    allocation_rows = list(zip(buses, _money(c), _money(s)))
    demand_rows = list(zip(buses, _money(demand), _money(demand - s)))
    line_rows = [[f"{br.from_bus}-{br.to_bus}", flow_text,
                  limit_text if math.isfinite(limit) else "+inf", f"{util:.4f}"]
                 for br, limit, flow_text, limit_text, util in zip(
                     scenario.case.branches, limits, _money(flows), _money(limits), utilization)]
    csvs = {
        "allocation.csv": (["bus", "c_star", "s_star"], allocation_rows),
        "demand.csv": (["bus", "demand", "adjusted"], demand_rows),
        "lines.csv": (["line", "flow", "limit", "utilization_pct"], line_rows),
    }
    status = status if golden_ok else "verification_failed"
    return status, results, [], csvs, {}


# Each returns a status, results, property rows, CSV files and `emit_report`'s columns.
_PIPELINES = {
    "equilibrium": _run_equilibrium,
    "analyze": _run_analyze,
    "design": _run_design,
    "casestudy": _run_casestudy,
}


def _report(verb: str, seed: int, status: str, results: dict, properties: list) -> dict:
    """A run's report, less the artifact list that `emit_report` fills in."""
    return {"schema_version": SCHEMA_VERSION, "verb": verb, "seed": seed, "status": status,
            "tolerances": TOLERANCES, "results": results, "properties": properties}


def run_scenario(verb: str, cfg: ScenarioConfig, out_dir=None, seed=None) -> HarnessResult:
    """Execute one pipeline and write its artifacts.

    Returns a HarnessResult whose status is "ok" only when every verification
    in the pipeline passed; config errors raise ConfigError instead.
    """
    config_seed = cfg.get("seed", 0)  # checked even when the seed argument overrides it
    seed = config_seed if seed is None else seed
    for value in (config_seed, seed):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError("seed must be an integer")
    seed = int(seed)
    output_dir = cfg.get("output_dir", "out")  # checked even when out_dir overrides it
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    if not isinstance(out_dir, Path):
        out_dir = Path(out_dir if out_dir is not None else output_dir)

    if verb not in _PIPELINES:
        raise ConfigError(f"unknown pipeline verb {verb!r}")
    status, results, properties, csvs, columns = _PIPELINES[verb](cfg)

    report = _report(verb, seed, status, results, properties)
    artifacts = emit_report(out_dir, report, csvs, columns)
    return HarnessResult(status, report, out_dir, artifacts)


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


# The deviations that skip a selftest corpus point, and how each escapes.
_ESCAPES = {"cancel": "withdrawing cancels the lottery",
            "zero_pool": "driving the pool to zero pays without bound"}


def _selftest_cases(seed: int):
    """Yield (name, passed, detail) for the built-in check battery."""
    profile2 = BenefitProfile.scaled_log([1.0, 1.0])

    unit = solve_equilibrium(profile2, DesignPoint(1.0, np.zeros(2)))
    yield ("two_player_equilibrium",
           abs(unit.G - 0.5) <= 1e-9 and np.allclose(unit.s_star, 0.75, atol=1e-9),
           f"G={unit.G:.12f}")

    dp = DesignPoint(1.0, np.array([0.5, 0.5]))
    eq = solve_equilibrium(profile2, dp)
    yield ("optimal_budget_hits_optimum",
           abs(eq.G - 1.0) <= 1e-9 and np.allclose(eq.s_star, 1.0, atol=1e-9),
           f"G={eq.G:.12f}")

    rl = analysis.reward_threshold(profile2, np.zeros(2))
    yield ("reward_threshold", abs(rl - 1.0) <= 1e-9, f"R_L={rl:.12f}")

    poa1 = analysis.true_poa(profile2, unit)
    yield ("poa_at_unit_reward", abs(poa1 - 1.2425) <= 1e-3, f"PoA={poa1:.6f}")

    poa_inf = analysis.true_poa(
        profile2, solve_equilibrium(profile2, DesignPoint(1e6, np.zeros(2))))
    yield ("poa_limit", abs(poa_inf - 1.0) <= 1e-3, f"PoA={poa_inf:.8f}")

    problem = design_mod.DesignProblem(
        profile2, design_mod.ConstraintSet.empty(2), alpha=1.0)
    sol = design_mod.solve_design(problem)
    design_mod.verify_design(problem, sol)
    yield ("unconstrained_design",
           sol.status == "optimal"
           and abs(sol.design.reward - problem.reward_floor) <= 1e-9,
           f"R*={sol.design.reward:.6f}")

    rng = np.random.default_rng(seed)
    gain_tol = TOLERANCES["deviation_gain"]["value"]
    worst_foc, worst_margin, worst_gain, held = 0.0, math.inf, 0.0, True
    done, skipped = 0, dict.fromkeys(_ESCAPES, 0)
    while done < 20:
        n = int(rng.integers(2, 5))
        coeffs = rng.uniform(0.6, 3.0, n)
        while coeffs.sum() <= 1.1:
            coeffs = rng.uniform(0.6, 3.0, n)
        profile = BenefitProfile.scaled_log(coeffs)
        if rng.random() < 0.5:
            c = np.zeros(n)
            reward = float(rng.uniform(0.1, 50.0))
        else:
            c = rng.uniform(0.0, profile.g_star / n, n)
            reward = max(analysis.reward_threshold(profile, c), float(c.sum()))
            reward += float(rng.uniform(0.1, 10.0))
        dp = DesignPoint(reward, c)
        eq = solve_equilibrium(profile, dp)
        # Skip, and count, points that the certificate proves are not
        # equilibria by an escape the first-order conditions cannot see.
        gain, kind, _ = max(certify_equilibrium(profile, dp, eq.s_star), key=lambda dev: dev[0])
        if gain > gain_tol and kind in skipped:
            skipped[kind] += 1
            continue
        done += 1
        worst_foc = max(worst_foc, eq.max_foc_violation)
        worst_gain = max(worst_gain, gain)
        for row in analysis.check_properties(profile, dp, eq):
            if row["holds"] is not None:
                held = held and row["holds"]
                worst_margin = min(worst_margin, row["margin"])
    escapes = ", ".join(f"{why}: {skipped[kind]}" for kind, why in _ESCAPES.items()
                        if skipped[kind])
    corpus = f"{done} points, {sum(skipped.values())} skipped" + (
        f": not an equilibrium ({escapes})" if escapes else "")
    yield ("random_corpus_foc", worst_foc <= TOLERANCES["foc_residual"]["value"],
           f"max residual {worst_foc:.2e}; {corpus}")
    yield ("random_corpus_properties", held, f"min margin {worst_margin:.2e}; {corpus}")
    yield ("random_corpus_best_response", worst_gain <= gain_tol,
           f"max unilateral gain {worst_gain:.2e}; {corpus}")

    status, results, *_ = _run_casestudy(ScenarioConfig(CASE30_SCENARIO, Path(".")))
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
    report = _report("selftest", int(seed), "ok" if ok else "verification_failed",
                     {"checks": entries}, [])
    report["artifacts"] = []
    if out_dir is not None:
        emit_report(Path(out_dir), report, {})
    return ok, lines, report
