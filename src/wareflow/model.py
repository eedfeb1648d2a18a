"""Problem and solution data model: exact arithmetic, validation, feasibility
checking, and the JSON codec of every record file.

A trading instance covers periods 1..T.  In period t the plan may purchase
x_t and sell y_t subject to indicator-coupled bounds, and the stock evolves
by the balance equation s_t = s_{t-1} - y_t + x_t.  Three variants are
supported: wp1 forbids buying and selling in the same period, wp2 instead
limits each sale to the opening stock (y_t <= s_{t-1}), and wp3 is wp1 with
zero lower trade bounds, fixed costs and holding costs, and with s0 inside
every period's stock bounds [Ls_t, Us_t].

Every numeric datum is an exact rational, held as a plain int whenever the
value is integral and as fractions.Fraction otherwise.  Floats are rejected
at the boundary so no feasibility or optimality decision rests on rounding.
A vector is checked whole: one that holds plain ints only is already exact
and passes through the constructors and the JSON reader and writer as it
is, and only a vector holding anything else is coerced value by value.
Validation likewise runs one test over whole vectors, which every valid
instance passes; only an instance it refuses is walked period by period
to report its first failing rule.

Instance, plan and lot-sizing files are read and written by one codec,
_to_json_dict and _from_json_dict, which walks the record's dataclass
fields, so every file holds exactly its record's keys and one that breaks
a rule is told so in the same words whatever its record.  The files hold
only scalars and lists of scalars, so _dump_flat writes them value by
value through json's C encoder, in the bytes json.dumps(..., sort_keys=True,
indent=2) gives, plus a newline; serialize_levels writes the levels dump,
a list of such lists, in the same way.  serialize_report writes the check
report, whose list holds objects, through json.dumps itself.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import attrgetter, gt
from typing import Iterable, Union

from .errors import (
    InvalidArgument,
    LowerExceedsUpper,
    NegativeBound,
    PeriodOutOfRange,
    WP3ShapeViolation,
    WrongVectorLength,
)

Exact = Union[int, Fraction]


def exact(value) -> Exact:
    """Coerce a number to exact form: int when integral, Fraction otherwise.

    Accepts ints, Fractions, and strings in parse_exact's grammar: an
    optional sign, ASCII digits and an optional "/digits", such as "7" or
    "-3/4"; any other string raises ValueError as parse_exact does.  Floats
    are rejected because they would smuggle rounding error into
    computations that must stay exact.  A plain int or a Fraction returns
    at once: a Fraction is always reduced, and one with denominator 1 is
    its numerator.  exact_vector sends here only the values of a vector
    that is not all plain ints.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, float):
        raise TypeError(f"floats are not exact: {value!r}")
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def exact_quotient(numerator: int, denominator: int) -> Exact:
    """numerator / denominator in exact form, building a Fraction only
    when the quotient is not whole."""
    whole, rest = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if rest else whole


_INT = frozenset({int})


def _all_int(values) -> bool:
    """True when every value is a plain int: no bool, float or Fraction."""
    return set(map(type, values)) <= _INT


def exact_vector(values: Iterable) -> tuple[Exact, ...]:
    """The values in exact form, as a tuple.  A tuple of plain ints comes
    back as it is; other values go through exact one by one."""
    vec = tuple(values)
    return vec if _all_int(vec) else tuple(map(exact, vec))


def format_exact(value: Exact) -> int | str:
    """Render a rational for JSON: plain integer or a "p/q" string."""
    v = exact(value)
    if isinstance(v, int):
        return v
    return f"{v.numerator}/{v.denominator}"


def _format_vector(vec: tuple[Exact, ...]) -> list:
    """An exact vector as JSON writes it, each value through format_exact;
    plain ints are already in that form and are copied as they are."""
    return list(vec) if _all_int(vec) else list(map(format_exact, vec))


# an input value echoed in an error message shows at most this many
# characters, so a 5,000-digit literal makes a short message
_ECHO_LIMIT = 40


def echo(value) -> str:
    """An input value as an error message shows it: a Fraction as "p/q",
    anything else as its repr, cut to its first 40 characters with its
    full length named when it is longer."""
    text = str(value) if isinstance(value, Fraction) else repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


# an optional sign, ASCII digits and an optional "/digits": no exponent,
# decimal point, underscore or padding, so no short string stands for a
# huge number, and Python's int-string digit limit bounds the long ones
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_exact(raw) -> Exact:
    """Parse a JSON number field: an integer or a "p/q" string."""
    if isinstance(raw, bool):
        raise ValueError(f"expected integer or 'p/q' string, got {echo(raw)}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            if not _RATIONAL.fullmatch(raw):
                raise ValueError("outside the p/q grammar")
            return exact(Fraction(raw))
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"not a rational literal: {echo(raw)}") from err
    raise ValueError(f"expected integer or 'p/q' string, got {echo(raw)}")


def _parse_vector(raw: list) -> tuple[Exact, ...]:
    """A JSON list of number fields, each through parse_exact; plain ints
    are already in exact form and are copied as they are."""
    return tuple(raw) if _all_int(raw) else tuple(map(parse_exact, raw))


class Variant(Enum):
    """Which coupling between purchases and sales the instance uses."""

    WP1 = "wp1"  # complementarity: x_t * y_t = 0
    WP2 = "wp2"  # sales limited by opening stock: y_t <= s_{t-1}
    WP3 = "wp3"  # wp1, Lx = Ly = 0, no fixed or holding cost, Ls <= s0 <= Us


def _coerce_variant(value) -> Variant:
    if isinstance(value, Variant):
        return value
    try:
        return Variant(str(value).lower())
    except ValueError as err:
        raise InvalidArgument(f"unknown variant: {echo(value)}") from err


_BOUND_FIELDS = ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")
_PRICE_FIELDS = ("revenue", "cost", "holding")
_FIXED_FIELDS = ("fixed_purchase", "fixed_sale")
_VECTOR_FIELDS = _BOUND_FIELDS + _PRICE_FIELDS + _FIXED_FIELDS
# the eleven vectors, and the six bound vectors, of an instance or its rows
_vectors = attrgetter(*_VECTOR_FIELDS)
_bounds = attrgetter(*_BOUND_FIELDS)
_BOUND_PAIRS = (("Ls", "Us"), ("Lx", "Ux"), ("Ly", "Uy"))
# the data wp3 holds at zero in every period
_WP3_ZERO = ("Lx", "Ly", "fixed_purchase", "fixed_sale", "holding")


@dataclass(frozen=True)
class Instance:
    """One trading problem over periods 1..T.

    Vectors are indexed 0..T-1 for periods 1..T.  Bounds come in pairs:
    [Ls, Us] brackets the stock after each period, [Lx, Ux] the purchase
    amount when the purchase indicator is on, [Ly, Uy] the sale amount when
    the sale indicator is on.  revenue/cost/holding are the linear payoff
    coefficients and fixed_purchase/fixed_sale the per-period charges for
    switching an indicator on.  Every construction, replace() included,
    runs validate_instance, so no invalid Instance exists.
    """

    variant: Variant
    T: int
    s0: Exact
    Ls: tuple[Exact, ...]
    Us: tuple[Exact, ...]
    Lx: tuple[Exact, ...]
    Ux: tuple[Exact, ...]
    Ly: tuple[Exact, ...]
    Uy: tuple[Exact, ...]
    revenue: tuple[Exact, ...]
    cost: tuple[Exact, ...]
    holding: tuple[Exact, ...]
    fixed_purchase: tuple[Exact, ...]
    fixed_sale: tuple[Exact, ...]

    def __post_init__(self):
        object.__setattr__(self, "variant", _coerce_variant(self.variant))
        if type(self.T) is not int:
            raise TypeError(f"T must be an int, got {echo(self.T)}")
        object.__setattr__(self, "s0", exact(self.s0))
        for name in _VECTOR_FIELDS:
            object.__setattr__(self, name, exact_vector(getattr(self, name)))
        validate_instance(self)

    @property
    def periods(self) -> range:
        return range(1, self.T + 1)

    def bounds_integral(self) -> bool:
        """True when s0 and every bound vector hold integers only."""
        # a sum of ints is an int, and one Fraction makes it a Fraction
        return all(type(sum(vec, self.s0)) is int
                   for vec in (self.Ls, self.Us, self.Lx, self.Ux, self.Ly,
                               self.Uy))

    def bounds_time_independent(self) -> bool:
        """True when each of the six bound vectors is constant over time."""
        for name in _BOUND_FIELDS:
            vec = getattr(self, name)
            if any(v != vec[0] for v in vec):
                return False
        return True


@dataclass(frozen=True)
class Solution:
    """A trading plan: amounts, stocks, indicators, and its objective value.

    s holds the stock after each period (s[t-1] is the stock at the end of
    period t); the initial stock lives on the instance.
    """

    x: tuple[Exact, ...]
    y: tuple[Exact, ...]
    s: tuple[Exact, ...]
    w: tuple[Exact, ...]
    z: tuple[Exact, ...]
    objective: Exact

    def __post_init__(self):
        for name in ("x", "y", "s", "w", "z"):
            object.__setattr__(self, name, exact_vector(getattr(self, name)))
        object.__setattr__(self, "objective", exact(self.objective))


Violation = tuple  # (period, constraint name, lhs, rhs)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking a solution: feasible iff violations is empty."""

    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [
                {
                    "period": p,
                    "constraint": name,
                    "lhs": format_exact(lhs),
                    "rhs": format_exact(rhs),
                }
                for (p, name, lhs, rhs) in self.violations
            ],
        }


def _first_failure(inst: Instance) -> Exception:
    """The error of the first rule an instance fails, walking the periods in
    validate_instance's order: every period's bound-pair and fixed-cost
    rules, then every period's wp3 rules.  Only an instance that fails some
    rule gets here, and only a wp3 one gets past the first loop."""
    for t in inst.periods:
        i = t - 1
        for lo_name, hi_name in _BOUND_PAIRS:
            lo, hi = getattr(inst, lo_name)[i], getattr(inst, hi_name)[i]
            for name, v in ((lo_name, lo), (hi_name, hi)):
                if v < 0:
                    return NegativeBound(f"{name}[{t}] = {echo(v)} is negative")
            if lo > hi:
                return LowerExceedsUpper(f"{lo_name}[{t}] = {echo(lo)} exceeds "
                                         f"{hi_name}[{t}] = {echo(hi)}")
        for name in _FIXED_FIELDS:
            v = getattr(inst, name)[i]
            if v < 0:
                return NegativeBound(f"{name}[{t}] = {echo(v)} is negative")
    s0 = inst.s0
    for t in inst.periods:
        i = t - 1
        for name in _WP3_ZERO:
            v = getattr(inst, name)[i]
            if v != 0:
                return WP3ShapeViolation(
                    f"wp3 requires {name}[{t}] = 0, got {echo(v)}")
        if not inst.Ls[i] <= s0 <= inst.Us[i]:
            return WP3ShapeViolation(
                f"wp3 requires Ls[{t}] <= s0 <= Us[{t}], got "
                f"{echo(inst.Ls[i])} <= {echo(s0)} <= {echo(inst.Us[i])}")


def validate_instance(inst: Instance) -> None:
    """Check every structural invariant, reporting the first failure.

    T and the vector lengths come first, then s0 >= 0.  Then every
    period's rules: each bound pair (Ls, Us), (Lx, Ux), (Ly, Uy) has no
    negative end and lo <= hi, and both fixed costs are nonnegative; for
    wp3 then every period's zero Lx, Ly, fixed and holding costs and
    Ls <= s0 <= Us.  One test over whole vectors with min, max and any
    passes every valid instance; an instance it refuses is walked period
    by period in that order, and the first rule failing is reported.
    Raises NegativeBound, LowerExceedsUpper, WrongVectorLength, or
    WP3ShapeViolation.  Instance.__post_init__ calls it on every instance
    built, so callers need not.
    """
    if inst.T < 1:
        raise WrongVectorLength(f"T must be positive, got {echo(inst.T)}")
    for name in _VECTOR_FIELDS:
        vec = getattr(inst, name)
        if len(vec) != inst.T:
            raise WrongVectorLength(
                f"{name} has length {len(vec)}, expected T={echo(inst.T)}"
            )
    if inst.s0 < 0:
        raise NegativeBound(f"s0 = {echo(inst.s0)} is negative")
    lows, highs = (inst.Ls, inst.Lx, inst.Ly), (inst.Us, inst.Ux, inst.Uy)
    # an upper bound is negative only where its lower one is or exceeds it
    if (min(chain(*lows, inst.fixed_purchase, inst.fixed_sale)) < 0
            or any(map(gt, chain(*lows), chain(*highs)))
            or inst.variant is Variant.WP3 and (
                any(chain.from_iterable(getattr(inst, n) for n in _WP3_ZERO))
                or not max(inst.Ls) <= inst.s0 <= min(inst.Us))):
        raise _first_failure(inst)


def evaluate_payoff(inst: Instance, t: int, x, y, s, w, z) -> Exact:
    """Payoff contributed by period t given its amounts and indicators.

    s is the stock at the end of period t.  t is 1-based.
    """
    if not 1 <= t <= inst.T:
        raise PeriodOutOfRange(f"period {t} outside 1..{inst.T}")
    i = t - 1
    return (
        inst.revenue[i] * y
        - inst.cost[i] * x
        - inst.holding[i] * s
        - inst.fixed_purchase[i] * w
        - inst.fixed_sale[i] * z
    )


def compute_objective(inst: Instance, x, y, s, w, z) -> Exact:
    """Total payoff of a full plan (vectors indexed 0..T-1)."""
    total = 0
    for t in inst.periods:
        i = t - 1
        total += evaluate_payoff(inst, t, x[i], y[i], s[i], w[i], z[i])
    return exact(total)


def scale_factor(inst: Instance) -> int:
    """F, the LCM of the denominators of s0 and every vector datum: the
    least factor that turns s0, the bounds and the unit prices times F and
    the fixed costs times F*F into ints, the rows stocklevels.searched
    scales by it.  Data of ints only give 1 with no walk over the values."""
    vectors = _vectors(inst)
    # a sum of ints is an int, and one Fraction makes it a Fraction
    if all(type(sum(vec, inst.s0)) is int for vec in vectors):
        return 1
    return math.lcm(inst.s0.denominator, *(
        v.denominator for vec in vectors for v in vec))


def assemble_solution(inst: Instance, x, y) -> Solution:
    """Build a Solution from trade amounts, deriving stocks and objective.

    The indicators are the minimal assignment (on iff the amount is
    positive), which is payoff-maximal under nonnegative fixed costs.
    """
    x = exact_vector(x)
    y = exact_vector(y)
    if len(x) != inst.T or len(y) != inst.T:
        raise WrongVectorLength("x and y must have length T")
    w = tuple(1 if v > 0 else 0 for v in x)
    z = tuple(1 if v > 0 else 0 for v in y)
    stocks = []
    s_prev = inst.s0
    for i in range(inst.T):
        s_prev = s_prev - y[i] + x[i]
        stocks.append(s_prev)
    objective = compute_objective(inst, x, y, stocks, w, z)
    return Solution(x=x, y=y, s=tuple(stocks), w=w, z=z, objective=objective)


def check_solution(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Verify a plan against every constraint of the instance.

    Checks flow balance, the six bound pairs with indicator coupling, the
    variant-specific coupling constraint, binary indicators, and that the
    stored objective matches a recomputation.  Violations are recorded as
    (period, constraint, lhs, rhs) tuples; the objective check uses period 0.
    """
    for name in ("x", "y", "s", "w", "z"):
        if len(getattr(sol, name)) != inst.T:
            raise WrongVectorLength(
                f"solution {name} has length {len(getattr(sol, name))}, "
                f"expected T={inst.T}"
            )
    bad: list[Violation] = []
    s_prev = inst.s0
    for t in inst.periods:
        i = t - 1
        x, y, s, w, z = sol.x[i], sol.y[i], sol.s[i], sol.w[i], sol.z[i]
        if w not in (0, 1):
            bad.append((t, "w_binary", w, 1))
        if z not in (0, 1):
            bad.append((t, "z_binary", z, 1))
        if s != s_prev - y + x:
            bad.append((t, "flow_balance", s, s_prev - y + x))
        if s < inst.Ls[i]:
            bad.append((t, "stock_lower", s, inst.Ls[i]))
        if s > inst.Us[i]:
            bad.append((t, "stock_upper", s, inst.Us[i]))
        if x < inst.Lx[i] * w:
            bad.append((t, "purchase_lower", x, inst.Lx[i] * w))
        if x > inst.Ux[i] * w:
            bad.append((t, "purchase_upper", x, inst.Ux[i] * w))
        if y < inst.Ly[i] * z:
            bad.append((t, "sale_lower", y, inst.Ly[i] * z))
        if y > inst.Uy[i] * z:
            bad.append((t, "sale_upper", y, inst.Uy[i] * z))
        if inst.variant is Variant.WP2:
            if y > s_prev:
                bad.append((t, "sale_availability", y, s_prev))
        else:
            if x * y != 0:
                bad.append((t, "complementarity", x * y, 0))
        s_prev = s
    recomputed = compute_objective(inst, sol.x, sol.y, sol.s, sol.w, sol.z)
    if recomputed != sol.objective:
        bad.append((0, "objective", sol.objective, recomputed))
    return FeasibilityReport(tuple(bad))


# --- JSON round-tripping ---------------------------------------------------

def _same(value):
    return value


_VECTOR = "tuple[Exact, ...]"
# a field's reader and writer, by its kind: its annotation as written, which
# the modules that define records keep as a string
_CODEC = {
    "int": (_same, _same),  # T, checked before the fields are read
    "Variant": (_coerce_variant, attrgetter("value")),
    "Exact": (parse_exact, format_exact),
    _VECTOR: (_parse_vector, _format_vector),
}
# a file names at most this many of its unknown keys in an error message
_UNKNOWN_SHOWN = 3


@functools.cache
def _field_kinds(cls) -> tuple[tuple[str, str], ...]:
    """(name, kind) for each field of a record class, in field order."""
    return tuple((f.name, f.type) for f in fields(cls))


def _to_json_dict(record) -> dict:
    """A record as its JSON file holds it, each field through its kind's
    writer: T as it is, the variant by its value, a number through
    format_exact and a vector through _format_vector."""
    return {name: _CODEC[kind][1](getattr(record, name))
            for name, kind in _field_kinds(type(record))}


def _from_json_dict(cls, data, kind: str):
    """The record of class cls that a parsed JSON file holds.

    One rule set reads every record: the file is an object holding exactly
    cls's fields, T (where cls has it) is an int, and then, in field order,
    the variant goes through _coerce_variant, a number through parse_exact
    and a vector, which must be a list, through _parse_vector.  A file that
    breaks a rule raises InvalidArgument, whose message names the record
    by kind ("instance", "solution", "lot-sizing"); cls then validates the
    record it is given.
    """
    if not isinstance(data, dict):
        raise InvalidArgument(f"{kind} JSON must be an object")
    kinds = _field_kinds(cls)
    missing = [name for name, _ in kinds if name not in data]
    if missing:
        raise InvalidArgument(f"{kind} JSON missing keys: {', '.join(missing)}")
    if len(data) > len(kinds):
        names = {name for name, _ in kinds}
        unknown = [key for key in data if key not in names]
        more = len(unknown) - _UNKNOWN_SHOWN
        raise InvalidArgument(
            f"{kind} JSON has unknown keys: "
            f"{', '.join(map(echo, unknown[:_UNKNOWN_SHOWN]))}"
            + (f" and {more} more" if more > 0 else ""))
    if "T" in data and type(data["T"]) is not int:
        raise InvalidArgument(f"T must be an integer, got {echo(data['T'])}")
    values = {}
    for name, field_kind in kinds:
        value = data[name]
        if field_kind == _VECTOR and not isinstance(value, list):
            raise InvalidArgument(f"{name} must be a list")
        values[name] = _CODEC[field_kind][0](value)
    return cls(**values)


def _load_json(text: str):
    """json.loads, with malformed JSON raised as InvalidArgument: the
    decoder's message, or one naming nesting too deep for the decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidArgument(str(err)) from None
    except RecursionError:
        raise InvalidArgument("JSON nested too deeply") from None


# the C encoder, with each item of a list on its own line under its key
_FLAT = json.JSONEncoder(separators=(",\n    ", ": "))


def _dump_flat(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) plus a newline, for a
    payload whose values are scalars and lists of scalars.

    Each value goes through _FLAT, which runs in C and writes a list as
    [a,\n    b]; a non-empty one is then opened and closed on lines of its
    own, as the pure-Python indent=2 encoder writes it.
    """
    items = []
    for key in sorted(payload):
        text = _FLAT.encode(payload[key])
        if text[0] == "[" and text != "[]":
            text = f"[\n    {text[1:-1]}\n  ]"
        items.append(f"  {_FLAT.encode(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


# the C encoder, with each item of a nested list on its own line under it
_NESTED = json.JSONEncoder(separators=(",\n      ", ": "))


def serialize_levels(levels) -> str:
    """The dump of a stocklevels.StockLevels: its S_size and its level
    sets, each value through format_exact, in the bytes json.dumps(...,
    sort_keys=True, indent=2) gives, plus a newline.  Each level set goes
    through _NESTED in C and is then opened and closed on lines of its own,
    as _dump_flat does a list."""
    layers = [f"[\n      {_NESTED.encode(_format_vector(layer))[1:-1]}\n    ]"
              if layer else "[]" for layer in levels.levels]
    body = "[\n    " + ",\n    ".join(layers) + "\n  ]" if layers else "[]"
    return f'{{\n  "S_size": {levels.S_size},\n  "levels": {body}\n}}\n'


def serialize_report(report: FeasibilityReport) -> str:
    """The check report: json.dumps(..., sort_keys=True, indent=2) plus a
    newline.  Its violations are a list of objects, which _dump_flat would
    write unsorted and unindented, unlike the indent=2 encoder."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def serialize_instance(inst: Instance) -> str:
    return _dump_flat(_to_json_dict(inst))


def parse_instance(text: str) -> Instance:
    return _from_json_dict(Instance, _load_json(text), "instance")


def serialize_solution(sol: Solution) -> str:
    return _dump_flat(_to_json_dict(sol))


def parse_solution(text: str) -> Solution:
    return _from_json_dict(Solution, _load_json(text), "solution")
