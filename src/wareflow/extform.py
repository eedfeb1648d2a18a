"""Extended linear formulation over the arc-flow polytope.

One flow variable per network arc plus the period variables x, y, s, w, z.
The constraint families:

  (i)    flow conservation at every interior node,
  (ii)   unit outflow from the source,
  (iii)  nonnegative arc flows (the LP format's default bound),
  (iv)   x_t and y_t equal the flow-weighted arc trade amounts,
  (v)    stock balance s_t = s_{t-1} - y_t + x_t,
  (vi)   w_t equals the flow on purchasing arcs when Lx_t > 0,
  (vii)  w_t at least that flow when Lx_t = 0,
  (viii) z_t equals the flow on selling arcs when Ly_t > 0,
  (ix)   z_t at least that flow when Ly_t = 0,
  (x)    w_t <= 1 and z_t <= 1.

The period variables are free, the indicators w and z included: they are
relaxed binaries, and integrality comes from the polytope itself.
The module only builds, lifts, and prints the model; no LP solver is run.

emit_lp streams the text straight from the arcs, in one walk that makes
each arc's name once and joins every row from the names; it builds no
LPModel.  build_extended_formulation makes the model for lift_and_check
and the size criteria, and its rows are exactly the rows emit_lp prints.
Whether the text prints in decimals is read off the instance's prices and
the arcs' trade amounts; if not, the one network built is rescaled by
model.scale_factor, so the levels, the network and the text are each made
once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NotAPath
from .model import (
    _BOUND_FIELDS,
    _FIXED_FIELDS,
    _PRICE_FIELDS,
    Exact,
    FeasibilityReport,
    Instance,
    Solution,
    exact,
    scale_factor,
    scale_instance,
)
from .network import ArcDecision, LayeredNetwork, build_network, search_instance
from .stocklevels import gen_stock_levels

Term = tuple  # (variable name, coefficient)


class LPRow(NamedTuple):
    """One linear constraint: sum of coeffs (sense) rhs."""

    name: str
    family: str  # "i", "ii", "iv", ..., "x"
    period: int  # 0 for rows not tied to a period
    coeffs: tuple[Term, ...]
    sense: str  # "=", "<=", ">="
    rhs: Exact


@dataclass(frozen=True)
class LPModel:
    """The LP by variable names: flows are the arc variables, in arc order,
    each >= 0 (family (iii)); free are x_t, y_t, s_t, w_t, z_t for t = 1..T,
    unbounded, with w and z relaxed binaries that rows (vi)..(x) hold in
    [0, 1]."""

    flows: tuple[str, ...]
    free: tuple[str, ...]
    objective: tuple[Term, ...]  # maximized
    rows: tuple[LPRow, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return self.flows + self.free

    def families(self) -> set[str]:
        present = {row.family for row in self.rows}
        if self.flows:
            present.add("iii")  # carried by the flows' sign
        return present

    def eval_objective(self, values: dict) -> Exact:
        return exact(sum(c * values.get(n, 0) for n, c in self.objective))


# An arc's variable is named a_{t}_{tail}_{head}: the builder joins one
# prefix per tail node with one suffix per head node, lift_solution names
# single arcs, and both go through these two helpers.
def _arc_prefix(t: int, tail: int) -> str:
    return f"a_{t}_{tail}"


def _arc_suffix(head: int) -> str:
    return f"_{head}"


def _arc_name(t: int, tail: int, head: int) -> str:
    return _arc_prefix(t, tail) + _arc_suffix(head)


def build_extended_formulation(inst: Instance, net: LayeredNetwork) -> LPModel:
    """Write the arc-flow polytope of a network as an explicit LP model.

    The instance must be the one the network was built from.  Constraint
    (iii) is carried by the flows' sign; every other family appears as rows
    (families (vi)..(ix) only for the periods they govern).
    One loop over the periods walks each period's arcs once, collecting
    their variables, conservation, trade and indicator terms, and adds the
    period's own variables, objective terms and rows.  Rows are gathered
    per family and listed family by family.
    """
    arc_vars: list[str] = []
    period_vars: list[str] = []
    objective: list[Term] = []
    source: tuple[Term, ...] = ()
    flows: list[LPRow] = []
    trades: list[LPRow] = []
    balances: list[LPRow] = []
    couplings: list[LPRow] = []
    ceilings: list[LPRow] = []
    into_prev: list[list[Term]] = []
    for t, period in enumerate(net.arcs, start=1):
        i = t - 1
        prefixes = [_arc_prefix(t, k) for k in range(len(net.layers[i]))]
        suffixes = [_arc_suffix(k) for k in range(len(net.layers[t]))]
        into: list[list[Term]] = [[] for _ in suffixes]
        out_of: list[list[Term]] = [[] for _ in prefixes]
        x_terms: list[Term] = []
        y_terms: list[Term] = []
        purchase: list[Term] = [(f"w_{t}", 1)]
        sale: list[Term] = [(f"z_{t}", 1)]
        for tail, head, dec in period:
            name = prefixes[tail] + suffixes[head]
            arc_vars.append(name)
            into[head].append((name, 1))
            leaving = (name, -1)
            out_of[tail].append(leaving)
            # arc trades are nonnegative, so nonzero means purchasing/selling
            if dec.x:
                x_terms.append((name, dec.x))
                purchase.append(leaving)
            if dec.y:
                y_terms.append((name, dec.y))
                sale.append(leaving)
        if t == 1:
            # (ii) the source, layer 0's one node, emits one unit of flow
            source = tuple((name, 1) for name, _ in out_of[0])
        else:
            # (i) conservation at the interior nodes of layer t-1
            for node, leaving in enumerate(out_of):
                coeffs = into_prev[node] + leaving
                if coeffs:
                    flows.append(LPRow(f"flow_{i}_{node}", "i", i,
                                       tuple(coeffs), "=", 0))
        into_prev = into
        # (iv) trade amounts are flow-weighted arc decisions
        trades.append(LPRow(f"def_x_{t}", "iv", t,
                            tuple(x_terms) + ((f"x_{t}", -1),), "=", 0))
        trades.append(LPRow(f"def_y_{t}", "iv", t,
                            tuple(y_terms) + ((f"y_{t}", -1),), "=", 0))
        # (vi)-(ix) indicator coupling through arc flows
        family, sense = ("vi", "=") if inst.Lx[i] > 0 else ("vii", ">=")
        couplings.append(LPRow(f"w_couple_{t}", family, t, tuple(purchase),
                               sense, 0))
        family, sense = ("viii", "=") if inst.Ly[i] > 0 else ("ix", ">=")
        couplings.append(LPRow(f"z_couple_{t}", family, t, tuple(sale),
                               sense, 0))
        period_vars.extend(f"{prefix}_{t}" for prefix in "xyswz")
        objective.extend(
            [
                (f"y_{t}", inst.revenue[i]),
                (f"x_{t}", -inst.cost[i]),
                (f"s_{t}", -inst.holding[i]),
                (f"w_{t}", -inst.fixed_purchase[i]),
                (f"z_{t}", -inst.fixed_sale[i]),
            ]
        )
        # (v) stock balance
        coeffs = [(f"s_{t}", 1), (f"y_{t}", 1), (f"x_{t}", -1)]
        rhs = 0
        if t == 1:
            rhs = inst.s0
        else:
            coeffs.append((f"s_{t - 1}", -1))
        balances.append(LPRow(f"balance_{t}", "v", t, tuple(coeffs), "=", rhs))
        # (x) indicator ceilings
        ceilings.append(LPRow(f"w_ub_{t}", "x", t, ((f"w_{t}", 1),), "<=", 1))
        ceilings.append(LPRow(f"z_ub_{t}", "x", t, ((f"z_{t}", 1),), "<=", 1))
    unit_source = LPRow("unit_source", "ii", 0, source, "=", 1)
    return LPModel(
        flows=tuple(arc_vars),
        free=tuple(period_vars),
        objective=tuple(objective),
        rows=(unit_source, *flows, *trades, *balances, *couplings, *ceilings),
    )


def lift_solution(net: LayeredNetwork, sol: Solution) -> dict:
    """Map a decoded path back to a unit flow plus the period variables.

    The path is located by the stock sequence; the solution's trades and
    indicators are attached as given.  Raises NotAPath when the stocks do
    not trace arcs of the network.
    """
    values: dict = {}
    T = len(net.arcs)
    if len(sol.s) != T:
        raise NotAPath(f"solution has {len(sol.s)} periods, network has {T}")
    node = 0
    for t in range(1, T + 1):
        layer = net.layers[t]
        try:
            head = layer.index(sol.s[t - 1])
        except ValueError:
            raise NotAPath(
                f"stock {sol.s[t - 1]} after period {t} is not a node"
            ) from None
        if not any(
            tail == node and h == head for tail, h, _ in net.arcs[t - 1]
        ):
            raise NotAPath(f"no arc for period {t} stock move")
        # the path is located by stocks alone; trades attach verbatim, so a
        # tampered trade surfaces as a row violation, not NotAPath
        values[_arc_name(t, node, head)] = 1
        node = head
        for prefix in "xyswz":
            values[f"{prefix}_{t}"] = getattr(sol, prefix)[t - 1]
    return values


def lift_and_check(
    inst: Instance, net: LayeredNetwork, sol: Solution
) -> FeasibilityReport:
    """Lift a solved plan into the LP and evaluate every row exactly.

    Returns a report whose violations carry the row name and both sides;
    flow-variable sign checks report under the family (iii) name.
    """
    model = build_extended_formulation(inst, net)
    values = lift_solution(net, sol)
    bad = []
    for name in model.flows:
        v = values.get(name, 0)
        if v < 0:
            bad.append((0, f"iii_{name}", v, 0))
    for row in model.rows:
        lhs = exact(sum(c * values.get(n, 0) for n, c in row.coeffs))
        ok = (
            lhs == row.rhs
            if row.sense == "="
            else lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs
        )
        if not ok:
            bad.append((row.period, row.name, lhs, row.rhs))
    return FeasibilityReport(feasible=not bad, violations=tuple(bad))


# --- text emission -----------------------------------------------------------


def _decimal_or_none(value: Exact) -> str | None:
    """Exact decimal literal for a rational, or None when impossible."""
    if type(value) is int:  # not isinstance: a bool must not print as True
        return str(value)
    v = Fraction(value)
    rest = v.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    exp = max(twos, fives)
    scaled = abs(v.numerator) * (10**exp // v.denominator)
    sign = "-" if v < 0 else ""
    if exp == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(exp + 1, "0")
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


def _times(value: Exact) -> str:
    """A coefficient's magnitude as it leads a variable's name: nothing
    for 1, else its decimal literal and a space."""
    text = _decimal_or_none(value)
    if text is None:  # emit_lp scales such numbers away beforehand
        raise ValueError(f"{value} has no decimal literal")
    return "" if text == "1" else text + " "


def _expr(plus, minus=()) -> str:
    """The terms in plus less the names in minus, as the LP text writes
    them: with no plus term it opens with "- ", and with none at all it
    is 0."""
    return " - ".join([" + ".join(plus), *minus]).lstrip() or "0 "


def _lp_text(inst: Instance, net: LayeredNetwork,
             comments: tuple[str, ...]) -> str:
    """The text of build_extended_formulation(inst, net), in one walk over
    the arcs.  Each arc's name is made once and joins its head's incoming
    and its tail's outgoing list, which make the conservation rows; every
    row's text is joined from names, and rows are gathered per family."""
    objective, source, flows, trades, balances, couplings = (
        [[] for _ in range(6)])
    into_prev: list[list[str]] = []
    times = functools.cache(_times)  # few distinct amounts and prices recur
    for t, period in enumerate(net.arcs, start=1):
        i = t - 1
        prefixes = [_arc_prefix(t, k) for k in range(len(net.layers[i]))]
        suffixes = [_arc_suffix(k) for k in range(len(net.layers[t]))]
        into, out_of = [[] for _ in suffixes], [[] for _ in prefixes]
        x_terms, y_terms, buys, sells = [], [], [], []
        for tail, head, dec in period:
            name = prefixes[tail] + suffixes[head]
            into[head].append(name)
            out_of[tail].append(name)
            if dec.x:
                x_terms.append(times(dec.x) + name)
                buys.append(name)
            if dec.y:
                y_terms.append(times(dec.y) + name)
                sells.append(name)
        if t == 1:
            source = out_of[0]
        flows += [f" flow_{i}_{node}: {_expr(entering, out_of[node])} = 0"
                  for node, entering in enumerate(into_prev)
                  if entering or out_of[node]]
        into_prev = into
        trades += [f" def_x_{t}: {_expr(x_terms, [f'x_{t}'])} = 0",
                   f" def_y_{t}: {_expr(y_terms, [f'y_{t}'])} = 0"]
        rest = f"- s_{i} = 0" if i else f"= {_decimal_or_none(inst.s0)}"
        balances.append(f" balance_{t}: s_{t} + y_{t} - x_{t} {rest}")
        for v, arcs, low in (("w", buys, inst.Lx[i]), ("z", sells, inst.Ly[i])):
            couplings.append(f" {v}_couple_{t}: {_expr([f'{v}_{t}'], arcs)} "
                             f"{'=' if low > 0 else '>='} 0")
        prices = (inst.revenue[i], -inst.cost[i], -inst.holding[i],
                  -inst.fixed_purchase[i], -inst.fixed_sale[i])
        objective += [("- " if c < 0 else "+ ") + times(abs(c)) + f"{v}_{t}"
                      for v, c in zip("yxswz", prices) if c]
    periods = range(1, len(net.arcs) + 1)
    lines = [f"\\ {c}" for c in comments]
    lines += ["Maximize",
              f" obj: {' '.join(objective).removeprefix('+ ') or '0 '}",
              "Subject To", f" unit_source: {_expr(source)} = 1",
              *flows, *trades, *balances, *couplings,
              *(f" {v}_ub_{t}: {v}_{t} <= 1" for t in periods for v in "wz"),
              "Bounds", *(f" {v}_{t} free" for t in periods for v in "xyswz"),
              "End"]
    return "\n".join(lines) + "\n"


def emit_lp(inst: Instance) -> str:
    """Print the extended formulation in the common LP text dialect.

    The instance is validated and emitted as search_instance returns it,
    so wp2 lands on its doubled horizon, matching how it is solved.  The
    text is written from the network's arcs in one walk; it is the text of
    build_extended_formulation's model, which is kept for the lift check
    and not built here.  Every number must print as an exact decimal.
    When one has no decimal literal, s0, the bounds and the unit prices
    are scaled up by F = model.scale_factor, the factor solve searches
    with, and the fixed costs by F*F, and a comment line records both
    factors.  Every plan's objective then grows by F*F, linear payoff and
    fixed costs alike, so the LP ranks plans as the instance does.  The
    network is built once, on the unscaled instance.
    """
    base = search_instance(inst)[0]
    net = build_network(base, gen_stock_levels(base))
    comments = ("extended formulation over the trading network",)
    if not _prints_in_decimals(base, net):
        factor = scale_factor(base)
        base = scale_instance(base, factor)
        net = _scaled_network(net, factor)
        comments += (f"quantities and unit prices scaled by {factor}, "
                     f"fixed costs by {factor * factor}",)
    return _lp_text(base, net, comments)


def _prints_in_decimals(inst: Instance, net: LayeredNetwork) -> bool:
    """Whether every number the model of (inst, net) prints has a decimal
    literal.

    A rational has one iff its denominator is 2^a * 5^b.  The model prints
    s0, the prices and fixed costs, and the arcs' trade amounts, which are
    differences of levels.  The levels are sums and differences of s0 and
    the bounds, so the arcs need a look only when a bound is not decimal.
    """
    def decimal(values) -> bool:
        return all(type(v) is int or _decimal_or_none(v) is not None
                   for v in values)

    numbers = [inst.s0]
    for name in _PRICE_FIELDS + _FIXED_FIELDS:
        numbers.extend(getattr(inst, name))
    bounds = [v for name in _BOUND_FIELDS for v in getattr(inst, name)]
    return decimal(numbers) and (decimal(bounds) or decimal(
        amount for period in net.arcs for _, _, dec in period
        for amount in (dec.x, dec.y)))


def _scaled_network(net: LayeredNetwork, factor: int) -> LayeredNetwork:
    """The network that build_network makes on the instance with s0, the
    bounds and the unit prices times factor and the fixed costs times its
    square: every level and trade amount times factor and every payoff
    times its square, in the same order."""
    def arc(tail, head, dec):
        return tail, head, ArcDecision(
            x=exact(dec.x * factor), y=exact(dec.y * factor), w=dec.w,
            z=dec.z, payoff=exact(dec.payoff * factor * factor))

    return LayeredNetwork(
        layers=tuple(tuple(exact(v * factor) for v in layer)
                     for layer in net.layers),
        arcs=tuple(tuple(arc(*a) for a in period) for period in net.arcs),
    )
