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
The module only writes, lifts, and checks the model; no LP solver is run.

_lp_text is the one definition of the LP: it writes the text straight from
the level sets, in one walk that bisects each tail's sell, stay and buy
windows in place, by the rule of network._window_slices, makes each arc's
name once and joins every row from the names.  An arc costs its name, two
appends to the conservation lists and, on a trade, one coefficient lookup
and two more.  The rows need only an arc's tail, head and stock change, so
neither the LP nor the lift builds a network.  emit_lp prints it with
decimal numbers; lift_and_check writes it with exact p/q numbers and
evaluates its rows on a plan lifted by network._window_slices itself.
emit_lp writes the rows of stocklevels.searched(inst) first and, when a
number has no decimal literal, the rows scaled to integers by
model.scale_factor, whose levels it swept.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import NotAPath, WrongVariant
from .model import (
    Exact,
    FeasibilityReport,
    Instance,
    Solution,
    Variant,
    exact,
    scale_factor,
)
from .network import _window_slices
from .stocklevels import gen_stock_levels, searched, searched_levels, unscaled

# An arc's variable is named a_{t}_{tail}_{head}: _lp_text joins one prefix
# per tail node with one suffix per head node, lift_solution names single
# arcs, and both go through these two helpers.
def _arc_prefix(t: int, tail: int) -> str:
    return f"a_{t}_{tail}"


def _arc_suffix(head: int) -> str:
    return f"_{head}"


def _arc_name(t: int, tail: int, head: int) -> str:
    return _arc_prefix(t, tail) + _arc_suffix(head)


def _refuse_wp2(inst: Instance, caller: str) -> None:
    if inst.variant is Variant.WP2:
        raise WrongVariant(f"{caller} takes the searched instance: "
                           "pass double_horizon(inst), not wp2")


def lift_solution(inst: Instance, layers, sol: Solution) -> dict:
    """Map a plan to a unit flow along its stocks plus the period variables.

    layers holds (s0,) and then each period's ascending levels, as _lp_text
    takes them.  Each stock is found in its layer by bisection, and a stock
    move is an arc only when its head lies in one of the tail's
    _window_slices, the rule the LP's arcs are written by.  The solution's
    trades and indicators are attached as given.  A wp2 inst raises
    WrongVariant, as in lift_and_check.  Raises NotAPath when a vector of
    the plan does not have one entry per period, or when the stocks do not
    trace arcs.
    """
    _refuse_wp2(inst, "lift_solution")
    values: dict = {}
    T = len(layers) - 1
    for prefix in "sxywz":
        periods = len(getattr(sol, prefix))
        if periods != T:
            raise NotAPath(f"solution has {periods} periods, network has {T}")
    node = 0
    for t, (tails, heads) in enumerate(zip(layers, layers[1:]), start=1):
        i = t - 1
        stock = sol.s[i]
        head = bisect_left(heads, stock)
        if head == len(heads) or heads[head] != stock:
            raise NotAPath(f"stock {stock} after period {t} is not a node")
        slices = _window_slices(heads, tails[node], inst.Lx[i], inst.Ux[i],
                                inst.Ly[i], inst.Uy[i])
        if not any(head in window for window in slices):
            raise NotAPath(f"no arc for period {t} stock move")
        # the path is located by stocks alone; trades attach verbatim, so a
        # tampered trade surfaces as a row violation, not NotAPath
        values[_arc_name(t, node, head)] = 1
        node = head
        for prefix in "xyswz":
            values[f"{prefix}_{t}"] = getattr(sol, prefix)[i]
    return values


def lift_and_check(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Lift a solved plan into the LP and evaluate each written row exactly.

    The levels of inst are made once and shared by the lift and the rows,
    which are read from _lp_text with every number printed as an exact
    p/q, so nothing is rescaled and both sides are in the instance's
    units; no network is built.  Each violation is (period, row name, lhs,
    rhs), the period being the first number in the row's name, 0 if it
    has none.  An LP objective of the lift other than sol.objective
    reports as (0, "obj", LP value, sol.objective).  Raises NotAPath when
    the plan is not a path of the LP's arcs.  _lp_text makes the arcs by
    the wp1 window rule, which a wp2 instance on its own horizon does not
    follow, so a wp2 inst raises WrongVariant: pass double_horizon(inst),
    the horizon that was searched, with a plan of it, such as
    solve(double_horizon(inst)).
    """
    _refuse_wp2(inst, "lift_and_check")
    layers = ((inst.s0,),) + gen_stock_levels(inst).levels
    values = lift_solution(inst, layers, sol)
    # all-digit literals parse as int: Fraction(str) on every term is
    # several times slower
    number = functools.cache(
        lambda text: int(text) if text.isdigit() else exact(text))

    def evaluate(terms) -> Exact:
        total, sign, coeff = 0, 1, 1
        for token in terms:
            if token in ("+", "-"):
                sign = -1 if token == "-" else 1
            elif token[0].isdigit():
                coeff = number(token)
            else:
                total += sign * coeff * values.get(token, 0)
                sign, coeff = 1, 1
        return exact(total)

    bad = []
    lines = _lp_text(inst, layers, (), literal=str).splitlines()
    for line in lines[lines.index("Subject To") + 1:lines.index("Bounds")]:
        name, _, row = line.strip().partition(": ")
        *terms, sense, rhs = row.split()
        lhs, rhs = evaluate(terms), number(rhs)
        if not (lhs == rhs if sense == "=" else
                lhs <= rhs if sense == "<=" else lhs >= rhs):
            period = next((int(f) for f in name.split("_") if f.isdigit()), 0)
            bad.append((period, name, lhs, rhs))
    objective = evaluate(lines[lines.index("Maximize") + 1].split()[1:])
    if objective != sol.objective:
        bad.append((0, "obj", objective, sol.objective))
    return FeasibilityReport(tuple(bad))


# --- text emission -----------------------------------------------------------


def _decimal(value: Exact) -> str:
    """A number's exact decimal literal; raises ValueError when it has
    none, which is how emit_lp learns to rescale."""
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
        raise ValueError(f"{value} has no decimal literal")
    exp = max(twos, fives)
    scaled = abs(v.numerator) * (10**exp // v.denominator)
    sign = "-" if v < 0 else ""
    if exp == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(exp + 1, "0")
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


class _Coefficients(dict):
    """A coefficient's magnitude as it leads a variable's name, keyed by
    the number: nothing for 1, else its literal and a space.  A number is
    rendered by literal the first time it is looked up; few distinct
    amounts and prices recur."""

    def __init__(self, literal) -> None:
        super().__init__()
        self.literal = literal

    def __missing__(self, value: Exact) -> str:
        text = self.literal(value)
        text = self[value] = "" if text == "1" else text + " "
        return text


def _lp_text(inst: Instance, layers, comments: tuple[str, ...],
             literal=_decimal) -> str:
    """The LP of inst as text, every number printed by literal.  layers
    holds (s0,) and then each period's ascending levels; inst must not be
    wp2 (write the rows of stocklevels.searched(inst)).

    One walk makes the arcs by tail, then by ascending head.  Per tail it
    bisects the sell window below s, the stay and the buy window above s
    with the six bisections of network._window_slices, and loops over
    each window on its own, so a sell arc's trade is s - s' and a buy
    arc's s' - s with no sign test.  An arc costs one name, made once as
    prefix + suffix, two appends for its head's incoming and its tail's
    outgoing list, and on a trade one coefficient lookup in a
    _Coefficients table and two more appends.  Each conservation row is
    one f-string over those lists, and rows are gathered per family."""
    objective, flows, trades, balances, couplings = [], [], [], [], []
    source: list[str] = []
    into_prev: list[list[str]] = []
    coef = _Coefficients(literal)
    for t, (tails, heads) in enumerate(zip(layers, layers[1:]), start=1):
        i = t - 1
        lx, ux, ly, uy = inst.Lx[i], inst.Ux[i], inst.Ly[i], inst.Uy[i]
        suffixes = [_arc_suffix(j) for j in range(len(heads))]
        into, out_of = [[] for _ in heads], []
        x_terms, y_terms, buys, sells = [], [], [], []
        for k, s in enumerate(tails):
            prefix, out = _arc_prefix(t, k), []
            out_of.append(out)
            below = bisect_left(heads, s)
            above = bisect_right(heads, s, below)
            for j in range(bisect_left(heads, s - uy, 0, below),
                           bisect_right(heads, s - ly, 0, below)):
                name = prefix + suffixes[j]
                into[j].append(name)
                out.append(name)
                y_terms.append(coef[s - heads[j]] + name)
                sells.append(name)
            if below < above:
                name = prefix + suffixes[below]
                into[below].append(name)
                out.append(name)
            for j in range(bisect_left(heads, s + lx, above),
                           bisect_right(heads, s + ux, above)):
                name = prefix + suffixes[j]
                into[j].append(name)
                out.append(name)
                x_terms.append(coef[heads[j] - s] + name)
                buys.append(name)
        if t == 1:
            source = out_of[0]
        for node, entering in enumerate(into_prev):
            out = out_of[node]
            if entering and out:
                flows.append(f" flow_{i}_{node}: {' + '.join(entering)}"
                             f" - {' - '.join(out)} = 0")
            elif entering:
                flows.append(f" flow_{i}_{node}: {' + '.join(entering)} = 0")
            elif out:
                flows.append(f" flow_{i}_{node}: - {' - '.join(out)} = 0")
        into_prev = into
        for v, terms in (("x", x_terms), ("y", y_terms)):
            lead = " + ".join(terms) + " " if terms else ""
            trades.append(f" def_{v}_{t}: {lead}- {v}_{t} = 0")
        rest = f"- s_{i} = 0" if i else f"= {literal(inst.s0)}"
        balances.append(f" balance_{t}: s_{t} + y_{t} - x_{t} {rest}")
        for v, arcs, low in (("w", buys, lx), ("z", sells, ly)):
            row = " - ".join([f"{v}_{t}", *arcs])
            couplings.append(f" {v}_couple_{t}: {row} "
                             f"{'=' if low > 0 else '>='} 0")
        prices = (inst.revenue[i], -inst.cost[i], -inst.holding[i],
                  -inst.fixed_purchase[i], -inst.fixed_sale[i])
        objective += [("- " if c < 0 else "+ ") + coef[abs(c)] + f"{v}_{t}"
                      for v, c in zip("yxswz", prices) if c]
    periods = range(1, len(layers))
    lines = [f"\\ {c}" for c in comments]
    lines += ["Maximize",
              f" obj: {' '.join(objective).removeprefix('+ ') or '0 '}",
              "Subject To", f" unit_source: {' + '.join(source) or '0 '} = 1",
              *flows, *trades, *balances, *couplings,
              *(f" {v}_ub_{t}: {v}_{t} <= 1" for t in periods for v in "wz"),
              "Bounds", *(f" {v}_{t} free" for t in periods for v in "xyswz"),
              "End", ""]  # the final newline, with no copy of the text
    return "\n".join(lines)


def emit_lp(inst: Instance) -> str:
    """Print the extended formulation in the common LP text dialect.

    The LP is written over the rows stocklevels.searched returns, so wp2
    lands on its doubled horizon, matching how it is solved.  The text is
    _lp_text's, written from the levels in one walk with no network built,
    and its rows are the ones lift_and_check evaluates.  The levels are
    swept once, on the rows searched(inst, F) scaled to integers by
    F = model.scale_factor, the factor solve searches with: s0, the
    bounds and the unit prices times F, the fixed costs times F*F.  Every
    number prints as an exact decimal: the text is written first on the
    rows of inst as read, with the levels divided back by F, and when a
    number has no decimal literal it is written on the scaled rows, and a
    comment line records both factors.  Every printed number is then an
    integer, and every plan's objective grows by F*F, linear payoff and
    fixed costs alike, so the LP ranks plans as the instance does.
    """
    F = scale_factor(inst)
    rows = searched(inst, F)
    layers = searched_levels(rows)
    comments = ("extended formulation over the trading network",)
    if F != 1:
        try:
            return _lp_text(searched(inst), unscaled(layers, F), comments)
        except ValueError:
            comments += (f"quantities and unit prices scaled by {F}, "
                         f"fixed costs by {F * F}",)
    return _lp_text(rows, layers, comments)
