"""Exact solver by a sliding-window DP over the level sets of the layered
trading network, which is never built.

Layer 0 holds the single node s0; layer t holds the candidate stock values
for period t.  An arc from stock s to stock s' in period t carries the best
feasible trade decision realizing that stock change, and its payoff.  Every
source-to-sink path decodes to a feasible plan, and some optimal plan is a
path, so a longest path is an optimal plan.

solve runs on the rows stocklevels.searched returns, the horizon it
searches: inst's own for wp1 and wp3, the doubled, one-side-per-half-period
horizon for wp2, read off the instance with no copy of it built.  It never
materializes the O(T*S^2) arcs.  Over those rows a purchase arc s -> s'
pays c*s - fp + [suf(s') - (c+h)*s'] and its heads form the window
[s+Lx, s+Ux], which slides upward with the tail; sales mirror it with r
in place of c over [s-Uy, s-Ly].  So each layer's suffix values follow in
O(S) from one sweep up its tails that carries a monotone deque per side
with a positive upper bound plus a pointer to the no-trade head, and every
node keeps the smallest head that attains its value.  The plan is read
off those heads in one forward pass into a stock path,
stocklevels.searched_trades turns that path into the instance's own
trades and stocks, the indicators are the minimal ones, and the objective
is the DP's own value.  search runs that DP, decode and assembly on given
rows; solve hands it searched's, and the FPTAS the same rows with the
trade bounds rounded (fptas.fptas_rows).

The DP searches the full level sets, which hold every extreme plan's
stocks.  Unless s0 lies in every [Ls_t, Us_t] (then the plan that never
trades is feasible, as validation makes it on wp3), solve first decides
feasibility on the instance as read (_feasible): it carries the exact
stock a plan can reach, as disjoint intervals, forward through the
periods, walking each wp2 period as its sale half, then its purchase
half.  An empty period makes it raise Infeasible before any scaling, price
row or level is made, traced or not.  search runs no such pass and takes
the DP's own verdict, that no path leads from s0 to the last layer.

No output builds the network either.  Any trade moves the stock by
x - y in [-Uy, Ux], so a tail s has its heads in [s-Uy, s+Ux], and a pair
is an arc when arc_candidates finds a trade for it.  Arcs are ordered by
tail, then by ascending head.  Over the searched rows each tail's heads
are its sell window, its own value and its buy window, three slices of
the ascending next layer found by bisection (_window_slices), and
_wp1_candidates turns the gap pairs away before pricing anything.  The LP
text makes the same six bisections in place, per tail, for each arc's
tail, head and stock change; the lift check accepts a plan's stock move
only into one of the slices, to_dot prices each arc they name by
_wp1_candidates, and arc_counts sums their lengths, so bench counts the
arcs of the levels the DP searched, and a test ties the LP's variables
to that count.  solve_wp2_direct,
whose seven-case arcs follow no window rule, prices the pairs in
[s-Uy, s+Ux] in one backward DP.

solve and to_dot search in integers: the rows are searched(inst, F),
whose s0, bounds and unit prices are multiplied by F = model.scale_factor,
the LCM of the denominators of all the data, and whose fixed costs by
F*F, the rule emit-lp prints, so no level, window key or payoff is a
Fraction.  Every plan's objective scales by the same F*F and every stock
by F, so all comparisons and equalities come out as before: the level
sets keep their sizes, and the deque fronts and with them the tie-break
below choose the same plan.  Its stocks and trades are divided back by F
and the DP's value by F*F once; to_dot divides each number it prints.

Tie-breaking is fully deterministic: among equal-payoff candidates on one
arc the smaller x wins, then smaller w, then smaller z (arc_candidates
lists a zero trade with its indicator off first, and max keeps the first
maximum); among equal-value paths the lexicographically smallest stock
sequence wins.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Infeasible, WrongVariant
from .model import (
    Exact,
    Instance,
    Solution,
    Variant,
    evaluate_payoff,
    exact_quotient,
    scale_factor,
)
from .stocklevels import (
    Rows,
    StockLevels,
    gen_stock_levels,
    searched,
    searched_levels,
    searched_trades,
    unscaled,
)


class ArcDecision(NamedTuple):
    """The trade carried by one arc: amounts, indicators, and payoff."""

    x: Exact
    y: Exact
    w: int
    z: int
    payoff: Exact


@dataclass
class SolveTrace:
    """What search, called directly or by solve, records when handed one;
    it changes no outcome.

    searched holds the rows the window DP ran on, stocklevels.searched(inst,
    F) with F = model.scale_factor(inst): for wp2 the doubled, 2T-period
    horizon, and every number an int.  On the FPTAS route (fptas.fptas_rows)
    F is the LCM of scale_factor(inst) and K's denominator, which can be a
    multiple of the factor of the Instance scale_trade_bounds rounds, and
    the trade bounds are rounded down to multiples of K*F.  levels are the
    layers the DP searched after s0, searched_levels of those rows; the
    integer scaling keeps every layer's size, so on the FPTAS route the
    sizes are those a solve of that rounded Instance records.  search
    records both before the DP's verdict; a solve that _feasible refuses
    raises before any row is made and leaves the trace as it was.
    """

    searched: Rows | None = None
    levels: StockLevels = StockLevels(levels=())


def _indicator(amount) -> int:
    """Minimal indicator for a trade amount.

    A positive amount forces the indicator on.  For a zero amount, off is
    always consistent and, with nonnegative fixed costs, payoff-maximal, so
    it wins the tie.
    """
    return 1 if amount > 0 else 0


def _wp1_candidates(inst: Instance, t: int, s_prev, s_next) -> list[ArcDecision]:
    """The one trade of a wp1 arc, or none when the stock change breaks the
    period's trade bounds.

    A gap pair, whose move lies outside the stay and both windows, is
    turned away before any pricing; an arc's trade is priced by
    evaluate_payoff.
    """
    i = t - 1
    delta = s_next - s_prev
    if delta > 0:
        if not inst.Lx[i] <= delta <= inst.Ux[i]:
            return []
        x, y, w, z = delta, 0, 1, 0
    elif delta < 0:
        if not inst.Ly[i] <= -delta <= inst.Uy[i]:
            return []
        x, y, w, z = 0, -delta, 0, 1
    else:
        x, y, w, z = 0, 0, 0, 0
    payoff = evaluate_payoff(inst, t, x, y, s_next, w, z)
    return [ArcDecision(x=x, y=y, w=w, z=z, payoff=payoff)]


def _wp2_candidates(inst: Instance, t: int, s_prev, s_next) -> list[ArcDecision]:
    """Enumerate the trade decisions that can be extreme on a wp2 arc.

    With the flow balance fixed by (s_prev, s_next), an extreme decision has
    a second tight constraint.  The seven cases: the sale drains the opening
    stock (y = s_prev, x = s_next); the purchase indicator is off, or the
    purchase sits at Lx or Ux; the sale indicator is off, or the sale sits
    at Ly or Uy.  Each case is completed via y = s_prev - s_next + x and
    filtered against sign, availability, and the coupled bounds.  So a
    zero purchase is listed with w = 0 before w = 1, and a zero sale with
    z = 0 before z = 1: the first of the best candidates has the smallest
    indicators.
    """
    i = t - 1
    shift = s_prev - s_next  # y - x on any feasible arc
    cases: list[tuple[Exact, Exact, int | None, int | None]] = [
        (s_next, s_prev, None, None),        # sale bounded by opening stock
        (0, shift, 0, None),                 # purchases off
        (inst.Lx[i], shift + inst.Lx[i], 1, None),
        (inst.Ux[i], shift + inst.Ux[i], 1, None),
        (s_next - s_prev, 0, None, 0),       # sales off
        (s_next - s_prev + inst.Ly[i], inst.Ly[i], None, 1),
        (s_next - s_prev + inst.Uy[i], inst.Uy[i], None, 1),
    ]
    out: list[ArcDecision] = []
    seen = set()
    for x, y, w_pin, z_pin in cases:
        if x < 0 or y < 0 or y > s_prev:
            continue
        w = w_pin if w_pin is not None else _indicator(x)
        z = z_pin if z_pin is not None else _indicator(y)
        if not inst.Lx[i] * w <= x <= inst.Ux[i] * w:
            continue
        if not inst.Ly[i] * z <= y <= inst.Uy[i] * z:
            continue
        key = (x, y, w, z)
        if key in seen:
            continue
        seen.add(key)
        payoff = evaluate_payoff(inst, t, x, y, s_next, w, z)
        out.append(ArcDecision(x=x, y=y, w=w, z=z, payoff=payoff))
    return out


def arc_candidates(inst: Instance, t: int, s_prev, s_next) -> list[ArcDecision]:
    """All extreme trade decisions for moving stock s_prev to s_next in t.

    wp1/wp3 arcs admit at most one decision (the stock change fixes the
    trade side); wp2 arcs may admit several, one per tight-constraint case.
    """
    if inst.variant is Variant.WP2:
        return _wp2_candidates(inst, t, s_prev, s_next)
    return _wp1_candidates(inst, t, s_prev, s_next)


def _window_slices(heads, s, lx, ux, ly, uy) -> tuple[range, range, range]:
    """The indices of the ascending heads a wp1 tail s reaches: its sell
    window [s-Uy, s-Ly] below s, s itself, and its buy window [s+Lx, s+Ux]
    above s, each found by bisection and in ascending head order."""
    below = bisect_left(heads, s)
    above = bisect_right(heads, s, below)
    return (range(bisect_left(heads, s - uy, 0, below),
                  bisect_right(heads, s - ly, 0, below)),
            range(below, above),
            range(bisect_left(heads, s + lx, above),
                  bisect_right(heads, s + ux, above)))


def arc_counts(inst: Instance, layers) -> list[int]:
    """Per period t, the number of arcs between layers[t-1] and
    layers[t], counted from _window_slices without making one.  inst
    must not be wp2 (count the rows of searched(inst) instead)."""
    return [sum(len(window) for s in tails
                for window in _window_slices(heads, s, lx, ux, ly, uy))
            for tails, heads, lx, ux, ly, uy
            in zip(layers, layers[1:], inst.Lx, inst.Ux, inst.Ly, inst.Uy)]


def _window_suffix(inst: Instance, layers) -> tuple[list[list], list[list]]:
    """Best payoff to the last layer from every node, and the head that
    attains it, without building arcs.

    suffix equals the longest-path table of the network over the same
    layers, its arcs taken by tail, then by ascending head.
    choice[t-1][k] indexes the smallest head in layer t that attains
    suffix[t-1][k], or is None with it.  inst must not be wp2 (solve the
    rows of searched(inst) instead).

    One sweep up each layer's ascending tails carries three pointers into
    the ascending heads: a sell deque over [s-Uy, s-Ly] keyed by
    suf(s') - (r+h)*s', the stay s' = s, and a buy deque over [s+Lx, s+Ux]
    keyed by suf(s') - (c+h)*s'.  Both window ends only move up, so a head
    enters each deque once, with its key computed then, and leaves it
    once.  A deque keeps its keys non-increasing and pops only strictly
    smaller ones, so its front is the leftmost maximum; a dead head (suffix
    None) never enters.  The node takes the sell front, the stay and the
    buy front in that order, each if strictly better, so it keeps its
    smallest best head.  A side with a zero upper bound (so Lx or Ly is 0
    too), as on one side of each doubled wp2 half-period, lets no head
    in: its window {s} is worth the stay less a nonnegative fixed cost, so
    it never beats the stay and on a tie names the same head.
    """
    suffix: list = [None] * inst.T + [[0] * len(layers[-1])]
    choice: list = [None] * inst.T
    for i in reversed(range(inst.T)):
        tails, heads, after = layers[i], layers[i + 1], suffix[i + 1]
        n = len(heads)
        h, r, c = inst.holding[i], inst.revenue[i], inst.cost[i]
        fs, fp = inst.fixed_sale[i], inst.fixed_purchase[i]
        ly, uy, lx, ux = inst.Ly[i], inst.Uy[i], inst.Lx[i], inst.Ux[i]
        sell_unit, buy_unit = r + h, c + h
        sell_end = n if uy > 0 else 0
        buy_end = n if ux > 0 else 0
        sells: deque = deque()  # (key, head, index), keys non-increasing
        buys: deque = deque()
        down = stay = up = 0
        best, pick = [], []
        for s in tails:
            value = head = None
            top = s - ly  # sales: s' in [s-Uy, s-Ly]
            while down < sell_end and heads[down] <= top:
                if after[down] is not None:
                    key = after[down] - sell_unit * heads[down]
                    while sells and sells[-1][0] < key:
                        sells.pop()
                    sells.append((key, heads[down], down))
                down += 1
            bottom = s - uy
            while sells and sells[0][1] < bottom:
                sells.popleft()
            if sells:
                key, _, head = sells[0]
                value = r * s - fs + key
            while stay < n and heads[stay] < s:  # the stay: s' = s
                stay += 1
            if stay < n and heads[stay] == s and after[stay] is not None:
                v = after[stay] - h * s
                if value is None or v > value:
                    value, head = v, stay
            top = s + ux  # purchases: s' in [s+Lx, s+Ux]
            while up < buy_end and heads[up] <= top:
                if after[up] is not None:
                    key = after[up] - buy_unit * heads[up]
                    while buys and buys[-1][0] < key:
                        buys.pop()
                    buys.append((key, heads[up], up))
                up += 1
            bottom = s + lx
            while buys and buys[0][1] < bottom:
                buys.popleft()
            if buys:
                v = c * s - fp + buys[0][0]
                if value is None or v > value:
                    value, head = v, buys[0][2]
            best.append(value)
            pick.append(head)
        suffix[i], choice[i] = best, pick
    return suffix, choice


def _feasible(inst: Instance) -> bool:
    """Whether some plan gets through every period of inst's searched
    horizon.

    The periods are the bound rows of searched(inst), with no price row
    made and nothing scaled, so a wp2 instance is walked as its 2T
    half-periods, each period's sale half before its purchase half.  The pass
    carries the exact set of stocks reachable from s0 forward as ascending
    disjoint intervals: [a, b] moves to itself, to [a+Lx, b+Ux] when
    Ux > 0 and to [a-Uy, b-Ly] when Uy > 0, and the union is clipped to
    [Ls_t, Us_t] and merged.  Trades are real, so a set is empty exactly
    when no plan gets through its period.  Every interval end is a
    forward level, so no set outgrows its layer, and a sum of inst's data,
    so the verdict is the same on inst scaled by any factor.
    """
    rows = searched(inst, prices=False)
    reach = [(rows.s0, rows.s0)]
    for ls, us, lx, ux, ly, uy in zip(rows.Ls, rows.Us, rows.Lx, rows.Ux,
                                      rows.Ly, rows.Uy):
        moved = reach
        if ux > 0:
            moved = moved + [(a + lx, b + ux) for a, b in reach]
        if uy > 0:
            moved = [(a - uy, b - ly) for a, b in reach] + moved
        if moved is not reach:
            moved.sort()
        reach = []
        lo = hi = None  # the interval being merged
        for a, b in moved:
            if a > us:  # and so is every later a
                break
            if b < ls:
                continue
            if a < ls:
                a = ls
            if b > us:
                b = us
            if hi is not None and a <= hi:
                if b > hi:
                    hi = b
            else:
                if hi is not None:
                    reach.append((lo, hi))
                lo, hi = a, b
        if hi is None:
            return False
        reach.append((lo, hi))
    return True


def solve(inst: Instance, trace: SolveTrace | None = None) -> Solution:
    """Solve an instance exactly by the window DP over its level sets.

    The DP runs on the rows of searched(inst, F), with F =
    model.scale_factor(inst), so the single wp1 arc rule serves all
    variants and every number is an int.  The scaling multiplies every
    stock by one factor F and every objective by F*F, so it changes no
    comparison and the plan found is the one the rational search finds.
    stocklevels.searched_trades reads the plan's trades and stocks off
    the DP's stock path and divides them by F; its objective is the DP's
    value divided by F*F, and its indicators are the minimal ones.  That
    part is search, which the FPTAS runs too.  No Instance is built.  Agrees in plan and
    objective with a longest path of the network in rationals, its arcs
    taken by tail, then by ascending head.  A given trace is handed to
    search, which records the searched rows and their levels (see
    SolveTrace).

    solve first decides feasibility on inst's bound rows, by _feasible,
    unless s0 lies in every [Ls_t, Us_t]: an infeasible inst raises before
    F, any price row or any level is made, traced or not, so a refused
    solve leaves its trace empty.  Raises Infeasible when no plan exists.
    """
    # on wp2 this also tests the doubled bounds: [0, Us_t] holds [Ls_t, Us_t]
    if not all(ls <= inst.s0 <= us for ls, us in zip(inst.Ls, inst.Us)):
        if not _feasible(inst):
            raise Infeasible("no feasible trading plan")
    F = scale_factor(inst)
    return search(inst, searched(inst, F), F, trace)


def search(inst: Instance, rows: Rows, F: int,
           trace: SolveTrace | None = None) -> Solution:
    """inst's plan found by the window DP over int rows: searched(inst, F),
    or, on the FPTAS route, those rows with the trade bounds rounded
    (fptas.fptas_rows).  searched_trades reads the DP's stock path off
    into inst's trades and stocks, divided by F; it reads only inst's
    variant and s0, which the rounding leaves alone.  The objective is the
    DP's value divided by F*F, and the indicators are the minimal ones.  A
    given trace records the rows and their levels.  Runs no feasibility
    pass: raises Infeasible when no path leads from s0 to the last layer.
    """
    layers = searched_levels(rows)
    if trace is not None:
        trace.searched, trace.levels = rows, StockLevels(levels=layers[1:])
    suffix, choice = _window_suffix(rows, layers)
    if suffix[0][0] is None:
        raise Infeasible("no feasible trading plan")
    stocks, node = [], 0
    for t in range(1, rows.T + 1):
        node = choice[t - 1][node]
        stocks.append(layers[t][node])
    x, y, s = searched_trades(inst, stocks, F)
    return Solution(x=x, y=y, s=s, w=tuple(map(_indicator, x)),
                    z=tuple(map(_indicator, y)),
                    objective=exact_quotient(suffix[0][0], F * F))


def solve_wp2_direct(inst: Instance) -> Solution:
    """Solve a wp2 instance on its own horizon via the seven-case arcs.

    An independent route for cross-checking solve(), which searches the
    doubled horizon; the two agree in objective value.  One backward DP
    over gen_stock_levels(inst) tries each tail's heads in [s-Uy, s+Ux] in
    ascending order, skipping dead ones; an arc keeps its first
    arc_candidates trade of highest payoff and smallest x, and a node its
    first strictly best head, so the forward walk along those choices
    keeps the module's tie-break.
    """
    if inst.variant is not Variant.WP2:
        raise WrongVariant("solve_wp2_direct applies to wp2 instances only")
    layers = ((inst.s0,),) + gen_stock_levels(inst).levels
    after = [0] * len(layers[-1])  # best payoff from each node to the end
    choices = []  # per period, backwards: each tail's (head, decision)
    for t in reversed(inst.periods):
        heads = layers[t]
        best, choice = [], []
        for s in layers[t - 1]:
            value = pick = None
            for j in range(bisect_left(heads, s - inst.Uy[t - 1]),
                           bisect_right(heads, s + inst.Ux[t - 1])):
                if after[j] is None:
                    continue
                cands = arc_candidates(inst, t, s, heads[j])
                if not cands:
                    continue
                dec = max(cands, key=lambda c: (c.payoff, -c.x))
                if value is None or dec.payoff + after[j] > value:
                    value, pick = dec.payoff + after[j], (j, dec)
            best.append(value)
            choice.append(pick)
        after = best
        choices.append(choice)
    if after[0] is None:
        raise Infeasible("no feasible trading plan")
    decs, stocks, node = [], [], 0
    for t, choice in zip(inst.periods, reversed(choices)):
        node, dec = choice[node]
        decs.append(dec)
        stocks.append(layers[t][node])
    x, y, w, z, _ = map(tuple, zip(*decs))
    return Solution(x=x, y=y, s=tuple(stocks), w=w, z=z, objective=after[0])


def to_dot(inst: Instance) -> str:
    """Render the network of inst in DOT format for debugging.

    Like extform.emit_lp, it draws the horizon solve searches, from the
    levels of searched(inst, F), F = model.scale_factor(inst), and builds
    no network: each tail's arcs are its _window_slices, by tail, then by
    ascending head, each labelled with the payoff _wp1_candidates prices
    it at.  Every stock is printed divided back by F and every payoff by
    F*F, so the dump shows inst's own numbers.
    """
    F = scale_factor(inst)
    rows = searched(inst, F)
    layers = searched_levels(rows)
    lines = ["digraph trading {", "  rankdir=LR;"]
    for t, layer in enumerate(unscaled(layers, F)):
        for i, stock in enumerate(layer):
            lines.append(f'  n_{t}_{i} [label="{t}:{stock}"];')
    for t, (tails, heads) in enumerate(zip(layers, layers[1:]), start=1):
        bounds = rows.Lx[t - 1], rows.Ux[t - 1], rows.Ly[t - 1], rows.Uy[t - 1]
        for tail, s in enumerate(tails):
            for head in chain(*_window_slices(heads, s, *bounds)):
                payoff = _wp1_candidates(rows, t, s, heads[head])[0].payoff
                lines.append(f'  n_{t - 1}_{tail} -> n_{t}_{head} '
                             f'[label="{exact_quotient(payoff, F * F)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
