"""Integer ground truth: dynamic programming over every integer stock state.

Requires integral bound data.  States are (period, stock) with the stock
ranging over every integer in [Ls_t, Us_t].  No candidate-level or network
machinery is used, so this solver is an independent witness for the exact
solver's objective values.

The value table costs O(T*R) for a stock range of R integers.  A period's
payoff is linear in the trade, so from opening stock s a purchase closing
at u is worth c*s - fp + [best(u) - (c+h)*u] and a sale closing at u is
worth r*s - fs + [best(u) - (r+h)*u].  Their closing stocks form the
windows [s+Lx, s+Ux] and [s-Uy, s-Ly] (Lx and Ly taken as at least 1: a
zero trade is the no-trade move), which slide upward with s, so each
period's values follow from two monotone-deque window maxima plus the
no-trade move.  On wp2 a purchase follows the sale, so the buy window runs
first over the stock m the sale leaves, and the sale window then runs over
those values at m in [s-Uy, s-Ly], m >= 0.  The table holds values only;
the plan is decoded from it by brute force, trying every integral trade
in each period along the plan: O(T*U) payoff evaluations for a trade bound
U (O(T*U^2) on wp2).
"""

from __future__ import annotations

from collections import deque

from .errors import Infeasible, NonIntegralData
from .model import (
    Instance,
    Solution,
    Variant,
    evaluate_payoff,
)


def _require_integral(inst: Instance) -> None:
    if not inst.bounds_integral():
        raise NonIntegralData("oracle_solve requires integral bound data")


def _transitions(inst: Instance, t: int, s_prev: int):
    """Yield (s_next, x, y, w, z) for every integral trade at state s_prev.

    Indicators take their minimal consistent values; with nonnegative fixed
    costs any other choice is dominated, and the tie-break prefers them.
    """
    i = t - 1
    lo, hi = inst.Ls[i], inst.Us[i]
    if inst.variant is Variant.WP2:
        x_values = [0] + list(range(max(inst.Lx[i], 1), inst.Ux[i] + 1))
        y_values = [0] + [
            y
            for y in range(max(inst.Ly[i], 1), inst.Uy[i] + 1)
            if y <= s_prev
        ]
        for x in x_values:
            for y in y_values:
                s_next = s_prev - y + x
                if lo <= s_next <= hi:
                    yield s_next, x, y, (1 if x else 0), (1 if y else 0)
        return
    # complementarity: trade on one side only
    if lo <= s_prev <= hi:
        yield s_prev, 0, 0, 0, 0
    for x in range(max(inst.Lx[i], 1), inst.Ux[i] + 1):
        s_next = s_prev + x
        if s_next > hi:
            break
        if s_next >= lo:
            yield s_next, x, 0, 1, 0
    for y in range(max(inst.Ly[i], 1), inst.Uy[i] + 1):
        s_next = s_prev - y
        if s_next < lo:
            break
        if s_next <= hi:
            yield s_next, 0, y, 0, 1


def _window_max(keys: dict, states, lo: int, hi: int) -> list:
    """Per state s, the largest keys[u] over the u in s+lo..s+hi, or None
    when no key lies there.

    keys lists its stocks u ascending and the states ascend, so both window
    ends only move up and a deque of (u, key) pairs with decreasing keys
    yields every maximum in O(len(keys) + len(states)).  A stock missing
    from keys never enters a window.
    """
    items = list(keys.items())
    out = []
    window: deque = deque()
    nxt, n = 0, len(items)
    for s in states:
        top = s + hi
        while nxt < n and items[nxt][0] <= top:
            item = items[nxt]
            while window and window[-1][1] <= item[1]:
                window.pop()
            window.append(item)
            nxt += 1
        bottom = s + lo
        while window and window[0][0] < bottom:
            window.popleft()
        out.append(window[0][1] if window else None)
    return out


def _period_values(inst: Instance, t: int, states, after: dict) -> dict:
    """best[t-1] from best[t] = after: the value of each opening stock in
    states (ascending) that has a feasible move in period t."""
    i = t - 1
    r, c, h = inst.revenue[i], inst.cost[i], inst.holding[i]
    fp, fs = inst.fixed_purchase[i], inst.fixed_sale[i]
    hold = {u: v - h * u for u, v in after.items()}  # closing at u
    if inst.variant is Variant.WP2:
        # the purchase starts from the stock m >= 0 that the sale leaves
        mids = range(max(states[0] - inst.Uy[i], 0), states[-1] + 1)
    else:
        mids = states
    buys = _window_max({u: v - c * u for u, v in hold.items()}, mids,
                       max(inst.Lx[i], 1), inst.Ux[i])
    kept = {}  # best over no purchase and every purchase from m
    for m, buy in zip(mids, buys):
        value = hold.get(m)
        if buy is not None:
            buy += c * m - fp
            if value is None or buy > value:
                value = buy
        if value is not None:
            kept[m] = value
    # a wp1 sale closes the period; a wp2 sale may be followed by a purchase
    landing = kept if inst.variant is Variant.WP2 else hold
    sells = _window_max({m: v - r * m for m, v in landing.items()}, states,
                        -inst.Uy[i], -max(inst.Ly[i], 1))
    values = {}
    for s, sell in zip(states, sells):
        value = kept.get(s)
        if sell is not None:
            sell += r * s - fs
            if value is None or sell > value:
                value = sell
        if value is not None:
            values[s] = value
    return values


def oracle_solve(inst: Instance) -> Solution:
    """Exhaustive integral optimum with deterministic tie-breaking.

    The value table is built from window maxima in O(T*R) for a stock
    range of R integers; the plan is then decoded by brute force, trying
    every integral trade in each period.  Equal-value plans resolve toward the
    lexicographically smallest stock sequence, then the smallest x, w, z
    per period.  Raises Infeasible when no integral plan exists and
    NonIntegralData on fractional bounds.
    """
    _require_integral(inst)
    # best[t][s] = payoff achievable over periods t+1..T starting at stock s
    best: list[dict] = [dict() for _ in range(inst.T + 1)]
    best[inst.T] = {
        s: 0 for s in range(inst.Ls[inst.T - 1], inst.Us[inst.T - 1] + 1)
    }
    for t in range(inst.T, 0, -1):
        if t == 1:
            states = [inst.s0]
        else:
            states = range(inst.Ls[t - 2], inst.Us[t - 2] + 1)
        best[t - 1] = _period_values(inst, t, states, best[t])
    if inst.s0 not in best[0]:
        raise Infeasible("no feasible integral trading plan")
    xs, ys, ws, zs, stocks = [], [], [], [], []
    s_prev = inst.s0
    for t in range(1, inst.T + 1):
        target = best[t - 1][s_prev]
        choice = None
        for s_next, x, y, w, z in _transitions(inst, t, s_prev):
            tail = best[t].get(s_next)
            if tail is None:
                continue
            if evaluate_payoff(inst, t, x, y, s_next, w, z) + tail != target:
                continue
            key = (s_next, x, w, z)
            if choice is None or key < choice[0]:
                choice = (key, (s_next, x, y, w, z))
        assert choice is not None, "table values promise a continuation"
        s_next, x, y, w, z = choice[1]
        xs.append(x)
        ys.append(y)
        ws.append(w)
        zs.append(z)
        stocks.append(s_next)
        s_prev = s_next
    return Solution(
        x=tuple(xs),
        y=tuple(ys),
        s=tuple(stocks),
        w=tuple(ws),
        z=tuple(zs),
        objective=best[0][inst.s0],
    )
