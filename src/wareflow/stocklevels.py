"""Candidate stock levels covering every extreme-point trajectory.

An optimal extreme plan always pins the stock to a bound at certain periods
(its anchors) and trades at a bound (or not at all) in between.  The
candidate set for period t therefore collects every value reachable from an
anchor by a run of per-period bound-sized moves:

* forward values: an anchor (t0, K), with K = s0 at t0 = 0 and K in
  {Ls_{t0}, Us_{t0}} at t0 >= 1, plus one move per period i in t0+1..t drawn
  from {0, +Lx_i, +Ux_i, -Ly_i, -Uy_i};
* backward values: an anchor (t1, K') with K' in {Ls_{t1}, Us_{t1}} for
  t1 > t, plus one move per period i in t+1..t1 drawn from
  {0, -Lx_i, -Ux_i, +Ly_i, +Uy_i}.

Each layer is clipped to [Ls_t, Us_t] as it is built, before the next
layer expands from it.  This loses no extreme plan: the values along a run
from an anchor to t are the plan's own stocks s_{t0}, ..., s_t (or s_t,
..., s_{t1} backward), and a feasible plan keeps every stock inside its
bounds, so no run that an extreme plan follows ever passes through a
clipped value.  The union of the two clipped sets is deduplicated and
sorted.

A layer's anchors are exactly its clip bounds Ls_t and Us_t, so one sweep
runs both ways: each layer is the previous one moved by every move,
clipped to [Ls_t, Us_t], plus Ls_t and Us_t.  Forward it starts from {s0};
backward from {Ls_T, Us_T}, with the negated moves of period t+1 for
layer t.  The work is proportional to the number of distinct in-bound
values rather than the number of move selections.

The horizon the solvers search is read through three functions.  searched
gives its rows: inst's own for wp1 and wp3, for wp2 the purchases/sales-
split doubled horizon, in both cases optionally scaled to integers by one
factor.  searched_levels sweeps the levels over those rows, the one sweep
every route builds its levels by.  searched_trades turns a stock path over
them into the instance's own trades.  gen_stock_levels sweeps fractional
bounds in integers, times model.scale_factor, divides each level back at
the end, and for wp2 keeps the layers after each purchase half: the sale
halves add zero as an anchor value.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .errors import WrongVariant
from .model import (
    _BOUND_FIELDS,
    _FIXED_FIELDS,
    _VECTOR_FIELDS,
    Exact,
    Instance,
    Variant,
    _bounds,
    _vectors,
    exact_quotient,
    scale_factor,
)


@dataclass(frozen=True)
class StockLevels:
    """Per-period candidate stock values, sorted ascending.

    levels[t-1] lists the candidates for the stock after period t.
    S_size is max_t |levels[t-1]|, the width that sizes the network.
    """

    levels: tuple[tuple[Exact, ...], ...]

    @property
    def S_size(self) -> int:
        return max(map(len, self.levels), default=0)


# The rows of a searched horizon, named as Instance names its fields, so the
# code that reads an instance's T, s0 and vectors reads them alike; the five
# price rows default to None, for rows read for their bounds alone.
Rows = namedtuple("Rows", ("T", "s0") + _VECTOR_FIELDS, defaults=(None,) * 5)

# the rows that a wp2 period's sale half, and its purchase half, carries
_SALE_HALF = frozenset({"Us", "Ly", "Uy", "revenue", "fixed_sale"})
_PURCHASE_HALF = frozenset({"Ls", "Us", "Lx", "Ux", "cost", "holding",
                            "fixed_purchase"})


def _times(value: Exact, factor: int) -> int:
    """value * factor, for a factor that is a multiple of value's
    denominator, as an int product with no Fraction arithmetic."""
    if type(value) is int:
        return value * factor
    share, rest = divmod(factor, value.denominator)
    if rest:
        raise ValueError(f"factor {factor} leaves {value} fractional")
    return value.numerator * share


def _interleave(odd, even) -> tuple:
    """odd[0], even[0], odd[1], even[1], ...: a doubled-horizon vector."""
    out = [0] * (2 * len(odd))
    out[0::2] = odd
    out[1::2] = even
    return tuple(out)


def searched(inst: Instance, F: int = 1, prices: bool = True) -> Rows:
    """The rows of the horizon the solvers search: inst's own for wp1 and
    wp3, for wp2 its doubled horizon, with s0, the bounds and the unit
    prices times F and the fixed costs times F*F.

    Period t of wp2 becomes its sale half 2t-1, with stock bounds
    [0, Us_t] and only its sales, revenue and fixed sale cost, then its
    purchase half 2t, with stock bounds [Ls_t, Us_t] and only its
    purchases, cost, holding cost and fixed purchase cost.  That encodes
    y_t <= s_{t-1} under plain complementarity, so the plans over the rows
    correspond one to one with inst's plans (see searched_trades).  F
    scales every plan's stocks and trades by F and its payoff by F*F, so
    it changes no comparison.  F must clear every denominator, as
    model.scale_factor(inst) and its multiples do, and the rows are then
    all ints; another F raises ValueError.  F = 1 gives inst's numbers as
    they are.  prices=False leaves the five price rows None.
    """
    names = _VECTOR_FIELDS if prices else _BOUND_FIELDS
    s0, rows = inst.s0, (_vectors if prices else _bounds)(inst)
    if F != 1:
        s0 = _times(s0, F)
        rows = [tuple(_times(v, F * F if name in _FIXED_FIELDS else F)
                      for v in row) for name, row in zip(names, rows)]
    if inst.variant is not Variant.WP2:
        return Rows(inst.T, s0, *rows)
    zeros = (0,) * inst.T
    return Rows(2 * inst.T, s0, *(
        _interleave(row if name in _SALE_HALF else zeros,
                    row if name in _PURCHASE_HALF else zeros)
        for name, row in zip(names, rows)))


def searched_trades(inst: Instance, stocks, F: int = 1) -> tuple[list, ...]:
    """x, y and s of inst's plan whose stocks over searched(inst, F) are
    stocks, in period order, each divided by F.

    On wp1 and wp3 each stock move is one trade.  On wp2 the sale half of
    period t moves the stock from s'_{2t-2} down to s'_{2t-1} (s'_0 = s0)
    and its purchase half on up to s'_{2t}, so y_t = s'_{2t-2} - s'_{2t-1},
    x_t = s'_{2t} - s'_{2t-1} and s_t = s'_{2t}.  The trades are taken on
    the stocks as given, ints when F clears inst's denominators, and only
    then divided.
    """
    s0 = inst.s0 if F == 1 else _times(inst.s0, F)
    if inst.variant is Variant.WP2:
        after_sale, s = stocks[0::2], stocks[1::2]
        x = [b - a for a, b in zip(after_sale, s)]
        y = [b - a for a, b in zip(after_sale, (s0, *s))]
    else:
        s, before = stocks, (s0, *stocks)
        x = [max(v - b, 0) for b, v in zip(before, stocks)]
        y = [max(b - v, 0) for b, v in zip(before, stocks)]
    return unscaled((x, y, s), F)


def double_horizon(inst: Instance) -> Instance:
    """Split every wp2 period into a sales half then a purchases half.

    The doubled instance is the wp1 instance over 2T periods whose data
    are the rows searched(inst) reads: odd period 2t-1 carries only the
    sales of period t, even period 2t only its purchases, and its feasible
    plans correspond one to one with the wp2 plans, with equal objective.
    """
    if inst.variant is not Variant.WP2:
        raise WrongVariant("double_horizon applies to wp2 instances only")
    return Instance(Variant.WP1, *searched(inst))


def _sweep(start: set, steps) -> list[set]:
    """start, then one layer per step (moves, lo, hi): the previous layer
    moved by every move, clipped to [lo, hi], with lo and hi added."""
    layers = [start]
    for moves, lo, hi in steps:
        layer = set()
        for v in layers[-1]:
            for d in moves:
                moved = v + d
                if lo <= moved <= hi:
                    layer.add(moved)
        layer.add(lo)
        layer.add(hi)
        layers.append(layer)
    return layers


def searched_levels(rows) -> tuple[tuple, ...]:
    """The candidate stock values over rows, as searched returns them: (s0,),
    then the ascending levels after each of the rows' T periods, by the
    forward and the backward sweep.  Every level is a sum of the rows'
    numbers, and every caller sweeps int rows, scaled by F when the data
    hold fractions, so every level is an int."""
    Ls, Us, Lx, Ux, Ly, Uy = (rows.Ls, rows.Us, rows.Lx, rows.Ux, rows.Ly,
                              rows.Uy)
    forward = _sweep({rows.s0}, (
        ({0, Lx[i], Ux[i], -Ly[i], -Uy[i]}, Ls[i], Us[i])
        for i in range(rows.T)))
    # the layer after period i+1 undoes the moves of period i+2
    backward = _sweep({Ls[-1], Us[-1]}, (
        ({0, -Lx[i + 1], -Ux[i + 1], Ly[i + 1], Uy[i + 1]}, Ls[i], Us[i])
        for i in range(rows.T - 2, -1, -1)))
    return ((rows.s0,),) + tuple(
        tuple(sorted(ahead | behind))
        for ahead, behind in zip(forward[1:], reversed(backward)))


def unscaled(vectors, F: int) -> tuple[tuple, ...]:
    """Every value of vectors divided by F, by exact_quotient, so a whole
    quotient is an int; F = 1 returns vectors as they are."""
    if F == 1:
        return vectors
    return tuple(tuple(exact_quotient(v, F) for v in vec) for vec in vectors)


def gen_stock_levels(inst: Instance) -> StockLevels:
    """Compute the candidate stock values for every period.

    The levels are searched_levels over the bound rows of
    searched(inst, F), with F = 1 for integral bounds and
    model.scale_factor(inst) otherwise, so fractional bounds are swept in
    ints and each level divided back; for wp2 the layers after each
    purchase half are kept.
    """
    F = 1 if inst.bounds_integral() else scale_factor(inst)
    layers = searched_levels(searched(inst, F, prices=False))[1:]
    if inst.variant is Variant.WP2:
        layers = layers[1::2]
    return StockLevels(levels=unscaled(layers, F))


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def bound_S(inst: Instance) -> int:
    """Smallest applicable a-priori bound on the per-period level count.

    Three forms apply in a cascade: integral bound data admit
    max_t(Us_t - Ls_t) + 1; time-independent bounds admit a polynomial in T;
    otherwise a generic exponential cap holds.  When several forms apply the
    smallest is returned.  wp2 instances are measured on their doubled
    horizon, whose period count is 2T and whose expansion alternates the
    two trade sides.
    """
    candidates = []
    if inst.bounds_integral():
        span = max(inst.Us[i] - inst.Ls[i] for i in range(inst.T))
        candidates.append(int(span) + 1)
    if inst.bounds_time_independent():
        horizon = 2 * inst.T if inst.variant is Variant.WP2 else inst.T
        candidates.append(_ceil_div(3 * (horizon + 1) ** 4, 4))
    if not candidates:
        if inst.variant is Variant.WP2:
            candidates.append((4 * inst.T + 1) * 9 ** inst.T)
        else:
            candidates.append((2 * inst.T + 1) * 3 ** inst.T)
    return min(candidates)
