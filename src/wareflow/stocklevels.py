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

For wp2 instances the sweep runs over the rows of the purchases/sales-split
doubled horizon that searched_bounds reads off the instance, with no
doubled instance built, and keeps the layers after each purchase half:
the sale halves add zero as an anchor value.  Fractional bounds are swept
in integers, times model.scale_factor, and divided back at the end.

The doubled horizon is read through two functions: searched_bounds gives
its rows, and searched_trades turns a stock path over them into the
instance's own trades.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import WrongVariant
from .model import Exact, Instance, Variant, exact_quotient, scale_factor


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


def _interleave(odd, even) -> tuple:
    """odd[0], even[0], odd[1], even[1], ...: a doubled-horizon vector."""
    out = [0] * (2 * len(odd))
    out[0::2] = odd
    out[1::2] = even
    return tuple(out)


def searched_bounds(inst: Instance) -> tuple[tuple, ...]:
    """Ls, Us, Lx, Ux, Ly, Uy of the horizon the solvers search, without
    building it: for wp2 the doubled rows double_horizon writes, for wp1
    and wp3 inst's own.

    Period t of wp2 becomes its sale half 2t-1, with stock bounds
    [0, Us_t] and sales in [Ly_t, Uy_t], then its purchase half 2t, with
    stock bounds [Ls_t, Us_t] and purchases in [Lx_t, Ux_t].
    """
    if inst.variant is not Variant.WP2:
        return inst.Ls, inst.Us, inst.Lx, inst.Ux, inst.Ly, inst.Uy
    zeros = (0,) * inst.T
    return (_interleave(zeros, inst.Ls), _interleave(inst.Us, inst.Us),
            _interleave(zeros, inst.Lx), _interleave(zeros, inst.Ux),
            _interleave(inst.Ly, zeros), _interleave(inst.Uy, zeros))


def searched_trades(inst: Instance, stocks) -> tuple[list, list]:
    """x and y of inst's plan whose stocks over the searched horizon of
    inst (the rows searched_bounds reads) are stocks, in period order.

    On wp1 and wp3 each stock move is one trade.  On wp2 the sale half of
    period t moves the stock from s'_{2t-2} down to s'_{2t-1} (s'_0 = s0)
    and its purchase half on up to s'_{2t}, so y_t = s'_{2t-2} - s'_{2t-1}
    and x_t = s'_{2t} - s'_{2t-1}.
    """
    if inst.variant is Variant.WP2:
        after_sale, after_purchase = stocks[0::2], stocks[1::2]
        before_sale = (inst.s0, *after_purchase)
        return ([b - a for a, b in zip(after_sale, after_purchase)],
                [b - a for a, b in zip(after_sale, before_sale)])
    before = (inst.s0, *stocks)
    return ([max(s - b, 0) for b, s in zip(before, stocks)],
            [max(b - s, 0) for b, s in zip(before, stocks)])


def double_horizon(inst: Instance) -> Instance:
    """Split every wp2 period into a sales half then a purchases half.

    The doubled instance is a wp1 instance over 2T periods: odd period
    2t-1 carries only the sales of period t, even period 2t only its
    purchases.  Its stock bounds are [0, Us_t] after an odd period and
    [Ls_t, Us_t] after an even one, which encodes y_t <= s_{t-1} under
    plain complementarity, so its feasible plans correspond one to one
    with the wp2 plans, with equal objective: searched_trades reads a
    wp2 plan's trades off the doubled plan's stocks.
    """
    if inst.variant is not Variant.WP2:
        raise WrongVariant("double_horizon applies to wp2 instances only")
    Ls, Us, Lx, Ux, Ly, Uy = searched_bounds(inst)
    zeros = (0,) * inst.T
    return Instance(
        variant=Variant.WP1,
        T=2 * inst.T,
        s0=inst.s0,
        Ls=Ls, Us=Us, Lx=Lx, Ux=Ux, Ly=Ly, Uy=Uy,
        revenue=_interleave(inst.revenue, zeros),
        cost=_interleave(zeros, inst.cost),
        holding=_interleave(zeros, inst.holding),
        fixed_purchase=_interleave(zeros, inst.fixed_purchase),
        fixed_sale=_interleave(inst.fixed_sale, zeros),
    )


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


def gen_stock_levels(inst: Instance) -> StockLevels:
    """Compute the candidate stock values for every period.

    The sweep runs over the rows searched_bounds(inst) returns; for wp2
    it keeps the layers after each purchase half.  Fractional bounds are
    swept times F = model.scale_factor(inst), in ints, and each level is
    divided back by exact_quotient, so a whole level is always an int.
    """
    s0, bounds = inst.s0, searched_bounds(inst)
    F = 1 if inst.bounds_integral() else scale_factor(inst)
    if F != 1:
        s0 = int(s0 * F)
        bounds = [[int(v * F) for v in vec] for vec in bounds]
    Ls, Us, Lx, Ux, Ly, Uy = bounds
    forward = _sweep({s0}, (
        ({0, Lx[i], Ux[i], -Ly[i], -Uy[i]}, Ls[i], Us[i])
        for i in range(len(Ls))))
    # the layer after period i+1 undoes the moves of period i+2
    backward = _sweep({Ls[-1], Us[-1]}, (
        ({0, -Lx[i + 1], -Ux[i + 1], Ly[i + 1], Uy[i + 1]}, Ls[i], Us[i])
        for i in range(len(Ls) - 2, -1, -1)))
    pairs = zip(forward[1:], reversed(backward))
    if inst.variant is Variant.WP2:
        pairs = islice(pairs, 1, None, 2)
    layers = (sorted(ahead | behind) for ahead, behind in pairs)
    if F != 1:
        layers = ([exact_quotient(v, F) for v in layer] for layer in layers)
    return StockLevels(levels=tuple(map(tuple, layers)))


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
