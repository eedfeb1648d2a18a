"""Approximation machinery: balanced flow pairing, flow reduction, terminal
normalization, and the bound-scaling approximation scheme.

A plan whose final stock returns to s0 moves every purchased unit to some
later sale (or covers an earlier sale from stock).  balanced_flow_decompose
makes that explicit as purchase/sale pairs, reduce_flow shrinks one pair
while keeping the plan feasible, and fptas_solve exploits both: rounding
the trade bounds down to multiples of K = epsilon * U_min keeps some plan
worth at least (1 - epsilon) of the optimum inside the rounded bounds,
which the exact search then finds.  fptas_rows rounds them in the int rows
that search runs on, so the FPTAS builds no rounded Instance;
scale_trade_bounds builds one for a caller that wants it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DeltaOutOfRange,
    EpsilonOutOfRange,
    IndexOutOfRange,
    InvalidArgument,
    NoPositiveBounds,
    TerminalStockMismatch,
    WrongVariant,
)
from .model import (
    Exact,
    Instance,
    Solution,
    Variant,
    assemble_solution,
    echo,
    exact,
    exact_quotient,
    scale_factor,
)
from .network import search
from .stocklevels import Rows, searched

FlowPair = tuple  # (purchase period, sale period, amount), periods 1-based


@dataclass(frozen=True)
class BalancedFlow:
    """Pairing of purchase amounts with the sales they feed.

    A pair (t, t', amount) moves `amount` units bought in period t to a sale
    in period t'.  Forward pairs have t < t' (buy now, sell later); backward
    pairs have t' < t (sell from stock now, buy back later).  Amounts are
    positive and conserve each period's totals exactly.
    """

    pairs: tuple[FlowPair, ...]


def balanced_flow_decompose(inst: Instance, sol: Solution) -> BalancedFlow:
    """Pair off purchases and sales of a wp3 plan whose stock returns to s0.

    Walks periods in order: each purchase drains against the earliest later
    unmatched sale, then each sale drains against the earliest later
    unmatched purchase.  The walk needs complementarity: a period that both
    buys and sells has no later trade to pair with, so an instance that is
    not wp3 raises WrongVariant, and a plan with such a period, or with a
    negative trade, raises InvalidArgument naming the first one.  Requires
    each stock to follow from the trades, s_t = s_{t-1} - y_t + x_t, and
    raises InvalidArgument naming the first period that breaks it.
    Requires s_T = s0 (equal totals); raises TerminalStockMismatch
    otherwise.  Past those checks the trades left from period t on total
    alike and no period trades both ways, so every trade finds a partner.
    """
    if inst.variant is not Variant.WP3:
        raise WrongVariant(
            "balanced_flow_decompose applies to wp3 instances only")
    stock = inst.s0
    for t, (bought, sold, held) in enumerate(zip(sol.x, sol.y, sol.s), 1):
        if bought < 0 or sold < 0:
            raise InvalidArgument(f"period {t} trades a negative amount")
        if bought and sold:
            raise InvalidArgument(f"period {t} both buys and sells")
        stock += bought - sold
        if held != stock:
            raise InvalidArgument(
                f"stock after period {t} is {held}, but the trades give "
                f"{stock}")
    if sol.s[-1] != inst.s0:
        raise TerminalStockMismatch(
            f"final stock {sol.s[-1]} differs from initial stock {inst.s0}"
        )
    x = list(sol.x)
    y = list(sol.y)
    pairs: list[FlowPair] = []
    for t in range(1, inst.T + 1):
        while x[t - 1] > 0:
            sale = next(u for u in range(t + 1, inst.T + 1) if y[u - 1] > 0)
            amount = min(x[t - 1], y[sale - 1])
            pairs.append((t, sale, amount))
            x[t - 1] -= amount
            y[sale - 1] -= amount
        while y[t - 1] > 0:
            buy = next(u for u in range(t + 1, inst.T + 1) if x[u - 1] > 0)
            amount = min(x[buy - 1], y[t - 1])
            pairs.append((buy, t, amount))
            x[buy - 1] -= amount
            y[t - 1] -= amount
    return BalancedFlow(pairs=tuple(pairs))


def reassemble(inst: Instance, flow: BalancedFlow) -> Solution:
    """Rebuild a plan from flow pairs (minimal indicators, fresh objective)."""
    x = [0] * inst.T
    y = [0] * inst.T
    for buy, sale, amount in flow.pairs:
        x[buy - 1] += amount
        y[sale - 1] += amount
    return assemble_solution(inst, x, y)


def reduce_flow(
    inst: Instance, sol: Solution, flow: BalancedFlow, index: int, delta
) -> Solution:
    """Shrink one flow pair by delta and return the adjusted plan.

    The purchase and the sale of the pair both drop by delta; stocks between
    them move toward s0 by delta (down across a forward pair, up across a
    backward pair).  Feasibility is preserved for any plan the pairing came
    from.  Indicators are re-derived minimally and the objective recomputed.
    """
    delta = exact(delta)
    if not 0 <= index < len(flow.pairs):
        raise IndexOutOfRange(
            f"pair index {index} outside 0..{len(flow.pairs) - 1}"
        )
    buy, sale, amount = flow.pairs[index]
    if not 0 <= delta <= amount:
        raise DeltaOutOfRange(f"delta {delta} outside [0, {amount}]")
    x = list(sol.x)
    y = list(sol.y)
    x[buy - 1] -= delta
    y[sale - 1] -= delta
    return assemble_solution(inst, x, y)


def normalize_terminal(inst: Instance) -> Instance:
    """Append a free settling period that pins the final stock to s0.

    The new period T+1 has zero payoff coefficients and no fixed costs, its
    stock bounds are [s0, s0], and its trade bounds are wide enough to move
    any reachable stock back to s0 at zero payoff.  Corresponding plans of
    the two instances carry equal objectives.
    """
    if inst.variant is not Variant.WP3:
        raise WrongVariant("normalize_terminal applies to wp3 instances only")
    span = inst.Us[-1]
    return replace(
        inst,
        T=inst.T + 1,
        Ls=inst.Ls + (inst.s0,),
        Us=inst.Us + (inst.s0,),
        Lx=inst.Lx + (0,),
        Ux=inst.Ux + (span,),
        Ly=inst.Ly + (0,),
        Uy=inst.Uy + (span,),
        revenue=inst.revenue + (0,),
        cost=inst.cost + (0,),
        holding=inst.holding + (0,),
        fixed_purchase=inst.fixed_purchase + (0,),
        fixed_sale=inst.fixed_sale + (0,),
    )


@dataclass(frozen=True)
class FptasParams:
    """Scaling data: epsilon, the extreme positive trade bounds, and the
    rounding unit K = epsilon * U_min."""

    epsilon: Fraction
    U_min: Exact
    U_max: Exact
    K: Fraction


def fptas_params(inst: Instance, epsilon) -> FptasParams:
    """Derive the rounding unit for an instance.

    Raises EpsilonOutOfRange unless 0 < epsilon < 1 and NoPositiveBounds
    when every trade bound is zero.
    """
    epsilon = Fraction(exact(epsilon))
    if not 0 < epsilon < 1:
        raise EpsilonOutOfRange(
            f"epsilon must lie in (0, 1), got {echo(epsilon)}")
    positive = [v for v in inst.Ux + inst.Uy if v > 0]
    if not positive:
        raise NoPositiveBounds("no positive trade bound to scale against")
    u_min = min(positive)
    u_max = max(positive)
    return FptasParams(
        epsilon=epsilon, U_min=u_min, U_max=u_max, K=epsilon * Fraction(u_min)
    )


def fptas_bound_S(inst: Instance, params: FptasParams) -> int:
    """A bound on the per-period level count of the rounded wp3 instance
    scale_trade_bounds(inst, params): the whole part of
    (2T+1) * (2T*rho/epsilon + 1), with rho = U_max / U_min.

    Proof.  wp3 has Lx = Ly = 0, so a period's moves are 0, Ux'_t and
    -Uy'_t, and each rounded bound is a multiple of K at most U_max.
    gen_stock_levels makes each level of period t in one of two sweeps:
    forward from s0, or from the anchor Ls_u or Us_u that a period u <= t
    adds, through at most t moves; or backward from the anchor Ls_u or Us_u
    of a period u >= t, through at most T - t negated moves.  Clipping to
    the stock bounds only drops values.  So every level is one of the
    at most 2T+1 anchors s0, Ls_1..Ls_T, Us_1..Us_T plus a multiple m*K of
    K within +-T*U_max, and |m| <= T*U_max / K = T*rho/epsilon, since
    K = epsilon * U_min.  Each anchor thus adds at most 2T*rho/epsilon + 1
    levels, which is polynomial in T and 1/epsilon when rho is bounded.
    """
    rho = Fraction(params.U_max) / params.U_min
    return math.floor((2 * inst.T + 1)
                      * (2 * inst.T * rho / params.epsilon + 1))


def _round_down(value: Exact, p: int, q: int) -> Exact:
    """K * floor(value / K) for K = p/q > 0, in integers: value / K is
    (a*q) / (b*p) for value = a/b, and K times its floor is p*n/q."""
    n = value.numerator * q // (value.denominator * p)
    return exact_quotient(p * n, q)


def scale_trade_bounds(inst: Instance, params: FptasParams) -> Instance:
    """Round every upper trade bound down to a multiple of K.

    The rounding is exact integer arithmetic on the numerators and
    denominators of the bound and of K.  Stock bounds, s0, and payoffs
    stay untouched.  No positive bound scales to zero because
    K = epsilon * U_min < U_min.
    """
    p, q = params.K.numerator, params.K.denominator
    ux = tuple(_round_down(v, p, q) for v in inst.Ux)
    uy = tuple(_round_down(v, p, q) for v in inst.Uy)
    return replace(inst, Ux=ux, Uy=uy)


def fptas_rows(inst: Instance, epsilon) -> tuple[FptasParams, Rows, int]:
    """The FPTAS's params, the int rows it searches and their factor F.

    Raises WrongVariant, then the fptas_params errors.  F is the LCM of
    model.scale_factor(inst) and K's denominator, so K*F is an int, and
    the rows are stocklevels.searched(inst, F) with each Ux and Uy row value
    u rounded down to a multiple of K*F: u - u % (K*F) is
    K*F*floor(U*F / (K*F)) = K*floor(U/K)*F, the bound scale_trade_bounds
    rounds to, times F.  No Instance is built.
    """
    if inst.variant is not Variant.WP3:
        raise WrongVariant("fptas applies to wp3 instances only")
    params = fptas_params(inst, epsilon)
    p, q = params.K.numerator, params.K.denominator
    F = math.lcm(scale_factor(inst), q)
    unit = p * (F // q)  # K*F
    rows = searched(inst, F)
    return params, rows._replace(Ux=tuple(u - u % unit for u in rows.Ux),
                                 Uy=tuple(u - u % unit for u in rows.Uy)), F


def fptas_solve(inst: Instance, epsilon) -> Solution:
    """Approximate a wp3 instance to within a factor of (1 - epsilon).

    Rounds the trade bounds down to multiples of K = epsilon * U_min and
    solves the rounded problem exactly.  The result is feasible for the
    original instance and its objective is at least (1 - epsilon) times the
    optimum; the guarantee needs the zero holding costs that wp3 validation
    enforces.  The rounded network has polynomially many stock levels in T
    and 1/epsilon when U_max / U_min is bounded: at most fptas_bound_S per
    period.  The rounding happens in the int rows network.search runs on
    (fptas_rows): the data times F, the LCM of every denominator of the data
    and of K, with the trade bounds rounded there.  The scaling keeps the
    order of every stock and payoff, so the search returns the plan it
    would on scale_trade_bounds(inst, params), its trades and stocks
    divided by F and its objective by F**2.  The rounding, the scaling and
    that division are integer arithmetic, and no Instance is built.
    """
    return search(inst, *fptas_rows(inst, epsilon)[1:])
