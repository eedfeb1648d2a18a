"""Shared fixtures and brute-force reference implementations."""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import random
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from wareflow import (
    Exact,
    Infeasible,
    Instance,
    LotSizingInstance,
    NonIntegralData,
    NotAPath,
    Solution,
    SolveTrace,
    StockLevels,
    Variant,
    WarehouseError,
    arc_candidates,
    assemble_solution,
    compute_objective,
    double_horizon,
    fptas_params,
    fptas_solve,
    gen_random,
    gen_stock_levels,
    normalize_terminal,
    scale_trade_bounds,
    serialize_instance,
    serialize_solution,
    solve,
)
from wareflow import cli
from wareflow.extform import _arc_name, _arc_prefix, _arc_suffix
from wareflow.errors import (
    InvalidArgument,
    LowerExceedsUpper,
    NegativeBound,
    WP3ShapeViolation,
    WrongVariant,
    WrongVectorLength,
)
from wareflow.model import (
    _VECTOR_FIELDS,
    _coerce_variant,
    echo,
    evaluate_payoff,
    exact,
    format_exact,
    parse_exact,
    scale_factor,
    validate_instance,
)
from wareflow.fptas import fptas_rows
from wareflow.network import _feasible, search
from wareflow.stocklevels import Rows


def two_period_trade() -> Instance:
    """Buy up to 5 at cost 1, sell up to 5 at price 3, stock cap 10."""
    return Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(10, 10),
        Lx=(0, 0), Ux=(5, 5),
        Ly=(0, 0), Uy=(5, 5),
        revenue=(3, 3), cost=(1, 1), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )


def blocked_by_fixed_cost() -> Instance:
    """Same trade, but a period-1 fixed purchase cost that eats the margin."""
    base = two_period_trade()
    return Instance(
        variant=base.variant, T=base.T, s0=base.s0,
        Ls=base.Ls, Us=base.Us, Lx=base.Lx, Ux=base.Ux,
        Ly=base.Ly, Uy=base.Uy,
        revenue=base.revenue, cost=base.cost, holding=base.holding,
        fixed_purchase=(11, 0), fixed_sale=base.fixed_sale,
    )


def gap_infeasible() -> Instance:
    """One wp1 period whose stock bounds [1, 2] fall in the gap between
    the stay at s0 = 0 and the buy window [3, 5]: the hull [0, 5] of the
    reachable stock meets the bounds, the reachable stock does not."""
    return Instance(
        variant="wp1", T=1, s0=0,
        Ls=(1,), Us=(2,), Lx=(3,), Ux=(5,), Ly=(0,), Uy=(0,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )


def buy_then_sell() -> Instance:
    """wp3 shape: period 1 can only buy, period 2 can only sell."""
    return Instance(
        variant="wp3", T=2, s0=0,
        Ls=(0, 0), Us=(10, 10),
        Lx=(0, 0), Ux=(5, 0),
        Ly=(0, 0), Uy=(0, 5),
        revenue=(0, 3), cost=(1, 0), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )


def wp2_mixed() -> Instance:
    """Small wp2 instance with every cost kind nonzero."""
    return Instance(
        variant="wp2", T=2, s0=1,
        Ls=(0, 0), Us=(3, 4),
        Lx=(1, 0), Ux=(2, 3),
        Ly=(0, 1), Uy=(2, 2),
        revenue=(4, 5), cost=(1, 2), holding=(0, 1),
        fixed_purchase=(1, 0), fixed_sale=(0, 2),
    )


def gap_trading() -> Instance:
    """wp1 with Lx = Ly = 2 and Ux = Uy = 4: every trade moves the stock by
    2 to 4, so a move of 1 lies in [s-Uy, s+Ux] but in no window."""
    return Instance(
        variant="wp1", T=3, s0=0,
        Ls=(0, 0, 0), Us=(9, 9, 9), Lx=(2, 2, 2), Ux=(4, 4, 4),
        Ly=(2, 2, 2), Uy=(4, 4, 4),
        revenue=(1, 4, 6), cost=(2, 3, 1), holding=(0, 1, 0),
        fixed_purchase=(1, 0, 2), fixed_sale=(0, 1, 1),
    )


def slice_rule_cases() -> list[Instance]:
    """Instances on which the outputs walking network._window_slices must
    match their references on a built network: seeded wp1, wp2 (searched
    on its doubled horizon) and wp3, some with bounds over 3, wp3 with
    FPTAS-rounded bounds, and gap_trading."""
    seeded = [gen_random(seed, T, variant, 3 * T)
              for variant in ("wp1", "wp2", "wp3")
              for T in (2, 4, 6)
              for seed in range(3)]
    thirds = [replace(inst, s0=Fraction(inst.s0, 3), **{
        name: tuple(Fraction(v, 3) for v in getattr(inst, name))
        for name in ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")})
        for inst in seeded[::2]]
    rounded = [scale_trade_bounds(inst, fptas_params(inst, Fraction(1, 3)))
               for inst in seeded if inst.variant is Variant.WP3]
    return seeded + thirds + rounded + [gap_trading()]


def as_wp3(inst: Instance) -> Instance:
    """Relabel a wp3-shaped wp1 instance."""
    return Instance(
        variant="wp3", T=inst.T, s0=inst.s0,
        Ls=inst.Ls, Us=inst.Us, Lx=inst.Lx, Ux=inst.Ux,
        Ly=inst.Ly, Uy=inst.Uy,
        revenue=inst.revenue, cost=inst.cost, holding=inst.holding,
        fixed_purchase=inst.fixed_purchase, fixed_sale=inst.fixed_sale,
    )


def brute_lotsizing(ls: LotSizingInstance):
    """Cheapest production plan by full enumeration, or None if infeasible.

    Demands are served from opening stock; production lands in the same
    period's closing stock.  Only usable for tiny instances.
    """
    best = None
    ranges = [range(int(u) + 1) for u in ls.Ux]
    for x in itertools.product(*ranges):
        s_prev = ls.s0
        stocks = []
        ok = True
        for t in range(ls.T):
            if s_prev < ls.demand[t]:
                ok = False
                break
            s = s_prev - ls.demand[t] + x[t]
            if s > ls.Us[t]:
                ok = False
                break
            stocks.append(s)
            s_prev = s
        if not ok:
            continue
        cost = sum(
            ls.unit_cost[t] * x[t] + (ls.fixed_cost[t] if x[t] > 0 else 0)
            for t in range(ls.T)
        )
        key = (cost, x)
        if best is None or key < best[0]:
            best = (key, x, tuple(stocks))
    if best is None:
        return None
    (cost, _), x, stocks = best
    return cost, x, stocks


def has_balanced_split(entries) -> bool:
    total = sum(entries)
    if total % 2:
        return False
    sums = {0}
    for a in entries:
        sums |= {s + a for s in sums}
    return total // 2 in sums


def planted_partition(seed: int, n: int, hi: int) -> list[int]:
    """n entries in [1, hi] that split into two halves of equal sum, so
    reduce_partition's optimum is 3A/2 before any solve.  n >= 2 and
    hi >= 2: an odd number of ones never balances.

    n - 1 entries drawn in [1, hi] are dealt one by one to the lighter
    half, which keeps the halves within hi of each other, and their
    difference is appended to the lighter one (all redrawn while it is
    0); the entries come back shuffled.
    """
    assert n >= 2 and hi >= 2
    rng = random.Random(seed)
    while True:
        entries, gap = [], 0  # gap: the first half's sum less the second's
        for _ in range(n - 1):
            value = rng.randint(1, hi)
            entries.append(value)
            gap += value if gap <= 0 else -value
        if gap:
            entries.append(abs(gap))
            rng.shuffle(entries)
            return entries


def random_trading_wp3(seed: int, T: int, lo: int = 4, hi: int = 12) -> Instance:
    """Integral wp3 instance whose trade bounds all land in [lo, hi]."""
    rng = random.Random(seed)
    zero = (0,) * T
    Us = tuple(rng.randint(hi, 2 * hi) for _ in range(T))
    return Instance(
        variant="wp3", T=T,
        s0=rng.randint(0, min(Us)),
        Ls=zero, Us=Us,
        Lx=zero, Ux=tuple(rng.randint(lo, hi) for _ in range(T)),
        Ly=zero, Uy=tuple(rng.randint(lo, hi) for _ in range(T)),
        revenue=tuple(rng.randint(0, hi) for _ in range(T)),
        cost=tuple(rng.randint(0, hi) for _ in range(T)),
        holding=zero,
        fixed_purchase=zero, fixed_sale=zero,
    )


def random_settled_walk(inst: Instance, rng: random.Random):
    """A random feasible plan for normalize_terminal(inst) ending at s0.

    Walks the original periods inside the interval every period's stock
    bounds share, then lets the appended settling period move the stock
    back to s0.  Returns (normalized instance, solution).
    """
    norm = normalize_terminal(inst)
    floor = max(inst.Ls)
    ceiling = min(inst.Us)
    x, y = [], []
    s = inst.s0
    for t in range(inst.T):
        buy_room = min(inst.Ux[t], ceiling - s)
        sell_room = min(inst.Uy[t], s - floor)
        move = rng.choice(("hold", "buy", "sell"))
        if move == "buy" and buy_room > 0:
            amount = rng.randint(1, int(buy_room))
            x.append(amount)
            y.append(0)
            s += amount
        elif move == "sell" and sell_room > 0:
            amount = rng.randint(1, int(sell_room))
            x.append(0)
            y.append(amount)
            s -= amount
        else:
            x.append(0)
            y.append(0)
    if s >= inst.s0:
        x.append(0)
        y.append(s - inst.s0)
    else:
        x.append(inst.s0 - s)
        y.append(0)
    return norm, assemble_solution(norm, tuple(x), tuple(y))


def solution_with(sol: Solution, **overrides) -> Solution:
    fields = {
        "x": sol.x, "y": sol.y, "s": sol.s, "w": sol.w, "z": sol.z,
        "objective": sol.objective,
    }
    fields.update(overrides)
    return Solution(**fields)


def search_instance(inst: Instance) -> Instance:
    """The searched horizon as an Instance, for the references that take
    one: wp2 rewritten onto its doubled, one-side-per-period horizon by
    double_horizon, wp1 and wp3 as they are."""
    if inst.variant is Variant.WP2:
        return double_horizon(inst)
    return inst


def instance_rows(inst: Instance):
    """T, s0 and the eleven vectors of an instance, as the rows
    stocklevels.searched returns them."""
    return Rows(inst.T, inst.s0, *(getattr(inst, name)
                                   for name in _VECTOR_FIELDS))


def searched_copy(inst: Instance) -> Instance:
    """The instance solve once searched, built as one: inst scaled to
    integers by reference_scale_instance at F = model.scale_factor(inst),
    then moved onto its doubled horizon for wp2.  Its rows are the ones
    stocklevels.searched(inst, F) reads off inst with no copy built."""
    return search_instance(reference_scale_instance(inst, scale_factor(inst)))


def verdict_on_the_searched_copy(inst: Instance) -> bool:
    """_feasible where solve once ran the pass: on the searched copy."""
    return _feasible(searched_copy(inst))


def reference_decimal_or_none(value):
    """Exact decimal literal for a rational, or None: the rational path
    that extform._decimal takes for every value, ints included, with None
    where it raises ValueError."""
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


def lp_rows(text: str) -> list[str]:
    """The row lines of an LP text, between Subject To and Bounds."""
    lines = text.splitlines()
    return lines[lines.index("Subject To") + 1:lines.index("Bounds")]


def lp_sizes(text: str) -> tuple[int, int]:
    """(rows, variables) of an LP text: the variables are the distinct arc
    names in its rows plus its free period variables."""
    rows = lp_rows(text)
    arcs = {token for line in rows for token in line.split()
            if token.startswith("a_")}
    free = [line for line in text.splitlines() if line.endswith(" free")]
    return len(rows), len(arcs) + len(free)


Term = tuple  # (variable name, coefficient)


class LPRow(NamedTuple):
    """One linear constraint of the reference model: sum of coeffs (sense)
    rhs."""

    name: str
    family: str  # "i", "ii", "iv", ..., "x"
    period: int  # 0 for rows not tied to a period
    coeffs: tuple[Term, ...]
    sense: str  # "=", "<=", ">="
    rhs: Exact


class ReferenceVariable(NamedTuple):
    """A variable with its bounds, as the reference builder and printer
    record it."""

    name: str
    lower: Exact | None
    upper: Exact | None
    kind: str  # "continuous" or "binary-relaxed"


@dataclass(frozen=True)
class ReferenceModel:
    variables: tuple[ReferenceVariable, ...]
    objective: tuple[Term, ...]  # maximized
    rows: tuple[LPRow, ...]


def _reference_model_numbers(model):
    for _, coeff in model.objective:
        yield coeff
    for row in model.rows:
        yield row.rhs
        for _, coeff in row.coeffs:
            yield coeff
    for var in model.variables:
        if var.lower is not None:
            yield var.lower
        if var.upper is not None:
            yield var.upper


def _reference_render(model, comments) -> str:
    def num(value) -> str:
        text = reference_decimal_or_none(value)
        assert text is not None, "caller guarantees decimal-exact numbers"
        return text

    def expr(terms) -> str:
        parts = []
        for name, coeff in terms:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = num(abs(coeff))
            piece = name if mag == "1" else f"{mag} {name}"
            parts.append(f"{sign} {piece}")
        if not parts:
            return "0 "
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    lines = [f"\\ {c}" for c in comments]
    lines.append("Maximize")
    lines.append(f" obj: {expr(model.objective)}")
    lines.append("Subject To")
    for row in model.rows:
        lines.append(f" {row.name}: {expr(row.coeffs)} {row.sense} {num(row.rhs)}")
    lines.append("Bounds")
    for var in model.variables:
        if var.lower == 0 and var.upper is None:
            continue
        if var.lower is None and var.upper is None:
            lines.append(f" {var.name} free")
        elif var.lower is None:
            lines.append(f" -inf <= {var.name} <= {num(var.upper)}")
        elif var.upper is None:
            lines.append(f" {var.name} >= {num(var.lower)}")
        else:
            lines.append(f" {num(var.lower)} <= {var.name} <= {num(var.upper)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def reference_scale_trade_bounds(inst: Instance, params) -> Instance:
    """Every upper trade bound rounded down to a multiple of K in Fraction
    arithmetic, K * floor(v / K) (kept apart from
    fptas.scale_trade_bounds, which rounds in integers)."""
    K = params.K
    ux = tuple(exact(K * math.floor(Fraction(v) / K)) for v in inst.Ux)
    uy = tuple(exact(K * math.floor(Fraction(v) / K)) for v in inst.Uy)
    return replace(inst, Ux=ux, Uy=uy)


def fptas_scale(inst: Instance, epsilon) -> tuple:
    """The FPTAS's params and its rounded Instance: WrongVariant, then the
    fptas_params errors, then scale_trade_bounds (the route the FPTAS took
    before fptas.fptas_rows rounded in the searched rows)."""
    if inst.variant is not Variant.WP3:
        raise WrongVariant("fptas applies to wp3 instances only")
    params = fptas_params(inst, epsilon)
    return params, scale_trade_bounds(inst, params)


def reference_fptas(inst: Instance, epsilon) -> tuple:
    """K, the widest searched level set and the repr of the Solution, or of
    the Raised error, of solve on fptas_scale's rounded Instance."""
    params, rounded = fptas_scale(inst, epsilon)
    trace = SolveTrace()
    outcome(solve, rounded, trace)
    return params.K, trace.levels.S_size, repr(outcome(solve, rounded))


def fptas_route(inst: Instance, epsilon) -> tuple:
    """reference_fptas's fields as fptas_solve gives them, over the rows
    fptas.fptas_rows rounds."""
    params, rows, F = fptas_rows(inst, epsilon)
    trace = SolveTrace()
    outcome(search, inst, rows, F, trace)
    return params.K, trace.levels.S_size, repr(outcome(fptas_solve, inst,
                                                       epsilon))


def fptas_cli_outputs(inst: Instance, epsilon, directory) -> tuple:
    """Exit code, stdout, stderr and --output text (None when none is
    written) of the fptas op on inst, its files kept in directory."""
    path, plan = Path(directory) / "inst.json", Path(directory) / "plan.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    plan.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["fptas", "--input", str(path), "--epsilon",
                        str(epsilon), "--output", str(plan)])
    text = plan.read_text(encoding="utf-8") if plan.exists() else None
    return code, out.getvalue(), err.getvalue(), text


def reference_fptas_cli_outputs(inst: Instance, epsilon) -> tuple:
    """fptas_cli_outputs as the op gave them when it solved fptas_scale's
    rounded Instance, traced for the S_size line."""
    try:
        params, rounded = fptas_scale(inst, epsilon)
        trace = SolveTrace()
        sol = solve(rounded, trace)
    except Infeasible as err:
        return 1, "", f"infeasible: {err}\n", None
    except (WarehouseError, ValueError) as err:
        return 2, "", f"error: {err}\n", None
    return (0, f"objective: {format_exact(sol.objective)}\n",
            f"K: {format_exact(params.K)}\nS_size: {trace.levels.S_size}\n",
            serialize_solution(sol))


def reference_scale_instance(inst: Instance, factor: int) -> Instance:
    """Every number of the instance times one factor, the fixed costs
    times its square, so every plan's objective grows by factor**2, as
    Fraction products (kept apart from stocklevels.searched, which
    multiplies numerators in integers)."""
    fixed = ("fixed_purchase", "fixed_sale")
    scaled = {name: tuple(exact(v * factor ** (2 if name in fixed else 1))
                          for v in getattr(inst, name))
              for name in _VECTOR_FIELDS}
    return replace(inst, s0=exact(inst.s0 * factor), **scaled)


@dataclass(frozen=True)
class LayeredNetwork:
    """Acyclic layered graph over candidate stock values.

    layers has T+1 entries; layers[0] == (s0,).  arcs[t-1] lists the
    period-t arcs as (tail, head, ArcDecision), with indices into the
    adjacent layers, by tail, then by ascending head.
    """

    layers: tuple
    arcs: tuple

    @property
    def node_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def arc_count(self) -> int:
        return sum(len(period) for period in self.arcs)


def reference_build_network(inst: Instance, levels: StockLevels) -> LayeredNetwork:
    """The network with no reach bound: every (tail, head) pair of
    adjacent layers goes through arc_candidates, and each arc keeps its
    payoff-maximizing candidate (ties: smaller x, then w, then z).  The
    program asks only about the heads in [s-Uy, s+Ux], so outputs equal
    to this network's show that the bound drops no arc."""
    layers = ((inst.s0,),) + tuple(levels.levels)
    all_arcs = []
    for t in inst.periods:
        period_arcs = []
        tails = layers[t - 1]
        heads = layers[t]
        for ti, s_prev in enumerate(tails):
            for hi, s_next in enumerate(heads):
                cands = arc_candidates(inst, t, s_prev, s_next)
                if not cands:
                    continue
                best = max(cands, key=lambda c: (c.payoff, -c.x, -c.w, -c.z))
                period_arcs.append((ti, hi, best))
        all_arcs.append(tuple(period_arcs))
    return LayeredNetwork(layers=layers, arcs=tuple(all_arcs))


def solve_with_network(inst: Instance) -> tuple[Solution, LayeredNetwork]:
    """Solve an instance on its built network and return both.

    The network is built pair by pair on search_instance(inst), so for wp2
    it is the doubled-horizon one while the solution is mapped back by
    reference_map_back.  Decoding from the network's own longest path
    keeps this an independent witness for solve; the two return equal
    solutions.  Raises Infeasible when no plan exists.
    """
    base = search_instance(inst)
    net = reference_build_network(base, gen_stock_levels(base))
    sol = reference_decode(net)
    if inst.variant is Variant.WP2:
        sol = reference_map_back(inst, sol)
    return sol, net


def reference_map_back(inst: Instance, sol: Solution) -> Solution:
    """A plan of double_horizon(inst) as the wp2 plan of inst, by the
    slicing that double_horizon's map back once did: x_t = x'_{2t},
    y_t = y'_{2t-1}, s_t = s'_{2t}, w_t = w'_{2t}, z_t = z'_{2t-1}, and
    the objective recomputed on inst."""
    x, y, s = sol.x[1::2], sol.y[0::2], sol.s[1::2]
    w, z = sol.w[1::2], sol.z[0::2]
    return Solution(x=x, y=y, s=s, w=w, z=z,
                    objective=compute_objective(inst, x, y, s, w, z))


def reference_to_dot(net: LayeredNetwork) -> str:
    """network.to_dot as it was when it drew a built network, kept
    verbatim; to_dot(inst), walking the window slices, must write the same
    text as this does on the network over the searched instance."""
    lines = ["digraph trading {", "  rankdir=LR;"]
    for t, layer in enumerate(net.layers):
        for i, stock in enumerate(layer):
            lines.append(f'  n_{t}_{i} [label="{t}:{stock}"];')
    for t, period in enumerate(net.arcs, start=1):
        for tail, head, dec in period:
            lines.append(
                f'  n_{t - 1}_{tail} -> n_{t}_{head} [label="{dec.payoff}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_lift_solution(net: LayeredNetwork, sol: Solution) -> dict:
    """extform.lift_solution as it was when it located the path on a built
    network's arcs, kept verbatim; lift_solution(inst, net.layers, sol)
    must give the same dict or raise the same NotAPath."""
    values: dict = {}
    T = len(net.arcs)
    for prefix in "sxywz":
        periods = len(getattr(sol, prefix))
        if periods != T:
            raise NotAPath(f"solution has {periods} periods, network has {T}")
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


def perturbed_stocks(sol: Solution, layers, rng: random.Random) -> list:
    """The plan sol, then copies with some stocks moved: each period's
    stock to every level of its layer (trades kept, so only the path
    changes), a stock just off its layer, and a few random walks over the
    levels, none of them empty as sol is a plan.  Many moves land in gaps
    or outside the trade bounds."""
    out = [sol]
    for t in range(len(sol.s)):
        for level in layers[t + 1]:
            s = sol.s[:t] + (level,) + sol.s[t + 1:]
            out.append(replace(sol, s=s))
        s = sol.s[:t] + (sol.s[t] + Fraction(1, 7),) + sol.s[t + 1:]
        out.append(replace(sol, s=s))
    for _ in range(4):
        out.append(replace(sol, s=tuple(map(rng.choice, layers[1:]))))
    return out


def lift_outcome(lift, *args):
    """lift(*args), or the message of the NotAPath it raises."""
    try:
        return lift(*args)
    except NotAPath as err:
        return f"NotAPath: {err}"


def reference_build_extended_formulation(
    inst: Instance, net: LayeredNetwork
) -> ReferenceModel:
    """The LP model by a builder that makes one pass over the arcs per
    constraint family; reference_emit_lp renders it, and extform._lp_text
    must write the same rows."""
    T = inst.T
    variables: list[ReferenceVariable] = []
    arc_names: list[list[str]] = []
    for t in range(1, T + 1):
        names = []
        for tail, head, _ in net.arcs[t - 1]:
            name = f"a_{t}_{tail}_{head}"
            names.append(name)
            variables.append(ReferenceVariable(name, 0, None, "continuous"))
        arc_names.append(names)
    for t in range(1, T + 1):
        for prefix in ("x", "y", "s"):
            variables.append(ReferenceVariable(f"{prefix}_{t}", None, None, "continuous"))
        variables.append(ReferenceVariable(f"w_{t}", None, None, "binary-relaxed"))
        variables.append(ReferenceVariable(f"z_{t}", None, None, "binary-relaxed"))

    objective: list[Term] = []
    for t in range(1, T + 1):
        i = t - 1
        objective.extend(
            [
                (f"y_{t}", inst.revenue[i]),
                (f"x_{t}", -inst.cost[i]),
                (f"s_{t}", -inst.holding[i]),
                (f"w_{t}", -inst.fixed_purchase[i]),
                (f"z_{t}", -inst.fixed_sale[i]),
            ]
        )

    rows: list[LPRow] = []
    # (ii) the source emits one unit of flow
    rows.append(
        LPRow(
            name="unit_source",
            family="ii",
            period=0,
            coeffs=tuple((name, 1) for name in arc_names[0]),
            sense="=",
            rhs=1,
        )
    )
    # (i) conservation at interior nodes
    for t in range(1, T):
        incoming: dict[int, list[str]] = {}
        outgoing: dict[int, list[str]] = {}
        for (tail, head, _), name in zip(net.arcs[t - 1], arc_names[t - 1]):
            incoming.setdefault(head, []).append(name)
        for (tail, head, _), name in zip(net.arcs[t], arc_names[t]):
            outgoing.setdefault(tail, []).append(name)
        for node in range(len(net.layers[t])):
            coeffs = [(name, 1) for name in incoming.get(node, [])]
            coeffs += [(name, -1) for name in outgoing.get(node, [])]
            if not coeffs:
                continue
            rows.append(
                LPRow(
                    name=f"flow_{t}_{node}",
                    family="i",
                    period=t,
                    coeffs=tuple(coeffs),
                    sense="=",
                    rhs=0,
                )
            )
    # (iv) trade amounts are flow-weighted arc decisions
    for t in range(1, T + 1):
        x_terms = [
            (name, dec.x)
            for (_, _, dec), name in zip(net.arcs[t - 1], arc_names[t - 1])
            if dec.x != 0
        ]
        rows.append(
            LPRow(
                name=f"def_x_{t}",
                family="iv",
                period=t,
                coeffs=tuple(x_terms) + ((f"x_{t}", -1),),
                sense="=",
                rhs=0,
            )
        )
        y_terms = [
            (name, dec.y)
            for (_, _, dec), name in zip(net.arcs[t - 1], arc_names[t - 1])
            if dec.y != 0
        ]
        rows.append(
            LPRow(
                name=f"def_y_{t}",
                family="iv",
                period=t,
                coeffs=tuple(y_terms) + ((f"y_{t}", -1),),
                sense="=",
                rhs=0,
            )
        )
    # (v) stock balance
    for t in range(1, T + 1):
        coeffs = [(f"s_{t}", 1), (f"y_{t}", 1), (f"x_{t}", -1)]
        rhs = 0
        if t == 1:
            rhs = inst.s0
        else:
            coeffs.append((f"s_{t - 1}", -1))
        rows.append(
            LPRow(
                name=f"balance_{t}",
                family="v",
                period=t,
                coeffs=tuple(coeffs),
                sense="=",
                rhs=rhs,
            )
        )
    # (vi)-(ix) indicator coupling through arc flows
    for t in range(1, T + 1):
        i = t - 1
        purchase = [
            (name, -1)
            for (_, _, dec), name in zip(net.arcs[t - 1], arc_names[t - 1])
            if dec.x > 0
        ]
        family, sense = ("vi", "=") if inst.Lx[i] > 0 else ("vii", ">=")
        rows.append(
            LPRow(
                name=f"w_couple_{t}",
                family=family,
                period=t,
                coeffs=((f"w_{t}", 1),) + tuple(purchase),
                sense=sense,
                rhs=0,
            )
        )
        sale = [
            (name, -1)
            for (_, _, dec), name in zip(net.arcs[t - 1], arc_names[t - 1])
            if dec.y > 0
        ]
        family, sense = ("viii", "=") if inst.Ly[i] > 0 else ("ix", ">=")
        rows.append(
            LPRow(
                name=f"z_couple_{t}",
                family=family,
                period=t,
                coeffs=((f"z_{t}", 1),) + tuple(sale),
                sense=sense,
                rhs=0,
            )
        )
    # (x) indicator ceilings
    for t in range(1, T + 1):
        rows.append(
            LPRow(
                name=f"w_ub_{t}", family="x", period=t,
                coeffs=((f"w_{t}", 1),), sense="<=", rhs=1,
            )
        )
        rows.append(
            LPRow(
                name=f"z_ub_{t}", family="x", period=t,
                coeffs=((f"z_{t}", 1),), sense="<=", rhs=1,
            )
        )
    return ReferenceModel(
        variables=tuple(variables),
        objective=tuple(objective),
        rows=tuple(rows),
    )


def reference_emit_lp(inst: Instance) -> str:
    """LP text by the two-pass emitter that extform.emit_lp replaced: scan
    every model number first, scale the instance when one is not decimal,
    then render."""
    def model_for(base):
        net = reference_build_network(base, gen_stock_levels(base))
        return reference_build_extended_formulation(base, net)

    base = search_instance(inst)
    comments = ["extended formulation over the trading network"]
    model = model_for(base)
    if any(reference_decimal_or_none(v) is None
           for v in _reference_model_numbers(model)):
        numbers = [base.s0]
        for name in _VECTOR_FIELDS:
            numbers.extend(getattr(base, name))
        factor = math.lcm(*(Fraction(v).denominator for v in numbers))
        base = reference_scale_instance(base, factor)
        model = model_for(base)
        comments.append(f"quantities and unit prices scaled by {factor}, "
                        f"fixed costs by {factor * factor}")
    return _reference_render(model, tuple(comments))


def _expr(plus, minus=()) -> str:
    """The terms in plus less the names in minus, as the LP text writes
    them: with no plus term it opens with "- ", and with none at all it
    is 0."""
    return " - ".join([" + ".join(plus), *minus]).lstrip() or "0 "


def reference_lp_text_from_arcs(inst: Instance, net: LayeredNetwork,
                                comments: tuple[str, ...], literal) -> str:
    """The LP text by the walk over a built network's arcs that
    extform._lp_text replaced, each arc's x and y read off its
    ArcDecision; _lp_text, walking the level sets, must write the same
    bytes."""
    objective, source, flows, trades, balances, couplings = (
        [[] for _ in range(6)])
    into_prev: list[list[str]] = []

    @functools.cache  # few distinct amounts and prices recur
    def times(value: Exact) -> str:
        """A coefficient's magnitude as it leads a variable's name: nothing
        for 1, else its literal and a space."""
        text = literal(value)
        return "" if text == "1" else text + " "

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
        rest = f"- s_{i} = 0" if i else f"= {literal(inst.s0)}"
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


def text_or_value_error(write, *args) -> str:
    """write(*args), or the ValueError it raises as text, so that two
    writers can be compared on data that stops them."""
    try:
        return write(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def _reference_forward_sets(inst: Instance) -> list[set]:
    values: list[set] = [{inst.s0}]
    for t in inst.periods:
        i = t - 1
        moves = {0, inst.Lx[i], inst.Ux[i], -inst.Ly[i], -inst.Uy[i]}
        layer = {v + d for v in values[t - 1] for d in moves}
        layer.add(inst.Ls[i])
        layer.add(inst.Us[i])
        values.append(layer)
    return values


def _reference_backward_sets(inst: Instance) -> list[set]:
    values: list[set] = [set() for _ in range(inst.T + 1)]
    for t in range(inst.T - 1, -1, -1):
        i = t
        moves = {0, -inst.Lx[i], -inst.Ux[i], inst.Ly[i], inst.Uy[i]}
        seed = values[t + 1] | {inst.Ls[i], inst.Us[i]}
        values[t] = {v + d for v in seed for d in moves}
    return values


def reference_stock_levels(inst: Instance) -> StockLevels:
    """Level sets by the sweeps that stocklevels.gen_stock_levels replaced:
    carry every value through every layer unclipped, and clip to
    [Ls_t, Us_t] only at the end."""
    if inst.variant is Variant.WP2:
        inner = reference_stock_levels(double_horizon(inst))
        levels = tuple(inner.levels[2 * t - 1] for t in inst.periods)
        return StockLevels(levels=levels)
    forward = _reference_forward_sets(inst)
    backward = _reference_backward_sets(inst)
    levels = []
    for t in inst.periods:
        i = t - 1
        pool = forward[t] | backward[t]
        levels.append(tuple(sorted(
            v for v in pool if inst.Ls[i] <= v <= inst.Us[i]
        )))
    return StockLevels(levels=tuple(levels))


def _reference_shifted(values, moves, lo, hi) -> set:
    out = set()
    for v in values:
        for d in moves:
            moved = v + d
            if lo <= moved <= hi:
                out.add(moved)
    return out


def _reference_clipped_forward_sets(inst: Instance) -> list[set]:
    values: list[set] = [{inst.s0}]
    for t in inst.periods:
        i = t - 1
        moves = {0, inst.Lx[i], inst.Ux[i], -inst.Ly[i], -inst.Uy[i]}
        layer = _reference_shifted(values[t - 1], moves, inst.Ls[i],
                                   inst.Us[i])
        layer.add(inst.Ls[i])
        layer.add(inst.Us[i])
        values.append(layer)
    return values


def _reference_clipped_backward_sets(inst: Instance) -> list[set]:
    values: list[set] = [set() for _ in range(inst.T + 1)]
    for t in range(inst.T - 1, 0, -1):
        i = t
        moves = {0, -inst.Lx[i], -inst.Ux[i], inst.Ly[i], inst.Uy[i]}
        seed = values[t + 1] | {inst.Ls[i], inst.Us[i]}
        values[t] = _reference_shifted(seed, moves, inst.Ls[t - 1],
                                       inst.Us[t - 1])
    return values


def reference_clipped_stock_levels(inst: Instance) -> StockLevels:
    """Level sets by the two mirrored sweeps that stocklevels._sweep
    replaced: a forward and a backward pass, each layer clipped to
    [Ls_t, Us_t] as it is built, the backward one seeded per layer with the
    next period's anchors."""
    if inst.variant is Variant.WP2:
        inner = reference_clipped_stock_levels(double_horizon(inst))
        return StockLevels(levels=tuple(inner.levels[2 * t - 1]
                                        for t in inst.periods))
    forward = _reference_clipped_forward_sets(inst)
    backward = _reference_clipped_backward_sets(inst)
    return StockLevels(levels=tuple(tuple(sorted(forward[t] | backward[t]))
                                    for t in inst.periods))


def _adjacency(net: LayeredNetwork) -> list[dict]:
    """Per period, each tail's outgoing (head, decision) list."""
    adjacency = []
    for period in net.arcs:
        adj: dict[int, list] = {}
        for tail, head, dec in period:
            adj.setdefault(tail, []).append((head, dec))
        adjacency.append(adj)
    return adjacency


def reference_longest_path(net: LayeredNetwork) -> list[list]:
    """Best payoff from every node of net to its last layer, or None
    where no path goes on, from per-tail adjacency dicts."""
    T = len(net.arcs)
    adjacency = _adjacency(net)
    suffix: list[list] = [[None] * len(layer) for layer in net.layers]
    suffix[T] = [0] * len(net.layers[T])
    for t in range(T, 0, -1):
        for tail, outgoing in adjacency[t - 1].items():
            best = None
            for head, dec in outgoing:
                tail_value = suffix[t][head]
                if tail_value is None:
                    continue
                total = dec.payoff + tail_value
                if best is None or total > best:
                    best = total
            suffix[t - 1][tail] = best
    return suffix


def reference_decode(net: LayeredNetwork) -> Solution:
    """Decode a longest path of net: reference_longest_path's table, then
    a forward pass that sorts each node's arcs and takes the first head
    attaining the node's suffix value, so the plan is the
    lexicographically smallest.  Raises Infeasible when no source-to-sink
    path exists."""
    adjacency = _adjacency(net)
    suffix = reference_longest_path(net)
    layers = net.layers
    if not layers[-1] or suffix[0][0] is None:
        raise Infeasible("no feasible trading plan")
    x, y, w, z, stocks = [], [], [], [], []
    node = 0
    total = 0
    for t in range(1, len(layers)):
        target = suffix[t - 1][node]
        chosen = None
        for head, dec in sorted(adjacency[t - 1].get(node, ())):
            if suffix[t][head] is None:
                continue
            if dec.payoff + suffix[t][head] == target:
                chosen = (head, dec)
                break
        assert chosen is not None, "suffix values promise a continuation"
        head, dec = chosen
        x.append(dec.x)
        y.append(dec.y)
        w.append(dec.w)
        z.append(dec.z)
        stocks.append(layers[t][head])
        total += dec.payoff
        node = head
    return Solution(x=tuple(x), y=tuple(y), s=tuple(stocks),
                    w=tuple(w), z=tuple(z), objective=total)


def reference_window_argmax(tails, heads, keys, lo, hi) -> list:
    """The window arg-max that network._window_suffix ran once per trade
    side before it took both windows in one sweep, as it was before
    len(heads) left its inner loop, kept verbatim for
    reference_window_suffix: per tail s, the index of the leftmost maximum
    of keys[j] over the live heads in the window s+lo..s+hi, or None."""
    out = []
    window: deque = deque()
    nxt = 0
    for s in tails:
        top = s + hi
        while nxt < len(heads) and heads[nxt] <= top:
            key = keys[nxt]
            if key is not None:
                while window and keys[window[-1]] < key:
                    window.pop()
                window.append(nxt)
            nxt += 1
        bottom = s + lo
        while window and heads[window[0]] < bottom:
            window.popleft()
        out.append(window[0] if window else None)
    return out


def reference_window_max(keys: dict, states, lo: int, hi: int) -> list:
    """oracle._window_max as it was before len(items) left its inner loop,
    kept verbatim: per state s, the largest keys[u] over the u in
    s+lo..s+hi, or None when no key lies there."""
    items = list(keys.items())
    out = []
    window: deque = deque()
    nxt = 0
    for s in states:
        top = s + hi
        while nxt < len(items) and items[nxt][0] <= top:
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


def window_case(pick) -> tuple[Instance, tuple]:
    """An unvalidated wp1 instance and T+1 ascending layers of stocks in
    -2..8, drawn by pick(lo, hi), an int in [lo, hi], for comparing
    network._window_suffix with reference_window_suffix.

    Unit prices lie in -1..1 and fixed costs in 0..1, so equal keys and
    equal candidate values are common.  The layers have gaps, so some
    heads reach nothing in the next layer and are dead.  A trade side's
    upper bound is 0 with chance 1/4, and its lower bound lies in
    0..upper.
    """
    T = pick(1, 4)

    def bounds():
        upper = [pick(0, 3) for _ in range(T)]
        return tuple(pick(0, u) for u in upper), tuple(upper)

    def vector(lo, hi):
        return tuple(pick(lo, hi) for _ in range(T))

    Lx, Ux = bounds()
    Ly, Uy = bounds()
    zero = (0,) * T
    inst = Instance(
        variant="wp1", T=T, s0=0, Ls=zero, Us=zero, Lx=Lx, Ux=Ux, Ly=Ly,
        Uy=Uy, revenue=vector(-1, 1), cost=vector(-1, 1),
        holding=vector(-1, 1), fixed_purchase=vector(0, 1),
        fixed_sale=vector(0, 1))
    layers = tuple(tuple(s for s in range(-2, 9) if pick(0, 1))
                   for _ in range(T + 1))
    return inst, layers


def reference_window_suffix(inst: Instance,
                            layers) -> tuple[list[list], list[list]]:
    """network._window_suffix as it was before it skipped a zero-width
    trade side: per layer both window arg-maxima, a position dict for the
    stay head, and the first best of three option tuples per tail."""
    T = inst.T
    suffix: list[list] = [[None] * len(layer) for layer in layers]
    choice: list[list] = [[None] * len(layer) for layer in layers[:-1]]
    suffix[T] = [0] * len(layers[T])
    for t in range(T, 0, -1):
        i = t - 1
        tails, heads, after = layers[t - 1], layers[t], suffix[t]
        c, r, h = inst.cost[i], inst.revenue[i], inst.holding[i]
        buy_keys = [None if v is None else v - (c + h) * s
                    for s, v in zip(heads, after)]
        sell_keys = [None if v is None else v - (r + h) * s
                     for s, v in zip(heads, after)]
        # purchases: s' in [s+Lx, s+Ux]; sales: s' in [s-Uy, s-Ly].  With
        # a zero lower bound a window holds s itself, worth the stay arc
        # less a nonnegative fixed cost, so it never beats the stay arc
        # and on a tie names the same head.
        buys = reference_window_argmax(tails, heads, buy_keys,
                                       inst.Lx[i], inst.Ux[i])
        sells = reference_window_argmax(tails, heads, sell_keys,
                                        -inst.Uy[i], -inst.Ly[i])
        position = {s: j for j, s in enumerate(heads)}
        for k, s in enumerate(tails):
            # sell heads lie at or below s and buy heads at or above it,
            # so the first best option in this order is the smallest head
            options = (
                (sells[k], r * s - inst.fixed_sale[i], sell_keys),
                (position.get(s), -h * s, after),
                (buys[k], c * s - inst.fixed_purchase[i], buy_keys),
            )
            best = None
            for j, tail_part, keys in options:
                if j is None or keys[j] is None:
                    continue
                value = tail_part + keys[j]
                if best is None or value > best:
                    best = value
                    choice[t - 1][k] = j
            suffix[t - 1][k] = best
    return suffix, choice


def reference_dump(payload) -> str:
    """The pure-Python writer that model._dump_flat replaced, kept as the
    witness of its bytes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def flat_payloads(pick) -> tuple[dict, Solution, dict]:
    """An instance payload, a plan and a lot-sizing payload over one
    horizon T in 0..3, drawn by pick(lo, hi), an int in [lo, hi].  Each
    number is a small int of either sign, a 400-digit int of either sign
    or a "p/q" Fraction; T = 0 leaves every vector empty.  Such data fail
    validation, so the two instances are the JSON dicts their writers
    would make, not records."""
    T = pick(0, 3)

    def number():
        kind = pick(0, 2)
        if kind == 0:
            return pick(-99, 99)
        if kind == 1:
            return (-1) ** pick(0, 1) * (10**399 + pick(0, 10**6))
        return Fraction(pick(-99, 99), pick(2, 9))

    def vector():
        return tuple(number() for _ in range(T))

    def formatted():
        return [format_exact(v) for v in vector()]

    inst = {"variant": ("wp1", "wp2", "wp3")[pick(0, 2)], "T": T,
            "s0": format_exact(number()),
            **{name: formatted() for name in _VECTOR_FIELDS}}
    sol = Solution(x=vector(), y=vector(), s=vector(), w=vector(),
                   z=vector(), objective=number())
    ls = {"T": T, "s0": format_exact(number()),
          **{name: formatted()
             for name in ("demand", "unit_cost", "fixed_cost", "Ux", "Us")}}
    return inst, sol, ls


def fractional_payoffs(inst: Instance, d: int) -> Instance:
    """Unit prices over d and fixed costs over d + 1 (Fractions even where
    they divide evenly)."""
    def over(name, by):
        return tuple(Fraction(v, by) for v in getattr(inst, name))

    return replace(inst, revenue=over("revenue", d), cost=over("cost", d),
                   holding=over("holding", d),
                   fixed_purchase=over("fixed_purchase", d + 1),
                   fixed_sale=over("fixed_sale", d + 1))


def _brute_transitions(inst: Instance, t: int, s_prev: int):
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


def brute_oracle_solve(inst: Instance) -> Solution:
    """oracle_solve as it was before its table became window maxima: one
    payoff call per (stock, trade) pair in the backward pass as well as in
    the decode.

    Exhaustive integral optimum with deterministic tie-breaking.

    Equal-value plans resolve toward the lexicographically smallest stock
    sequence, then the smallest x, w, z per period.  Raises Infeasible when
    no integral plan exists and NonIntegralData on fractional bounds.
    """
    validate_instance(inst)
    if not inst.bounds_integral():
        raise NonIntegralData("oracle_solve requires integral bound data")
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
        for s_prev in states:
            value = None
            for s_next, x, y, w, z in _brute_transitions(inst, t, s_prev):
                tail = best[t].get(s_next)
                if tail is None:
                    continue
                total = evaluate_payoff(inst, t, x, y, s_next, w, z) + tail
                if value is None or total > value:
                    value = total
            if value is not None:
                best[t - 1][s_prev] = value
    if inst.s0 not in best[0]:
        raise Infeasible("no feasible integral trading plan")
    xs, ys, ws, zs, stocks = [], [], [], [], []
    s_prev = inst.s0
    for t in range(1, inst.T + 1):
        target = best[t - 1][s_prev]
        choice = None
        for s_next, x, y, w, z in _brute_transitions(inst, t, s_prev):
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


# --- the data model walked value by value ------------------------------------
# model.py checks and converts whole vectors at once; these are its former
# value-by-value versions, kept as the witnesses it is compared against.


def reference_exact_vector(values) -> tuple[Exact, ...]:
    return tuple(map(exact, values))


def reference_validate_instance(inst) -> None:
    """Check every structural invariant, reporting the first failure.

    inst is any record with an Instance's fields, such as the
    SimpleNamespace of a planted field mapping: no invalid Instance can
    be built.  Violations are reported smallest period first.  Raises
    NegativeBound, LowerExceedsUpper, WrongVectorLength, or
    WP3ShapeViolation.
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
    pairs = (("Ls", "Us"), ("Lx", "Ux"), ("Ly", "Uy"))
    for t in range(1, inst.T + 1):
        i = t - 1
        for lo_name, hi_name in pairs:
            lo = getattr(inst, lo_name)[i]
            hi = getattr(inst, hi_name)[i]
            if lo < 0:
                raise NegativeBound(
                    f"{lo_name}[{t}] = {echo(lo)} is negative")
            if hi < 0:
                raise NegativeBound(
                    f"{hi_name}[{t}] = {echo(hi)} is negative")
            if lo > hi:
                raise LowerExceedsUpper(
                    f"{lo_name}[{t}] = {echo(lo)} exceeds "
                    f"{hi_name}[{t}] = {echo(hi)}"
                )
        for name in ("fixed_purchase", "fixed_sale"):
            v = getattr(inst, name)[i]
            if v < 0:
                raise NegativeBound(f"{name}[{t}] = {echo(v)} is negative")
    if inst.variant is Variant.WP3:
        for t in range(1, inst.T + 1):
            i = t - 1
            for name in ("Lx", "Ly", "fixed_purchase", "fixed_sale",
                         "holding"):
                v = getattr(inst, name)[i]
                if v != 0:
                    raise WP3ShapeViolation(
                        f"wp3 requires {name}[{t}] = 0, got {echo(v)}"
                    )
            if not inst.Ls[i] <= inst.s0 <= inst.Us[i]:
                raise WP3ShapeViolation(
                    f"wp3 requires Ls[{t}] <= s0 <= Us[{t}], got "
                    f"{echo(inst.Ls[i])} <= {echo(inst.s0)} <= "
                    f"{echo(inst.Us[i])}"
                )


def reference_instance_from_json_dict(data: dict) -> Instance:
    """The hand-written instance reader that model._from_json_dict
    replaced, kept as its witness on files with no unknown key."""
    if not isinstance(data, dict):
        raise InvalidArgument("instance JSON must be an object")
    keys = ("variant", "T", "s0") + _VECTOR_FIELDS
    missing = [k for k in keys if k not in data]
    if missing:
        raise InvalidArgument(
            f"instance JSON missing keys: {', '.join(missing)}")
    if not isinstance(data["T"], int) or isinstance(data["T"], bool):
        raise InvalidArgument(f"T must be an integer, got {echo(data['T'])}")
    fields: dict = {
        "variant": _coerce_variant(data["variant"]),
        "T": data["T"],
        "s0": parse_exact(data["s0"]),
    }
    for name in _VECTOR_FIELDS:
        raw = data[name]
        if not isinstance(raw, list):
            raise InvalidArgument(f"{name} must be a list")
        fields[name] = tuple(parse_exact(v) for v in raw)
    return Instance(**fields)


def reference_solution_to_json_dict(sol: Solution) -> dict:
    return {
        "x": [format_exact(v) for v in sol.x],
        "y": [format_exact(v) for v in sol.y],
        "s": [format_exact(v) for v in sol.s],
        "w": [format_exact(v) for v in sol.w],
        "z": [format_exact(v) for v in sol.z],
        "objective": format_exact(sol.objective),
    }


# values planted into a valid instance to break validate_instance's rules:
# negative, positive and zero ints and Fractions and 4,000-digit ints
PLANTED = (-1, 0, 1, 7, Fraction(-1, 3), Fraction(7, 2), -10**3999,
           10**3999)


def planted(inst: Instance, edits) -> dict:
    """The fields of inst with each edit (name, index, value) applied:
    value replaces item index (modulo the length) of vector name, or s0
    when name is "s0"; the value "append" adds an item 0 to a vector and
    "drop" removes its last one, and both leave s0 as it is.  The fields
    come back as a mapping, as Instance(**fields) takes them, because an
    edit may make them invalid."""
    fields = {name: list(getattr(inst, name)) for name in _VECTOR_FIELDS}
    fields.update(variant=inst.variant, T=inst.T, s0=inst.s0)
    for name, index, value in edits:
        if name == "s0":
            if value not in ("append", "drop"):
                fields["s0"] = value
        elif value == "append":
            fields[name].append(0)
        elif value == "drop":
            del fields[name][-1:]
        elif fields[name]:
            fields[name][index % len(fields[name])] = value
    return fields


class Raised(NamedTuple):
    """The type and message of an error a call raised."""

    kind: type
    message: str


def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the Raised of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return Raised(type(err), str(err))


def typed(value):
    """A value with the type of every number in it, so that 2 and
    Fraction(2) or 1 and True compare unequal."""
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (Instance, Solution)):
        return typed(vars(value))
    return type(value), value


def typed_exact_levels(levels: StockLevels):
    """typed() of the level values in exact form, so that a whole
    Fraction, as a set of Fraction sums may keep, reads as its int."""
    return typed(tuple(tuple(map(exact, layer)) for layer in levels.levels))
