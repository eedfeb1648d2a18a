"""Instance factories: seeded random generation and two known reductions.

The reductions build warehouse instances whose optima encode the answer to
another problem (single-item lot-sizing, and balanced partition), so tests
can compare solver output against independently computable targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyInput, InvalidArgument, NonIntegralData
from .model import (
    _coerce_variant,
    _dump_flat,
    _from_json_dict,
    _load_json,
    _to_json_dict,
    Exact,
    Instance,
    Variant,
    echo,
    exact,
    exact_vector,
)


@dataclass(frozen=True)
class LotSizingInstance:
    """Single-item lot-sizing data: meet fixed demands at minimum cost.

    Each period's demand is served from opening stock, then production
    (bounded by Ux, fixed cost when positive) replenishes, and closing
    stock may not exceed Us.  It validates itself when it is built, by
    validate_lotsizing.
    """

    T: int
    s0: Exact
    demand: tuple[Exact, ...]
    unit_cost: tuple[Exact, ...]
    fixed_cost: tuple[Exact, ...]
    Ux: tuple[Exact, ...]
    Us: tuple[Exact, ...]

    def __post_init__(self):
        if type(self.T) is not int:
            raise TypeError(f"T must be an int, got {echo(self.T)}")
        object.__setattr__(self, "s0", exact(self.s0))
        for name in ("demand", "unit_cost", "fixed_cost", "Ux", "Us"):
            object.__setattr__(self, name, exact_vector(getattr(self, name)))
        validate_lotsizing(self)


def validate_lotsizing(ls: LotSizingInstance) -> None:
    if ls.T < 1:
        raise InvalidArgument(f"T must be >= 1, got {echo(ls.T)}")
    for name in ("demand", "unit_cost", "fixed_cost", "Ux", "Us"):
        vec = getattr(ls, name)
        if len(vec) != ls.T:
            raise InvalidArgument(
                f"{name} has length {len(vec)}, expected {echo(ls.T)}")
        if any(v < 0 for v in vec):
            raise InvalidArgument(f"{name} has a negative entry")
    if ls.s0 < 0:
        raise InvalidArgument("s0 must be nonnegative")


def serialize_lotsizing(ls: LotSizingInstance) -> str:
    return _dump_flat(_to_json_dict(ls))


def parse_lotsizing(text: str) -> LotSizingInstance:
    """The lot-sizing record a JSON file holds, read by the one rule set of
    model._from_json_dict: exactly the keys T, s0, demand, unit_cost,
    fixed_cost, Ux and Us, T an int and each vector a list of integers or
    "p/q" strings.  Malformed JSON and a file that breaks a rule raise
    InvalidArgument."""
    return _from_json_dict(LotSizingInstance, _load_json(text), "lot-sizing")


def reduce_lotsizing(ls: LotSizingInstance) -> tuple[Instance, Exact]:
    """Encode a lot-sizing instance as a wp2 instance with sale reward M.

    M exceeds any achievable production cost, so every optimal solution
    sells the full demand whenever that is feasible, and its (x, s, w)
    part is then a cheapest production plan.  Returns (instance, M);
    wp2 optimum = M * total demand - minimum lot-sizing cost.

    Requires integral data: with integral bounds, a solution that misses
    some demand loses at least 1 unit of sales, hence at least M payoff,
    which is what makes M's size sufficient.
    """
    numbers = [ls.s0, *ls.demand, *ls.unit_cost, *ls.fixed_cost, *ls.Ux, *ls.Us]
    if any(not isinstance(v, int) for v in numbers):
        raise NonIntegralData("lot-sizing reduction requires integral data")
    M = sum(c * u + f for c, u, f in zip(ls.unit_cost, ls.Ux, ls.fixed_cost)) + 1
    zero = (0,) * ls.T
    inst = Instance(
        variant=Variant.WP2,
        T=ls.T,
        s0=ls.s0,
        Ls=zero,
        Us=ls.Us,
        Lx=zero,
        Ux=ls.Ux,
        Ly=zero,
        Uy=ls.demand,
        revenue=(M,) * ls.T,
        cost=ls.unit_cost,
        holding=zero,
        fixed_purchase=ls.fixed_cost,
        fixed_sale=zero,
    )
    return inst, M


def reduce_partition(a) -> tuple[Instance, Exact]:
    """Encode a partition question as a wp3 instance with unit sale payoff.

    For positive integers a_1..a_n with sum A: period t <= n may buy or
    sell up to a_t, and one closing period may sell up to A but buy
    nothing.  The optimum is 3A/2 exactly when some subset of the a_i
    sums to A/2, and strictly less otherwise.  Returns (instance, 3A/2).
    """
    entries = list(a)
    if not entries:
        raise EmptyInput("need at least one integer")
    for v in entries:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidArgument(
                f"entries must be positive integers, got {echo(v)}")
    n = len(entries)
    A = sum(entries)
    T = n + 1
    zero = (0,) * T
    inst = Instance(
        variant=Variant.WP3,
        T=T,
        s0=A,
        Ls=zero,
        Us=(2 * A,) * T,
        Lx=zero,
        Ux=(*entries, 0),
        Ly=zero,
        Uy=(*entries, A),
        revenue=(1,) * T,
        cost=zero,
        holding=zero,
        fixed_purchase=zero,
        fixed_sale=zero,
    )
    return inst, exact(Fraction(3 * A, 2))


def gen_random(seed: int, T: int, variant, max_bound: int) -> Instance:
    """Deterministic pseudo-random integral instance.

    Draw order is fixed (s0, then the three bound pairs period by period,
    then the five payoff vectors), so the same arguments always reproduce
    the same instance.  Bounds land in [0, max_bound] with lower <= upper;
    revenue, cost and holding land in [-max_bound, max_bound]; fixed costs
    in [0, max_bound].  For wp3 the shape constraints are then imposed:
    lower trade bounds, fixed costs and holding drop to zero, and s0 is
    clamped into every period's stock interval.  The variant is read as
    Instance reads it, in any letter case.
    """
    variant = _coerce_variant(variant)
    if T < 1:
        raise InvalidArgument(f"T must be >= 1, got {T}")
    if max_bound < 0:
        raise InvalidArgument(f"max_bound must be >= 0, got {max_bound}")
    rng = random.Random(seed)

    def pair_vectors():
        lows, highs = [], []
        for _ in range(T):
            a = rng.randint(0, max_bound)
            b = rng.randint(0, max_bound)
            lows.append(min(a, b))
            highs.append(max(a, b))
        return tuple(lows), tuple(highs)

    def signed_vector():
        return tuple(rng.randint(-max_bound, max_bound) for _ in range(T))

    def nonneg_vector():
        return tuple(rng.randint(0, max_bound) for _ in range(T))

    s0 = rng.randint(0, max_bound)
    Ls, Us = pair_vectors()
    Lx, Ux = pair_vectors()
    Ly, Uy = pair_vectors()
    revenue = signed_vector()
    cost = signed_vector()
    holding = signed_vector()
    fixed_purchase = nonneg_vector()
    fixed_sale = nonneg_vector()
    if variant is Variant.WP3:
        zero = (0,) * T
        Lx = Ly = fixed_purchase = fixed_sale = holding = zero
        ceiling = min(Us)
        Ls = tuple(min(v, ceiling) for v in Ls)
        s0 = min(max(s0, max(Ls)), ceiling)
    return Instance(
        variant=variant,
        T=T,
        s0=s0,
        Ls=Ls,
        Us=Us,
        Lx=Lx,
        Ux=Ux,
        Ly=Ly,
        Uy=Uy,
        revenue=revenue,
        cost=cost,
        holding=holding,
        fixed_purchase=fixed_purchase,
        fixed_sale=fixed_sale,
    )
