"""The three workloads: their instances and their fixed batch of CLI ops.

Every instance splits into a shape and payoffs.  The shape (horizon, stock
and trade bounds, initial stock, lot-sizing demands and capacities) comes
from a fixed seed per instance slot, so it is the same for every run seed;
the run seed draws every payoff (revenue, cost, holding and fixed costs, in
the ranges ``gen_random`` uses) and the order of the ops.

The split is deliberate.  Everything the solver's layers do, from the level
sets to the arcs, the LP rows and the infeasible verdicts, depends on the
bounds alone, and seeded bounds turn per-op latency into a lottery: the
FPTAS time of ``gen_random`` wp3 instances is bimodal, 10-50x apart, by
whether the rounding unit K is integral, so a median over one run's
instances jumps between the modes from seed to seed.  Fixed shapes keep the
work of a batch the same for every seed while the answers (objectives,
plans, LP optima) still change with it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

from wareflow.fptas import fptas_params, scale_trade_bounds
from wareflow.generators import LotSizingInstance, gen_random, reduce_lotsizing
from wareflow.model import Instance, Variant

NAMES = ("wp3-dense", "mixed-small", "lp-export")


@dataclass(frozen=True)
class Op:
    """One CLI call of the batch.

    ``instance`` names the input file; ``epsilon`` is set for fptas ops;
    ``after`` is set for check ops and names the solve op whose plan they
    read.
    """

    id: str
    kind: str  # "solve", "fptas", "emit-lp", "levels" or "check"
    instance: str
    epsilon: str | None = None
    after: str | None = None


@dataclass
class Batch:
    """A workload's instances and its ops.

    ``units`` groups ops that run back to back (a solve and the check of
    its plan); the run seed fixes the order of the units.
    """

    instances: dict
    units: list

    @property
    def ops(self) -> list:
        return [op for unit in self.units for op in unit]

    def drop_checks(self, infeasible: set) -> None:
        """Remove the check ops that follow solves of infeasible instances."""
        self.units = [
            [op for op in unit
             if not (op.kind == "check" and op.instance in infeasible)]
            for unit in self.units
        ]


def _shape_seed(*parts) -> int:
    return zlib.crc32("/".join(map(str, parts)).encode())


def _payoffs(rng: random.Random, variant: Variant, T: int, bound: int) -> dict:
    """Payoff vectors in gen_random's ranges; wp3 keeps its zeros."""
    def signed():
        return tuple(rng.randint(-bound, bound) for _ in range(T))

    def nonneg():
        return tuple(rng.randint(0, bound) for _ in range(T))

    payoffs = {"revenue": signed(), "cost": signed(), "holding": signed(),
               "fixed_purchase": nonneg(), "fixed_sale": nonneg()}
    if variant is Variant.WP3:
        zero = (0,) * T
        payoffs.update(holding=zero, fixed_purchase=zero, fixed_sale=zero)
    return payoffs


def _random(rng, workload: str, slot, variant: str, T: int) -> Instance:
    """gen_random shape with max_bound = 5T, payoffs from the run seed."""
    variant = Variant(variant)
    shape = gen_random(_shape_seed(workload, slot), T, variant, 5 * T)
    return replace(shape, **_payoffs(rng, variant, T, 5 * T))


def _lotsizing(rng, workload: str, slot, T: int) -> Instance:
    """wp2 instance from reduce_lotsizing; feasible for every seed."""
    shape = random.Random(_shape_seed(workload, slot))
    ls = LotSizingInstance(
        T=T,
        s0=shape.randint(0, 5),
        demand=tuple(shape.randint(0, 9) for _ in range(T)),
        Ux=tuple(shape.randint(5, 20) for _ in range(T)),
        Us=tuple(shape.randint(10, 30) for _ in range(T)),
        unit_cost=tuple(rng.randint(1, 9) for _ in range(T)),
        fixed_cost=tuple(rng.randint(0, 30) for _ in range(T)),
    )
    return reduce_lotsizing(ls)[0]


def _strip_decimal(den: int) -> int:
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    return den


def _fractional_wp3(rng, workload: str, slot, T: int, epsilons, decimal=True):
    """A wp3 instance whose rounding unit K = epsilon * U_min is fractional
    for every given epsilon.

    A fractional K is the case in which the FPTAS differs from an exact
    solve: the rounded bounds fall between the integers and the level sets
    grow, where an integral K only coarsens them.  Shape seeds are tried in
    a fixed order until every K qualifies; with ``decimal=False`` K must
    also lack an exact decimal form, so the LP emitter has to scale the
    rounded instance to integers.  The choice depends on the shape alone,
    never on the run seed.
    """
    for attempt in range(100):
        shape = gen_random(_shape_seed(workload, slot, attempt), T,
                           Variant.WP3, 5 * T)
        dens = [fptas_params(shape, Fraction(e)).K.denominator for e in epsilons]
        if all((d if decimal else _strip_decimal(d)) > 1 for d in dens):
            return replace(shape, **_payoffs(rng, Variant.WP3, T, 5 * T))
    raise RuntimeError("no shape with a fractional rounding unit")


class _Composer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.instances: dict = {}
        self.units: list = []
        self._count = 0

    def add(self, name: str, inst: Instance) -> str:
        self.instances[name] = inst
        return name

    def op(self, kind: str, instance: str, **extra) -> Op:
        self._count += 1
        return Op(f"{self._count:03d}-{kind}", kind, instance, **extra)

    def unit(self, *ops: Op) -> None:
        self.units.append(list(ops))

    def random(self, variant: str, T: int, slot) -> str:
        name = f"{variant}-T{T}-{slot}"
        return self.add(name, _random(self.rng, self.workload, name, variant, T))

    def fractional(self, T: int, slot, epsilons, decimal=True) -> str:
        name = f"wp3-T{T}-{slot}"
        return self.add(name, _fractional_wp3(
            self.rng, self.workload, name, T, epsilons, decimal))

    def solve(self, name: str, check: bool = False) -> None:
        solve = self.op("solve", name)
        if check:
            self.unit(solve, self.op("check", name, after=solve.id))
        else:
            self.unit(solve)

    def batch(self) -> Batch:
        self.rng.shuffle(self.units)
        return Batch(self.instances, self.units)


# Each op kind of a workload runs on many distinct instances of one size
# class, so its median latency sits where the latencies are dense and does
# not jump across the gap between two instances from one run to the next.


def _wp3_dense(b: _Composer) -> None:
    for k in range(16):
        b.solve(b.random("wp3", 20, k))
    for k in range(16):
        name = b.fractional(8, f"f{k}", ("1/2", "1/3"))
        for eps in ("1/2", "1/3"):
            b.unit(b.op("fptas", name, epsilon=eps))
    for k in range(40):
        b.unit(b.op("emit-lp", b.random("wp3", 8, f"e{k}")))


def _mixed_small(b: _Composer) -> None:
    for k in range(12):
        T = 8 + (16 * k) // 11  # 8..24
        for variant in ("wp1", "wp2"):
            b.solve(b.random(variant, T, k), check=True)
    for k in range(14):
        T = 8 + k % 9  # 8..16
        name = b.add(f"lot-T{T}-{k}", _lotsizing(b.rng, b.workload, k, T))
        b.solve(name, check=True)
    for k in range(16):
        name = b.fractional(6, f"f{k}", ("1/2", "1/3"))
        for eps in ("1/2", "1/3"):
            b.unit(b.op("fptas", name, epsilon=eps))
    for k in range(20):
        b.unit(b.op("emit-lp", b.random("wp1", 10, f"e{k}")))


def _lp_export(b: _Composer) -> None:
    names = [b.random(variant, T, k)
             for variant, T in (("wp1", 16), ("wp2", 12), ("wp3", 12))
             for k in range(8)]
    source = b.fractional(8, "src", ("1/3",), decimal=False)
    inst = b.instances[source]
    rounded = scale_trade_bounds(inst, fptas_params(inst, Fraction(1, 3)))
    names.append(b.add("wp3-T8-rounded", rounded))
    for name in names:
        b.unit(b.op("emit-lp", name))
        b.unit(b.op("levels", name))
        b.solve(name)
    b.unit(b.op("fptas", source, epsilon="1/3"))
    for k in range(24):
        b.unit(b.op("fptas", b.fractional(6, f"f{k}", ("1/3",)), epsilon="1/3"))


def build(workload: str, seed: int) -> Batch:
    """The batch of one workload for one run seed.

    Every mixed-small solve comes with a check op; once the references are
    known, ``Batch.drop_checks`` removes those of infeasible instances
    (shapes fix feasibility, so the same checks remain for every seed).
    """
    b = _Composer(workload, seed)
    if workload == "wp3-dense":
        _wp3_dense(b)
    elif workload == "mixed-small":
        _mixed_small(b)
    elif workload == "lp-export":
        _lp_export(b)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    return b.batch()
