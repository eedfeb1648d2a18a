"""Reference answers built from independent witnesses.

Every answer here comes from ``oracle_solve``, the integer dynamic program
that uses none of the candidate-level or network machinery.  The rewrites
the oracle needs are written out here rather than borrowed from the
program, so a defect in the program's own doubling or scaling cannot hide
in the reference:

* wp2 instances are solved on a sales-then-purchases doubled horizon.  That
  wp1 instance has the same feasible plans and objective values, its oracle
  runs in a fraction of the direct wp2 oracle's time, and its tie-break (the
  lexicographically smallest doubled stock sequence) is the one the exact
  solver applies on the same horizon.
* Instances with fractional bounds are solved after multiplying every
  quantity (stock, trade bounds) by the least common denominator ``f``.
  Prices stay as they are, so objective values scale by ``f`` and the set
  of optimal plans, with its tie-break order, is unchanged.

The oracle's tie-break picks the lexicographically smallest optimal stock
sequence over all integral plans.  That sequence is a vertex of the face of
optimal plans, so it lies on the candidate levels and equals the plan the
exact solver decodes; the plan digests of the two must agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from wareflow.errors import Infeasible
from wareflow.model import Instance, Variant
from wareflow.oracle import oracle_solve

QUANTITY_FIELDS = ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")


@dataclass(frozen=True)
class Answer:
    """Optimal objective and plan of one instance, or infeasible.

    ``plan`` holds the vectors x, y, s, w, z as exact numbers; ``digest``
    is ``plan_digest(plan)``.
    """

    objective: Fraction | None
    plan: tuple | None
    digest: str | None

    @property
    def feasible(self) -> bool:
        return self.objective is not None


def text_of(value) -> str:
    """Canonical text of an exact number: "7", "-3/4"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def number_of(raw) -> Fraction:
    """Read a JSON number or a "p/q" string without the program's parser."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"not an exact number: {raw!r}")
    return Fraction(raw)


def plan_digest(plan) -> str:
    """sha256 of the five plan vectors in canonical text form."""
    payload = json.dumps([[text_of(v) for v in vec] for vec in plan])
    return hashlib.sha256(payload.encode()).hexdigest()


def _answer(objective, plan) -> Answer:
    plan = tuple(tuple(Fraction(v) for v in vec) for vec in plan)
    return Answer(Fraction(objective), plan, plan_digest(plan))


INFEASIBLE = Answer(None, None, None)


def doubled(inst: Instance) -> Instance:
    """The wp1 instance over 2T periods: sales of t, then purchases of t."""
    zero = (0,) * inst.T

    def interleave(odd, even):
        return tuple(v for pair in zip(odd, even) for v in pair)

    return Instance(
        variant=Variant.WP1,
        T=2 * inst.T,
        s0=inst.s0,
        Ls=interleave(zero, inst.Ls),
        Us=interleave(inst.Us, inst.Us),
        Lx=interleave(zero, inst.Lx),
        Ux=interleave(zero, inst.Ux),
        Ly=interleave(inst.Ly, zero),
        Uy=interleave(inst.Uy, zero),
        revenue=interleave(inst.revenue, zero),
        cost=interleave(zero, inst.cost),
        holding=interleave(zero, inst.holding),
        fixed_purchase=interleave(zero, inst.fixed_purchase),
        fixed_sale=interleave(inst.fixed_sale, zero),
    )


def denominator(inst: Instance) -> int:
    """Least common denominator of s0 and every bound."""
    f = Fraction(inst.s0).denominator
    for name in QUANTITY_FIELDS:
        for v in getattr(inst, name):
            f = math.lcm(f, Fraction(v).denominator)
    return f


def scale_quantities(inst: Instance, f: int) -> Instance:
    """Multiply s0 and every bound by f, leaving the prices alone."""
    fields = {name: tuple(v * f for v in getattr(inst, name))
              for name in QUANTITY_FIELDS}
    return replace(inst, s0=inst.s0 * f, **fields)


def _objective(inst: Instance, x, y, s, w, z) -> Fraction:
    total = Fraction(0)
    for i in range(inst.T):
        total += (inst.revenue[i] * y[i] - inst.cost[i] * x[i]
                  - inst.holding[i] * s[i] - inst.fixed_purchase[i] * w[i]
                  - inst.fixed_sale[i] * z[i])
    return total


def oracle_answer(inst: Instance) -> Answer:
    """Optimum of any instance the benchmark writes, via oracle_solve."""
    f = denominator(inst)
    if f > 1:
        inner = oracle_answer(scale_quantities(inst, f))
        if not inner.feasible:
            return INFEASIBLE
        x, y, s, w, z = inner.plan  # Fractions, so the divisions stay exact
        plan = ([v / f for v in x], [v / f for v in y], [v / f for v in s], w, z)
        return _answer(inner.objective / f, plan)
    try:
        if inst.variant is Variant.WP2:
            sol = oracle_solve(doubled(inst))
            x, y, s = sol.x[1::2], sol.y[0::2], sol.s[1::2]
            w, z = sol.w[1::2], sol.z[0::2]
            return _answer(_objective(inst, x, y, s, w, z), (x, y, s, w, z))
        sol = oracle_solve(inst)
    except Infeasible:
        return INFEASIBLE
    return _answer(sol.objective, (sol.x, sol.y, sol.s, sol.w, sol.z))


def rounding_unit(inst: Instance, epsilon: Fraction) -> Fraction:
    """K = epsilon * (smallest positive upper trade bound)."""
    return epsilon * min(Fraction(v) for v in inst.Ux + inst.Uy if v > 0)


def round_trade_bounds(inst: Instance, K: Fraction) -> Instance:
    """Round the upper trade bounds down to multiples of K."""
    def down(vec):
        return tuple(K * math.floor(Fraction(v) / K) for v in vec)

    return replace(inst, Ux=down(inst.Ux), Uy=down(inst.Uy))
