import ast
import inspect
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from wareflow import (
    Infeasible,
    Instance,
    NonIntegralData,
    check_solution,
    gen_random,
    oracle_solve,
    reduce_partition,
)
from wareflow import oracle
from helpers import (
    blocked_by_fixed_cost,
    brute_oracle_solve,
    fractional_payoffs,
    reference_window_max,
    two_period_trade,
)


def test_oracle_known_objectives():
    assert oracle_solve(two_period_trade()).objective == 10
    assert oracle_solve(blocked_by_fixed_cost()).objective == 0


def test_oracle_unbalanced_partition_falls_short():
    inst, target = reduce_partition([1, 1, 3])
    assert target == Fraction(15, 2)
    assert oracle_solve(inst).objective < target


def test_oracle_rejects_fractional_bounds():
    inst = replace(two_period_trade(), s0=Fraction(1, 2))
    with pytest.raises(NonIntegralData):
        oracle_solve(inst)
    inst = replace(two_period_trade(), Us=(10, Fraction(19, 2)))
    with pytest.raises(NonIntegralData):
        oracle_solve(inst)


def test_oracle_accepts_fractional_payoff_data():
    # only the states must be integral; payoff coefficients may be rational
    inst = replace(two_period_trade(), revenue=(0, Fraction(7, 3)))
    sol = oracle_solve(inst)
    assert sol.objective == Fraction(7, 3) * 5 - 5
    assert check_solution(inst, sol).feasible


def test_oracle_reports_infeasible():
    inst = Instance(
        variant="wp1", T=1, s0=0,
        Ls=(3,), Us=(3,), Lx=(0,), Ux=(1,), Ly=(0,), Uy=(1,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    with pytest.raises(Infeasible):
        oracle_solve(inst)


def test_oracle_solutions_are_feasible():
    for seed in range(45):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=5)
        try:
            sol = oracle_solve(inst)
        except Infeasible:
            continue
        report = check_solution(inst, sol)
        assert report.feasible, report.violations


def test_oracle_monotone_under_widened_upper_bounds():
    for seed in range(36):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2, variant=variant, max_bound=4)
        try:
            base = oracle_solve(inst).objective
        except Infeasible:
            continue
        t = seed % inst.T
        for field in ("Us", "Ux", "Uy"):
            vec = list(getattr(inst, field))
            vec[t] += 1
            wider = replace(inst, **{field: tuple(vec)})
            assert oracle_solve(wider).objective >= base


def _outcome(solver, inst):
    try:
        return repr(solver(inst))
    except Infeasible as err:
        return f"Infeasible({err})"


def test_oracle_matches_the_brute_force_oracle():
    # gen_random draws positive lower trade bounds, fixed costs and
    # holding costs on wp1 and wp2
    seeded = [gen_random(seed, T=T, variant=variant, max_bound=2 * T + seed)
              for variant in ("wp1", "wp2", "wp3")
              for T in range(1, 8)
              for seed in range(6)]
    cases = seeded + [fractional_payoffs(inst, 2 + k % 5)
                      for k, inst in enumerate(seeded)]
    # Fraction fixed sale costs alone: the table mixes ints and Fractions
    cases += [replace(inst, fixed_sale=tuple(Fraction(v, 3)
                                             for v in inst.fixed_sale))
              for inst in seeded]
    outcomes = [_outcome(oracle_solve, inst) for inst in cases]
    for inst, outcome in zip(cases, outcomes):
        assert outcome == _outcome(brute_oracle_solve, inst)
    # the cases reach infeasible data, Fraction objectives and every trade
    # bound shape
    assert sum(o.startswith("Infeasible") for o in outcomes) > 20
    assert sum("objective=Fraction" in o for o in outcomes) > 20
    assert any(inst.variant.value == "wp2" and min(inst.Lx) > 0
               and min(inst.Ly) > 0 for inst in cases)


def test_window_max_matches_the_verbatim_reference_seeded():
    # ascending states, key dicts over ascending stocks with gaps, and
    # empty dicts
    rng = random.Random(22)
    empties = 0
    for _ in range(400):
        stocks = sorted(rng.sample(range(-12, 13), rng.randint(0, 10)))
        keys = {u: rng.randint(-3, 3) for u in stocks}
        states = sorted(rng.sample(range(-12, 13), rng.randint(0, 8)))
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 6)
        empties += not keys
        assert oracle._window_max(keys, states, lo, hi) == (
            reference_window_max(keys, states, lo, hi))
    assert empties


def test_oracle_imports_no_solver_module():
    # the witness must not share the level sets, the network, the
    # approximation scheme or the formulation with what it checks
    forbidden = {"stocklevels", "network", "fptas", "extform"}
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    names = {part for name in imported for part in name.split(".")}
    assert not names & forbidden, sorted(names & forbidden)
    homes = {getattr(value, "__module__", None)
             or getattr(value, "__name__", "")
             for value in vars(oracle).values()}
    assert not {name.rpartition(".")[2] for name in homes} & forbidden
