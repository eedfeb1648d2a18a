import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import wareflow.stocklevels
from wareflow import (
    Infeasible,
    Instance,
    Variant,
    WrongVariant,
    WrongVectorLength,
    assemble_solution,
    bound_S,
    double_horizon,
    fptas_params,
    gen_random,
    gen_stock_levels,
    oracle_solve,
    reduce_partition,
    scale_trade_bounds,
    solve,
    solve_wp2_direct,
)
from wareflow.stocklevels import searched_trades
from helpers import (
    reference_build_network,
    reference_clipped_stock_levels,
    reference_decode,
    reference_map_back,
    reference_stock_levels,
    search_instance,
    two_period_trade,
    typed,
    typed_exact_levels,
    wp2_mixed,
)


def test_levels_two_period_trade():
    levels = gen_stock_levels(two_period_trade())
    assert levels.levels == ((0, 5, 10), (0, 5, 10))
    assert levels.S_size == 3


def test_levels_anchors_only():
    inst = Instance(
        variant="wp1", T=1, s0=1,
        Ls=(0,), Us=(3,), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    assert gen_stock_levels(inst).levels == ((0, 1, 3),)


def test_partition_levels_contain_initial_stock():
    inst, _ = reduce_partition([1, 2, 3])
    for layer in gen_stock_levels(inst).levels:
        assert 6 in layer


def test_levels_sorted_within_bounds():
    for seed in range(60):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=7)
        levels = gen_stock_levels(inst)
        assert len(levels.levels) == inst.T
        for t, layer in enumerate(levels.levels):
            assert list(layer) == sorted(set(layer))
            assert all(inst.Ls[t] <= v <= inst.Us[t] for v in layer)
        assert levels.S_size == max(len(layer) for layer in levels.levels)


def test_double_horizon_bounds():
    inst = Instance(
        variant="wp2", T=1, s0=0,
        Ls=(1,), Us=(5,), Lx=(0,), Ux=(2,), Ly=(0,), Uy=(3,),
        revenue=(7,), cost=(2,), holding=(1,),
        fixed_purchase=(4,), fixed_sale=(6,),
    )
    doubled = double_horizon(inst)
    assert doubled.variant.value == "wp1"
    assert doubled.T == 2
    assert (doubled.Lx, doubled.Ux) == ((0, 0), (0, 2))
    assert (doubled.Ly, doubled.Uy) == ((0, 0), (3, 0))
    assert (doubled.Ls, doubled.Us) == ((0, 1), (5, 5))
    # sale payoffs ride the odd period, purchase and holding the even one
    assert doubled.revenue == (7, 0)
    assert doubled.cost == (0, 2)
    assert doubled.holding == (0, 1)
    assert doubled.fixed_sale == (6, 0)
    assert doubled.fixed_purchase == (0, 4)


def test_double_horizon_all_zero():
    inst = Instance(
        variant="wp2", T=1, s0=0,
        Ls=(0,), Us=(0,), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    doubled = double_horizon(inst)
    assert doubled.T == 2
    assert all(v == 0 for v in doubled.Us + doubled.Ux + doubled.Uy)


def test_double_horizon_requires_wp2():
    with pytest.raises(WrongVariant):
        double_horizon(two_period_trade())


def test_double_horizon_objective_preserved():
    fixtures = [wp2_mixed()]
    fixtures += [gen_random(seed, T=2 + seed % 2, variant="wp2", max_bound=5)
                 for seed in range(25)]
    for inst in fixtures:
        doubled = double_horizon(inst)
        try:
            direct = oracle_solve(inst).objective
        except Infeasible:
            with pytest.raises(Infeasible):
                oracle_solve(doubled)
            continue
        inner = oracle_solve(doubled)
        assert inner.objective == direct
        x, y, s = searched_trades(inst, inner.s)
        outer = assemble_solution(inst, x, y)
        assert outer.objective == direct and outer.s == tuple(s)


def test_map_back_reindexes():
    # the trades read off the doubled plan's stocks are its own, sliced
    inst = wp2_mixed()
    inner = oracle_solve(double_horizon(inst))
    x, y, s = searched_trades(inst, inner.s)
    assert (tuple(x), tuple(y)) == (inner.x[1::2], inner.y[0::2])
    outer = assemble_solution(inst, x, y)
    assert outer.s == tuple(s) == inner.s[1::2]
    assert outer == reference_map_back(inst, inner)
    # a plan of the wp2 horizon is not one of its doubled horizon
    with pytest.raises(WrongVectorLength,
                       match="^x and y must have length T$"):
        assemble_solution(inst, *searched_trades(inst, outer.s)[:2])


def test_bound_S_integral_span():
    assert bound_S(two_period_trade()) == 11


def test_bound_S_time_independent():
    inst = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(100, 100), Lx=(0, 0), Ux=(5, 5),
        Ly=(0, 0), Uy=(5, 5), revenue=(1, 1), cost=(1, 1),
        holding=(0, 0), fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    assert bound_S(inst) == 61  # ceil(3 * 3^4 / 4) beats the 101-value span


def test_bound_S_all_zero():
    inst = Instance(
        variant="wp1", T=1, s0=0,
        Ls=(0,), Us=(0,), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    assert bound_S(inst) == 1


def test_bound_S_caps_levels():
    for seed in range(40):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=6)
        assert gen_stock_levels(inst).S_size <= bound_S(inst)


def test_bound_S_generic_cap():
    # fractional, time-dependent data leaves only the exponential cap
    inst = Instance(
        variant="wp1", T=2, s0=Fraction(1, 3),
        Ls=(0, 0), Us=(Fraction(7, 3), 2), Lx=(0, 0),
        Ux=(Fraction(1, 3), 1), Ly=(0, 0), Uy=(1, Fraction(1, 2)),
        revenue=(1, 1), cost=(1, 1), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    assert bound_S(inst) == (2 * 2 + 1) * 3**2
    assert gen_stock_levels(inst).S_size <= bound_S(inst)
    # wp2 takes the cap over its doubled horizon: (2*2T + 1) * 3**(2T)
    inst = replace(inst, variant="wp2")
    assert bound_S(inst) == (4 * 2 + 1) * 9**2
    assert gen_stock_levels(inst).S_size <= bound_S(inst)


def test_solver_stocks_land_on_levels():
    for seed in range(40):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=6)
        levels = gen_stock_levels(inst)
        try:
            sol = solve(inst)
        except Infeasible:
            continue
        for t in range(inst.T):
            assert sol.s[t] in levels.levels[t]


def test_widening_one_period_grows_levels():
    # with time-independent stock bounds, the original bound values stay
    # anchored at other periods, so widening period t only admits more
    rng = random.Random(11)
    for _ in range(25):
        T = 4
        lo, hi = sorted((rng.randint(0, 4), rng.randint(4, 9)))
        inst = Instance(
            variant="wp1", T=T, s0=rng.randint(lo, hi),
            Ls=(lo,) * T, Us=(hi,) * T,
            Lx=(0,) * T, Ux=tuple(rng.randint(0, 5) for _ in range(T)),
            Ly=(0,) * T, Uy=tuple(rng.randint(0, 5) for _ in range(T)),
            revenue=(1,) * T, cost=(1,) * T, holding=(0,) * T,
            fixed_purchase=(0,) * T, fixed_sale=(0,) * T,
        )
        t = rng.randint(1, T - 2)  # keep first and last periods anchored
        delta = rng.randint(0, 3)
        ls = list(inst.Ls)
        us = list(inst.Us)
        ls[t] = max(0, ls[t] - delta)
        us[t] = us[t] + delta
        wider = Instance(
            variant="wp1", T=T, s0=inst.s0, Ls=tuple(ls), Us=tuple(us),
            Lx=inst.Lx, Ux=inst.Ux, Ly=inst.Ly, Uy=inst.Uy,
            revenue=inst.revenue, cost=inst.cost, holding=inst.holding,
            fixed_purchase=inst.fixed_purchase, fixed_sale=inst.fixed_sale,
        )
        before = gen_stock_levels(inst).levels
        after = gen_stock_levels(wider).levels
        for old, new in zip(before, after):
            assert set(old) <= set(new)


def test_wp2_levels_project_even_layers():
    inst = wp2_mixed()
    outer = gen_stock_levels(inst)
    inner = gen_stock_levels(double_horizon(inst))
    assert len(outer.levels) == inst.T
    assert len(inner.levels) == 2 * inst.T
    for t in range(inst.T):
        assert outer.levels[t] == inner.levels[2 * t + 1]


def test_bound_S_wp2_uses_doubled_horizon():
    # time-independent wp2 with fractional data: formulas apply to 2T periods
    inst = Instance(
        variant="wp2", T=2, s0=Fraction(1, 2),
        Ls=(0, 0), Us=(Fraction(9, 2), Fraction(9, 2)),
        Lx=(0, 0), Ux=(Fraction(3, 2), Fraction(3, 2)),
        Ly=(0, 0), Uy=(1, 1), revenue=(1, 1), cost=(1, 1),
        holding=(0, 0), fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    assert bound_S(inst) == math.ceil(3 * (2 * 2 + 1) ** 4 / 4)
    assert gen_stock_levels(inst).S_size <= bound_S(inst)


def _divided(inst, d):
    """The instance with every stock and trade bound divided by d."""
    def div(vec):
        return tuple(Fraction(v, d) for v in vec)

    return replace(inst, s0=Fraction(inst.s0, d),
                   Ls=div(inst.Ls), Us=div(inst.Us), Lx=div(inst.Lx),
                   Ux=div(inst.Ux), Ly=div(inst.Ly), Uy=div(inst.Uy))


def _seeded_instances():
    """Seeded wp1/wp2/wp3 instances, infeasible ones among them, plus
    fractional-bound copies of wp1/wp2 and FPTAS-rounded wp3 bounds."""
    out = []
    for seed in range(36):
        T = 2 + seed % 6
        for variant in ("wp1", "wp2", "wp3"):
            out.append(gen_random(seed, T=T, variant=variant,
                                  max_bound=4 + seed % 5))
        for variant in ("wp1", "wp2"):
            inst = gen_random(100 + seed, T=2 + seed % 4, variant=variant,
                              max_bound=6)
            out.append(_divided(inst, 2 + seed % 2))
        inst = gen_random(200 + seed, T=T, variant="wp3", max_bound=9)
        epsilon = (Fraction(1, 3), Fraction(2, 7))[seed % 2]
        out.append(scale_trade_bounds(inst, fptas_params(inst, epsilon)))
    return out


def test_clipped_levels_are_subsets_of_the_unclipped_ones():
    shrunk = 0
    for inst in _seeded_instances():
        new = gen_stock_levels(inst).levels
        old = reference_stock_levels(inst).levels
        assert len(new) == len(old)
        for layer, ref in zip(new, old):
            assert set(layer) <= set(ref)
            shrunk += len(layer) < len(ref)
    assert shrunk > 0


def test_one_sweep_matches_the_two_mirrored_sweeps():
    # the backward sweep now adds each layer's own anchors, which the
    # forward layer already holds, so every union is unchanged
    for inst in _seeded_instances():
        assert gen_stock_levels(inst) == reference_clipped_stock_levels(inst)


def _halved(inst: Instance) -> Instance:
    """s0 and every stock and trade bound over 2."""
    return replace(inst, s0=Fraction(inst.s0, 2),
                   **{name: tuple(Fraction(v, 2) for v in getattr(inst, name))
                      for name in ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")})


def test_whole_levels_are_ints_on_fractional_bounds():
    # a set keeps whichever of 1 and Fraction(1, 1) it meets first, so
    # without normalising, the reprs of levels, networks and LP models
    # would follow the set order
    cases = [_halved(gen_random(6, 8, "wp2", 9))]
    cases += [_halved(gen_random(seed, 6, variant, 9))
              for variant in ("wp1", "wp2", "wp3") for seed in range(30)]
    fractional = 0
    for inst in cases:
        base = search_instance(inst)
        layers = ((base.s0,),) + gen_stock_levels(base).levels
        for layer in gen_stock_levels(inst).levels + layers:
            assert all(type(v) is int for v in layer if v.denominator == 1)
            fractional += any(type(v) is not int for v in layer)
    assert fractional > 0


def _fractional_cases() -> list[Instance]:
    """The fractional instances of _seeded_instances, and wp1/wp2/wp3
    instances with every bound over 2 or times 2/3."""
    out = [inst for inst in _seeded_instances() if not inst.bounds_integral()]
    for seed in range(20):
        for variant in ("wp1", "wp2", "wp3"):
            inst = gen_random(500 + seed, T=2 + seed % 5, variant=variant,
                              max_bound=7)
            out.append(_halved(inst))
            out.append(replace(
                inst, s0=inst.s0 * Fraction(2, 3),
                **{name: tuple(v * Fraction(2, 3) for v in getattr(inst, name))
                   for name in ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")}))
    return out


def test_integer_sweep_matches_the_rational_sweep_value_and_type():
    # the sweep runs times F in ints; divided back, each level is the one
    # the Fraction sweep gives, an int where it is whole
    cases = _fractional_cases()
    assert {inst.variant.value for inst in cases} == {"wp1", "wp2", "wp3"}
    fractional = 0
    for inst in cases:
        levels = gen_stock_levels(inst)
        assert typed(levels.levels) == typed_exact_levels(
            reference_clipped_stock_levels(inst))
        fractional += any(type(v) is Fraction
                          for layer in levels.levels for v in layer)
    assert fractional > 100


def test_sweep_sees_only_ints_on_fractional_data(monkeypatch):
    sweep, calls = wareflow.stocklevels._sweep, []

    def ints_only(start, steps):
        steps = list(steps)
        values = list(start)
        for moves, lo, hi in steps:
            values += [*moves, lo, hi]
        assert all(type(v) is int for v in values)
        calls.append(len(steps))
        return sweep(start, steps)

    monkeypatch.setattr(wareflow.stocklevels, "_sweep", ints_only)
    for inst in _fractional_cases():
        gen_stock_levels(inst)
    assert len(calls) > 200


def test_wp2_levels_and_the_direct_solve_build_no_instance(monkeypatch):
    # the rows of the doubled horizon are read, not validated again
    cases = [inst for inst in _seeded_instances() + _fractional_cases()
             if inst.variant is Variant.WP2]
    expected = []
    for inst in cases:
        try:
            plan = repr(solve_wp2_direct(inst))
        except Infeasible:
            plan = None
        expected.append((gen_stock_levels(inst), plan))

    def refuse(self):
        raise AssertionError("Instance built")

    monkeypatch.setattr(Instance, "__post_init__", refuse)
    got = []
    for inst in cases:
        try:
            plan = repr(solve_wp2_direct(inst))
        except Infeasible:
            plan = None
        got.append((gen_stock_levels(inst), plan))
    assert got == expected
    assert sum(plan is not None for _, plan in got) > 20


def test_searched_trades_slice_the_doubled_plan():
    # what double_horizon's map back read off a doubled plan, the stock
    # path alone gives: its trades and, assembled, the wp2 plan
    solved = 0
    for inst in _seeded_instances() + _fractional_cases():
        if inst.variant is not Variant.WP2:
            continue
        try:
            doubled = solve(double_horizon(inst))
        except Infeasible:
            continue
        x, y, s = searched_trades(inst, doubled.s)
        assert (tuple(x), tuple(y)) == (doubled.x[1::2], doubled.y[0::2])
        assert tuple(s) == doubled.s[1::2]
        plan = assemble_solution(inst, x, y)
        assert typed(plan) == typed(reference_map_back(inst, doubled))
        assert typed(plan) == typed(solve(inst))
        solved += not inst.bounds_integral()
    assert solved > 10


def test_searched_trades_are_the_stock_moves_on_wp1_and_wp3():
    for inst in _seeded_instances():
        if inst.variant is Variant.WP2:
            continue
        try:
            plan = solve(inst)
        except Infeasible:
            continue
        x, y, s = searched_trades(inst, plan.s)
        assert assemble_solution(inst, x, y) == plan and tuple(s) == plan.s


def test_solve_matches_the_network_over_unclipped_levels():
    outcomes = []
    for inst in _seeded_instances():
        base = search_instance(inst)
        net = reference_build_network(base, reference_stock_levels(base))
        try:
            expected = reference_decode(net)
            if inst.variant is Variant.WP2:
                expected = reference_map_back(inst, expected)
        except Infeasible as err:
            with pytest.raises(Infeasible, match=str(err)):
                solve(inst)
            outcomes.append(False)
            continue
        assert solve(inst) == expected
        outcomes.append(True)
    assert any(outcomes) and not all(outcomes)


def test_oracle_plans_land_on_levels():
    solved = 0
    for seed in range(90):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(300 + seed, T=2 + seed % 5, variant=variant,
                          max_bound=6)
        try:
            sol = oracle_solve(inst)
        except Infeasible:
            continue
        solved += 1
        levels = gen_stock_levels(inst).levels
        for t in range(inst.T):
            assert sol.s[t] in levels[t]
    assert solved > 30


def test_clipping_drops_values_reached_only_out_of_bounds():
    # 5 and 9 at period 2 need stock 5 after period 1, above Us_1 = 3
    inst = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(3, 10), Lx=(0, 0), Ux=(5, 4), Ly=(0, 0), Uy=(0, 0),
        revenue=(0, 0), cost=(0, 0), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    assert reference_stock_levels(inst).levels == (
        (0, 3), (0, 3, 4, 5, 7, 9, 10),
    )
    assert gen_stock_levels(inst).levels == ((0, 3), (0, 3, 4, 7, 10))
