import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import wareflow.model
import wareflow.network
from wareflow import (
    Infeasible,
    Instance,
    LowerExceedsUpper,
    Solution,
    SolveTrace,
    Variant,
    WrongVariant,
    WrongVectorLength,
    arc_candidates,
    assemble_solution,
    check_solution,
    double_horizon,
    emit_lp,
    fptas_params,
    gen_random,
    gen_stock_levels,
    oracle_solve,
    reduce_partition,
    scale_trade_bounds,
    solve,
    solve_wp2_direct,
    to_dot,
)
from wareflow.model import scale_factor
from wareflow.network import (
    _feasible,
    _window_suffix,
    arc_counts,
    search,
)
from wareflow.stocklevels import searched, searched_levels, searched_trades
from helpers import (
    Raised,
    bench_trace,
    blocked_by_fixed_cost,
    buy_then_sell,
    gap_infeasible,
    instance_rows,
    outcome,
    reference_build_network,
    reference_decode,
    reference_longest_path,
    reference_map_back,
    reference_scale_instance,
    reference_to_dot,
    reference_window_suffix,
    search_instance,
    searched_copy,
    slice_rule_cases,
    solve_with_network,
    two_period_trade,
    verdict_on_the_searched_copy,
    window_case,
    wp2_mixed,
)


def test_arc_purchase_is_single_candidate():
    inst = two_period_trade()
    cands = arc_candidates(inst, 1, 0, 5)
    assert len(cands) == 1
    dec = cands[0]
    assert (dec.x, dec.y, dec.w, dec.z) == (5, 0, 1, 0)
    assert dec.payoff == -5


def test_arc_hold_ignores_lower_trade_bound():
    inst = Instance(
        variant="wp1", T=1, s0=4,
        Ls=(0,), Us=(5,), Lx=(2,), Ux=(3,), Ly=(0,), Uy=(3,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(1,), fixed_sale=(1,),
    )
    cands = arc_candidates(inst, 1, 4, 4)
    assert len(cands) == 1
    dec = cands[0]
    assert (dec.x, dec.y, dec.w, dec.z) == (0, 0, 0, 0)
    assert dec.payoff == 0


def test_arc_below_lower_purchase_bound_is_empty():
    inst = Instance(
        variant="wp1", T=1, s0=0,
        Ls=(0,), Us=(5,), Lx=(2,), Ux=(3,), Ly=(0,), Uy=(3,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(1,), fixed_sale=(1,),
    )
    assert arc_candidates(inst, 1, 0, 1) == []


def test_arc_wp2_enumerates_pass_through_trades():
    inst = Instance(
        variant="wp2", T=1, s0=3,
        Ls=(0,), Us=(5,), Lx=(0,), Ux=(2,), Ly=(0,), Uy=(5,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    cands = arc_candidates(inst, 1, 3, 2)
    pairs = [(c.x, c.y) for c in cands]
    assert (2, 3) in pairs  # buy at Ux while selling down the opening stock
    assert pairs.count((2, 3)) == 1
    assert len(cands) == len({(c.x, c.y, c.w, c.z) for c in cands})
    for c in cands:
        assert c.x >= 0 and 0 <= c.y <= 3
        assert c.y - c.x == 1


def test_build_network_two_period_trade():
    inst = two_period_trade()
    net = reference_build_network(inst, gen_stock_levels(inst))
    assert net.layers == ((0,), (0, 5, 10), (0, 5, 10))
    assert net.node_count == 7
    assert net.arc_count == 9
    first = {(tail, net.layers[1][head]) for tail, head, _ in net.arcs[0]}
    assert first == {(0, 0), (0, 5)}  # buying 10 in one period is out of reach


def test_build_network_all_zero_chain():
    inst = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(0, 0), Lx=(0, 0), Ux=(0, 0), Ly=(0, 0), Uy=(0, 0),
        revenue=(3, 3), cost=(1, 1), holding=(2, 2),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    sol = solve(inst)
    assert sol.objective == 0
    assert sol.x == (0, 0) and sol.y == (0, 0) and sol.s == (0, 0)


def test_solve_known_objectives():
    assert solve(two_period_trade()).objective == 10
    assert solve(blocked_by_fixed_cost()).objective == 0
    inst, target = reduce_partition([1, 2, 3])
    assert solve(inst).objective == target == 9


def test_solve_reports_infeasible():
    inst = Instance(
        variant="wp1", T=1, s0=0,
        Ls=(3,), Us=(3,), Lx=(0,), Ux=(1,), Ly=(0,), Uy=(1,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    with pytest.raises(Infeasible):
        solve(inst)


def test_solve_matches_oracle():
    for seed in range(60):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=5)
        try:
            expected = oracle_solve(inst).objective
        except Infeasible:
            with pytest.raises(Infeasible):
                solve(inst)
            continue
        sol = solve(inst)
        assert sol.objective == expected
        assert check_solution(inst, sol).feasible


def test_wp2_direct_route_agrees():
    fixtures = [wp2_mixed()]
    fixtures += [gen_random(seed, T=2 + seed % 2, variant="wp2", max_bound=5)
                 for seed in range(40)]
    for inst in fixtures:
        try:
            doubled_objective = solve(inst).objective
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_wp2_direct(inst)
            continue
        direct = solve_wp2_direct(inst)
        assert direct.objective == doubled_objective
        assert check_solution(inst, direct).feasible


def test_wp2_direct_rejects_other_variants():
    with pytest.raises(WrongVariant):
        solve_wp2_direct(two_period_trade())


def test_solve_is_deterministic():
    feasible = 0
    for seed in range(20):
        inst = gen_random(seed, T=3, variant="wp1", max_bound=6)
        try:
            first = solve(inst)
        except Infeasible:
            continue
        assert first == solve(inst)
        feasible += 1
    assert feasible >= 5


def test_solve_prefers_smallest_stock_sequence():
    # two optimal plans exist: trade 5 now or never; holding nothing wins
    inst = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(10, 10), Lx=(0, 0), Ux=(5, 5), Ly=(0, 0), Uy=(5, 5),
        revenue=(1, 1), cost=(1, 1), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    sol = solve(inst)
    assert sol.objective == 0
    assert sol.s == (0, 0)


def test_solutions_respect_variant_rules():
    for seed in range(45):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed + 100, T=2 + seed % 3, variant=variant,
                          max_bound=5)
        try:
            sol = solve(inst)
        except Infeasible:
            continue
        report = check_solution(inst, sol)
        assert report.feasible, report.violations
        if variant == "wp2":
            prev = inst.s0
            for t in range(inst.T):
                assert sol.y[t] <= prev
                prev = sol.s[t]
        else:
            assert all(x * y == 0 for x, y in zip(sol.x, sol.y))


def test_network_size_is_bounded():
    for seed in range(30):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=5)
        try:
            _, net = solve_with_network(inst)
        except Infeasible:
            continue
        periods = len(net.arcs)
        width = max(len(layer) for layer in net.layers[1:])
        assert net.node_count <= periods * width + 1
        assert net.arc_count <= periods * width**2


def test_to_dot_lists_every_node_and_arc():
    inst = two_period_trade()
    _, net = solve_with_network(inst)
    dot = to_dot(inst)
    assert dot.startswith("digraph")
    assert dot.count("->") == net.arc_count
    assert 'n_0_0 [label="0:0"]' in dot
    assert dot.endswith("}\n")


def test_to_dot_matches_the_network_reference():
    # drawn from the window slices of the searched instance, with no
    # network, as the verbatim reference draws the built one
    cases = slice_rule_cases()
    expected = []
    for inst in cases:
        base = search_instance(inst)
        expected.append(reference_to_dot(
            reference_build_network(base, gen_stock_levels(base))))
    assert [to_dot(inst) for inst in cases] == expected


def test_search_instance_doubles_wp2_and_maps_back():
    inst = wp2_mixed()
    base = search_instance(inst)
    assert base == double_horizon(inst)
    assert base.variant is Variant.WP1 and base.T == 2 * inst.T
    doubled = solve_with_network(base)[0]
    sol = assemble_solution(inst, *searched_trades(inst, doubled.s)[:2])
    assert len(sol.x) == inst.T
    assert sol == solve(inst) == reference_map_back(inst, doubled)


@pytest.mark.parametrize("make", [two_period_trade, buy_then_sell])
def test_search_instance_passes_wp1_and_wp3_through(make):
    inst = make()
    assert search_instance(inst) is inst
    sol = solve(inst)
    assert assemble_solution(inst, *searched_trades(inst, sol.s)[:2]) == sol


def test_search_instance_validates_before_doubling(monkeypatch):
    def no_doubling(*args, **kwargs):
        raise AssertionError("doubled an invalid instance")

    monkeypatch.setattr(wareflow.network, "searched", no_doubling)
    # the Instance refuses itself, so no invalid one is ever searched
    with pytest.raises(LowerExceedsUpper):
        solve(replace(wp2_mixed(), Lx=(3, 0), Ux=(1, 3)))
    with pytest.raises(WrongVectorLength):
        solve(replace(wp2_mixed(), Uy=(2,)))


def test_solve_derives_no_arcs(monkeypatch):
    # the window DP's chosen heads give the plan, so no arc is worked out
    cases = [two_period_trade(), wp2_mixed(), buy_then_sell()]
    expected = [repr(solve_with_network(inst)[0]) for inst in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("arc decision derived")

    monkeypatch.setattr(wareflow.network, "_wp1_candidates", refuse)
    assert [repr(solve(inst)) for inst in cases] == expected


def _window_dp_matches_network(inst) -> bool:
    """Compare the window DP with the network it replaces on one instance.

    Asserts equal suffix tables on the searched instance (wp2 doubled) and
    an equal Solution repr, or the same Infeasible message; returns
    feasibility.  solve searches integer rows of fractional data while
    the network is built on the data as given.  Over both, the DP's suffix
    and choice tables must equal reference_window_suffix's, the DP that
    made both window passes on every layer.  Also asserts that arc_counts
    gives the network's per-period arc counts, both over its layers and
    over the integer rows and levels bench's search records.
    """
    base = search_instance(inst)
    net = reference_build_network(base, gen_stock_levels(base))
    tables = _window_suffix(base, net.layers)
    assert tables[0] == reference_longest_path(net)
    assert tables == reference_window_suffix(base, net.layers)
    counts = [len(period) for period in net.arcs]
    assert arc_counts(base, net.layers) == counts
    trace = bench_trace(inst)
    layers = ((trace.searched.s0,),) + trace.levels.levels
    assert arc_counts(trace.searched, layers) == counts
    assert _window_suffix(trace.searched, layers) == reference_window_suffix(
        trace.searched, layers)
    try:
        expected = solve_with_network(inst)[0]
    except Infeasible as err:
        with pytest.raises(Infeasible, match=f"^{re.escape(str(err))}$"):
            solve(inst)
        return False
    assert repr(solve(inst)) == repr(expected)
    return True


@pytest.mark.parametrize("variant", ["wp1", "wp2", "wp3"])
def test_window_dp_matches_network_seeded(variant):
    outcomes = [
        _window_dp_matches_network(
            gen_random(seed, T=2 + seed % 6, variant=variant,
                       max_bound=4 + seed % 5)
        )
        for seed in range(60)
    ]
    assert any(outcomes)
    if variant != "wp3":
        assert not all(outcomes)  # infeasible instances are covered too


def test_window_dp_matches_network_at_window_edges():
    def inst(**overrides):
        fields = dict(
            variant="wp1", T=2, s0=4,
            Ls=(0, 0), Us=(6, 6), Lx=(0, 0), Ux=(2, 2), Ly=(0, 0), Uy=(2, 2),
            revenue=(1, 2), cost=(1, 1), holding=(1, 0),
            fixed_purchase=(0, 0), fixed_sale=(0, 0),
        )
        fields.update(overrides)
        return Instance(**fields)

    cases = [
        inst(),  # open windows at Lx = Ly = 0
        inst(Lx=(2, 2), Ly=(2, 2)),  # stay arc despite positive lower bounds
        inst(Ux=(0, 0), Uy=(0, 0)),  # only the stay arc
        inst(s0=2, Ls=(0, 6), Ux=(1, 1)),  # 6 is out of reach: infeasible
        inst(revenue=(0, 0), cost=(0, 0), holding=(0, 0)),  # all ties
    ]
    assert [_window_dp_matches_network(c) for c in cases] == [
        True, True, True, False, True,
    ]


def _one_period(**overrides) -> Instance:
    fields = dict(
        variant="wp1", T=1, s0=2, Ls=(0,), Us=(4,), Lx=(0,), Ux=(2,),
        Ly=(0,), Uy=(2,), revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    fields.update(overrides)
    return Instance(**fields)


@pytest.mark.parametrize("overrides, stocks", [
    # all prices 0: every head ties, so the lowest sell head wins
    (dict(), (0,)),
    # Ly = 0 and fs = 0: the sell window's best head is s, tying the stay
    (dict(revenue=(-1,), cost=(1,)), (2,)),
    # Ux = 0 with fp = 0: the skipped buy window {s} ties the stay
    (dict(revenue=(-1,), Ux=(0,), cost=(-3,)), (2,)),
    # and so does a skipped sell window {s} with Uy = 0 and fs = 0
    (dict(cost=(1,), Uy=(0,), revenue=(3,)), (2,)),
    # a sell head and a buy head of equal value: the smaller one wins
    (dict(revenue=(1,), cost=(-1,), Lx=(1,), Ux=(1,), Ly=(1,), Uy=(1,)),
     (1,)),
    # the same tie after a stay-only period, and before one
    (dict(T=2, Ls=(0, 0), Us=(4, 4), Lx=(0, 1), Ux=(0, 1), Ly=(0, 1),
          Uy=(0, 1), revenue=(0, 1), cost=(0, -1), holding=(0, 0),
          fixed_purchase=(0, 0), fixed_sale=(0, 0)), (2, 1)),
    (dict(T=2, Ls=(0, 0), Us=(4, 4), Lx=(1, 0), Ux=(1, 0), Ly=(1, 0),
          Uy=(1, 0), revenue=(1, 0), cost=(-1, 0), holding=(0, 0),
          fixed_purchase=(0, 0), fixed_sale=(0, 0)), (1, 1)),
])
def test_window_dp_ties_pick_the_smallest_head(overrides, stocks):
    inst = _one_period(**overrides)
    assert _window_dp_matches_network(inst)
    assert solve(inst).s == stocks


def _sweep_matches_the_reference(inst) -> None:
    """_window_suffix's tables equal reference_window_suffix's over the
    levels of inst as given and of its rows scaled to integers."""
    rows = searched(inst, scale_factor(inst))
    for case, layers in ((inst, ((inst.s0,),) + gen_stock_levels(inst).levels),
                         (rows, searched_levels(rows))):
        assert _window_suffix(case, layers) == reference_window_suffix(
            case, layers)


def test_window_suffix_matches_the_reference_on_doubled_wp2_mixed():
    # every trade bound of wp2_mixed is positive, so each half-period of
    # the doubled horizon trades on exactly one side and the sweep lets
    # no head into the other side's deque
    inst = wp2_mixed()
    assert all(v > 0 for v in inst.Ux + inst.Uy)
    doubled = search_instance(inst)
    assert [(ux > 0, uy > 0) for ux, uy in zip(doubled.Ux, doubled.Uy)] == (
        [(False, True), (True, False)] * inst.T)
    _sweep_matches_the_reference(doubled)


def test_window_suffix_matches_the_reference_where_both_sides_trade():
    inst = two_period_trade()
    assert all(v > 0 for v in inst.Ux + inst.Uy)
    _sweep_matches_the_reference(inst)


def test_window_dp_matches_network_on_fptas_scaled_bounds():
    fractional = 0
    for seed in range(40):
        inst = gen_random(500 + seed, T=2 + seed % 5, variant="wp3",
                          max_bound=9)
        for epsilon in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
            scaled = scale_trade_bounds(inst, fptas_params(inst, epsilon))
            fractional += any(isinstance(v, Fraction)
                              for v in scaled.Ux + scaled.Uy)
            _window_dp_matches_network(scaled)
    assert fractional > 0


def test_a_wp2_solve_assembles_one_plan(monkeypatch):
    # the stock path gives the wp2 trades, so no plan of the doubled
    # horizon is made; fractional data add none, since the path's trades
    # are divided back by F before the one plan is made
    cases = [gen_random(seed, T=2 + seed % 5, variant="wp2", max_bound=6)
             for seed in range(60)]
    cases += [reference_scale_instance(inst, Fraction(1, 3))
              for inst in cases]
    built = []
    post_init = Solution.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Solution, "__post_init__", counted)
    solved = 0
    for inst in cases:
        built.clear()
        try:
            sol = solve(inst)
        except Infeasible:
            continue
        assert len(built) == 1
        assert built[-1] is sol and len(sol.x) == inst.T
        solved += scale_factor(inst) > 1
    assert solved > 10


@pytest.mark.parametrize("variant", ["wp1", "wp3"])
def test_trace_records_the_level_set_sizes(variant):
    for seed in range(40):
        inst = gen_random(seed, T=2 + seed % 6, variant=variant,
                          max_bound=4 + seed % 5)
        trace = bench_trace(inst)
        levels = gen_stock_levels(inst)
        assert tuple(map(len, trace.levels.levels)) == tuple(
            map(len, levels.levels))
        assert trace.levels.S_size == levels.S_size


def test_trace_keeps_the_sizes_of_fractional_levels():
    # the search runs on integer rows; its levels are as many
    for seed in range(20):
        inst = gen_random(700 + seed, T=2 + seed % 6, variant="wp3",
                          max_bound=12)
        scaled = scale_trade_bounds(inst, fptas_params(inst, Fraction(2, 7)))
        assert tuple(map(len, bench_trace(scaled).levels.levels)) == tuple(
            map(len, gen_stock_levels(scaled).levels))


def test_trace_records_the_searched_instance_and_its_levels():
    cases = [gen_random(seed, T=2 + seed % 5, variant=variant, max_bound=9)
             for seed in range(10) for variant in ("wp1", "wp2", "wp3")]
    wp3 = gen_random(700, T=5, variant="wp3", max_bound=12)
    cases.append(scale_trade_bounds(wp3, fptas_params(wp3, Fraction(2, 7))))
    assert not cases[-1].bounds_integral()
    for inst in cases:
        trace = bench_trace(inst)
        copy = searched_copy(inst)
        assert trace.searched == instance_rows(copy)
        assert trace.levels == gen_stock_levels(copy)


def test_wp2_trace_covers_the_doubled_horizon():
    inst = wp2_mixed()
    trace = bench_trace(inst)
    doubled = gen_stock_levels(double_horizon(inst))
    assert len(trace.levels.levels) == 2 * inst.T
    assert trace.levels == doubled


def _divided(inst, d, p):
    """Every stock and trade bound divided by d, unit prices by p."""
    def div(vec, by):
        return tuple(Fraction(v, by) for v in vec)

    return replace(inst, s0=Fraction(inst.s0, d), Ls=div(inst.Ls, d),
                   Us=div(inst.Us, d), Lx=div(inst.Lx, d), Ux=div(inst.Ux, d),
                   Ly=div(inst.Ly, d), Uy=div(inst.Uy, d),
                   revenue=div(inst.revenue, p), cost=div(inst.cost, p),
                   holding=div(inst.holding, p))


def _coprime(seed: int) -> Instance:
    """A feasible wp1 instance (s0 = 0 may stay put) whose bounds lie over
    3, 7 and 11, revenues over 13 and fixed costs over 5, so the integer
    copy multiplies bounds and prices by F = 15015 and fixed costs by F*F."""
    rng = random.Random(seed)
    T = 5

    def over(lo, hi, dens):
        return tuple(Fraction(rng.randint(lo, hi), dens[i % len(dens)])
                     for i in range(T))

    zero = (0,) * T
    return Instance(
        variant="wp1", T=T, s0=0, Ls=zero, Us=over(10, 20, (3, 7, 11)),
        Lx=over(1, 3, (7, 11, 3)), Ux=over(4, 9, (7, 11, 3)),
        Ly=zero, Uy=over(4, 9, (11, 3, 7)),
        revenue=over(-20, 40, (13,)), cost=over(-5, 20, (1,)),
        holding=over(0, 2, (1,)), fixed_purchase=over(0, 30, (5,)),
        fixed_sale=over(0, 6, (1,)),
    )


def test_window_dp_matches_network_on_fractional_data():
    cases = []
    for seed in range(30):
        for variant in ("wp1", "wp2"):
            inst = gen_random(900 + seed, T=2 + seed % 4, variant=variant,
                              max_bound=7)
            cases.append(_divided(inst, (2, 3, 7)[seed % 3], 5))
    cases += [_coprime(seed) for seed in range(4)]
    for inst in cases:  # every case is searched on scaled rows
        assert scale_factor(inst) > 1
    outcomes = [_window_dp_matches_network(inst) for inst in cases]
    assert outcomes[-4:] == [True] * 4 and not all(outcomes)
    inst = cases[-1]
    scaled = searched(inst, scale_factor(inst))
    assert scaled.Us == tuple(15015 * v for v in inst.Us)
    assert scaled.fixed_purchase == tuple(15015 ** 2 * v
                                          for v in inst.fixed_purchase)


def _wp2_direct_matches_the_reference(inst) -> bool:
    """Assert solve_wp2_direct and the decoded pairwise network on the
    instance's own horizon give an equal Solution repr, or the same
    Infeasible message; return feasibility."""
    net = reference_build_network(inst, gen_stock_levels(inst))
    try:
        expected = reference_decode(net)
    except Infeasible as err:
        with pytest.raises(Infeasible, match=f"^{re.escape(str(err))}$"):
            solve_wp2_direct(inst)
        return False
    assert repr(solve_wp2_direct(inst)) == repr(expected)
    return True


def test_decode_matches_the_adjacency_reference():
    # solve_wp2_direct's DP and forward walk against the adjacency decode
    # of the pairwise network: wp2 instances, wp1 and wp3 data read as
    # wp2, Fraction bounds and prices, and Fraction payoffs alone
    seeded = [gen_random(seed, T=T, variant=variant, max_bound=2 * T + seed)
              for variant in ("wp1", "wp2", "wp3")
              for T in range(1, 9)
              for seed in range(3)]
    cases = [replace(inst, variant="wp2") for inst in seeded]
    cases += [_divided(inst, (2, 3, 7)[k % 3], 5)
              for k, inst in enumerate(cases[::2])]
    cases += [replace(inst, revenue=tuple(Fraction(v, 3)
                                          for v in inst.revenue))
              for inst in cases[::5]]
    outcomes = [_wp2_direct_matches_the_reference(inst) for inst in cases]
    assert any(outcomes) and not all(outcomes)
    assert any(feasible for feasible, inst in zip(outcomes, cases)
               if not inst.bounds_integral())


def test_wp2_direct_takes_the_smaller_of_two_equal_heads():
    # buy k at 1 in period 1, k in [1, 3], and sell up to 2 of it at 1 in
    # period 2, ending with at most 1: through stock 1 or 2 the plan nets
    # 0, through 3 it keeps 1 unsold and nets -1
    inst = Instance(
        variant="wp2", T=2, s0=0, Ls=(1, 0), Us=(3, 1),
        Lx=(0, 0), Ux=(3, 0), Ly=(0, 0), Uy=(0, 2),
        revenue=(0, 1), cost=(1, 0), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    assert gen_stock_levels(inst).levels[0] == (1, 2, 3)
    sol = solve_wp2_direct(inst)
    assert (sol.x, sol.y, sol.s, sol.w, sol.z) == (
        (1, 0), (0, 1), (1, 0), (1, 0), (0, 1))
    assert sol.objective == 0
    assert sol == reference_decode(
        reference_build_network(inst, gen_stock_levels(inst)))


def test_wp2_direct_takes_the_smallest_of_equal_candidates():
    # r = c and no fixed cost, so on the one arc 3 -> 2 selling 2 while
    # buying 1 ties with selling 3 while buying 2 (Ly = 2 rules out a
    # sale of 1 alone): the smaller x wins
    inst = Instance(
        variant="wp2", T=1, s0=3, Ls=(2,), Us=(2,),
        Lx=(1,), Ux=(2,), Ly=(2,), Uy=(3,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    cands = [(c.x, c.y, c.w, c.z, c.payoff)
             for c in arc_candidates(inst, 1, 3, 2)]
    assert cands == [(2, 3, 1, 1, 1), (1, 2, 1, 1, 1)]
    sol = solve_wp2_direct(inst)
    assert (sol.x, sol.y, sol.s, sol.w, sol.z) == (
        (1,), (2,), (2,), (1,), (1,))
    # on the stay arc 2 -> 2 trading nothing also ties with the idle
    # indicators that Lx = Ly = 0 allow, and the smaller w and z win
    idle = replace(inst, s0=2, Lx=(0,), Ly=(0,), Uy=(2,))
    cands = {(c.x, c.y, c.w, c.z): c.payoff
             for c in arc_candidates(idle, 1, 2, 2)}
    assert {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)} <= cands.keys()
    assert set(cands.values()) == {0}
    sol = solve_wp2_direct(idle)
    assert (sol.x, sol.y, sol.w, sol.z) == ((0,), (0,), (0,), (0,))


def test_wp2_candidates_list_the_smaller_indicator_first():
    # Lx = Ly = 0, so a zero purchase is priced with w = 0 (purchases off)
    # and w = 1 (x at Lx), a zero sale with z = 0 and z = 1; free
    # indicators tie them, and max by (payoff, -x) keeps the first
    inst = Instance(
        variant="wp2", T=1, s0=2, Ls=(0,), Us=(5,),
        Lx=(0,), Ux=(3,), Ly=(0,), Uy=(2,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    stay = arc_candidates(inst, 1, 2, 2)
    assert [(c.w, c.z) for c in stay if c.x == 0] == [(0, 0), (1, 0), (0, 1)]
    buy = arc_candidates(inst, 1, 2, 4)
    assert [(c.w, c.z) for c in buy if c.y == 0] == [(1, 0), (1, 1)]
    picks = [max(cands, key=lambda c: (c.payoff, -c.x))
             for cands in (stay, buy)]
    assert [(c.x, c.y, c.w, c.z) for c in picks] == [(0, 0, 0, 0),
                                                     (2, 0, 1, 0)]
    # on every arc of seeded wp2 instances, half of them with free
    # indicators, w and z never decide between the best candidates
    tied = 0
    for seed in range(40):
        inst = gen_random(seed, T=1 + seed % 4, variant="wp2",
                          max_bound=2 + seed % 5)
        if seed % 2:
            zero = (0,) * inst.T
            inst = replace(inst, fixed_purchase=zero, fixed_sale=zero)
        layers = ((inst.s0,),) + gen_stock_levels(inst).levels
        for t in inst.periods:
            for s in layers[t - 1]:
                for head in layers[t]:
                    cands = arc_candidates(inst, t, s, head)
                    if not cands:
                        continue
                    top = max(c.payoff for c in cands)
                    tied += sum(c.payoff == top for c in cands) > 1
                    assert max(cands, key=lambda c: (c.payoff, -c.x)) == max(
                        cands, key=lambda c: (c.payoff, -c.x, -c.w, -c.z))
    assert tied > 100


def test_window_suffix_matches_the_reference_on_seeded_layers():
    rng = random.Random(20)
    dead = zero_sides = 0
    for _ in range(400):
        inst, layers = window_case(rng.randint)
        tables = _window_suffix(inst, layers)
        assert tables == reference_window_suffix(inst, layers)
        dead += sum(v is None for layer in tables[0] for v in layer)
        zero_sides += (inst.Ux + inst.Uy).count(0)
    # the draws hold what they are for: dead heads and zero sides
    assert dead > 400 and zero_sides > 400


def _counted_levels(monkeypatch) -> list:
    """Record every level sweep solve makes."""
    calls = []
    original = wareflow.network.searched_levels

    def counted(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(wareflow.network, "searched_levels", counted)
    return calls


def test_gap_infeasible_raises_before_building_levels(monkeypatch):
    # the hull [0, 5] of what s0 reaches meets [Ls, Us] = [1, 2]; the
    # reachable stock {0} | [3, 5] does not
    inst = gap_infeasible()
    assert not _feasible(inst)
    calls = _counted_levels(monkeypatch)
    with pytest.raises(Infeasible, match="^no feasible trading plan$"):
        solve(inst)
    assert calls == []
    # a traced solve is refused by the same pass and leaves its trace empty
    trace = SolveTrace()
    with pytest.raises(Infeasible, match="^no feasible trading plan$"):
        solve(inst, trace)
    assert calls == []
    assert trace.searched is None and trace.levels.levels == ()
    # search runs no pass: it records the full levels, as bench and the
    # FPTAS route read them, and raises the DP's verdict
    F = scale_factor(inst)
    with pytest.raises(Infeasible, match="^no feasible trading plan$"):
        search(inst, searched(inst, F), F, trace)
    assert len(calls) == 1
    assert trace.searched == instance_rows(inst)
    assert trace.levels == gen_stock_levels(inst)


@pytest.mark.parametrize("variant", ["wp1", "wp2", "wp3"])
def test_infeasible_solves_build_no_levels(monkeypatch, variant):
    calls = _counted_levels(monkeypatch)
    infeasible = []
    for seed in range(60):
        inst = gen_random(seed, T=2 + seed % 6, variant=variant,
                          max_bound=4 + seed % 5)
        before = len(calls)
        try:
            solve(inst)
        except Infeasible:
            infeasible.append(inst)
            assert len(calls) == before
        else:
            assert len(calls) == before + 1
    assert bool(infeasible) == (variant != "wp3")
    # nor the factor F, nor a price row, nor any Instance, also when the
    # data are fractions: the verdict reads the six bound rows alone
    infeasible += [reference_scale_instance(inst, Fraction(1, 3))
                   for inst in infeasible]

    def refuse(*args, **kwargs):
        raise AssertionError("copy built")

    bounds_only = wareflow.network.searched

    def bound_rows(inst, F=1, prices=True):
        assert (F, prices) == (1, False), "scaled or priced rows made"
        return bounds_only(inst, F, prices)

    monkeypatch.setattr(wareflow.network, "scale_factor", refuse)
    monkeypatch.setattr(wareflow.network, "searched", bound_rows)
    monkeypatch.setattr(Instance, "__post_init__", refuse)
    for inst in infeasible:
        with pytest.raises(Infeasible, match="^no feasible trading plan$"):
            solve(inst)


@pytest.mark.parametrize("variant", ["wp1", "wp2", "wp3"])
def test_hulls_of_the_instance_as_read_match_the_searched_copy(variant):
    # the pass's verdict on the instance as given is its verdict on the
    # doubled, integer-scaled copy solve searches; data over 1, 2 or 3
    moves = empty = 0
    for seed in range(90):
        inst = gen_random(seed, T=1 + seed % 8, variant=variant,
                          max_bound=3 + seed % 10)
        inst = reference_scale_instance(inst, Fraction(1, 1 + seed % 3))
        feasible = _feasible(inst)
        assert feasible == verdict_on_the_searched_copy(inst)
        empty += not feasible
        moves += feasible and not all(ls <= inst.s0 <= us for ls, us
                                      in zip(inst.Ls, inst.Us))
    if variant != "wp3":
        assert moves > 5 and empty > 5


def test_solve_runs_the_reachable_pass_at_most_once(monkeypatch):
    runs = []
    original = wareflow.network._feasible

    def counted(inst):
        runs.append(inst)
        return original(inst)

    monkeypatch.setattr(wareflow.network, "_feasible", counted)
    for seed in range(60):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 6, variant=variant,
                          max_bound=4 + seed % 5)
        for case in (inst, reference_scale_instance(inst, Fraction(1, 2))):
            before = len(runs)
            try:
                solve(case)
            except Infeasible:
                pass
            # at most once, on the instance as given, never a copy
            passes = len(runs) - before
            assert passes <= 1
            assert all(run is case for run in runs[before:])
            # a traced solve runs it as often, and records what the DP
            # searched, or nothing when the pass refused the instance
            before, trace = len(runs), SolveTrace()
            try:
                solve(case, trace)
            except Infeasible:
                assert trace == SolveTrace()
            else:
                copy = searched_copy(case)
                assert trace.searched == instance_rows(copy)
                assert trace.levels == gen_stock_levels(copy)
            assert len(runs) - before == passes
    assert len(runs) > 80


def test_traced_and_untraced_solves_agree(monkeypatch):
    # the same plan, or the same error, after as many runs of the pass;
    # search over the searched rows, which runs none, gives the window
    # DP's own verdict and agrees too
    runs, raised = [], []
    feasible, window_suffix = (wareflow.network._feasible,
                               wareflow.network._window_suffix)

    def counted(inst):
        runs.append(inst)
        return feasible(inst)

    def recorded(rows, layers):
        tables = window_suffix(rows, layers)
        if tables[0][0][0] is None:  # s0 reaches no last-layer node
            raised.append(rows)
        return tables

    monkeypatch.setattr(wareflow.network, "_feasible", counted)
    monkeypatch.setattr(wareflow.network, "_window_suffix", recorded)
    infeasible = fractional = 0
    for seed in range(90):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 6, variant=variant,
                          max_bound=4 + seed % 5)
        for case in (inst, reference_scale_instance(inst, Fraction(2, 3))):
            before = len(runs)
            untraced = outcome(solve, case)
            passes = len(runs) - before
            assert outcome(solve, case, SolveTrace()) == untraced
            assert len(runs) - before == 2 * passes
            if isinstance(untraced, Solution):
                continue
            assert untraced == Raised(Infeasible, "no feasible trading plan")
            before, F = len(raised), scale_factor(case)
            assert outcome(search, case, searched(case, F), F) == untraced
            assert len(raised) == before + 1
            infeasible += 1
            fractional += not case.bounds_integral()
    assert infeasible > 20 and fractional > 10


def test_solve_skips_the_pass_when_never_trading_is_feasible(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reachable stock computed")

    cases = [two_period_trade(), buy_then_sell(), wp2_mixed()] + [
        gen_random(seed, T=2 + seed % 6, variant="wp3", max_bound=9)
        for seed in range(20)]
    expected = [repr(solve(inst)) for inst in cases]
    monkeypatch.setattr(wareflow.network, "_feasible", refuse)
    assert [repr(solve(inst)) for inst in cases] == expected
    with pytest.raises(AssertionError, match="reachable stock computed"):
        solve(gap_infeasible())


def test_solve_emit_lp_and_to_dot_build_no_instance(monkeypatch):
    # the searched rows are read off the instance as read, so no doubled,
    # integer-scaled or other Instance is built and validated: on wp2 data
    # over 3, and on a wp3 instance FPTAS-rounded by a fractional K
    wp2 = reference_scale_instance(wp2_mixed(), Fraction(1, 3))
    wp3 = gen_random(5, T=6, variant="wp3", max_bound=12)
    params = fptas_params(wp3, Fraction(1, 3))
    rounded = scale_trade_bounds(wp3, params)
    assert params.K.denominator > 1 and scale_factor(rounded) > 1
    assert scale_factor(wp2) > 1
    built = []
    original = wareflow.model.validate_instance

    def counted(inst):
        built.append(inst)
        original(inst)

    monkeypatch.setattr(wareflow.model, "validate_instance", counted)
    ops = {"solve": solve, "traced solve": lambda i: solve(i, SolveTrace()),
           "emit_lp": emit_lp, "to_dot": to_dot}
    counts = {}
    for inst in (wp2, rounded):
        for name, op in ops.items():
            built.clear()
            op(inst)
            counts[inst.variant.value, name] = len(built)
    assert counts == dict.fromkeys(counts, 0) and len(counts) == 8
    double_horizon(wp2)  # the counter sees an Instance built
    assert len(built) == 1
