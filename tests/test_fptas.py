import random
from dataclasses import replace
from fractions import Fraction

import pytest

from wareflow import (
    BalancedFlow,
    DeltaOutOfRange,
    EpsilonOutOfRange,
    IndexOutOfRange,
    Instance,
    InvalidArgument,
    NoPositiveBounds,
    TerminalStockMismatch,
    WrongVariant,
    assemble_solution,
    balanced_flow_decompose,
    check_solution,
    fptas_bound_S,
    fptas_params,
    fptas_solve,
    gen_random,
    gen_stock_levels,
    normalize_terminal,
    oracle_solve,
    parse_exact,
    reassemble,
    reduce_flow,
    reduce_partition,
    scale_trade_bounds,
    solve,
)
from wareflow.fptas import fptas_rows
from wareflow.model import scale_factor
from wareflow.stocklevels import searched
from helpers import (
    Raised,
    as_wp3,
    buy_then_sell,
    fptas_cli_outputs,
    fptas_route,
    fptas_scale,
    fractional_payoffs,
    outcome,
    planted_partition,
    random_settled_walk,
    random_trading_wp3,
    reference_fptas,
    reference_fptas_cli_outputs,
    reference_scale_instance,
    reference_scale_trade_bounds,
    two_period_trade,
    wp2_mixed,
)


def crossing_plan():
    """Four periods, buys feeding later sales plus one sale covered later."""
    inst = Instance(
        variant="wp3", T=4, s0=2,
        Ls=(0, 0, 0, 0), Us=(6, 6, 6, 6),
        Lx=(0, 0, 0, 0), Ux=(3, 0, 0, 2),
        Ly=(0, 0, 0, 0), Uy=(0, 2, 3, 0),
        revenue=(0, 2, 2, 0), cost=(1, 0, 0, 1), holding=(0, 0, 0, 0),
        fixed_purchase=(0, 0, 0, 0), fixed_sale=(0, 0, 0, 0),
    )
    sol = assemble_solution(inst, (3, 0, 0, 2), (0, 2, 3, 0))
    return inst, sol


def test_decompose_pairs_purchases_with_sales():
    inst, sol = crossing_plan()
    flow = balanced_flow_decompose(inst, sol)
    assert flow.pairs == ((1, 2, 2), (1, 3, 1), (4, 3, 2))


def test_decompose_do_nothing_is_empty():
    inst = as_wp3(two_period_trade())
    sol = assemble_solution(inst, (0, 0), (0, 0))
    assert balanced_flow_decompose(inst, sol).pairs == ()


def test_decompose_optimal_trade():
    inst = as_wp3(two_period_trade())
    flow = balanced_flow_decompose(inst, solve(inst))
    assert flow.pairs == ((1, 2, 5),)


def test_decompose_requires_settled_terminal_stock():
    inst = as_wp3(two_period_trade())
    sol = assemble_solution(inst, (5, 0), (0, 0))
    with pytest.raises(TerminalStockMismatch):
        balanced_flow_decompose(inst, sol)


def test_decompose_requires_stocks_that_follow_the_trades():
    # the purchase of 5 in period 1 is never sold, yet the plan claims the
    # stock is back at s0 = 0 after period 2
    inst = as_wp3(two_period_trade())
    sol = replace(assemble_solution(inst, (5, 0), (0, 0)), s=(5, 0))
    assert sol.s[-1] == inst.s0
    with pytest.raises(InvalidArgument, match=(
            "^stock after period 2 is 0, but the trades give 5$")):
        balanced_flow_decompose(inst, sol)


def test_decompose_refuses_a_period_that_buys_and_sells():
    # the stock is back at s0 = 5, but period 1's purchase has no later
    # sale to feed: the plan is not complementary
    inst = replace(as_wp3(two_period_trade()), s0=5)
    sol = assemble_solution(inst, (3, 0), (3, 0))
    assert sol.s == (5, 5)
    with pytest.raises(InvalidArgument,
                       match="^period 1 both buys and sells$"):
        balanced_flow_decompose(inst, sol)


def test_decompose_refuses_a_negative_trade():
    # stocks that follow the trades and end at s0 = 0, but the purchase
    # of -1 in period 1 leaves period 2's purchase no sale to feed
    inst = as_wp3(two_period_trade())
    sol = assemble_solution(inst, (-1, 1), (0, 0))
    assert sol.s == (-1, 0)
    with pytest.raises(InvalidArgument,
                       match="^period 1 trades a negative amount$"):
        balanced_flow_decompose(inst, sol)


def test_decompose_requires_wp3():
    # a wp2 plan that buys and sells 5 in one period returns to s0 = 5,
    # yet neither trade has a later one to pair with
    inst = Instance(
        variant="wp2", T=1, s0=5,
        Ls=(0,), Us=(10,), Lx=(0,), Ux=(5,), Ly=(0,), Uy=(5,),
        revenue=(2,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    sol = assemble_solution(inst, (5,), (5,))
    assert check_solution(inst, sol).feasible and sol.s == (5,)
    with pytest.raises(WrongVariant, match="wp3 instances only"):
        balanced_flow_decompose(inst, sol)


def test_decompose_conserves_period_totals():
    rng = random.Random(7)
    for seed in range(40):
        inst = random_trading_wp3(seed, T=2 + seed % 3)
        norm, sol = random_settled_walk(inst, rng)
        flow = balanced_flow_decompose(norm, sol)
        bought = [0] * norm.T
        sold = [0] * norm.T
        for buy, sale, amount in flow.pairs:
            assert amount > 0
            assert buy != sale
            bought[buy - 1] += amount
            sold[sale - 1] += amount
        assert tuple(bought) == sol.x
        assert tuple(sold) == sol.y
        assert reassemble(norm, flow) == sol


def test_reduce_flow_forward_pair():
    inst = as_wp3(two_period_trade())
    sol = solve(inst)
    flow = balanced_flow_decompose(inst, sol)
    reduced = reduce_flow(inst, sol, flow, 0, 2)
    assert reduced.x == (3, 0)
    assert reduced.y == (0, 3)
    assert reduced.s == (3, 0)
    assert check_solution(inst, reduced).feasible


def test_reduce_flow_zero_delta_is_identity():
    inst = as_wp3(two_period_trade())
    sol = solve(inst)
    flow = balanced_flow_decompose(inst, sol)
    assert reduce_flow(inst, sol, flow, 0, 0) == sol


def test_reduce_flow_backward_pair():
    inst, sol = crossing_plan()
    flow = balanced_flow_decompose(inst, sol)
    reduced = reduce_flow(inst, sol, flow, 2, 2)
    assert reduced.x == (3, 0, 0, 0)
    assert reduced.y == (0, 2, 1, 0)
    assert check_solution(inst, reduced).feasible


def test_reduce_flow_rejects_bad_arguments():
    inst = as_wp3(two_period_trade())
    sol = solve(inst)
    flow = balanced_flow_decompose(inst, sol)
    with pytest.raises(IndexOutOfRange):
        reduce_flow(inst, sol, flow, 1, 0)
    with pytest.raises(IndexOutOfRange):
        reduce_flow(inst, sol, flow, -1, 0)
    with pytest.raises(DeltaOutOfRange):
        reduce_flow(inst, sol, flow, 0, 6)
    with pytest.raises(DeltaOutOfRange):
        reduce_flow(inst, sol, flow, 0, -1)


def test_reduce_flow_keeps_walks_feasible():
    rng = random.Random(19)
    for seed in range(30):
        inst = random_trading_wp3(seed + 500, T=2 + seed % 3)
        norm, sol = random_settled_walk(inst, rng)
        flow = balanced_flow_decompose(norm, sol)
        if not flow.pairs:
            continue
        index = rng.randrange(len(flow.pairs))
        amount = flow.pairs[index][2]
        delta = amount * Fraction(rng.randint(0, 4), 4)
        reduced = reduce_flow(norm, sol, flow, index, delta)
        report = check_solution(norm, reduced)
        assert report.feasible, report.violations


def test_normalize_terminal_appends_settling_period():
    inst = as_wp3(two_period_trade())
    norm = normalize_terminal(inst)
    assert norm.T == 3
    assert norm.Ls == (0, 0, 0) and norm.Us == (10, 10, 0)
    assert norm.Ux == (5, 5, 10) and norm.Uy == (5, 5, 10)
    assert norm.revenue[-1] == 0 and norm.cost[-1] == 0
    assert norm.holding[-1] == 0


def test_normalize_terminal_is_idempotent_in_value():
    inst = as_wp3(two_period_trade())
    once = normalize_terminal(inst)
    twice = normalize_terminal(once)
    assert twice.T == 4
    assert solve(inst).objective == solve(once).objective
    assert solve(once).objective == solve(twice).objective


def test_normalize_terminal_preserves_optimum():
    for seed in range(30):
        inst = random_trading_wp3(seed + 40, T=2 + seed % 3)
        norm = normalize_terminal(inst)
        assert oracle_solve(norm).objective == oracle_solve(inst).objective


def test_normalize_terminal_requires_wp3():
    with pytest.raises(WrongVariant):
        normalize_terminal(two_period_trade())


def test_fptas_params_values():
    inst = Instance(
        variant="wp3", T=2, s0=0,
        Ls=(0, 0), Us=(8, 8), Lx=(0, 0), Ux=(4, 0), Ly=(0, 0), Uy=(0, 6),
        revenue=(0, 1), cost=(1, 0), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    params = fptas_params(inst, Fraction(1, 2))
    assert params.U_min == 4 and params.U_max == 6
    assert params.K == 2


def test_fptas_params_rejects_bad_epsilon():
    inst = as_wp3(two_period_trade())
    for eps in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(EpsilonOutOfRange):
            fptas_params(inst, eps)


def test_fptas_params_needs_a_positive_bound():
    inst = Instance(
        variant="wp3", T=1, s0=0,
        Ls=(0,), Us=(3,), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(1,), cost=(1,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    with pytest.raises(NoPositiveBounds):
        fptas_params(inst, Fraction(1, 2))


def test_scale_trade_bounds_rounds_down():
    inst = buy_then_sell()
    params = fptas_params(inst, Fraction(2, 5))
    assert params.K == 2
    scaled = scale_trade_bounds(inst, params)
    assert scaled.Ux == (4, 0) and scaled.Uy == (0, 4)
    assert scaled.Us == inst.Us and scaled.s0 == inst.s0

    # a unit that divides every bound changes nothing
    params = fptas_params(inst, Fraction(1, 5))
    assert scale_trade_bounds(inst, params) == inst


def test_integer_rounding_matches_the_fraction_rounding():
    # int and "p/q" bounds, rounded under random epsilon in (0, 1): the
    # integer K * floor(v / K) must equal the Fraction one, type included
    rng = random.Random(18)

    def bound():
        top = rng.randint(0, 10**4)
        return parse_exact(rng.choice((top, f"{top}/{rng.randint(1, 60)}")))

    for _ in range(400):
        T = rng.randint(1, 6)
        inst = replace(random_trading_wp3(rng.randint(0, 10**6), T),
                       Ux=tuple(bound() for _ in range(T)),
                       Uy=tuple(bound() for _ in range(T - 1)) + (1,))
        den = rng.randint(2, 1000)
        params = fptas_params(inst, Fraction(rng.randint(1, den - 1), den))
        assert repr(scale_trade_bounds(inst, params)) == repr(
            reference_scale_trade_bounds(inst, params))
        # a bound that is a multiple of K stays as it is
        on_grid = replace(inst, Ux=(params.K * 7,) + inst.Ux[1:])
        assert scale_trade_bounds(on_grid, params).Ux[0] == params.K * 7


def test_fptas_on_two_period_spread():
    inst = buy_then_sell()
    assert solve(inst).objective == 10
    sol = fptas_solve(inst, Fraction(2, 5))
    assert sol.objective == 8
    assert sol.objective >= Fraction(3, 5) * 10
    report = check_solution(inst, sol)
    assert report.feasible, report.violations


def test_fptas_guarantee_on_random_instances():
    cases = [(random_trading_wp3(seed + 900, T=2 + seed % 3),
              (Fraction(1, 2), Fraction(1, 4))) for seed in range(25)]
    cases.append((gen_random(7, 8, "wp3", 40), (Fraction(1, 3),)))
    for inst, epsilons in cases:
        best = oracle_solve(inst).objective
        for eps in epsilons:
            sol = fptas_solve(inst, eps)
            assert sol.objective >= (1 - eps) * best
            assert check_solution(inst, sol).feasible


def test_fptas_guarantee_on_planted_partitions():
    # twenty entries up to a million whose halves balance, so OPT = 3A/2
    # is known without an exact solve; an odd twin has no balanced split
    eps = Fraction(1, 3)
    for seed in range(3):
        entries = planted_partition(seed, 20, 10**6)
        inst, target = reduce_partition(entries)
        sol = fptas_solve(inst, eps)
        assert check_solution(inst, sol).feasible
        assert (1 - eps) * target <= sol.objective <= target
        entries[0] += 1  # A is now odd: OPT < 3A/2
        inst, target = reduce_partition(entries)
        sol = fptas_solve(inst, eps)
        assert check_solution(inst, sol).feasible
        assert sol.objective < target


def test_scaled_down_optimum_fits_scaled_bounds():
    # shrinking every flow pair of an optimal settled plan by a factor of
    # epsilon lands inside the rounded trade bounds: that plan is what makes
    # the approximation guarantee work
    for seed in (3, 11, 27, 50):
        inst = random_trading_wp3(seed, T=3)
        norm = normalize_terminal(inst)
        sol = solve(norm)
        flow = balanced_flow_decompose(norm, sol)
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            params = fptas_params(norm, eps)
            scaled_inst = scale_trade_bounds(norm, params)
            shrunk = BalancedFlow(pairs=tuple(
                (buy, sale, amount * (1 - eps))
                for buy, sale, amount in flow.pairs
            ))
            reduced = reassemble(scaled_inst, shrunk)
            report = check_solution(scaled_inst, reduced)
            assert report.feasible, report.violations
            target = (1 - eps) * sol.objective
            assert reduced.objective == target
            assert fptas_solve(inst, eps).objective >= target


def test_fptas_bound_S_value():
    # T = 2, rho = 6/4, epsilon = 2/5: 5 * (2*2*(3/2)*(5/2) + 1) = 80
    inst = replace(two_period_trade(), variant="wp3", Ux=(4, 6), Uy=(6, 5))
    params = fptas_params(inst, Fraction(2, 5))
    assert fptas_bound_S(inst, params) == 80
    # epsilon = 1/3 gives 5 * (2*2*(3/2)*3 + 1) = 95, and 4/9 the whole
    # part of 5 * (27/2 + 1)
    assert fptas_bound_S(inst, fptas_params(inst, Fraction(1, 3))) == 95
    assert fptas_bound_S(inst, fptas_params(inst, Fraction(4, 9))) == 72


def test_fptas_levels_stay_within_the_fptas_bound():
    instances = [gen_random(seed, T=2 + seed % 7, variant="wp3",
                            max_bound=5 * (2 + seed % 7))
                 for seed in range(30)]
    instances += [random_trading_wp3(seed, T=2 + seed % 4)
                  for seed in range(30)]
    # wide stock bounds and trade bounds far apart: rho = 50
    instances.append(replace(
        random_trading_wp3(7, T=4), Ls=(0,) * 4, Us=(10**6,) * 4,
        Ux=(1, 50, 3, 50), Uy=(50, 2, 50, 1)))
    checked = 0
    for inst in instances:
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                    Fraction(1, 7)):
            params, rounded = fptas_scale(inst, eps)
            size = gen_stock_levels(rounded).S_size
            assert size <= fptas_bound_S(inst, params), (inst, eps, size)
            checked += 1
    assert checked == 4 * 61


def test_fptas_requires_wp3():
    with pytest.raises(WrongVariant):
        fptas_solve(two_period_trade(), Fraction(1, 2))
    with pytest.raises(WrongVariant):
        fptas_solve(wp2_mixed(), Fraction(1, 2))


def k_kind(K: Fraction) -> str:
    den = K.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if K.denominator == 1:
        return "integral"
    return "decimal" if den == 1 else "not decimal"


def test_fptas_matches_the_rounded_instance_route(tmp_path):
    # fptas_solve, its rows and the fptas op against solving the Instance
    # scale_trade_bounds rounds: integral, decimal and other K, each on
    # integral data and on bounds or prices over 2..6
    kinds = set()
    for seed in range(45):
        inst = gen_random(seed, T=2 + seed % 6, variant="wp3",
                          max_bound=4 + seed % 17)
        if seed % 3 == 1:
            inst = reference_scale_instance(inst, Fraction(1, 2 + seed % 5))
        elif seed % 3 == 2:
            inst = fractional_payoffs(inst, 2 + seed % 5)
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
                    Fraction(1, 10), Fraction(5, 6), Fraction(2, 5)):
            expected = outcome(reference_fptas, inst, eps)
            assert outcome(fptas_route, inst, eps) == expected, (seed, eps)
            assert fptas_cli_outputs(inst, eps, tmp_path) == (
                reference_fptas_cli_outputs(inst, eps)), (seed, eps)
            if isinstance(expected, Raised):
                continue
            params, rows, F = fptas_rows(inst, eps)
            # the rows are the rounded Instance's, scaled by F
            assert rows == searched(scale_trade_bounds(inst, params), F)
            kinds.add((k_kind(params.K), scale_factor(inst) > 1))
    assert kinds == {(kind, fractional)
                     for kind in ("integral", "decimal", "not decimal")
                     for fractional in (False, True)}


def test_fptas_raises_in_the_reference_order(tmp_path):
    # not wp3 first, then epsilon outside (0, 1), then no positive bound,
    # in fptas_rows, fptas_solve and the fptas op alike
    zeros = (0,) * 2
    wp1 = replace(two_period_trade(), Lx=zeros, Ux=zeros, Ly=zeros,
                  Uy=zeros)
    wp3 = replace(as_wp3(two_period_trade()), Ux=zeros, Uy=zeros)
    cases = [(wp1, 2, WrongVariant), (wp2_mixed(), 0, WrongVariant),
             (wp3, 0, EpsilonOutOfRange), (wp3, 1, EpsilonOutOfRange),
             (wp3, Fraction(3, 2), EpsilonOutOfRange),
             (wp3, Fraction(1, 2), NoPositiveBounds)]
    for inst, eps, error in cases:
        expected = outcome(fptas_scale, inst, eps)
        assert isinstance(expected, Raised) and expected.kind is error
        assert outcome(fptas_rows, inst, eps) == expected
        assert outcome(fptas_solve, inst, eps) == expected
        outputs = fptas_cli_outputs(inst, eps, tmp_path)
        assert outputs == (2, "", f"error: {expected.message}\n", None)
        assert outputs == reference_fptas_cli_outputs(inst, eps)
