import inspect
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from wareflow import (
    ArcDecision,
    Infeasible,
    Instance,
    LowerExceedsUpper,
    NotAPath,
    Variant,
    WrongVariant,
    assemble_solution,
    emit_lp,
    fptas_params,
    gen_random,
    gen_stock_levels,
    lift_and_check,
    lift_solution,
    scale_trade_bounds,
    solve,
)
import wareflow.network
from wareflow import extform
from wareflow.extform import _decimal, _lp_text
from wareflow.model import _BOUND_FIELDS, _PRICE_FIELDS, exact, scale_instance
from wareflow.network import search_instance
from helpers import (
    gap_trading,
    lift_outcome,
    lp_rows,
    lp_sizes,
    perturbed_stocks,
    reference_build_network,
    reference_decimal_or_none,
    reference_emit_lp,
    reference_lift_solution,
    reference_lp_text_from_arcs,
    slice_rule_cases,
    solution_with,
    solve_with_network,
    text_or_value_error,
    two_period_trade,
    wp2_mixed,
)


def test_model_shape_two_period_trade():
    text = emit_lp(two_period_trade())
    _, net = solve_with_network(two_period_trade())
    rows = lp_rows(text)
    arcs = {token for row in rows for token in row.split()
            if token.startswith("a_")}
    assert len(arcs) == net.arc_count == 9
    lines = text.splitlines()
    assert lines[lines.index("Bounds") + 1:-1] == [
        f" {v}_{t} free" for t in (1, 2) for v in "xyswz"]
    # the relaxed binaries w and z are held below 1 by the (x) rows
    assert [row for row in rows if "_ub_" in row] == [
        " w_ub_1: w_1 <= 1", " z_ub_1: z_1 <= 1",
        " w_ub_2: w_2 <= 1", " z_ub_2: z_2 <= 1"]


def _senses(inst) -> dict:
    return {row.split(":")[0].strip(): row.split()[-2]
            for row in lp_rows(emit_lp(inst))}


def test_families_follow_lower_trade_bounds():
    rows = lp_rows(emit_lp(two_period_trade()))
    assert rows[0].startswith(" unit_source: ") and rows[0].endswith(" = 1")
    couplings = ("w_couple_1", "z_couple_1", "w_couple_2", "z_couple_2")
    senses = _senses(two_period_trade())
    assert [senses[name] for name in couplings] == [">=", ">=", ">=", ">="]

    strict = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(10, 10), Lx=(2, 0), Ux=(5, 5), Ly=(0, 2), Uy=(5, 5),
        revenue=(3, 3), cost=(1, 1), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )
    senses = _senses(strict)
    assert [senses[name] for name in couplings] == ["=", ">=", ">=", "="]


def _layers(inst) -> tuple:
    """(s0,) and then the levels of inst, as the lift and _lp_text take
    them."""
    return ((inst.s0,),) + gen_stock_levels(inst).levels


def test_lift_optimal_plan_is_feasible():
    inst = two_period_trade()
    sol = solve(inst)
    # feasible also means the LP objective of the lift is sol.objective
    report = lift_and_check(inst, sol)
    assert report.feasible, report.violations
    assert sol.objective == 10
    values = lift_solution(inst, _layers(inst), sol)
    assert sum(v for n, v in values.items() if n.startswith("a_")) == inst.T
    wp3 = gen_random(7, 8, "wp3", 40)
    report = lift_and_check(wp3, solve(wp3))
    assert report.feasible, report.violations


def test_lift_reads_fractional_rows_in_the_instance_units():
    # Ux_1 = 1/3 has no decimal literal: emit_lp prints the LP scaled by 3,
    # while the lift check reads the rows in p/q and does not scale
    inst = replace(two_period_trade(), Ux=(Fraction(1, 3), 5))
    assert "scaled by 3" in emit_lp(inst)
    sol = solve(inst)
    assert sol.x[0] == Fraction(1, 3)
    assert lift_and_check(inst, sol).feasible
    tampered = solution_with(sol, x=(Fraction(1, 6), 0))
    violations = lift_and_check(inst, tampered).violations
    assert (1, "def_x_1", Fraction(1, 6), 0) in violations
    assert (1, "balance_1", Fraction(1, 6), 0) in violations


def test_lift_reports_a_stale_objective_once():
    inst = two_period_trade()
    sol = solve(inst)
    report = lift_and_check(inst, solution_with(sol, objective=11))
    assert report.violations == ((0, "obj", 10, 11),)


def test_lift_any_walked_path():
    inst = two_period_trade()
    _, net = solve_with_network(inst)
    node = 0
    xs, ys = [], []
    for t in range(1, inst.T + 1):
        outgoing = [a for a in net.arcs[t - 1] if a[0] == node]
        tail, head, dec = outgoing[-1]  # steepest stock climb available
        xs.append(dec.x)
        ys.append(dec.y)
        node = head
    sol = assemble_solution(inst, xs, ys)
    report = lift_and_check(inst, sol)
    assert report.feasible, report.violations


def test_tampered_indicator_breaks_one_row():
    inst = two_period_trade()
    sol = solve(inst)
    assert sol.x[0] == 5 and sol.w[0] == 1
    tampered = solution_with(sol, w=(0, 0))
    report = lift_and_check(inst, tampered)
    assert not report.feasible
    assert [v[1] for v in report.violations] == ["w_couple_1"]
    period, _, lhs, rhs = report.violations[0]
    assert period == 1 and lhs == -1 and rhs == 0


def test_tampered_trade_breaks_definition_row():
    inst = two_period_trade()
    sol = solve(inst)
    tampered = solution_with(sol, x=(4, 0))
    report = lift_and_check(inst, tampered)
    names = [v[1] for v in report.violations]
    assert "def_x_1" in names


def test_off_network_stocks_are_not_a_path():
    inst = two_period_trade()
    sol = solve(inst)
    with pytest.raises(NotAPath):
        lift_and_check(inst, solution_with(sol, s=(7, 0)))
    with pytest.raises(NotAPath):  # both stocks are nodes, but no arc joins 0 to 10
        lift_and_check(inst, solution_with(sol, s=(0, 10)))
    with pytest.raises(NotAPath):
        lift_solution(inst, _layers(inst), solution_with(
            sol, s=(0,), x=(0,), y=(0,), w=(0,), z=(0,)))


def test_lift_refuses_a_wp2_instance():
    # the rows follow the wp1 window rule, which the network of a wp2
    # instance on its own horizon does not: the searched instance lifts
    inst = wp2_mixed()
    with pytest.raises(WrongVariant, match=(
            r"^lift_and_check takes the searched instance: "
            r"pass search_instance\(inst\), not wp2$")):
        lift_and_check(inst, solve(inst))
    base = search_instance(inst)
    report = lift_and_check(base, solve(base))
    assert report.feasible, report.violations


def test_lift_solution_matches_the_network_reference(monkeypatch):
    # the optimal plan and perturbed stock sequences: the slice lift gives
    # the reference's dict, or raises NotAPath with its message, and
    # prices no arc
    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    monkeypatch.setattr(wareflow.network, "arc_candidates", refuse)
    rng = random.Random(23)
    lifted = no_arc = 0
    for inst in slice_rule_cases():
        base = search_instance(inst)
        net = reference_build_network(base, gen_stock_levels(base))
        try:
            sol = solve(base)
        except Infeasible:
            continue
        for plan in perturbed_stocks(sol, net.layers, rng):
            got = lift_outcome(lift_solution, base, net.layers, plan)
            assert got == lift_outcome(reference_lift_solution, net, plan)
            lifted += isinstance(got, dict)
            no_arc += isinstance(got, str) and "no arc" in got
    assert lifted and no_arc


def test_lift_refuses_a_move_into_a_gap():
    # Lx = Ly = 2: from 0 the stock 1 lies within Ux of s0 but in no
    # window, so no arc reaches it, while 2 is a purchase arc
    inst = gap_trading()
    layers = _layers(inst)
    assert 1 in layers[1]
    plan = assemble_solution(inst, (2, 0, 0), (0, 0, 0))
    assert lift_and_check(inst, plan).feasible
    with pytest.raises(NotAPath, match="^no arc for period 1 stock move$"):
        lift_solution(inst, layers, solution_with(plan, s=(1, 2, 2)))


@pytest.mark.parametrize("vector", ["x", "y", "w", "z"])
def test_lift_rejects_a_plan_vector_of_the_wrong_length(vector):
    inst = two_period_trade()
    sol = solve(inst)
    short = solution_with(sol, **{vector: getattr(sol, vector)[:1]})
    with pytest.raises(NotAPath, match="solution has 1 periods, network has 2"):
        lift_and_check(inst, short)


def test_model_size_stays_polynomial():
    for seed in range(18):
        variant = ("wp1", "wp3")[seed % 2]
        inst = gen_random(seed, T=2 + seed % 3, variant=variant, max_bound=5)
        width = gen_stock_levels(inst).S_size
        budget = 20 * inst.T * width**2
        assert sum(lp_sizes(emit_lp(inst))) <= budget


def test_emit_lp_sections():
    text = emit_lp(two_period_trade())
    assert text.startswith("\\ extended formulation over the trading network\n")
    lines = text.splitlines()
    assert "Maximize" in lines and "Subject To" in lines
    assert "Bounds" in lines and lines[-1] == "End"
    assert text.endswith("End\n")
    assert " x_1 free" in text
    assert any(line.startswith(" unit_source:") for line in lines)
    assert emit_lp(two_period_trade()) == text


def test_emit_lp_prints_decimal_fractions_directly():
    inst = Instance(
        variant="wp1", T=1, s0=Fraction(1, 2),
        Ls=(0,), Us=(Fraction(1, 2),), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(1,), cost=(1,), holding=(1,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    text = emit_lp(inst)
    assert "scaled" not in text
    assert "0.5" in text
    assert "/" not in text


def test_emit_lp_scales_away_repeating_fractions():
    inst = Instance(
        variant="wp1", T=1, s0=Fraction(1, 3),
        Ls=(0,), Us=(Fraction(1, 3),), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(1,), cost=(1,), holding=(1,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    text = emit_lp(inst)
    assert "\\ quantities and unit prices scaled by 3, fixed costs by 9\n" in text
    assert "/" not in text
    # the scaled balance row pins s_1 to the scaled initial stock
    assert any("balance_1" in line and "= 1" in line
               for line in text.splitlines())


def test_emit_lp_scales_fixed_costs_with_the_payoffs():
    # buying 1/3 at fixed cost 1 to sell it at revenue 2 loses 1/3, so the
    # optimum is no trade; scaled by 3, the sale pays 2*3 per 3 units and
    # the fixed cost must cost 9, not 3, or the LP would prefer the trade
    inst = Instance(
        variant="wp1", T=2, s0=0,
        Ls=(0, 0), Us=(1, 1), Lx=(0, 0), Ux=(Fraction(1, 3), 0),
        Ly=(0, 0), Uy=(0, 1),
        revenue=(0, 2), cost=(0, 0), holding=(0, 0),
        fixed_purchase=(1, 0), fixed_sale=(0, 0),
    )
    assert solve(inst).objective == 0
    text = emit_lp(inst)
    assert "\\ quantities and unit prices scaled by 3, fixed costs by 9\n" in text
    assert " obj: - 9 w_1 + 6 y_2\n" in text
    assert text == reference_emit_lp(inst)


def test_emit_lp_doubles_wp2_horizon():
    for inst in (wp2_mixed(), gen_random(2, 6, "wp2", 30)):
        text = emit_lp(inst)
        n = 2 * inst.T
        assert f"balance_{n}" in text
        assert f"x_{n}" in text
        assert f"x_{n + 1}" not in text
        # every variable of the doubled horizon is free
        lines = text.splitlines()
        assert lines[lines.index("Bounds") + 1:-1] == [
            f" {v}_{t} free" for t in range(1, n + 1) for v in "xyswz"]


def test_emit_lp_validates_the_instance():
    # the Instance refuses itself, so emit_lp never sees one
    with pytest.raises(LowerExceedsUpper):
        emit_lp(replace(two_period_trade(), Lx=(3, 0), Ux=(1, 5)))


@pytest.mark.parametrize("value", [
    0, 1, -1, 10**30, -10**30, True,
    Fraction(7, 1), Fraction(-12, 1),
    Fraction(1, 2), Fraction(-3, 8), Fraction(7, 40),
    Fraction(1, 3), Fraction(-2, 7),
])
def test_decimal_fast_path_matches_rational_path(value):
    # None from the reference stands for the ValueError of _decimal
    try:
        text = _decimal(value)
    except ValueError:
        text = None
    assert text == reference_decimal_or_none(value)
    assert (text is None) == (value in (Fraction(1, 3), Fraction(-2, 7)))


def _rounded_wp3(seed: int, epsilon: Fraction) -> Instance:
    inst = gen_random(seed, 4, "wp3", 12)
    return scale_trade_bounds(inst, fptas_params(inst, epsilon))


def _dead_source() -> Instance:
    # from s0 = 0 no purchase of at most 2 reaches Ls_1 = 4: no arc
    # leaves the source, and no price is nonzero
    return Instance(
        variant="wp1", T=2, s0=0,
        Ls=(4, 0), Us=(6, 6), Lx=(0, 0), Ux=(2, 3), Ly=(0, 0), Uy=(1, 1),
        revenue=(0, 0), cost=(0, 0), holding=(0, 0),
        fixed_purchase=(0, 0), fixed_sale=(0, 0),
    )


def test_emit_lp_matches_reference_emitter():
    halves = replace(two_period_trade(), Ux=(Fraction(1, 2), 5),
                     cost=(Fraction(1, 4), 1))
    cases = [gen_random(seed, T, variant, 3 * T)
             for variant in ("wp1", "wp2", "wp3")
             for T in (2, 3, 5)
             for seed in range(4)]
    cases += [_rounded_wp3(seed, eps)
              for seed in range(6)
              for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))]
    cases += [_dead_source(), halves]
    scaled = decimal = infeasible = 0
    for inst in cases:
        text = emit_lp(inst)
        assert text == reference_emit_lp(inst)
        scaled += "scaled by" in text
        decimal += "scaled by" not in text and "." in text
        try:
            solve(inst)
        except Infeasible:
            infeasible += 1
    # the cases reach both branches of the emitter and infeasible data
    assert scaled and decimal and infeasible
    # an empty expression prints as 0, a coefficient of 1 as nothing
    dead = emit_lp(_dead_source())
    assert " obj: 0 \n" in dead and " unit_source: 0  = 1\n" in dead
    assert " def_x_1: - x_1 = 0\n" in dead
    text = emit_lp(halves)
    assert " obj: 3 y_1 - 0.25 x_1 + 3 y_2 - x_2\n" in text
    assert " def_x_1: 0.5 a_1_0_1 - x_1 = 0\n" in text


def test_emit_lp_rescales_when_the_last_printed_number_fails():
    # the one number with no decimal literal is the last period's fixed
    # sale cost, the last number the text prints: the unscaled write
    # fails at its end and the rescaled one is the whole output
    inst = replace(two_period_trade(), fixed_sale=(1, Fraction(1, 3)))
    text = emit_lp(inst)
    assert "\\ quantities and unit prices scaled by 3, fixed costs by 9\n" in text
    assert text.count("\nMaximize\n") == 1
    assert text == reference_emit_lp(inst)


@pytest.mark.parametrize("make, text", [
    (lambda: ArcDecision(x=0, y=2, w=0, z=1, payoff=5),
     "ArcDecision(x=0, y=2, w=0, z=1, payoff=5)"),
], ids=["ArcDecision"])
def test_per_arc_records_are_frozen_hashable_values(make, text):
    record, twin = make(), make()
    assert record is not twin and record == twin
    assert hash(record) == hash(twin) and len({record, twin}) == 1
    for name in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert repr(record) == text


def test_emit_lp_skips_scaling_for_numbers_outside_the_model():
    # Us_1 = 1/3 only caps the stock; with no trade the one level is s0 = 0
    inst = Instance(
        variant="wp1", T=1, s0=0,
        Ls=(0,), Us=(Fraction(1, 3),), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(1,), cost=(1,), holding=(1,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    text = emit_lp(inst)
    assert "scaled" not in text
    assert text == reference_emit_lp(inst)


@pytest.mark.parametrize("s0", [Fraction(1, 2), Fraction(1, 3)])
def test_emit_lp_builds_no_network(monkeypatch, s0):
    # s0 = 1/3 has no decimal literal, so that LP is printed scaled by 3
    # from the same levels: the text is written from the levels alone
    calls = []
    original = extform.gen_stock_levels

    def counted(*args):
        calls.append(args)
        return original(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    monkeypatch.setattr(extform, "gen_stock_levels", counted)
    monkeypatch.setattr(wareflow.network, "arc_candidates", refuse)
    inst = Instance(
        variant="wp1", T=2, s0=s0,
        Ls=(0, 0), Us=(3 * s0, 3 * s0), Lx=(0, s0), Ux=(s0, 2 * s0),
        Ly=(0, 0), Uy=(s0, 3 * s0),
        revenue=(1, 2), cost=(1, 1), holding=(1, 0),
        fixed_purchase=(0, 1), fixed_sale=(1, 0),
    )
    text = emit_lp(inst)
    assert ("scaled by" in text) == (s0.denominator == 3)
    assert text == reference_emit_lp(inst)
    assert len(calls) == 1


def _over(inst: Instance, bounds: int, prices: int = 1) -> Instance:
    """s0 and the bounds divided by bounds, the unit prices by prices."""
    return replace(inst, s0=Fraction(inst.s0, bounds),
                   **{name: tuple(Fraction(v, d) for v in getattr(inst, name))
                      for names, d in ((_BOUND_FIELDS, bounds),
                                       (_PRICE_FIELDS, prices))
                      for name in names})


def test_scaled_levels_are_the_levels_of_the_scaled_instance():
    # bounds over 3 and prices over 2 keep the wp3 shape
    cases = [_over(gen_random(seed, T, variant, 3 * T), 3, 2)
             for variant in ("wp1", "wp2", "wp3")
             for T in (2, 4)
             for seed in range(3)]
    factors = set()
    for inst in cases:
        base = search_instance(inst)
        layers = ((base.s0,),) + gen_stock_levels(base).levels
        scaled = re.search(r"scaled by (\d+),", emit_lp(inst))
        factors.add(int(scaled[1]) if scaled else 1)
        big = scale_instance(base, 6)
        assert repr(tuple(tuple(exact(v * 6) for v in layer)
                          for layer in layers)) == repr(
            ((exact(6 * base.s0),),) + gen_stock_levels(big).levels)
    # some networks only move the stock by whole units and print as they are
    assert factors == {1, 6}


def test_lp_text_matches_the_arc_walk():
    cases = [gen_random(seed, T, variant, 3 * T)
             for variant in ("wp1", "wp2", "wp3")
             for T in (2, 3, 5)
             for seed in range(4)]
    cases += [_over(inst, d) for inst in cases[::2] for d in (2, 3)]
    cases += [_dead_source(), replace(two_period_trade(), Ls=(8, 8),
                                      Us=(8, 8), Ux=(1, 1))]
    infeasible = 0
    outcomes = set()
    for inst in cases:
        base = search_instance(inst)
        net = reference_build_network(base, gen_stock_levels(base))
        comments = ("a comment",)
        for literal in (_decimal, str):
            text = text_or_value_error(_lp_text, base, net.layers,
                                       comments, literal)
            assert text == text_or_value_error(
                reference_lp_text_from_arcs, base, net, comments, literal)
            outcomes.add((literal.__name__,
                          "error" if text.startswith("ValueError") else
                          "p/q" if "/" in text else
                          "decimal" if "." in text else "whole"))
        try:
            solve(inst)
        except Infeasible:
            infeasible += 1
    assert infeasible
    # doubled wp2 horizons are written, and both literals meet fractions:
    # _decimal raises on a third and prints a half, str prints p/q
    assert any(inst.variant is Variant.WP2 for inst in cases)
    assert {("_decimal", "error"), ("_decimal", "decimal"),
            ("str", "p/q")} <= outcomes
