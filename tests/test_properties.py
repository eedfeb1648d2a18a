"""Property tests on small generated instances of every variant."""

from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from wareflow import (  # noqa: E402
    Infeasible,
    Instance,
    Variant,
    build_network,
    check_solution,
    emit_lp,
    fptas_params,
    gen_stock_levels,
    lift_and_check,
    oracle_solve,
    scale_trade_bounds,
    solve,
    solve_with_network,
    solve_wp2_direct,
)
from wareflow.network import (  # noqa: E402
    SolveTrace,
    _decode,
    arc_counts,
    search_instance,
)
from helpers import (  # noqa: E402
    brute_oracle_solve,
    fractional_payoffs,
    reference_build_network,
    reference_clipped_stock_levels,
    reference_decode,
    reference_emit_lp,
    reference_stock_levels,
)

SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


@st.composite
def instances(draw):
    variant = draw(st.sampled_from(("wp1", "wp2", "wp3")))
    T = draw(st.integers(1, 4))
    small = st.integers(0, 6)

    def pairs():
        lows, highs = [], []
        for _ in range(T):
            a, b = sorted((draw(small), draw(small)))
            lows.append(a)
            highs.append(b)
        return tuple(lows), tuple(highs)

    def vector(values):
        return tuple(draw(values) for _ in range(T))

    s0 = draw(small)
    Ls, Us = pairs()
    Lx, Ux = pairs()
    Ly, Uy = pairs()
    signed = st.integers(-5, 5)
    fields = dict(
        revenue=vector(signed), cost=vector(signed), holding=vector(signed),
        fixed_purchase=vector(small), fixed_sale=vector(small),
    )
    if variant == "wp3":
        # the wp3 shape: no lower trade bounds, fixed or holding costs,
        # and s0 inside every period's stock interval
        zero = (0,) * T
        Lx = Ly = zero
        fields.update(fixed_purchase=zero, fixed_sale=zero, holding=zero)
        ceiling = min(Us)
        Ls = tuple(min(v, ceiling) for v in Ls)
        s0 = min(max(s0, max(Ls)), ceiling)
    return Instance(variant=variant, T=T, s0=s0, Ls=Ls, Us=Us, Lx=Lx,
                    Ux=Ux, Ly=Ly, Uy=Uy, **fields)


@SETTINGS
@given(instances())
def test_solve_matches_oracle_objective(inst):
    try:
        expected = oracle_solve(inst).objective
    except Infeasible:
        with pytest.raises(Infeasible):
            solve(inst)
        return
    assert solve(inst).objective == expected


@SETTINGS
@given(instances(), st.integers(1, 4))
def test_oracle_matches_the_brute_force_oracle(inst, d):
    inst = fractional_payoffs(inst, d)
    try:
        expected = brute_oracle_solve(inst)
    except Infeasible as err:
        with pytest.raises(Infeasible) as raised:
            oracle_solve(inst)
        assert str(raised.value) == str(err)
        return
    assert repr(oracle_solve(inst)) == repr(expected)


@SETTINGS
@given(instances())
def test_solve_matches_the_network_witness(inst):
    try:
        expected = solve_with_network(inst)[0]
    except Infeasible as err:
        with pytest.raises(Infeasible) as raised:
            solve(inst)
        assert str(raised.value) == str(err)
        return
    sol = solve(inst)
    assert repr(sol) == repr(expected)
    assert check_solution(inst, sol).feasible


@SETTINGS
@given(instances())
def test_direct_wp2_route_matches_solve(inst):
    inst = replace(inst, variant="wp2")
    try:
        expected = solve(inst).objective
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_wp2_direct(inst)
        return
    assert solve_wp2_direct(inst).objective == expected


@SETTINGS
@given(instances())
def test_network_plan_lifts_into_the_formulation(inst):
    base = search_instance(inst)[0]
    try:
        sol, net = solve_with_network(base)
    except Infeasible:
        return
    # feasible also means the LP objective of the lift is sol.objective
    report = lift_and_check(base, net, sol)
    assert report.feasible, report.violations


@SETTINGS
@given(instances())
def test_network_matches_the_pairwise_reference(inst):
    # wp2 twice: on the doubled horizon it is searched on, and on its own
    # horizon as solve_wp2_direct builds it
    for base in {search_instance(inst)[0], inst}:
        levels = gen_stock_levels(base)
        assert repr(build_network(base, levels)) == repr(
            reference_build_network(base, levels))


@SETTINGS
@given(instances(), st.integers(1, 3))
def test_arc_counts_match_the_built_network(inst, d):
    # the network over the levels as given, and the counts over the integer
    # copy that solve searches and records, as bench reads them
    inst = _rescaled(inst, Fraction(1, d), 1)
    base = search_instance(inst)[0]
    net = build_network(base, gen_stock_levels(base))
    counts = [len(period) for period in net.arcs]
    assert arc_counts(base, net.layers) == counts
    trace = SolveTrace()
    try:
        solve(inst, trace)
    except Infeasible:
        pass
    layers = ((trace.searched.s0,),) + trace.levels.levels
    assert arc_counts(trace.searched, layers) == counts


@SETTINGS
@given(instances())
def test_levels_are_subsets_of_the_unclipped_levels(inst):
    new = gen_stock_levels(inst).levels
    old = reference_stock_levels(inst).levels
    assert len(new) == len(old)
    for layer, ref in zip(new, old):
        assert set(layer) <= set(ref)


@SETTINGS
@given(instances(), st.integers(2, 5))
def test_levels_match_the_two_sweep_reference(inst, d):
    # as given, with every bound over d, and FPTAS-rounded for wp3
    cases = [inst, _rescaled(inst, Fraction(1, d), 1)]
    if inst.variant is Variant.WP3 and any(inst.Ux + inst.Uy):
        cases.append(scale_trade_bounds(
            inst, fptas_params(inst, Fraction(1, d))))
    for case in cases:
        assert gen_stock_levels(case) == reference_clipped_stock_levels(case)


@SETTINGS
@given(instances(), st.integers(1, 4))
def test_decode_matches_the_adjacency_reference(inst, d):
    # Fraction payoffs; wp2 on its doubled and on its own horizon
    inst = fractional_payoffs(inst, d)
    for base in {search_instance(inst)[0], inst}:
        net = build_network(base, gen_stock_levels(base))
        try:
            expected = reference_decode(net)
        except Infeasible as err:
            with pytest.raises(Infeasible) as raised:
                _decode(net)
            assert str(raised.value) == str(err)
            continue
        assert repr(_decode(net)) == repr(expected)


def _rescaled(inst, quantity, price):
    """Quantities times quantity, unit prices times price and fixed costs
    times both; the factors may be Fractions."""
    def times(vec, factor):
        return tuple(v * factor for v in vec)

    bounds = {name: times(getattr(inst, name), quantity)
              for name in ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")}
    return replace(
        inst, s0=inst.s0 * quantity, **bounds,
        revenue=times(inst.revenue, price), cost=times(inst.cost, price),
        holding=times(inst.holding, price),
        fixed_purchase=times(inst.fixed_purchase, quantity * price),
        fixed_sale=times(inst.fixed_sale, quantity * price),
    )


def _plan(sol):
    return sol.x, sol.y, sol.s, sol.w, sol.z


def _times(plan, L):
    x, y, s, w, z = plan
    return (tuple(L * v for v in x), tuple(L * v for v in y),
            tuple(L * v for v in s), w, z)


@SETTINGS
@given(instances(), st.integers(1, 3), st.integers(1, 3))
def test_scaling_scales_the_objective_and_the_plan(inst, L, M):
    big = _rescaled(inst, L, M)
    try:
        expected = oracle_solve(inst)
    except Infeasible:
        for solver in (solve, oracle_solve):
            with pytest.raises(Infeasible):
                solver(big)
        return
    assert oracle_solve(big).objective == L * M * expected.objective
    sol, scaled = solve(inst), solve(big)
    assert scaled.objective == L * M * sol.objective
    assert _plan(scaled) == _times(_plan(sol), L)


@SETTINGS
@given(instances(), st.integers(2, 5), st.integers(1, 4))
def test_fractional_data_solves_as_its_integer_multiple(inst, L, M):
    small = _rescaled(inst, Fraction(1, L), Fraction(1, M))
    try:
        expected = oracle_solve(inst)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve(small)
        return
    sol = solve(small)
    assert sol.objective * L * M == expected.objective
    assert _times(_plan(sol), L) == _plan(solve(inst))
    assert check_solution(small, sol).feasible


@SETTINGS
@given(instances())
def test_emit_lp_matches_the_reference_emitter(inst):
    # s0 and the bounds over 3 leave trade amounts that are not decimal,
    # so the copy takes the rescaling branch whenever it trades; halves and
    # quarters print as decimals
    thirds = _rescaled(inst, Fraction(1, 3), 1)
    for case in (inst, replace(thirds, fixed_purchase=inst.fixed_purchase,
                               fixed_sale=inst.fixed_sale),
                 _rescaled(inst, Fraction(1, 2), Fraction(1, 4))):
        text = emit_lp(case)
        assert text == reference_emit_lp(case)
