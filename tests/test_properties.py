"""Property tests on small generated instances of every variant."""

import copy
import io
import json
import os
import random
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from wareflow import (  # noqa: E402
    Infeasible,
    Instance,
    LotSizingInstance,
    Solution,
    Variant,
    assemble_solution,
    balanced_flow_decompose,
    check_solution,
    compute_objective,
    emit_lp,
    fptas_params,
    gen_random,
    gen_stock_levels,
    lift_and_check,
    lift_solution,
    oracle_solve,
    parse_exact,
    parse_instance,
    parse_lotsizing,
    parse_solution,
    reassemble,
    reduce_partition,
    scale_trade_bounds,
    serialize_instance,
    serialize_lotsizing,
    serialize_solution,
    solve,
    solve_wp2_direct,
    to_dot,
)
from wareflow import cli, network, oracle  # noqa: E402
from wareflow.cli import run  # noqa: E402
from wareflow.extform import _decimal, _lp_text  # noqa: E402
from wareflow.model import (  # noqa: E402
    _VECTOR_FIELDS,
    _dump_flat,
    _from_json_dict,
    _to_json_dict,
    exact_vector,
    format_exact,
    scale_factor,
)
from wareflow.network import (  # noqa: E402
    SolveTrace,
    _feasible,
    _window_suffix,
    arc_counts,
)
from wareflow.stocklevels import searched, searched_levels  # noqa: E402
from helpers import (  # noqa: E402
    PLANTED,
    Raised,
    bench_trace,
    brute_oracle_solve,
    flat_payloads,
    fptas_cli_outputs,
    fptas_route,
    fractional_payoffs,
    instance_rows,
    lift_outcome,
    outcome,
    planted,
    planted_partition,
    perturbed_stocks,
    reference_build_network,
    reference_clipped_stock_levels,
    reference_decode,
    reference_dump,
    reference_emit_lp,
    reference_exact_vector,
    reference_fptas,
    reference_fptas_cli_outputs,
    reference_instance_from_json_dict,
    reference_lift_solution,
    reference_lp_text_from_arcs,
    reference_scale_instance,
    reference_scale_trade_bounds,
    reference_solution_to_json_dict,
    reference_stock_levels,
    reference_to_dot,
    reference_validate_instance,
    reference_window_max,
    reference_window_suffix,
    search_instance,
    solve_with_network,
    text_or_value_error,
    typed,
    typed_exact_levels,
    verdict_on_the_searched_copy,
    window_case,
)

SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


@st.composite
def instances(draw, periods=4):
    variant = draw(st.sampled_from(("wp1", "wp2", "wp3")))
    T = draw(st.integers(1, periods))
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
    base = search_instance(inst)
    try:
        sol = solve_with_network(base)[0]
    except Infeasible:
        return
    # feasible also means the LP objective of the lift is sol.objective
    report = lift_and_check(base, sol)
    assert report.feasible, report.violations


@SETTINGS
@given(instances(), st.integers(1, 3), st.booleans(), st.integers(0, 2**16))
def test_slice_lift_and_dot_match_the_network_references(inst, d, rounded,
                                                         seed):
    # with the bounds over d, and wp3 maybe FPTAS-rounded: the DOT text,
    # and the lift of the optimal plan and of perturbed stock sequences,
    # equal dicts or equal NotAPath
    inst = _rescaled(inst, Fraction(1, d), 1)
    if rounded and inst.variant is Variant.WP3:
        inst = scale_trade_bounds(inst, fptas_params(inst, Fraction(1, 3)))
    base = search_instance(inst)
    net = reference_build_network(base, gen_stock_levels(base))
    assert to_dot(inst) == reference_to_dot(net)
    try:
        sol = solve(base)
    except Infeasible:
        return
    for plan in perturbed_stocks(sol, net.layers, random.Random(seed)):
        assert lift_outcome(lift_solution, base, net.layers, plan) == (
            lift_outcome(reference_lift_solution, net, plan))


@SETTINGS
@given(instances(), st.integers(1, 3))
def test_arc_counts_match_the_built_network(inst, d):
    # the network over the levels as given, and the counts over the integer
    # rows and levels that bench's search records
    inst = _rescaled(inst, Fraction(1, d), 1)
    base = search_instance(inst)
    net = reference_build_network(base, gen_stock_levels(base))
    counts = [len(period) for period in net.arcs]
    assert arc_counts(base, net.layers) == counts
    trace = bench_trace(inst)
    layers = ((trace.searched.s0,),) + trace.levels.levels
    assert arc_counts(trace.searched, layers) == counts


@SETTINGS
@given(instances(), st.integers(1, 3), st.integers(1, 4))
def test_window_dp_matches_the_reference(inst, d, e):
    # the searched instance with bounds over d and prices over e, as given
    # and as the integer rows solve searches; wp2 on its doubled horizon
    inst = _rescaled(inst, Fraction(1, d), Fraction(1, e))
    base = search_instance(inst)
    rows = searched(inst, scale_factor(inst))
    for case, layers in ((base, ((base.s0,),) + gen_stock_levels(base).levels),
                         (rows, searched_levels(rows))):
        assert _window_suffix(case, layers) == reference_window_suffix(
            case, layers)


def _raises_infeasible(solver, inst) -> bool:
    try:
        solver(inst)
    except Infeasible:
        return True
    return False


@SETTINGS
@given(instances(), st.integers(1, 3))
def test_reachable_stock_decides_feasibility(inst, d):
    # a period with no reachable stock <=> no path in the network <=> (on
    # integral bounds) no integral plan; the bounds are over d
    inst = _rescaled(inst, Fraction(1, d), 1)
    empty = not _feasible(inst)
    assert empty == _raises_infeasible(solve_with_network, inst)
    if inst.bounds_integral():
        assert empty == _raises_infeasible(oracle_solve, inst)


@SETTINGS
@given(instances(), st.integers(1, 3), st.integers(1, 3))
def test_hulls_of_the_instance_as_read_match_the_searched_copy(inst, d, e):
    # bounds over d and prices over e; wp2 walked as sale then purchase
    # halves gives the verdict of the pass on its doubled, integer-scaled
    # copy
    inst = _rescaled(inst, Fraction(1, d), Fraction(1, e))
    assert _feasible(inst) == verdict_on_the_searched_copy(inst)


@SETTINGS
@given(instances(), st.integers(1, 3), st.integers(1, 3))
def test_traced_and_untraced_solves_agree(inst, d, e):
    # the same plan or the same error, after as many runs of the pass;
    # bounds over d and prices over e
    inst = _rescaled(inst, Fraction(1, d), Fraction(1, e))
    with mock.patch.object(network, "_feasible", wraps=_feasible) as runs:
        untraced = outcome(solve, inst)
        passes = runs.call_count
        assert outcome(solve, inst, SolveTrace()) == untraced
    assert runs.call_count == 2 * passes


@st.composite
def window_cases(draw):
    """helpers.window_case drawn by Hypothesis: small layers with equal
    keys, dead heads and zero trade sides."""
    return window_case(lambda lo, hi: draw(st.integers(lo, hi)))


@SETTINGS
@given(window_cases())
def test_window_suffix_matches_the_reference_on_drawn_layers(case):
    inst, layers = case
    assert _window_suffix(inst, layers) == reference_window_suffix(
        inst, layers)


@SETTINGS
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(2, 12))
def test_solve_reaches_three_halves_of_a_planted_partition(seed, n, hi):
    inst, target = reduce_partition(planted_partition(seed, n, hi))
    assert solve(inst).objective == target


@st.composite
def window_max_cases(draw):
    """A key dict over ascending stocks with gaps (it may be empty),
    ascending states, and a window lo <= hi."""
    points = st.lists(st.integers(-10, 10), max_size=8, unique=True)
    keys = {u: draw(st.integers(-3, 3)) for u in sorted(draw(points))}
    states = sorted(draw(points))
    lo = draw(st.integers(-6, 6))
    return keys, states, lo, lo + draw(st.integers(0, 6))


@SETTINGS
@given(window_max_cases())
def test_oracle_window_max_matches_the_verbatim_reference(case):
    assert oracle._window_max(*case) == reference_window_max(*case)


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
        # value for value and type for type: a whole level is an int
        assert typed(gen_stock_levels(case).levels) == typed_exact_levels(
            reference_clipped_stock_levels(case))


@SETTINGS
@given(instances(), st.integers(1, 4), st.integers(1, 3))
def test_decode_matches_the_adjacency_reference(inst, d, e):
    # solve_wp2_direct against the adjacency decode of the pairwise network
    # on the instance read as wp2, with Fraction payoffs and bounds over e
    inst = replace(_rescaled(fractional_payoffs(inst, d), Fraction(1, e), 1),
                   variant="wp2")
    net = reference_build_network(inst, gen_stock_levels(inst))
    try:
        expected = reference_decode(net)
    except Infeasible as err:
        with pytest.raises(Infeasible) as raised:
            solve_wp2_direct(inst)
        assert str(raised.value) == str(err)
        return
    assert repr(solve_wp2_direct(inst)) == repr(expected)


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


@SETTINGS
@given(instances(periods=6), st.integers(1, 3))
def test_lp_text_matches_the_arc_walk(inst, d):
    # every variant, wp2 on its doubled horizon, up to six periods; bounds
    # over 3 stop the decimal write, in both, at the same number
    base = search_instance(_rescaled(inst, Fraction(1, d), 1))
    net = reference_build_network(base, gen_stock_levels(base))
    for literal in (_decimal, str):
        assert text_or_value_error(
            _lp_text, base, net.layers, (), literal) == text_or_value_error(
            reference_lp_text_from_arcs, base, net, (), literal)


# int and "p/q" trade bounds, and epsilon anywhere in (0, 1)
bounds = st.one_of(
    st.integers(0, 10**6),
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(1, 10**3)),
).map(parse_exact)
epsilons = st.fractions(0, 1, max_denominator=10**4).filter(
    lambda e: 0 < e < 1)


@SETTINGS
@given(instances(), st.data(), epsilons)
def test_integer_rounding_matches_the_fraction_rounding(inst, data, eps):
    # upper bounds at or above the lower ones; rounding them down may cross
    # a lower bound, and then both raise LowerExceedsUpper
    ux = tuple(lo + data.draw(bounds) for lo in inst.Lx)
    uy = tuple(lo + data.draw(bounds) for lo in inst.Ly[:-1]) + (
        max(inst.Ly[-1], 1),)
    wide = replace(inst, Ux=ux, Uy=uy)
    params = fptas_params(wide, eps)
    assert repr(outcome(scale_trade_bounds, wide, params)) == repr(
        outcome(reference_scale_trade_bounds, wide, params))


@SETTINGS
@given(instances().filter(lambda inst: inst.variant is Variant.WP3),
       st.integers(1, 4), st.integers(1, 4), epsilons)
def test_fptas_matches_the_rounded_instance_route(inst, d, e, eps):
    # quantities over d and prices over e: fptas_solve's K, level width and
    # Solution or error, and the fptas op's outputs, equal those of solving
    # the Instance scale_trade_bounds rounds
    inst = _rescaled(inst, Fraction(1, d), Fraction(1, e))
    assert outcome(fptas_route, inst, eps) == outcome(reference_fptas, inst,
                                                      eps)
    with tempfile.TemporaryDirectory() as directory:
        assert fptas_cli_outputs(inst, eps, directory) == (
            reference_fptas_cli_outputs(inst, eps))


@SETTINGS
@given(st.integers(0, 6), st.lists(st.integers(0, 12), max_size=5),
       st.integers(1, 3))
def test_complementary_settled_plans_decompose(s0, path, d):
    # a stock path over d that returns to s0, each move one trade: the
    # walk pairs every unit, and the pairs rebuild the plan
    stocks = [Fraction(v, d) for v in path] + [s0]
    T = len(stocks)
    zero, wide = (0,) * T, (12,) * T
    inst = Instance(variant="wp3", T=T, s0=s0, Ls=zero, Us=wide, Lx=zero,
                    Ux=wide, Ly=zero, Uy=wide, revenue=zero, cost=zero,
                    holding=zero, fixed_purchase=zero, fixed_sale=zero)
    moves = [b - a for a, b in zip([s0] + stocks, stocks)]
    sol = assemble_solution(inst, [max(m, 0) for m in moves],
                            [max(-m, 0) for m in moves])
    flow = balanced_flow_decompose(inst, sol)
    assert all(amount > 0 and buy != sale for buy, sale, amount in flow.pairs)
    assert reassemble(inst, flow) == sol


def _fractional_copies(inst, L, M):
    """inst with quantities over L and prices over M, and for wp3 with a
    positive trade bound its fptas rounding at epsilon = 2/7 as well."""
    cases = [_rescaled(inst, Fraction(1, L), Fraction(1, M))]
    if inst.variant is Variant.WP3 and any(inst.Ux + inst.Uy):
        cases.append(scale_trade_bounds(inst, fptas_params(inst,
                                                           Fraction(2, 7))))
    return cases


@SETTINGS
@given(instances(), st.integers(2, 6), st.integers(1, 4), st.integers(1, 3))
def test_scale_instance_matches_the_fraction_product(inst, L, M, k):
    # the rows searched at a multiple of F, type by type, against the
    # Fraction product, for wp2 on double_horizon of it
    for case in _fractional_copies(inst, L, M):
        factor = k * scale_factor(case)
        assert repr(searched(case, factor)) == repr(instance_rows(
            search_instance(reference_scale_instance(case, factor))))


@SETTINGS
@given(instances(), st.integers(2, 6), st.integers(1, 4))
def test_integral_instance_maps_the_objective_back_exactly(inst, L, M):
    # solve's objective, the DP's value over F*F, and its plan, divided
    # back by F, recompute alike on the data as given
    for case in _fractional_copies(inst, L, M):
        try:
            plan = solve(case)
        except Infeasible:
            continue
        expected = compute_objective(case, plan.x, plan.y, plan.s, plan.w,
                                     plan.z)
        assert plan.objective == expected
        assert type(plan.objective) is type(expected)
        assert check_solution(case, plan).feasible


# --- the CLI's input boundary ----------------------------------------------

# every error line echoes at most 40 characters of an input value, so a
# diagnostic stays under this many bytes however long the input
STDERR_LINE_LIMIT = 200

_INSTANCE_KEYS = ("variant", "T", "s0", "Ls", "Us", "Lx", "Ux", "Ly", "Uy",
                  "revenue", "cost", "holding", "fixed_purchase",
                  "fixed_sale", "extra")
_SOLUTION_KEYS = ("x", "y", "s", "w", "z", "objective", "extra")

_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10**60, 10**60),
        st.floats(), st.text(max_size=6),
        st.builds("{}/{}".format, st.integers(-10**9, 10**9),
                  st.integers(-2, 10**9)),
        st.sampled_from(["9" * 5000, "1/" + "9" * 5000, "1e999999999",
                         " 2 ", "wp1", "wp2", "wp3", "WP3", "wp9"]),
    ),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _edits(keys):
    """Edits of one JSON document: set or delete a key, set, drop or add a
    list item, or replace the whole document."""
    edit = st.tuples(
        st.sampled_from(("set", "delete", "item", "drop", "append", "root")),
        st.sampled_from(keys), st.integers(0, 9), _json_values)
    return st.lists(edit, max_size=3)


def _edited(doc, edits):
    for op, key, index, value in edits:
        if op == "root":
            doc = value
        elif not isinstance(doc, dict):
            continue
        elif op == "set":
            doc[key] = value
        elif op == "delete":
            doc.pop(key, None)
        elif isinstance(doc.get(key), list):
            vec = doc[key]
            if op == "append":
                vec.append(value)
            elif vec and op == "item":
                vec[index % len(vec)] = value
            elif vec and op == "drop":
                vec.pop()
    return doc


def _documents(seed, variant):
    inst = gen_random(seed, T=3, variant=variant, max_bound=9)
    try:
        sol = solve(inst)
    except Infeasible:
        sol = assemble_solution(inst, (0,) * 3, (0,) * 3)
    return (json.loads(serialize_instance(inst)),
            json.loads(serialize_solution(sol)))


_BASES = [_documents(seed, variant)
          for seed, variant in ((0, "wp1"), (1, "wp2"), (7, "wp3"))]


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True,
          database=None)
@given(st.sampled_from(range(len(_BASES))), _edits(_INSTANCE_KEYS),
       _edits(_SOLUTION_KEYS), st.none() | st.integers(0, 300))
def test_mutated_json_exits_cleanly(base, inst_edits, sol_edits, cut):
    inst_doc, sol_doc = copy.deepcopy(_BASES[base])
    inst_text = json.dumps(_edited(inst_doc, inst_edits))
    if cut is not None:
        inst_text = inst_text[:cut]
    sol_text = json.dumps(_edited(sol_doc, sol_edits))
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sol_path = Path(tmp) / "inst.json", Path(tmp) / "sol.json"
        inst_path.write_text(inst_text)
        sol_path.write_text(sol_text)
        source = ["--input", str(inst_path)]
        for argv in (["solve", *source], ["levels", *source],
                     ["fptas", *source, "--epsilon", "1/3"],
                     ["check", *source, "--solution", str(sol_path)]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert all(len(line.encode()) < STDERR_LINE_LIMIT
                       for line in err.getvalue().splitlines()), (
                argv, err.getvalue()[:300])


# --- the CLI's command table ------------------------------------------------

# "X" is an instance, "S" a plan of it and "D" a directory holding it; "O"
# and "P" are files a run may write.  Each is named relative to the
# directory a run starts in.
_FILE_TOKENS = {"X": "inst.json", "S": "plan.json", "D": "dir", "O": "o",
                "P": "p"}
_GOOD_VALUES = {"--input": "X", "--output": "O", "--dot": "P",
                "--epsilon": "1/3", "--solution": "S", "--dir": "D"}
_ODD_VALUES = ("X", "S", "D", "O", "1/3", "-", "-1", "", "--input", "x y")
_ODD_TOKENS = ("-h", "--help", "--", "--input=inst.json", "--output=o",
               "--inp", "--bogus", "X", "-")
_DATA = Path(__file__).parent / "data"


@st.composite
def _argvs(draw):
    """A command, then flag and value pairs, mostly of the command's own
    flags, half the time starting from the flags it requires, each value
    the one its flag needs three times in four, with odd tokens slipped
    in."""
    command = draw(st.sampled_from(
        (*cli._COMMANDS, "gen", "reduce", "no-such-command", "-h")))
    _, _, options, required = cli._COMMANDS.get(command, (None, None, {}, ()))
    flag = st.sampled_from(tuple(_GOOD_VALUES))
    if options:
        flag = st.sampled_from(tuple(options)) | flag
    names = list(required) * draw(st.booleans())
    names = draw(st.permutations(names + draw(st.lists(flag, max_size=3))))
    argv = [command]
    for name in names:
        odd = draw(st.integers(0, 3)) == 0
        argv += [name, draw(st.sampled_from(_ODD_VALUES)) if odd
                 else _GOOD_VALUES[name]]
    for _ in range(draw(st.integers(0, 2)) * draw(st.booleans())):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(_ODD_TOKENS)))
    return argv


def _plain_form(argv) -> bool:
    """Whether argv is a table command followed by pairs of its own flags,
    none repeated, each with a value that is not empty and does not start
    with '-', naming every flag the command requires."""
    if not argv or argv[0] not in cli._COMMANDS:
        return False
    _, _, options, required = cli._COMMANDS[argv[0]]
    flags, values = argv[1::2], argv[2::2]
    return (len(flags) == len(values) and len(set(flags)) == len(flags)
            and set(flags) <= set(options) and set(required) <= set(flags)
            and all(v and not v.startswith("-") for v in values))


def _run_in(root: Path, argv) -> tuple:
    """run(argv) in root on fresh input files: its exit code, stdout,
    stderr and every file in root afterwards, bench's wall_ms column
    masked.  A value such as "x y" or "-" names a file in root."""

    def masked(text):
        return re.sub(r",[0-9]+\.[0-9]{3}$", ",wall_ms", text, flags=re.M)

    shutil.rmtree(root, ignore_errors=True)
    (root / "dir").mkdir(parents=True)
    for name in ("inst.json", "dir/inst.json"):
        shutil.copy(_DATA / "fptas_third.json", root / name)
    shutil.copy(_DATA / "fptas_third.solution.json", root / "plan.json")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    files = {str(p.relative_to(root)): masked(p.read_text())
             for p in sorted(root.rglob("*")) if p.is_file()}
    return code, masked(out.getvalue()), err.getvalue(), files


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_the_command_table_reads_what_argparse_reads(argv):
    """The table reads exactly the plain argvs, each into the namespace
    the argument parser gives but for its command, and run answers every
    argv alike with the table turned off."""
    argv = [_FILE_TOKENS.get(a, a) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "work"
        args = cli._plain(argv)
        assert (args is not None) == _plain_form(argv)
        if args is not None:
            parsed = vars(cli._build_parser().parse_args(argv))
            assert parsed.pop("command") == argv[0]
            assert vars(args) == parsed
        tabled = _run_in(root, argv)
        with mock.patch.object(cli, "_plain", lambda argv: None):
            assert _run_in(root, argv) == tabled


# --- the data model's whole-vector paths ------------------------------------

# s0 and the stock bounds drawn more often: wp3 checks s0 against both
_planted_edits = st.lists(st.tuples(
    st.sampled_from(("s0", "s0", "Ls", "Us") + _VECTOR_FIELDS),
    st.integers(0, 3),
    st.sampled_from(PLANTED + ("append", "drop")) | st.integers(-3, 9)
    | st.fractions(-3, 9, max_denominator=4)), min_size=1, max_size=2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances(), _planted_edits)
def test_validate_matches_the_period_loop_reference(inst, edits):
    fields = planted(inst, edits)
    built = outcome(Instance, **fields)
    assert (None if isinstance(built, Instance) else built) == outcome(
        reference_validate_instance, SimpleNamespace(**fields))


_vector_items = st.one_of(
    st.integers(-10**60, 10**60), st.sampled_from([-10**3999, 10**3999]),
    st.builds("{}/{}".format, st.integers(-10**9, 10**9),
              st.integers(-2, 10**9)),
    st.sampled_from(["7", "+7", "1e3", " 2 ", "0.5", "1/0", "x"]),
    st.text(max_size=4), st.floats(), st.booleans(), st.none(),
    st.fractions(), st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_vector_items, max_size=6)
       | st.lists(st.integers(-10**6, 10**6), max_size=6)
       | st.lists(st.integers(-99, 99) | st.builds(
           "{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
           max_size=6),
       st.sampled_from(range(len(_BASES))), st.sampled_from(_VECTOR_FIELDS))
def test_vector_paths_match_the_value_by_value_references(vec, base, name):
    """exact_vector, the instance JSON reader and the solution JSON writer
    give what their value-by-value versions give, each number of the same
    type, or the same error; serialize_instance and serialize_solution
    write the value-by-value bytes."""
    for values in (vec, tuple(vec)):
        converted = outcome(exact_vector, values)
        assert typed(converted) == typed(outcome(reference_exact_vector,
                                                 values))
    doc = dict(_BASES[base][0], **{name: vec})
    inst = outcome(_from_json_dict, Instance, doc, "instance")
    assert typed(inst) == typed(outcome(reference_instance_from_json_dict,
                                        doc))
    if isinstance(inst, Instance):
        by_value = {"variant": inst.variant.value, "T": inst.T,
                    "s0": format_exact(inst.s0),
                    **{field: [format_exact(v) for v in getattr(inst, field)]
                       for field in _VECTOR_FIELDS}}
        assert serialize_instance(inst) == reference_dump(by_value)
    if not isinstance(converted, Raised):
        sol = Solution(x=converted, y=converted[::-1], s=converted,
                       w=converted, z=converted, objective=sum(converted))
        expected = reference_solution_to_json_dict(sol)
        assert typed(_to_json_dict(sol)) == typed(expected)
        assert serialize_solution(sol) == reference_dump(expected)


@SETTINGS
@given(st.data())
def test_flat_writers_write_the_pure_python_encoders_bytes(data):
    # negative, 400-digit and "p/q" numbers, T from 0 (empty vectors) to 3;
    # such instances fail validation, so they reach the writer as payloads
    inst, sol, ls = flat_payloads(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert _dump_flat(inst) == reference_dump(inst)
    assert serialize_solution(sol) == reference_dump(_to_json_dict(sol))
    assert _dump_flat(ls) == reference_dump(ls)


# ints of either sign, 31-digit ones among them, and Fractions
_numbers = st.integers(-10**30, 10**30) | st.fractions(max_denominator=50)
_amounts = st.integers(0, 10**30) | st.fractions(0, max_denominator=50)


@st.composite
def plans(draw):
    T = draw(st.integers(0, 4))
    vector = st.lists(_numbers, min_size=T, max_size=T).map(tuple)
    return Solution(*(draw(vector) for _ in range(5)),
                    objective=draw(_numbers))


@st.composite
def lotsizings(draw):
    T = draw(st.integers(1, 4))
    vector = st.lists(_amounts, min_size=T, max_size=T).map(tuple)
    return LotSizingInstance(T, draw(_amounts),
                             *(draw(vector) for _ in range(5)))


@SETTINGS
@given(instances(), st.integers(1, 4), plans(), lotsizings())
def test_every_record_round_trips_through_its_file(inst, d, sol, ls):
    # repr tells an int from a Fraction, so each number keeps its type
    for record, parse, serialize in (
            (fractional_payoffs(inst, d), parse_instance, serialize_instance),
            (sol, parse_solution, serialize_solution),
            (ls, parse_lotsizing, serialize_lotsizing)):
        again = parse(serialize(record))
        assert again == record and repr(again) == repr(record)
