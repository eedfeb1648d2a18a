import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from wareflow import (
    FeasibilityReport,
    Infeasible,
    Instance,
    InvalidArgument,
    LotSizingInstance,
    LowerExceedsUpper,
    NegativeBound,
    PeriodOutOfRange,
    Solution,
    WP3ShapeViolation,
    WrongVectorLength,
    assemble_solution,
    check_solution,
    compute_objective,
    evaluate_payoff,
    exact,
    format_exact,
    fptas_params,
    fptas_solve,
    gen_random,
    integral_instance,
    parse_exact,
    parse_instance,
    parse_solution,
    scale_instance,
    scale_trade_bounds,
    serialize_instance,
    serialize_lotsizing,
    serialize_solution,
    solve,
    validate_instance,
)
from wareflow.model import (
    _VECTOR_FIELDS,
    _dump_flat,
    _to_json_dict,
    scale_factor,
)
from wareflow.network import search_instance
from helpers import (
    PLANTED,
    flat_payloads,
    outcome,
    planted,
    reference_dump,
    reference_scale_instance,
    reference_validate_instance,
    solution_with,
    two_period_trade,
    wp2_mixed,
)


def tiny(variant="wp1", **overrides):
    fields = dict(
        variant=variant, T=1, s0=0,
        Ls=(0,), Us=(0,), Lx=(0,), Ux=(0,), Ly=(0,), Uy=(0,),
        revenue=(0,), cost=(0,), holding=(0,),
        fixed_purchase=(0,), fixed_sale=(0,),
    )
    fields.update(overrides)
    return Instance(**fields)


def test_validate_all_zero_ok():
    validate_instance(tiny())


@pytest.mark.parametrize("T", [1.9, True, "1", 1.0, Fraction(1)])
def test_instance_refuses_a_T_that_is_not_an_int(T):
    with pytest.raises(TypeError, match="T must be an int"):
        tiny(T=T)


def test_validate_matches_the_period_loop_reference():
    """One or two planted violations of every kind, in every variant:
    building the Instance raises the error the period-by-period loop
    validate_instance replaced raises, with the same message, or both
    pass."""
    rng = random.Random(24)
    seen = set()
    for seed in range(600):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        T = 1 + seed % 5
        fields = planted(gen_random(seed, T, variant, 9), [
            (rng.choice(("s0",) + _VECTOR_FIELDS), rng.randrange(T),
             rng.choice(PLANTED + ("append", "drop")))
            for _ in range(rng.randint(1, 2))])
        expected = outcome(reference_validate_instance,
                           SimpleNamespace(**fields))
        built = outcome(Instance, **fields)
        assert (None if isinstance(built, Instance) else built) == expected, (
            seed, fields)
        if expected is not None:
            # the error and the rule: "Ls" of "Ls[2] = -1 is negative"
            seen.add((expected.kind, re.match(r"(wp3 requires )?\w+",
                                              expected.message).group()))
    bounds = ("Ls", "Us", "Lx", "Ux", "Ly", "Uy")
    assert seen >= {
        *((NegativeBound, name)
          for name in ("s0",) + bounds + ("fixed_purchase", "fixed_sale")),
        *((LowerExceedsUpper, name) for name in ("Ls", "Lx", "Ly")),
        *((WP3ShapeViolation, f"wp3 requires {name}")
          for name in ("Lx", "Ly", "fixed_purchase", "fixed_sale",
                       "holding", "Ls")),
        *((WrongVectorLength, name) for name in _VECTOR_FIELDS),
    }, seen


def test_records_validate_themselves():
    # replace builds through __post_init__ too, so no invalid record exists
    with pytest.raises(LowerExceedsUpper) as err:
        replace(two_period_trade(), Lx=(3, 0), Ux=(1, 5))
    assert str(err.value) == "Lx[1] = 3 exceeds Ux[1] = 1"
    with pytest.raises(InvalidArgument, match="^s0 must be nonnegative$"):
        LotSizingInstance(T=1, s0=-1, demand=(0,), unit_cost=(0,),
                          fixed_cost=(0,), Ux=(0,), Us=(0,))


def test_validate_lower_exceeds_upper():
    with pytest.raises(LowerExceedsUpper):
        validate_instance(tiny(Lx=(3,), Ux=(2,)))


def test_validate_negative_bound():
    with pytest.raises(NegativeBound):
        validate_instance(tiny(Ls=(-1,), Us=(0,)))
    with pytest.raises(NegativeBound):
        validate_instance(tiny(s0=-1))


def test_validate_vector_length():
    with pytest.raises(WrongVectorLength):
        validate_instance(tiny(revenue=(1, 2)))
    # T = 0 is refused before any vector length is compared with it
    with pytest.raises(WrongVectorLength, match="^T must be positive, got 0$"):
        tiny(T=0)


def test_validate_wp3_shape():
    with pytest.raises(WP3ShapeViolation):
        validate_instance(tiny(variant="wp3", fixed_purchase=(1,)))
    with pytest.raises(WP3ShapeViolation):
        validate_instance(tiny(variant="wp3", Lx=(1,), Ux=(1,)))
    # s0 must sit inside every period's stock interval
    with pytest.raises(WP3ShapeViolation):
        validate_instance(tiny(variant="wp3", s0=1, Ls=(0,), Us=(0,)))
    validate_instance(tiny(variant="wp3"))


def test_validate_wp3_rejects_holding():
    # fptas_solve's (1 - epsilon) guarantee needs zero holding costs
    with pytest.raises(WP3ShapeViolation, match=r"holding\[1\]"):
        validate_instance(tiny("wp3", holding=(1,)))
    validate_instance(tiny("wp1", holding=(1,)))


def test_evaluate_payoff_values():
    inst = tiny(
        revenue=(3,), cost=(1,), holding=(0,),
        fixed_purchase=(2,), fixed_sale=(0,),
    )
    assert evaluate_payoff(inst, 1, x=0, y=5, s=0, w=0, z=1) == 15
    assert evaluate_payoff(tiny(), 1, x=7, y=9, s=3, w=1, z=1) == 0
    inst = tiny(revenue=(0,), cost=(1,), holding=(1,), fixed_purchase=(11,))
    assert evaluate_payoff(inst, 1, x=5, y=0, s=5, w=1, z=0) == -21


def test_evaluate_payoff_period_range():
    with pytest.raises(PeriodOutOfRange):
        evaluate_payoff(tiny(), 0, 0, 0, 0, 0, 0)
    with pytest.raises(PeriodOutOfRange):
        evaluate_payoff(tiny(), 2, 0, 0, 0, 0, 0)


def test_check_solution_feasible():
    inst = two_period_trade()
    sol = Solution(x=(5, 0), y=(0, 5), s=(5, 0), w=(1, 0), z=(0, 1),
                   objective=10)
    report = check_solution(inst, sol)
    assert report.feasible
    assert report.violations == ()


def test_check_complementarity_violation():
    inst = two_period_trade()
    sol = assemble_solution(inst, x=(1, 0), y=(1, 0))
    report = check_solution(inst, sol)
    names = [(v[0], v[1]) for v in report.violations]
    assert (1, "complementarity") in names


def test_check_wp2_sale_availability():
    inst = wp2_mixed()
    base = Instance(
        variant="wp2", T=2, s0=0,
        Ls=inst.Ls, Us=inst.Us, Lx=(0, 0), Ux=inst.Ux,
        Ly=inst.Ly, Uy=inst.Uy, revenue=inst.revenue, cost=inst.cost,
        holding=inst.holding, fixed_purchase=inst.fixed_purchase,
        fixed_sale=inst.fixed_sale,
    )
    sol = assemble_solution(base, x=(1, 0), y=(1, 0))
    report = check_solution(base, sol)
    names = [(v[0], v[1]) for v in report.violations]
    assert (1, "sale_availability") in names


def test_check_objective_mismatch():
    inst = two_period_trade()
    sol = solution_with(assemble_solution(inst, (5, 0), (0, 5)), objective=11)
    report = check_solution(inst, sol)
    assert not report.feasible
    assert any(v[1] == "objective" for v in report.violations)


def _bounded_trade():
    """wp1 with nonzero lower bounds on every side, and a feasible plan:
    buy 3 of [2, 4] in period 1, sell 2 of [1, 3] in period 2."""
    inst = Instance(
        variant="wp1", T=2, s0=2,
        Ls=(1, 1), Us=(6, 6), Lx=(2, 2), Ux=(4, 4), Ly=(1, 1), Uy=(3, 3),
        revenue=(2, 5), cost=(1, 3), holding=(0, 1),
        fixed_purchase=(1, 0), fixed_sale=(0, 1),
    )
    return inst, assemble_solution(inst, x=(3, 0), y=(0, 2))


_TAMPERED = [
    ("z", (0, 2), (2, "z_binary", 2, 1)),
    ("s", (5, 4), (2, "flow_balance", 4, 3)),
    ("s", (0, 3), (1, "stock_lower", 0, 1)),
    ("s", (7, 3), (1, "stock_upper", 7, 6)),
    ("x", (1, 0), (1, "purchase_lower", 1, 2)),
    ("w", (1, 1), (2, "purchase_lower", 0, 2)),
    ("x", (5, 0), (1, "purchase_upper", 5, 4)),
    ("w", (0, 0), (1, "purchase_upper", 3, 0)),
    ("y", (0, Fraction(1, 2)), (2, "sale_lower", Fraction(1, 2), 1)),
    ("z", (1, 1), (1, "sale_lower", 0, 1)),
    ("y", (0, 4), (2, "sale_upper", 4, 3)),
    ("z", (0, 0), (2, "sale_upper", 2, 0)),
]


@pytest.mark.parametrize("field, value, violation", _TAMPERED,
                         ids=[f"{v[1]}-{f}" for f, _, v in _TAMPERED])
def test_check_reports_each_tampered_rule(field, value, violation):
    inst, sol = _bounded_trade()
    assert check_solution(inst, sol).violations == ()
    report = check_solution(inst, solution_with(sol, **{field: value}))
    rule = violation[1]
    assert [v for v in report.violations if v[1] == rule] == [violation]


def test_report_flag_matches_violations():
    # the flag is read off the violations, so the two cannot disagree
    assert FeasibilityReport(violations=()).feasible
    report = FeasibilityReport(violations=((1, "x", 0, 1),))
    assert not report.feasible
    assert report.to_json_dict()["feasible"] is False
    with pytest.raises(TypeError):
        FeasibilityReport(feasible=True, violations=((1, "x", 0, 1),))


def test_exact_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        exact(1.5)
    with pytest.raises(TypeError):
        exact(True)
    assert exact(Fraction(4, 2)) == 2
    assert isinstance(exact(Fraction(4, 2)), int)


def test_exact_returns_ints_and_reduced_fractions_as_they_are():
    third = Fraction(2, 6)
    assert exact(third) is third and third == Fraction(1, 3)
    big = 10**40 + 1
    assert exact(big) is big
    assert exact(-Fraction(6, 3)) == -2 and type(exact(-Fraction(6, 3))) is int
    assert exact("6/4") == Fraction(3, 2) and exact("8/4") == 2
    for bad in (False, 2.0, float("nan")):
        with pytest.raises(TypeError):
            exact(bad)


def test_format_parse_exact():
    assert format_exact(Fraction(3, 4)) == "3/4"
    assert format_exact(7) == 7
    assert parse_exact("3/4") == Fraction(3, 4)
    assert parse_exact(-2) == -2
    with pytest.raises(ValueError):
        parse_exact("abc/def")
    with pytest.raises(ValueError):
        parse_exact(True)


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-7", -7), ("+7", 7), ("0", 0), ("6/4", Fraction(3, 2)),
    ("-3/4", Fraction(-3, 4)), ("8/2", 4), ("0007/010", Fraction(7, 10)),
])
def test_parse_exact_reads_the_documented_grammar(text, value):
    parsed = parse_exact(text)
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize("text", [
    "2.5", "1e3", "1E3", "1_000", " 2 ", "2\n", "1/0", "3/-4", "-3/+4",
    "1/2/3", "/2", "2/", "", "+", "inf", "nan", "\u0663",
    "1e999999999", "9" * 5000, "1/" + "9" * 5000,
])
def test_parse_exact_rejects_everything_else(text):
    # an exponent would make Fraction build 10**e; past the int-string
    # digit limit a long literal is refused as well.  exact reads strings
    # by the same grammar
    for read in (parse_exact, exact):
        with pytest.raises(ValueError, match="not a rational literal") as err:
            read(text)
        # the message echoes at most 40 characters of the literal
        assert len(str(err.value)) < 100


def test_error_messages_echo_long_values_cut_short():
    text = "9" * 5000
    with pytest.raises(ValueError) as err:
        parse_exact(text)
    assert str(err.value) == (
        f"not a rational literal: '{'9' * 39}... (5002 characters)")
    with pytest.raises(ValueError) as err:
        parse_exact(["x" * 500])
    assert str(err.value) == ("expected integer or 'p/q' string, got "
                              f"['{'x' * 38}... (504 characters)")
    # a number that validation echoes is cut the same way
    huge = 10**3999
    with pytest.raises(LowerExceedsUpper) as err:
        tiny(Ls=(huge,), Us=(1,))
    assert str(err.value) == (
        f"Ls[1] = 1{'0' * 39}... (4000 characters) exceeds Us[1] = 1")
    assert str(Fraction(1, 3)) in str(
        pytest.raises(NegativeBound, tiny, s0=Fraction(-1, 3)).value)


def test_assemble_solution_minimal_indicators():
    inst = two_period_trade()
    sol = assemble_solution(inst, x=(5, 0), y=(0, 5))
    assert sol.w == (1, 0)
    assert sol.z == (0, 1)
    assert sol.s == (5, 0)
    assert sol.objective == 10
    assert sol.objective == compute_objective(inst, sol.x, sol.y, sol.s,
                                              sol.w, sol.z)


@pytest.mark.parametrize("x, y", [((5,), (0, 5)), ((5, 0), (0, 5, 0))])
def test_assemble_solution_refuses_vectors_of_the_wrong_length(x, y):
    with pytest.raises(WrongVectorLength, match="^x and y must have length T$"):
        assemble_solution(two_period_trade(), x, y)


def test_instance_roundtrip_seeded():
    for seed in range(30):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=1 + seed % 4, variant=variant, max_bound=9)
        again = parse_instance(serialize_instance(inst))
        assert again == inst


def test_instance_roundtrip_fractions():
    inst = tiny(s0=Fraction(1, 3), Us=(Fraction(2, 3),),
                revenue=(Fraction(-1, 7),))
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    assert again.s0 == Fraction(1, 3)


def test_solution_roundtrip():
    inst = two_period_trade()
    sol = assemble_solution(inst, (5, 0), (0, 5))
    assert parse_solution(serialize_solution(sol)) == sol


DATA = Path(__file__).parent / "data"


def test_flat_writers_write_the_pure_python_encoders_bytes_seeded():
    rng = random.Random(28)
    # T = 0 and negative numbers fail validation, so they reach the
    # writer as payloads; valid records go through the serializers
    empty = {"variant": "wp1", "T": 0, "s0": 0,
             **{name: [] for name in _VECTOR_FIELDS}}
    payloads, instances, plans, lotsizings = [empty], [], [], []
    for seed in range(24):
        inst, sol, ls = flat_payloads(rng.randint)
        payloads += [inst, ls]
        plans.append(sol)
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=1 + seed % 4, variant=variant, max_bound=9)
        instances.append(inst)
        lotsizings.append(LotSizingInstance(
            T=inst.T, s0=inst.s0, demand=inst.Uy, unit_cost=inst.Lx,
            fixed_cost=inst.fixed_purchase, Ux=inst.Ux, Us=inst.Us))
        try:
            plans.append(solve(inst))
            if variant == "wp2":  # a plan of the doubled horizon
                plans.append(solve(search_instance(inst)))
            if variant == "wp3":
                plans.append(fptas_solve(inst, Fraction(1, 3)))
        except Infeasible:
            pass
    assert any(inst.T == 1 for inst in instances)
    assert any(len(sol.s) == 8 for sol in plans)  # a doubled T = 4 plan
    for payload in payloads:
        assert _dump_flat(payload) == reference_dump(payload)
    for inst in instances:
        assert serialize_instance(inst) == reference_dump(_to_json_dict(inst))
    for sol in plans:
        assert serialize_solution(sol) == reference_dump(_to_json_dict(sol))
    for ls in lotsizings:
        assert serialize_lotsizing(ls) == reference_dump(_to_json_dict(ls))


_INSTANCE_FILE = (parse_instance, serialize_instance)


@pytest.mark.parametrize("name, reader, writer", [
    ("fptas_third.json", *_INSTANCE_FILE),
    ("two_period_trade.json", *_INSTANCE_FILE),
    ("wp2_mixed.json", *_INSTANCE_FILE),
    ("fptas_third.solution.json", parse_solution, serialize_solution),
])
def test_data_files_round_trip_through_the_flat_writer(name, reader, writer):
    # the data files that are already in the written form, the golden
    # FPTAS plan among them
    text = (DATA / name).read_text()
    value = reader(text)
    assert writer(value) == text == reference_dump(_to_json_dict(value))


def test_parse_instance_rejects_garbage():
    with pytest.raises(ValueError):
        parse_instance("not json")
    with pytest.raises(ValueError):
        parse_instance('{"variant": "wp1"}')
    good = serialize_instance(two_period_trade())
    with pytest.raises(ValueError):
        parse_instance(good.replace('"wp1"', '"wp9"'))


def test_no_floats_survive_construction():
    rng = random.Random(5)
    for _ in range(20):
        inst = gen_random(rng.randint(0, 10**6), T=3, variant="wp1",
                          max_bound=6)
        values = [inst.s0, *inst.Ls, *inst.Us, *inst.revenue, *inst.cost]
        assert all(isinstance(v, (int, Fraction)) for v in values)


def test_integral_instance_returns_integer_data_unchanged():
    inst = gen_random(3, 5, "wp2", 9)
    same, back = integral_instance(inst)
    assert same is inst
    sol = assemble_solution(inst, (0,) * 5, (0,) * 5)
    assert back(sol) is sol


def test_integral_instance_scales_by_one_factor():
    inst = Instance(
        variant="wp1", T=2, s0=Fraction(1, 2),
        Ls=(0, 0), Us=(3, Fraction(7, 3)), Lx=(0, 0), Ux=(1, 1),
        Ly=(0, 0), Uy=(Fraction(2, 3), 1),
        revenue=(Fraction(3, 5), 2), cost=(1, 1), holding=(0, 1),
        fixed_purchase=(Fraction(1, 2), 0), fixed_sale=(0, 1),
    )
    scaled, back = integral_instance(inst)
    # F = lcm(2, 3, 5) = 30 over every datum; the fixed costs take F*F = 900
    assert scaled == scale_instance(inst, 30)
    assert scaled.s0 == 15 and scaled.Us == (90, 70) and scaled.Uy == (20, 30)
    assert scaled.revenue == (18, 60) and scaled.holding == (0, 30)
    assert scaled.fixed_purchase == (450, 0) and scaled.fixed_sale == (0, 900)
    numbers = serialize_instance(scaled)
    assert "/" not in numbers  # every number is an integer
    plan = assemble_solution(inst, (1, 0), (0, Fraction(2, 3)))
    image = assemble_solution(scaled, (30, 0), (0, 20))
    assert image.objective == 900 * plan.objective
    assert repr(back(image)) == repr(plan)


def _fractional_cases():
    """Instances with s0 and the bounds over 3, the prices over 2 and the
    fixed costs over 5, and fptas-rounded wp3 instances with K = 2/7 of
    an odd U_min; the data of each keeps its shape and validity."""
    cases = []
    for seed in range(30):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 4, variant=variant, max_bound=9)
        cases.append(replace(inst, s0=Fraction(inst.s0, 3), **{
            name: tuple(Fraction(v, d) for v in getattr(inst, name))
            for names, d in ((("Ls", "Us", "Lx", "Ux", "Ly", "Uy"), 3),
                             (("revenue", "cost", "holding"), 2),
                             (("fixed_purchase", "fixed_sale"), 5))
            for name in names}))
        if variant == "wp3":
            cases.append(scale_trade_bounds(
                inst, fptas_params(inst, Fraction(2, 7))))
    assert sum(not inst.bounds_integral() for inst in cases) > 30
    return cases


def test_scale_instance_matches_the_fraction_product():
    # numerator times (factor // denominator) against the Fraction product,
    # field by field and type by type, at F and at a multiple of F
    for inst in _fractional_cases():
        F = scale_factor(inst)
        for factor in (F, 4 * F):
            assert repr(scale_instance(inst, factor)) == repr(
                reference_scale_instance(inst, factor))
    with pytest.raises(ValueError, match="leaves 1/3 fractional"):
        scale_instance(tiny(s0=Fraction(1, 3)), 2)


def test_integral_instance_maps_the_objective_back_exactly():
    # the searched plan's objective over F*F is the plan's objective on
    # the original data
    solved = 0
    for inst in _fractional_cases():
        base = search_instance(inst)
        searched, back = integral_instance(base)
        assert searched is not base
        try:
            image = solve(searched)
        except Infeasible:
            continue
        plan = back(image)
        expected = compute_objective(base, plan.x, plan.y, plan.s, plan.w,
                                     plan.z)
        assert plan.objective == expected
        assert type(plan.objective) is type(expected)
        assert check_solution(base, plan).feasible
        solved += 1
    assert solved > 20
