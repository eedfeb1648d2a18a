import itertools
from fractions import Fraction

import pytest

from wareflow import (
    EmptyInput,
    Infeasible,
    InvalidArgument,
    LotSizingInstance,
    NonIntegralData,
    Variant,
    check_solution,
    gen_random,
    parse_lotsizing,
    reduce_lotsizing,
    reduce_partition,
    serialize_instance,
    serialize_lotsizing,
    solve,
    validate_instance,
    validate_lotsizing,
)
from helpers import brute_lotsizing, has_balanced_split


def restocking_example() -> LotSizingInstance:
    return LotSizingInstance(
        T=2, s0=1, demand=(1, 1), unit_cost=(1, 1), fixed_cost=(3, 3),
        Ux=(2, 2), Us=(2, 2),
    )


def test_lotsizing_reduction_recovers_cheapest_plan():
    ls = restocking_example()
    inst, M = reduce_lotsizing(ls)
    assert M == 11
    assert inst.variant is Variant.WP2
    best_cost, best_x, _ = brute_lotsizing(ls)
    assert best_cost == 4 and best_x == (1, 0)

    sol = solve(inst)
    total_demand = sum(ls.demand)
    assert sol.objective == M * total_demand - best_cost == 18
    assert sol.y == ls.demand
    extracted = sum(
        ls.unit_cost[t] * sol.x[t] + ls.fixed_cost[t] * sol.w[t]
        for t in range(ls.T)
    )
    assert extracted == best_cost


def test_lotsizing_zero_demand_is_free():
    ls = LotSizingInstance(
        T=2, s0=0, demand=(0, 0), unit_cost=(2, 2), fixed_cost=(5, 5),
        Ux=(3, 3), Us=(3, 3),
    )
    inst, M = reduce_lotsizing(ls)
    assert brute_lotsizing(ls)[0] == 0
    assert solve(inst).objective == 0


def test_lotsizing_infeasible_demand_caps_the_objective():
    # the first demand cannot be served from an empty opening stock
    ls = LotSizingInstance(
        T=2, s0=0, demand=(1, 0), unit_cost=(1, 1), fixed_cost=(1, 1),
        Ux=(2, 2), Us=(2, 2),
    )
    inst, M = reduce_lotsizing(ls)
    assert brute_lotsizing(ls) is None
    assert solve(inst).objective <= M * (sum(ls.demand) - 1)


def test_lotsizing_reduction_requires_integers():
    ls = LotSizingInstance(
        T=1, s0=Fraction(1, 2), demand=(0,), unit_cost=(1,), fixed_cost=(1,),
        Ux=(1,), Us=(1,),
    )
    with pytest.raises(NonIntegralData):
        reduce_lotsizing(ls)


def test_lotsizing_validation():
    good = restocking_example()
    validate_lotsizing(good)
    with pytest.raises(InvalidArgument):
        validate_lotsizing(LotSizingInstance(
            T=0, s0=0, demand=(), unit_cost=(), fixed_cost=(), Ux=(), Us=()))
    with pytest.raises(InvalidArgument):
        validate_lotsizing(LotSizingInstance(
            T=2, s0=0, demand=(1,), unit_cost=(1, 1), fixed_cost=(1, 1),
            Ux=(1, 1), Us=(1, 1)))
    with pytest.raises(InvalidArgument):
        validate_lotsizing(LotSizingInstance(
            T=1, s0=0, demand=(-1,), unit_cost=(1,), fixed_cost=(1,),
            Ux=(1,), Us=(1,)))


@pytest.mark.parametrize("T", [True, 1.0, 1.5, "1"])
def test_lotsizing_refuses_a_T_that_is_not_an_int(T):
    # a one-period vector has length 1 == True == 1.0, so the length check
    # of validate_lotsizing cannot catch these
    with pytest.raises(TypeError, match=f"^T must be an int, got {T!r}$"):
        LotSizingInstance(T=T, s0=0, demand=(1,), unit_cost=(1,),
                          fixed_cost=(0,), Ux=(2,), Us=(3,))


def test_lotsizing_json_roundtrip():
    ls = restocking_example()
    assert parse_lotsizing(serialize_lotsizing(ls)) == ls
    with pytest.raises(InvalidArgument):
        parse_lotsizing("{ not json")
    with pytest.raises(InvalidArgument):
        parse_lotsizing('{"T": 1}')


def test_partition_balanced_hits_target():
    inst, target = reduce_partition([1, 2, 3])
    assert target == 9
    assert inst.T == 4 and inst.s0 == 6
    assert inst.Ux == (1, 2, 3, 0) and inst.Uy == (1, 2, 3, 6)
    assert solve(inst).objective == target


def test_partition_unbalanced_falls_short():
    for entries, target in (([1, 1, 3], Fraction(15, 2)), ([2], 3)):
        inst, computed = reduce_partition(entries)
        assert computed == target
        assert solve(inst).objective < target


def test_partition_rejects_bad_input():
    with pytest.raises(EmptyInput):
        reduce_partition([])
    for bad in ([0], [-2], [Fraction(1, 2)], [True], [1, "2"]):
        with pytest.raises(InvalidArgument):
            reduce_partition(bad)


def test_partition_target_iff_balanced_split():
    small = []
    for n in range(1, 5):
        small += [list(c) for c in
                  itertools.combinations_with_replacement(range(1, 5), n)]
    assert len(small) > 60
    for entries in small:
        inst, target = reduce_partition(entries)
        objective = solve(inst).objective
        if has_balanced_split(entries):
            assert objective == target, entries
        else:
            assert objective < target, entries


def test_partition_ratio_lift():
    # adding the total to every entry bounds the spread by a factor of two
    # without changing which equal-size splits balance
    a = [1, 2, 1, 2]
    lifted = [v + sum(a) for v in a]
    assert lifted == [7, 8, 7, 8]
    assert max(lifted) <= 2 * min(lifted)
    assert has_balanced_split(lifted)
    inst, target = reduce_partition(lifted)
    assert target == 45
    assert solve(inst).objective == 45

    odd = [1, 1, 1]
    lifted_odd = [v + sum(odd) for v in odd]
    assert not has_balanced_split(lifted_odd)
    inst, target = reduce_partition(lifted_odd)
    assert solve(inst).objective < target


def test_gen_random_is_deterministic():
    for seed in (0, 9, 77):
        first = gen_random(seed, T=3, variant="wp1", max_bound=6)
        second = gen_random(seed, T=3, variant="wp1", max_bound=6)
        assert serialize_instance(first) == serialize_instance(second)
    texts = {serialize_instance(gen_random(s, T=3, variant="wp1", max_bound=6))
             for s in range(8)}
    assert len(texts) > 1


def test_gen_random_zero_bound_is_all_zero():
    inst = gen_random(5, T=2, variant="wp2", max_bound=0)
    assert inst.s0 == 0
    for name in ("Ls", "Us", "Lx", "Ux", "Ly", "Uy",
                 "revenue", "cost", "holding"):
        assert getattr(inst, name) == (0, 0), name


def test_gen_random_always_validates():
    count = 0
    for seed in range(120):
        for variant in ("wp1", "wp2", "wp3"):
            for max_bound in (0, 1, 4, 9):
                inst = gen_random(seed, T=1 + seed % 4, variant=variant,
                                  max_bound=max_bound)
                validate_instance(inst)
                assert inst.variant is Variant(variant)
                count += 1
    assert count == 120 * 3 * 4


def test_gen_random_rejects_bad_arguments():
    with pytest.raises(InvalidArgument):
        gen_random(0, T=0, variant="wp1", max_bound=3)
    with pytest.raises(InvalidArgument):
        gen_random(0, T=2, variant="wp1", max_bound=-1)
    with pytest.raises(ValueError, match="^unknown variant: 'wp9'$"):
        gen_random(0, T=2, variant="wp9", max_bound=3)


def test_gen_random_reads_the_variant_as_instance_does():
    # any case, as Instance(variant=...) reads it
    for given, name in (("WP1", "wp1"), ("Wp2", "wp2"), (Variant.WP3, "wp3")):
        inst = gen_random(3, T=2, variant=given, max_bound=5)
        assert inst == gen_random(3, T=2, variant=name, max_bound=5)
        assert inst.variant is Variant(name)


def test_gen_random_solutions_check_out():
    solved = 0
    for seed in range(40):
        variant = ("wp1", "wp2", "wp3")[seed % 3]
        inst = gen_random(seed, T=2 + seed % 2, variant=variant, max_bound=4)
        try:
            sol = solve(inst)
        except Infeasible:
            continue
        assert check_solution(inst, sol).feasible
        solved += 1
    assert solved >= 20
