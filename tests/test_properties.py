"""Property tests on small generated instances of every variant."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from wareflow import (  # noqa: E402
    Infeasible,
    Instance,
    gen_stock_levels,
    oracle_solve,
    solve,
)
from helpers import reference_stock_levels  # noqa: E402

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
@given(instances())
def test_levels_are_subsets_of_the_unclipped_levels(inst):
    new = gen_stock_levels(inst).levels
    old = reference_stock_levels(inst).levels
    assert len(new) == len(old)
    for layer, ref in zip(new, old):
        assert set(layer) <= set(ref)
