"""Shared kernels: summation, Bernoulli numbers, roots, quadrature."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetacross.errors import AccuracyError, SearchError
from zetacross.numerics import (
    adaptive_quadrature,
    bisect_root,
    even_bernoulli,
    expand_bracket,
    gk15_panel,
    neumaier_sum,
)

from oracles import NeumaierSum, bernoulli_reference


def test_neumaier_recovers_cancellation():
    # 1 + 1e100 - 1e100 + ... ordering that defeats naive summation
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert neumaier_sum([]) == 0.0


_SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@given(st.lists(st.one_of(_SUMMANDS.map(lambda x: [x]), _SUMMANDS.map(lambda x: [x, -x])))
       .map(lambda parts: [x for part in parts for x in part]))
def test_neumaier_sum_matches_the_running_sum_bit_for_bit(xs):
    # cancelling pairs, signed zeros, subnormals and overflow to inf or
    # nan all round as the running accumulator does
    ref = NeumaierSum()
    for x in xs:
        ref.add(x)
    assert struct.pack("<d", neumaier_sum(xs)) == struct.pack("<d", ref.value)


def test_bernoulli_values():
    b = even_bernoulli(15)  # B_2, B_4, ..., B_30
    assert b[0] == Fraction(1, 6)
    assert b[5] == Fraction(-691, 2730)
    assert b[14] == Fraction(8615841276005, 14322)


def test_bernoulli_matches_the_fraction_recurrence_exactly():
    # the tangent-number route gives the recurrence's B_2 .. B_60 exactly,
    # so the float tables rounded from them keep every bit
    assert even_bernoulli(30) == bernoulli_reference(60)[2::2]


def test_bisect_and_newton():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)
    with pytest.raises(SearchError):
        bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_expand_bracket():
    lo, hi = expand_bracket(lambda x: x - 40.0, 1.0, 2.0)
    assert lo < 40.0 <= hi
    # a zero at lo is a bracket end, and bisection returns it
    lo, hi = expand_bracket(lambda x: x - 1.0, 1.0, 2.0)
    assert (lo, hi) == (1.0, 2.0)
    assert bisect_root(lambda x: x - 1.0, lo, hi) == 1.0
    # the cap is fixed: 60 widenings (hi reaches 2 * 1.5^60) after the
    # two end evaluations, then a typed error
    calls = []
    with pytest.raises(SearchError, match="after 60 expansions"):
        expand_bracket(lambda x: calls.append(x) or 1.0, 1.0, 2.0)
    assert len(calls) == 62
    assert calls[-1] == pytest.approx(2.0 * 1.5 ** 60)


def test_gk15_degree_exactness():
    # the embedded 7-point rule is exact to degree 13, the 15-point
    # extension beyond; an even power near the top is a sharp probe
    val, err = gk15_panel(lambda x: x ** 12, -1.0, 1.0)
    assert val == pytest.approx(2.0 / 13.0, rel=1e-14)
    assert err < 1e-13


def test_adaptive_quadrature_known_integrals():
    got = adaptive_quadrature(math.sin, 0.0, math.pi, 1e-12)
    assert got == pytest.approx(2.0, rel=1e-12)
    got = adaptive_quadrature(lambda x: math.exp(-x * x), -6.0, 6.0, 1e-12)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_adaptive_quadrature_additive():
    f = lambda x: math.cos(3.0 * x) ** 2 / (1.0 + x * x)
    whole = adaptive_quadrature(f, 0.0, 8.0, 1e-11)
    parts = adaptive_quadrature(f, 0.0, 3.0, 1e-11) + adaptive_quadrature(f, 3.0, 8.0, 1e-11)
    assert abs(whole - parts) <= 2e-11 * abs(whole)


def test_adaptive_quadrature_depth_cap():
    # a genuinely nasty integrand at a tiny depth cap must raise and
    # carry its achieved estimate
    f = lambda x: math.sqrt(abs(x - 0.123456)) * math.sin(50.0 / (x + 0.01))
    with pytest.raises(AccuracyError) as exc:
        adaptive_quadrature(f, 0.0, 1.0, 1e-13, max_depth=2)
    # the achieved value is the error estimate the message reports
    assert f"error estimate {exc.value.achieved:.3e}" in str(exc.value)
    assert exc.value.stage == "quadrature"
    assert exc.value.achieved > exc.value.bound > 0.0


def test_adaptive_quadrature_depth_cap_rejects_nan():
    # sqrt makes the panels at 0 split to the depth cap; NaN below 1e-16
    # is seen only by those at depth 46 and deeper, so the capped panel
    # carries a NaN value: the mean must fail the gate, not return NaN
    def f(x):
        return math.nan if x < 1e-16 else math.sqrt(x)

    with pytest.raises(AccuracyError, match="depth cap") as exc:
        adaptive_quadrature(f, 0.0, 1.0, 1e-11)
    assert math.isnan(exc.value.achieved)
    assert exc.value.stage == "quadrature"


def test_adaptive_quadrature_width_floor_rejects_nan():
    # near x = 63 the panels at the kink reach the width floor near depth
    # 44, before the depth cap; NaN on [63.3, 63.3 + 1e-13] is seen only by
    # those panels, so the floor accepts a NaN panel: the mean must fail
    # the gate, not return NaN. Without the NaN the kink still converges.
    def f(x):
        return math.nan if 63.3 <= x <= 63.3 + 1e-13 else math.sqrt(abs(x - 63.3))

    with pytest.raises(AccuracyError, match="width floor") as exc:
        adaptive_quadrature(f, 63.0, 64.0, 1e-11)
    assert math.isnan(exc.value.achieved)
    assert exc.value.stage == "quadrature"
    kink = adaptive_quadrature(lambda x: math.sqrt(abs(x - 63.3)), 63.0, 64.0, 1e-11)
    assert kink == 0.49998585721693595
