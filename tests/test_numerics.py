"""Shared kernels: Bernoulli numbers, roots, quadrature."""

import math
from fractions import Fraction

import pytest

from zetacross.errors import AccuracyError, SearchError
from zetacross.numerics import (
    adaptive_quadrature,
    bisect_root,
    even_bernoulli,
    expand_bracket,
    gk15_panel,
)

from oracles import bernoulli_reference


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


def test_overflow_and_inf_minus_inf_give_nan_not_builtin_errors():
    # math.fsum raises on an intermediate overflow and on inf - inf; a
    # panel returns NaN there, which every gate rejects
    overflow = lambda x: 1.79e308 if x == 0.5 else 0.895e308
    opposite_infs = lambda x: math.inf if abs(x - 0.5) > 0.4 else (-math.inf if x == 0.5 else 0.0)
    for f in (overflow, opposite_infs):
        k15, err = gk15_panel(f, 0.0, 1.0)
        assert math.isnan(k15) and math.isnan(err)

    # sqrt makes the panels beside 0 split to the depth cap, where they
    # see +inf on the right and -inf on the left: the accepted total is
    # NaN, and the gate raises
    def g(x):
        if abs(x) < 1e-16 and x != 0.0:
            return math.copysign(math.inf, x)
        return math.sqrt(abs(x))

    with pytest.raises(AccuracyError, match="depth cap") as exc:
        adaptive_quadrature(g, -1.0, 1.0, 1e-11)
    assert math.isnan(exc.value.achieved)


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
