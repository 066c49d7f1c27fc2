"""Bessel J of integer order: series/recurrence regimes and identities."""

import cmath
import math
import random

import pytest

from zetacross.errors import AccuracyError
from zetacross.specfun import BesselOrder, bessel_j

from oracles import bisect_oracle, j0_series_oracle

J0_FIRST_ZERO = 2.404825557695773  # frozen from the series bisection oracle


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(5, 0.0) == 0.0


def test_first_j0_zero():
    zero = bisect_oracle(j0_series_oracle, 2.0, 3.0)
    assert zero == pytest.approx(J0_FIRST_ZERO, abs=1e-12)
    assert abs(bessel_j(0, zero)) < 1e-9


def test_three_term_recurrence():
    rng = random.Random(99)
    for _ in range(400):
        p = rng.randint(1, 8)
        r = rng.uniform(0.1, 30.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = cmath.rect(r, phi)
        lhs = bessel_j(p - 1, s) + bessel_j(p + 1, s)
        rhs = (2.0 * p / s) * bessel_j(p, s)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_negative_order_parity_exact():
    for p in (1, 2, 3, 7):
        for s in (0.5 + 0.2j, 3.0 - 1.0j, 20.0 + 5.0j):
            direct = bessel_j(-p, s)
            flipped = (-1) ** p * bessel_j(p, s)
            assert direct == flipped  # computed through the same path


def test_regime_seam_consistency():
    # both evaluation regimes at the same points near the |s| = 8 seam
    from zetacross.specfun.bessel import _miller, _series

    for phi in (0.0, 0.7, 2.1):
        for p in (0, 3):
            s = cmath.rect(7.9, phi)
            a = _series(p, s)
            b = _miller(p, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_recurrence_range_exhausted_is_typed():
    # far outside |s| <= 50 the normalizing chain underflows to zero
    for s in (1000.0, 700j):
        with pytest.raises(AccuracyError, match="range exhausted"):
            bessel_j(0, s)


def test_order_type_wrapper():
    assert bessel_j(BesselOrder(3), 2.0) == bessel_j(3, 2.0)


def test_deterministic():
    s = 11.0 + 4.0j
    assert bessel_j(4, s) == bessel_j(4, s)
