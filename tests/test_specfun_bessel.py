"""Bessel J of integer order: series/recurrence regimes and identities."""

import cmath
import hashlib
import math
import random

import pytest

from zetacross.errors import AccuracyError, DomainError
from zetacross.specfun import bessel_j

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
    # outside |s| <= 50 the argument is refused before any work
    for s in (1000.0, 700j):
        with pytest.raises(DomainError, match=r"\|s\| <= 50"):
            bessel_j(0, s)
    # inside the domain, an order far above |s| still underflows the
    # normalizing chain to zero
    with pytest.raises(AccuracyError, match="range exhausted"):
        bessel_j(500, 9.0)


def test_deterministic():
    s = 11.0 + 4.0j
    assert bessel_j(4, s) == bessel_j(4, s)


def test_bessel_bit_identical_pinned():
    # float.hex of J_p at every 25th point of the level solver's real-axis
    # grid on [0, 50] and at complex points in the series (|s| <= 8) and
    # Miller (8 < |s| <= 50) regimes
    points = [complex(50.0 * i / 400, 0.0) for i in range(0, 401, 25)]
    points += [1 + 2j, -3.5 + 0.5j, 0.3 - 7.2j, 5 + 5j,
               6 + 6j, 12j, -20 + 11j, 3 - 42j, 35 + 35j]
    digest = hashlib.sha256()
    for p in (0, 1, 2, 3, -2):
        for s in points:
            v = bessel_j(p, s)
            digest.update(f"{p} {s!r} {v.real.hex()} {v.imag.hex()}\n".encode())
    assert digest.hexdigest() == "7a1925959f9dcc407e5db99ae497bb2647d8270545cc398a740f6b7c05d47ed9"


def test_bessel_on_the_level_solver_paths_against_mpmath():
    # the solver's real-axis scan points and its imaginary axis, to the
    # 1e-11 stated in bessel_j's docstring: relative where |J| >= 1e-3,
    # absolute below
    mpmath = pytest.importorskip("mpmath")
    points = [complex(50.0 * i / 400, 0.0) for i in range(401)]
    points += [complex(0.0, 40.0 * i / 400) for i in range(401)]
    for p in range(-3, 4):
        for s in points:
            with mpmath.workdps(30):
                ref = complex(mpmath.besselj(p, mpmath.mpc(s.real, s.imag)))
            err = abs(bessel_j(p, s) - ref)
            assert err <= 1e-11 * (abs(ref) if abs(ref) >= 1e-3 else 1.0), (p, s)
