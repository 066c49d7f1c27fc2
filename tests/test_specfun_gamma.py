"""Complex gamma: analytic values, identities, pole handling."""

import cmath
import math
import random

import pytest

from zetacross.errors import PoleError
from zetacross.specfun import log_gamma_complex, recip_gamma_abs

GAMMA_I_MOD = math.sqrt(math.pi / math.sinh(math.pi))  # reflection oracle


def gamma_complex(z: complex | float) -> complex:
    return cmath.exp(log_gamma_complex(z))


def test_analytic_values():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert abs(gamma_complex(1j)) == pytest.approx(GAMMA_I_MOD, rel=1e-12)
    assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-12)


def test_recurrence_and_reflection_sweep():
    rng = random.Random(20240811)
    count = 0
    while count < 1000:
        re = rng.uniform(-20.0, 20.0)
        im = rng.uniform(-20.0, 20.0)
        s = complex(re, im)
        if abs(s) > 20.0:
            continue
        n = round(re)
        if (n <= 0 and abs(s - n) < 1e-3) or abs(s - round(re) - 1) < 1e-3:
            continue  # stay clear of poles of G(s) and G(1-s)
        g = gamma_complex(s)
        g1 = gamma_complex(s + 1.0)
        assert abs(g1 - s * g) <= 1e-10 * abs(g1)
        refl = gamma_complex(s) * gamma_complex(1.0 - s) * cmath.sin(math.pi * s) / math.pi
        assert abs(refl - 1.0) <= 1e-10
        count += 1


def test_pole_error_carries_location():
    with pytest.raises(PoleError) as exc:
        gamma_complex(-3.0 + 1e-9j)
    assert exc.value.pole == -3.0
    with pytest.raises(PoleError):
        log_gamma_complex(0.0)


def test_recip_gamma_abs_matches():
    for s in (0.5 + 3j, 1.0 + 0j, 2.5 - 4j):
        assert recip_gamma_abs(s) == pytest.approx(1.0 / abs(gamma_complex(s)), rel=1e-13)
    # vertical line closed form: |G(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.3, 1.0, 4.0):
        ref = math.sqrt(math.cosh(math.pi * y) / math.pi)
        assert recip_gamma_abs(complex(0.5, y)) == pytest.approx(ref, rel=1e-12)


def test_deterministic():
    s = 0.25 + 17.5j
    assert log_gamma_complex(s) == log_gamma_complex(s)
