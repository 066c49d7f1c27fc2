"""Jacobi elliptic functions and the complete elliptic integral."""

import math
import random

import pytest

from zetacross.errors import DomainError, PoleError
from zetacross.params import ParameterSet
from zetacross.specfun import EllipticModulus, elliptic_k, jacobi, jacobi_elliptic
from zetacross.specfun.jacobi import pole_distance, sncndn_complex

from oracles import agm_k_oracle, elliptic_k_reference, sncndn_reference

K_08 = 1.9953027776647299  # frozen from the AGM oracle


def test_elliptic_k_values():
    assert elliptic_k(1e-12) == pytest.approx(0.5 * math.pi, rel=1e-14)
    assert elliptic_k(0.8) == pytest.approx(K_08, rel=1e-14)
    assert elliptic_k(0.8) == pytest.approx(agm_k_oracle(0.8), rel=1e-13)
    assert elliptic_k(0.8) == elliptic_k(0.8)  # bit-identical on repeat


def test_elliptic_k_matches_reference_loop_bit_for_bit():
    rng = random.Random(271828)
    moduli = [0.0, 1e-300, 1e-12, 0.6, 0.8, 1.0 - 1e-12]
    moduli += [rng.random() for _ in range(20000)]
    moduli += [math.sqrt(rng.uniform(0.05, 0.95)) for _ in range(5000)]
    for k in moduli:
        assert elliptic_k(k) == elliptic_k_reference(k), k


def test_elliptic_k_stops_once_the_mean_settles(monkeypatch):
    # at k = 0.6 the mean settles on two adjacent floats that never meet;
    # the loop must stop there, not run out its 60 steps
    roots = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def sqrt(self, x):
            roots.append(x)
            return math.sqrt(x)

    monkeypatch.setattr(jacobi, "math", CountingMath())
    assert elliptic_k(0.6) == elliptic_k_reference(0.6)
    assert len(roots) <= 8  # k' and one per AGM step


def test_values_at_origin():
    for k in (0.2, 0.5, 0.9):
        assert jacobi_elliptic("SN", 0.0, k) == 0.0
        assert jacobi_elliptic("CN", 0.0, k) == 1.0
        assert jacobi_elliptic("DN", 0.0, k) == 1.0


def test_small_modulus_limit():
    # k -> 0 collapses sn to the circular sine
    assert jacobi_elliptic("SN", 1.0, 1e-8).real == pytest.approx(math.sin(1.0), abs=1e-7)


def test_quarter_period_value():
    k = 0.6
    big_k = elliptic_k(k)
    assert jacobi_elliptic("DN", big_k, k).real == pytest.approx(0.8, abs=1e-12)
    assert jacobi_elliptic("SN", big_k, k).real == pytest.approx(1.0, abs=1e-12)


def test_pythagorean_identities_random():
    rng = random.Random(31416)
    for _ in range(2000):
        k = math.sqrt(rng.uniform(0.01, 0.99))
        mod = EllipticModulus(k)
        big_k = elliptic_k(k)
        big_kp = elliptic_k(mod.k_prime)
        u = complex(rng.uniform(0.0, 4.0 * big_k), rng.uniform(0.0, 2.0 * big_kp))
        if pole_distance(u, k) < 1e-3:
            continue
        sn, cn, dn = sncndn_complex(u, k)
        r1 = abs(sn * sn + cn * cn - 1.0)
        r2 = abs(dn * dn + (k * k) * sn * sn - 1.0)
        scale = max(1.0, abs(sn) ** 2)
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * scale


def test_pole_rejected():
    k = 0.5
    pole = complex(0.0, elliptic_k(math.sqrt(1 - k * k)))
    with pytest.raises(PoleError):
        jacobi_elliptic("SN", pole + 1e-9, k)


def test_modulus_validation():
    with pytest.raises(DomainError):
        EllipticModulus(1.0)
    with pytest.raises(DomainError):
        EllipticModulus(0.0)
    with pytest.raises(DomainError):
        jacobi_elliptic("SN", 0.3, 1.2)
    with pytest.raises(DomainError, match="unknown jacobi kind"):
        jacobi_elliptic("NS", 0.3, 0.5)


def test_imaginary_argument_forms():
    # sn(iy, k) = i sc(y, k'); cn(iy, k) = nc(y, k')
    k = 0.7
    mod = EllipticModulus(k)
    y = 0.45
    s1, c1, d1 = sncndn_complex(complex(y, 0.0), mod.k_prime)
    sn = jacobi_elliptic("SN", complex(0.0, y), k)
    cn = jacobi_elliptic("CN", complex(0.0, y), k)
    assert sn == pytest.approx(1j * s1 / c1, rel=1e-12)
    assert cn == pytest.approx(1.0 / c1, rel=1e-12)


def test_modulus_computes_its_quarter_periods_once(monkeypatch):
    calls = []

    def counting(k):
        calls.append(k)
        return elliptic_k(k)

    monkeypatch.setattr(jacobi, "elliptic_k", counting)
    mod = EllipticModulus(0.6)
    assert calls == [0.6, mod.k_prime]
    assert (mod.big_k, mod.big_kp) == (elliptic_k(0.6), elliptic_k(mod.k_prime))
    del calls[:]
    for kind in ("SN", "CN", "DN"):
        for u in (0.3, complex(0.3, 0.4), complex(0.0, 1.1), complex(2.0, -0.7)):
            jacobi_elliptic(kind, u, mod)
            pole_distance(complex(u), mod)
    assert calls == []  # 3 per call on the real axis and 4 off it before
    # parameter sets validate their moduli without paying for the AGMs
    ParameterSet(n=(1,) * 6, p=(0,) * 6, k=(0.5, 0.6, 0.7, 0.5, 0.6, 0.7))
    assert calls == []
    assert mod == EllipticModulus(0.6) and repr(mod) == "EllipticModulus(k=0.6)"


def test_sncndn_matches_the_per_call_quarter_period_path_bit_for_bit():
    rng = random.Random(141421)
    for _ in range(3000):
        k = math.sqrt(rng.uniform(0.05, 0.95))
        mod = EllipticModulus(k)
        x = rng.uniform(-8.0, 8.0)
        y = rng.uniform(-1.9, 1.9) * elliptic_k(mod.k_prime)
        u = rng.choice((complex(x, 0.0), complex(0.0, y), complex(x, y)))
        assert sncndn_complex(u, mod) == sncndn_reference(u, k), (k, u)
