"""Critical-line evaluator against the fixed-term Euler-Maclaurin oracle."""

import math

import numpy as np
import pytest

from zetacross.errors import DomainError
from zetacross.numerics import even_bernoulli
from zetacross.specfun import RS_SWITCHOVER, hardy_z, zeta_mod_sq
from zetacross.specfun.zeta import (
    _EM_TAIL,
    _RS_ORDERS,
    _build_psi_tables,
    _logs_up_to,
    _psi_derivatives,
    _rs_correction,
    hardy_z_em,
    hardy_z_rs,
    rs_theta,
)

from oracles import _B2K, bisect_oracle, hardy_z_oracle, zeta_mod_sq_oracle

# Frozen from the oracles (tests/oracles.py), not from the implementation.
ZETA_HALF = -1.4603545088096335
FIRST_ZERO = 14.134725141734691
ZSQ_AT_50 = 0.11610034428317878


def test_value_at_origin():
    assert hardy_z(0.0) == pytest.approx(ZETA_HALF, abs=2e-13)
    # the seven-digit figure quoted for zeta(1/2)
    assert hardy_z(0.0) == pytest.approx(-1.4603545, abs=1e-6)


def test_first_zero():
    zero = bisect_oracle(hardy_z_oracle, 14.0, 14.3)
    assert zero == pytest.approx(FIRST_ZERO, abs=1e-12)
    assert abs(hardy_z(zero)) < 1e-6
    assert abs(hardy_z(14.134725)) < 1e-6


def test_modulus_squared_at_50():
    assert zeta_mod_sq(50.0) == pytest.approx(ZSQ_AT_50, rel=1e-10)


def test_oracle_agreement_low_range():
    # 10^3 points across [1, 100]
    worst = 0.0
    for i in range(1000):
        t = 1.0 + 99.0 * i / 999.0
        ref = zeta_mod_sq_oracle(t)
        got = zeta_mod_sq(t)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    assert worst <= 1e-8


def test_riemann_siegel_matches_euler_maclaurin():
    # overlap band: EM still cheap, RS already past its error knee
    for t in (1500.0, 2000.0, 2500.0, 3200.0, 5000.0):
        em = hardy_z_em(t)
        rs = hardy_z_rs(t)
        assert abs(em - rs) <= 1e-10 * max(1.0, abs(em))


def test_riemann_siegel_against_mpmath():
    # heights of the verify windows above the switchover, L up to ~1e4
    mpmath = pytest.importorskip("mpmath")
    for t in (2000.5, 3200.0, 5555.5, 8100.0, 17500.0, 33000.0):
        with mpmath.workdps(30):
            ref = float(mpmath.siegelz(t))
        assert abs(hardy_z_rs(t) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_psi_derivative_matches_numpy_horner():
    # reference: the same Horner loop on numpy float64 scalars, one order at a time
    tables = _build_psi_tables()
    for p in (0.0, 0.013, 0.25, 0.5, 0.75, 0.999):
        u = p - 0.5
        got = _psi_derivatives(p)
        assert len(got) == len(_RS_ORDERS)
        for k, value in zip(_RS_ORDERS, got):
            acc = 0.0
            for c in tables[k][::-1]:
                acc = acc * u + c
            assert value == float(acc)


def _rs_correction_per_order(tables, p, x):
    """_rs_correction with all 13 psi derivatives, each from its own Horner
    loop over its table from _build_psi_tables (highest degree first)."""
    u = p - 0.5
    d = []
    for table in tables:
        acc = 0.0
        for c in table:
            acc = acc * u + c
        d.append(acc)
    pi2 = math.pi * math.pi
    c0 = d[0]
    c1 = -d[3] / (96.0 * pi2)
    c2 = d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi2 * pi2)
    c3 = (
        -d[1] / (64.0 * pi2)
        - d[5] / (3840.0 * pi2 * pi2)
        - d[9] / (5308416.0 * pi2 * pi2 * pi2)
    )
    c4 = (
        d[0] / (128.0 * pi2)
        + 19.0 * d[4] / (24576.0 * pi2 * pi2)
        + 11.0 * d[8] / (5898240.0 * pi2 * pi2 * pi2)
        + d[12] / (2038431744.0 * pi2 * pi2 * pi2 * pi2)
    )
    return (((c4 * x + c3) * x + c2) * x + c1) * x + c0


def test_rs_correction_bit_identical_to_per_order_horner():
    tables = [table[::-1].tolist() for table in _build_psi_tables()]
    rng = np.random.default_rng(20261018)
    ps = [0.0, 0.25, 0.5, 0.75, *rng.random(1000).tolist()]
    # 1/tau at the switchover, mid-range and the top verify heights
    xs = [1.0 / math.sqrt(t / (2.0 * math.pi)) for t in (2000.0, 9000.0, 45000.0)]
    for p in ps:
        for x in xs:
            assert _rs_correction(p, x) == _rs_correction_per_order(tables, p, x)


def test_em_tail_table_is_correctly_rounded():
    assert len(_EM_TAIL) == 30
    for k, (entry, b) in enumerate(zip(_EM_TAIL, even_bernoulli(30)), 1):
        assert entry == float(b / math.factorial(2 * k))
    for k, b in enumerate(_B2K, 1):  # literal B_2 .. B_30
        assert _EM_TAIL[k - 1] == float(b / math.factorial(2 * k))


def _hardy_z_em_fraction_path(t):
    """hardy_z_em with each tail coefficient rebuilt from its Fraction."""
    s = complex(0.5, t)
    n_terms = max(32, int(math.ceil(abs(t) / math.pi)) + 8)
    head = np.exp(-s * _logs_up_to(n_terms)).sum()
    big_n = float(n_terms)
    n_minus_s = complex(np.exp(-s * math.log(big_n)))
    value = head + n_minus_s * big_n / (s - 1.0) + 0.5 * n_minus_s
    rising, pw, prev = s, n_minus_s / big_n, math.inf
    for k, b in enumerate(even_bernoulli(30), 1):
        term = float(b / math.factorial(2 * k)) * rising * pw
        mag = abs(term)
        if mag >= prev:
            break
        value += term
        prev = mag
        if mag < 1e-18 * abs(value):
            break
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        pw /= big_n * big_n
    theta = rs_theta(t)
    return (complex(math.cos(theta), math.sin(theta)) * complex(value)).real


def test_em_table_bit_identical_to_fraction_path():
    for t in (14.134725, 63.0, 64.0, 201.5, 562.25, 1001.0, 1600.0, 1999.0):
        assert hardy_z_em(t) == _hardy_z_em_fraction_path(t)


def test_switchover_continuity():
    eps = 1e-9
    below = hardy_z(RS_SWITCHOVER - eps)
    above = hardy_z(RS_SWITCHOVER + eps)
    assert abs(below - above) < 1e-7


def test_negative_t_rejected():
    with pytest.raises(DomainError):
        hardy_z(-1.0)
    with pytest.raises(DomainError):
        hardy_z(float("nan"))


def test_deterministic():
    for t in (0.7, 33.3, 777.0, 4e4):
        assert hardy_z(t) == hardy_z(t)
