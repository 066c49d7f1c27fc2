"""Critical-line evaluator against the fixed-term Euler-Maclaurin oracle."""

import pytest

from zetacross.errors import DomainError
from zetacross.specfun import RS_SWITCHOVER, hardy_z, zeta_mod_sq
from zetacross.specfun.zeta import (
    _build_psi_tables,
    _psi_derivative,
    hardy_z_em,
    hardy_z_rs,
)

from oracles import bisect_oracle, hardy_z_oracle, zeta_mod_sq_oracle

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
    # reference: the same Horner loop on numpy float64 scalars
    tables = _build_psi_tables()
    for k in range(13):
        for p in (0.0, 0.013, 0.25, 0.5, 0.75, 0.999):
            u = p - 0.5
            acc = 0.0
            for c in tables[k][::-1]:
                acc = acc * u + c
            assert _psi_derivative(k, p) == float(acc)


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
