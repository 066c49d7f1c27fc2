"""Hardy Z on the critical line.

Two regimes share the exact rotation angle theta(t) = Im log-gamma(1/4
+ it/2) - (t/2) log pi:

* t below the switchover: zeta(1/2 + it) by Euler-Maclaurin with the
  Bernoulli tail truncated at its smallest term, rotated into Z.
* t above: Riemann-Siegel main sum (exactly rounded) plus the
  first five remainder corrections, whose coefficient functions are
  derivatives of psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p).
  psi is entire; its Taylor series about p = 1/2 is generated once by
  power-series division, so the derivatives come from one fused Horner
  pass over the orders the remainder reads, with no finite differencing.

The switchover sits at t = 2000: the five-term Riemann-Siegel remainder
is only accurate to ~1e-11 there (error ~ t^{-11/4}), so pushing it
lower would break the 1e-10 relative target that the Euler-Maclaurin
branch meets everywhere below.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from ..numerics import even_bernoulli
from .gammafn import log_gamma_complex

RS_SWITCHOVER = 2000.0
# just below t = 2.864e14, where one ulp of the Riemann-Siegel phase t log N
# reaches 1 rad, so no bit of it is correct: a float limit, not a validated domain
Z_T_MAX = 2.86e14
# the top height test_riemann_siegel_against_mpmath checks; RunConfig keeps runs below it
Z_VALIDATED_T = 33000.0

_TWO_PI = 2.0 * math.pi
_LOG_PI = math.log(math.pi)


# --------------------------------------------------------------------------
# Euler-Maclaurin zeta(1/2 + it)
# --------------------------------------------------------------------------

_log_table = np.zeros(0)


def _logs_up_to(n: int) -> np.ndarray:
    """log(1..n-1), grown on demand (the head sum dominates EM cost)."""
    global _log_table
    if len(_log_table) < n:
        _log_table = np.log(np.arange(1, max(n, 2 * len(_log_table)), dtype=np.float64))
    return _log_table[: n - 1]


# B_{2k} / (2k)! for the tail, k = 1..30, correctly rounded from the Fraction.
_EM_TAIL = tuple(float(b / math.factorial(2 * k))
                 for k, b in enumerate(even_bernoulli(30), 1))


def zeta_half_em(t: float) -> complex:
    """zeta(1/2 + it) by Euler-Maclaurin with N ~ t/pi nodes."""
    s = complex(0.5, t)
    n_terms = max(32, int(math.ceil(abs(t) / math.pi)) + 8)
    head = np.exp(-s * _logs_up_to(n_terms)).sum()
    big_n = float(n_terms)
    n_minus_s = complex(np.exp(-s * math.log(big_n)))  # N^{-s}
    value = head + n_minus_s * big_n / (s - 1.0) + 0.5 * n_minus_s

    # Bernoulli tail: sum_k B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{1-s-2k}
    rising = s
    pw = n_minus_s / big_n  # N^{-s-1}
    prev = math.inf
    for k, b_over_f in enumerate(_EM_TAIL, 1):
        term = b_over_f * rising * pw
        mag = abs(term)
        if mag >= prev:
            break
        value += term
        prev = mag
        if mag < 1e-18 * abs(value):
            break
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        pw /= big_n * big_n
    return complex(value)


def rs_theta(t: float) -> float:
    """Riemann-Siegel rotation angle, exact via complex log-gamma."""
    return log_gamma_complex(complex(0.25, 0.5 * t)).imag - 0.5 * t * _LOG_PI


# --------------------------------------------------------------------------
# psi-series machinery for the Riemann-Siegel remainder
# --------------------------------------------------------------------------

_PSI_TERMS = 120
# the derivative orders the five remainder terms read (7, 10 and 11 unused)
_RS_ORDERS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12)
# one row per Taylor degree about 1/2, highest first, holding each order's
# coefficient as a Python float (same IEEE arithmetic as float64, less
# per-term cost); shorter orders are left-padded with 0.0
_psi_rows: list[tuple[float, ...]] | None = None


def _deflate(a: np.ndarray, r: float) -> np.ndarray:
    """Divide polynomial a(u) by (u - r), dropping the ~zero remainder.

    Horner deflation runs high-to-low degree, so rounding is damped by
    |r| < 1 instead of amplified.
    """
    n = len(a)
    b = np.zeros(n - 1)
    b[n - 2] = a[n - 1]
    for k in range(n - 2, 0, -1):
        b[k - 1] = a[k] + r * b[k]
    return b


def _build_psi_tables() -> list[np.ndarray]:
    """Taylor coefficients of psi and its first 12 derivatives about 1/2.

    With u = p - 1/2: numerator cos(2 pi u^2 - 5 pi/8), denominator
    -cos(2 pi u). Both vanish at u = +/-1/4 (psi's singularities there
    are removable), so both are deflated by (u - 1/4)(u + 1/4) before
    the triangular series division; the quotient series then converges
    on |u| <= 1/2 with margin (next denominator zero at 3/4).
    """
    n_terms = _PSI_TERMS
    f = np.zeros(n_terms)
    g = np.zeros(n_terms)
    c58, s58 = math.cos(5.0 * math.pi / 8.0), math.sin(5.0 * math.pi / 8.0)
    # cos(2 pi u^2) contributes at degrees 4m, sin(2 pi u^2) at 4m+2.
    m = 0
    while 4 * m < n_terms:
        f[4 * m] += c58 * (-1.0) ** m * _TWO_PI ** (2 * m) / math.factorial(2 * m)
        if 4 * m + 2 < n_terms:
            f[4 * m + 2] += (
                s58 * (-1.0) ** m * _TWO_PI ** (2 * m + 1) / math.factorial(2 * m + 1)
            )
        m += 1
    m = 0
    while 2 * m < n_terms:
        g[2 * m] = -((-1.0) ** m) * _TWO_PI ** (2 * m) / math.factorial(2 * m)
        m += 1
    for r in (0.25, -0.25):
        f = _deflate(f, r)
        g = _deflate(g, r)
    n_h = len(f)
    h = np.zeros(n_h)
    for i in range(n_h):
        acc = f[i]
        acc -= np.dot(h[:i], g[i:0:-1])
        h[i] = acc / g[0]
    tables = []
    for k in range(13):
        # d_k[m] = h[m+k] * (m+k)! / m!
        size = n_h - k
        d = h[k:].copy()
        fall = np.ones(size)
        for j in range(k):
            fall *= np.arange(1 + j, size + 1 + j, dtype=np.float64)
        tables.append(d * fall)
    return tables


def _psi_derivatives(p: float) -> tuple[float, ...]:
    """psi's derivatives of the _RS_ORDERS orders at p (0 <= p < 1).

    One Horner pass updates all ten accumulators per degree. A padded
    0.0 leaves an accumulator at +0.0 (0.0 * u + 0.0 is +0.0 for any
    finite u), so each order sees the same IEEE operations as a Horner
    loop over its own table alone.
    """
    global _psi_rows
    if _psi_rows is None:
        tables = _build_psi_tables()
        width = len(tables[0])
        _psi_rows = list(zip(*(
            [0.0] * (width - len(tables[k])) + tables[k][::-1].tolist()
            for k in _RS_ORDERS
        )))
    u = p - 0.5
    a0 = a1 = a2 = a3 = a4 = a5 = a6 = a8 = a9 = a12 = 0.0
    for c0, c1, c2, c3, c4, c5, c6, c8, c9, c12 in _psi_rows:
        a0 = a0 * u + c0
        a1 = a1 * u + c1
        a2 = a2 * u + c2
        a3 = a3 * u + c3
        a4 = a4 * u + c4
        a5 = a5 * u + c5
        a6 = a6 * u + c6
        a8 = a8 * u + c8
        a9 = a9 * u + c9
        a12 = a12 * u + c12
    return a0, a1, a2, a3, a4, a5, a6, a8, a9, a12


_PI2 = math.pi * math.pi


def _rs_correction(p: float, tau_inv_sqrt: float) -> float:
    """Sum of the first five remainder coefficient terms at p.

    tau_inv_sqrt = (2 pi / t)^{1/2}; returns C0 + C1 x + ... + C4 x^4.
    """
    d0, d1, d2, d3, d4, d5, d6, d8, d9, d12 = _psi_derivatives(p)
    c0 = d0
    c1 = -d3 / (96.0 * _PI2)
    c2 = d2 / (64.0 * _PI2) + d6 / (18432.0 * _PI2 * _PI2)
    c3 = (
        -d1 / (64.0 * _PI2)
        - d5 / (3840.0 * _PI2 * _PI2)
        - d9 / (5308416.0 * _PI2 * _PI2 * _PI2)
    )
    c4 = (
        d0 / (128.0 * _PI2)
        + 19.0 * d4 / (24576.0 * _PI2 * _PI2)
        + 11.0 * d8 / (5898240.0 * _PI2 * _PI2 * _PI2)
        + d12 / (2038431744.0 * _PI2 * _PI2 * _PI2 * _PI2)
    )
    x = tau_inv_sqrt
    return (((c4 * x + c3) * x + c2) * x + c1) * x + c0


def hardy_z_rs(t: float) -> float:
    """Riemann-Siegel evaluation of Z(t); intended for t >= ~500."""
    tau = math.sqrt(t / _TWO_PI)
    big_n = int(tau)
    p = tau - big_n
    theta = rs_theta(t)
    main = 2.0 * math.fsum([math.cos(theta - t * math.log(n)) / math.sqrt(n)
                            for n in range(1, big_n + 1)])
    rem = _rs_correction(p, 1.0 / tau) / math.sqrt(tau)
    if big_n % 2 == 0:
        rem = -rem
    return main + rem


def hardy_z_em(t: float) -> float:
    """Euler-Maclaurin evaluation of Z(t) = Re[e^{i theta} zeta(1/2+it)]."""
    z = zeta_half_em(t)
    theta = rs_theta(t)
    return (complex(math.cos(theta), math.sin(theta)) * z).real


def hardy_z(t: float) -> float:
    """Hardy's Z(t); real-valued with |Z(t)| = |zeta(1/2 + it)|.
    Raises DomainError unless 0 <= t < Z_T_MAX."""
    if not 0.0 <= t < Z_T_MAX:
        raise DomainError(f"hardy_z needs 0 <= t < {Z_T_MAX:.3g}, got {t}")
    if t < RS_SWITCHOVER:
        return hardy_z_em(t)
    return hardy_z_rs(t)


def zeta_mod_sq(t: float) -> float:
    """|zeta(1/2 + it)|^2 = Z(t)^2."""
    z = hardy_z(t)
    return z * z
