"""Jacobi elliptic sn/cn/dn for complex argument, and AGM-based K(k).

Real-argument values come from the descending Landen (AGM) phase
recursion after quarter-period reduction into [0, K], so the arcsin
back-substitution never leaves its principal branch. Complex arguments
split through the imaginary transformation: real and imaginary parts
are evaluated at moduli k and k' and recombined. dn is recovered from
dn^2 = k'^2 + k^2 cn^2, which is cancellation-free on the real axis.
"""

from __future__ import annotations

import math

from ..errors import DomainError, PoleError
from .types import EllipticModulus, as_complex

POLE_EXCLUSION = 1e-6

_KINDS = ("SN", "CN", "DN")  # in the order sncndn_complex returns them


def _as_modulus(k: float | EllipticModulus) -> EllipticModulus:
    if isinstance(k, EllipticModulus):
        return k
    return EllipticModulus(float(k))


def elliptic_k(k: float) -> float:
    """Complete elliptic integral K(k) by AGM; k in [0, 1). The AGM stops
    once a step leaves (a, b) unchanged: they can settle on two adjacent
    floats that never meet."""
    if not (0.0 <= k < 1.0):
        raise DomainError(f"elliptic_k needs 0 <= k < 1, got {k}")
    if k == 0.0:
        return 0.5 * math.pi
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(60):
        a_next, b_next = 0.5 * (a + b), math.sqrt(a * b)
        if a_next == a and b_next == b:
            break
        a, b = a_next, b_next
    return math.pi / (2.0 * a)


def _sncndn_real(u: float, k: float) -> tuple[float, float, float]:
    """(sn, cn, dn) for real u, modulus k in [0, 1)."""
    k2 = k * k
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    if k < 1e-8:
        # Landen descent would stop immediately; use the k->0 limit.
        sn = math.sin(u)
        cn = math.cos(u)
        return sn, cn, math.sqrt(1.0 - k2 * sn * sn)
    big_k = elliptic_k(k)
    # quarter-period reduction into [0, K] with sign bookkeeping
    v = math.fmod(u, 4.0 * big_k)
    if v < 0.0:
        v += 4.0 * big_k
    q, r = divmod(v, big_k)
    qi = min(int(q), 3)
    r = v - qi * big_k
    if qi == 0:
        w, s_sn, s_cn = r, 1.0, 1.0
    elif qi == 1:
        w, s_sn, s_cn = big_k - r, 1.0, -1.0
    elif qi == 2:
        w, s_sn, s_cn = r, -1.0, -1.0
    else:
        w, s_sn, s_cn = big_k - r, -1.0, 1.0
    # AGM chain and descending phase recursion
    a, b, c = 1.0, kp, k
    a_list = [a]
    c_list = [c]
    n = 0
    while abs(c) > 1e-16 * a and n < 40:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_list.append(a)
        c_list.append(c)
        n += 1
    phi = (2.0 ** n) * a_list[n] * w
    for i in range(n, 0, -1):
        arg = c_list[i] / a_list[i] * math.sin(phi)
        arg = max(-1.0, min(1.0, arg))
        phi = 0.5 * (phi + math.asin(arg))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(1.0 - k2 * sn * sn)
    return s_sn * sn, s_cn * cn, dn


def pole_distance(u: complex, k: float | EllipticModulus) -> float:
    """Distance from u to the shared pole lattice 2mK + (2n+1) i K'."""
    mod = _as_modulus(k)
    big_k = elliptic_k(mod.k)
    big_kp = elliptic_k(mod.k_prime)
    dx = math.remainder(u.real, 2.0 * big_k)
    dy = math.remainder(u.imag - big_kp, 2.0 * big_kp)
    return math.hypot(dx, dy)


def sncndn_complex(u: complex, k: float | EllipticModulus) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) at complex u via the imaginary-argument split."""
    mod = _as_modulus(k)
    dist = pole_distance(u, mod)
    if dist < POLE_EXCLUSION:
        raise PoleError(
            f"jacobi argument {u} within {dist:.2e} of a pole", pole=u
        )
    k2 = mod.k * mod.k
    if u.imag == 0.0:
        s, c, d = _sncndn_real(u.real, mod.k)
        return complex(s), complex(c), complex(d)
    s, c, d = _sncndn_real(u.real, mod.k)
    s1, c1, d1 = _sncndn_real(u.imag, mod.k_prime)
    den = c1 * c1 + k2 * s * s * s1 * s1
    sn = complex(s * d1, c * d * s1 * c1) / den
    cn = complex(c * c1, -s * d * s1 * d1) / den
    dn = complex(d * c1 * d1, -k2 * s * c * s1) / den
    return sn, cn, dn


def jacobi_elliptic(kind: str, u: complex | float,
                    k: float | EllipticModulus) -> complex:
    """sn/cn/dn (kind "SN", "CN" or "DN") of complex argument; rejects
    points near the pole lattice."""
    if kind not in _KINDS:
        raise DomainError(f"unknown jacobi kind {kind!r}")
    return sncndn_complex(as_complex(u), k)[_KINDS.index(kind)]
