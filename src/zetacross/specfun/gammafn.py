"""Complex gamma via a Stirling log-kernel with argument promotion.

For Re z above the reflection line the log-gamma is computed from the
asymptotic Bernoulli series after shifting z right until the series
converges at full double precision; the shift logs are subtracted back.
For Re z < 1/2 the reflection formula is applied in log space, with the
log-sine evaluated through a branch-stable exponential form so the
imaginary part stays continuous off the real axis.
"""

from __future__ import annotations

import cmath
import math

from ..errors import DomainError, PoleError
from ..numerics import even_bernoulli
from .types import as_complex

_LOG_2PI = math.log(2.0 * math.pi)
_POLE_RADIUS = 1e-6

# B_{2k} / (2k (2k-1)) for the Stirling tail, k = 1..15.
_STIRLING = tuple(
    float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(even_bernoulli(15), 1)
)


def _stirling_series(w: complex) -> complex:
    """Sum_k B_{2k} / (2k(2k-1) w^{2k-1}), truncated at the smallest term."""
    inv = 1.0 / w
    inv2 = inv * inv
    term = inv
    acc = 0.0 + 0.0j
    prev = math.inf
    for c in _STIRLING:
        t = c * term
        mag = abs(t)
        if mag >= prev:
            break
        acc += t
        prev = mag
        if mag < 1e-20 * max(1.0, abs(acc)):
            break
        term *= inv2
    return acc


def _log_gamma_right(z: complex) -> complex:
    """Log-gamma for Re z > 0, continuous imaginary part."""
    if abs(z) >= 48.0:
        m = 0
    else:
        m = max(0, math.ceil(12.0 - z.real))
    w = z + m
    lg = (w - 0.5) * cmath.log(w) - w + 0.5 * _LOG_2PI + _stirling_series(w)
    for j in range(m):
        lg -= cmath.log(z + j)
    return lg


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z), branch-stable for |Im z| large."""
    if z.imag >= 0.0:
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}); |e^{2 i pi z}| <= 1
        return (
            complex(-math.log(2.0), 0.5 * math.pi)
            - 1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
        )
    return _log_sin_pi(z.conjugate()).conjugate()


def log_gamma_complex(z: complex | float) -> complex:
    """Principal-branch log-gamma, poles excluded within 1e-6; an argument
    whose |z| or pi z is beyond the float range raises DomainError."""
    z = as_complex(z)
    try:
        if z.real < 0.5:
            n = round(z.real)
            if n <= 0 and abs(z - n) < _POLE_RADIUS:
                raise PoleError(f"gamma pole at {n} (argument {z})", pole=complex(n, 0.0))
            # Reflection: log G(z) = log pi - log sin(pi z) - log G(1 - z)
            return math.log(math.pi) - _log_sin_pi(z) - _log_gamma_right(1.0 - z)
        return _log_gamma_right(z)
    except (ValueError, OverflowError) as err:
        raise DomainError(f"log-gamma argument {z} beyond the float range") from err


def recip_gamma_abs(z: complex | float) -> float:
    """1 / |Gamma(z)|, stable where |Gamma| under- or overflows; a value
    above the float range raises DomainError."""
    try:
        return math.exp(-log_gamma_complex(z).real)
    except OverflowError as err:
        raise DomainError(f"1/|gamma({z})| exceeds the float range") from err
