"""Integer-order Bessel J of complex argument.

Small arguments use the ascending power series with compensated
summation; larger ones a Miller-style backward recurrence, normalized
against the series evaluated at a safe high order where its terms are
monotone-dominated and cancellation-free.
"""

from __future__ import annotations

import math

from ..errors import AccuracyError, DomainError
from ..numerics import NeumaierSum
from .types import as_complex

_SERIES_RADIUS = 8.0


def _series(p: int, s: complex) -> complex:
    """Ascending series at integer order p >= 0."""
    half = 0.5 * s
    # leading (s/2)^p / p!
    term = 1.0 + 0.0j
    for j in range(1, p + 1):
        term *= half / j
    ratio = -(half * half)
    re = NeumaierSum()
    im = NeumaierSum()
    re.add(term.real)
    im.add(term.imag)
    acc_scale = abs(term)
    for m in range(400):
        term *= ratio / ((m + 1.0) * (m + p + 1.0))
        re.add(term.real)
        im.add(term.imag)
        mag = abs(term)
        acc_scale = max(acc_scale, mag)
        if mag < 1e-19 * acc_scale:
            break
    return complex(re.value, im.value)


def _miller(p: int, s: complex) -> complex:
    """Backward recurrence j_{m-1} = (2m/s) j_m - j_{m+1}, seeded high.

    Normalization matches the chain to the ascending series at order
    q = ceil(2.2 |s|) + 20, far enough beyond the oscillatory band that
    the series' alternating ramp stays below ~1e4 and its cancellation
    error below ~1e-12 relative.
    """
    r = abs(s)
    q = max(int(math.ceil(2.2 * r)) + 20, p + 2)
    start = q + 30
    jp1 = 0.0 + 0.0j
    j = 1e-280 + 0.0j
    chain_p = None
    chain_q = None
    for m in range(start, 0, -1):
        jm1 = (2.0 * m / s) * j - jp1
        jp1 = j
        j = jm1
        if m - 1 == p:
            chain_p = j
        if m - 1 == q:
            chain_q = j
        # rescale to dodge overflow on long chains
        if abs(j.real) > 1e250 or abs(j.imag) > 1e250:
            j *= 1e-250
            jp1 *= 1e-250
            if chain_p is not None:
                chain_p *= 1e-250
            if chain_q is not None:
                chain_q *= 1e-250
    if chain_q == 0:
        # dynamic range beyond double precision, as at orders far above |s|
        raise AccuracyError(f"bessel recurrence range exhausted at |s| = {r:.3g}")
    ref = _series(q, s)
    return chain_p * (ref / chain_q)


def bessel_j(p: int, s: complex | float) -> complex:
    """J_p(s) for integer p and complex s.

    Accuracy is certified for |s| <= 50 (relative error <= 1e-11, in
    practice ~1e-13); beyond it the fixed normalization-order schedule
    loses digits, so a larger |s| raises DomainError.
    """
    s = as_complex(s)
    if p < 0:
        v = bessel_j(-p, s)
        return -v if p % 2 else v
    if s == 0:
        return complex(1.0 if p == 0 else 0.0, 0.0)
    try:
        r = abs(s)
    except OverflowError:  # |s| beyond the float range
        r = math.inf
    if r > 50.0:
        raise DomainError(f"bessel_j needs |s| <= 50, got |s| = {r:.6g}")
    if r <= _SERIES_RADIUS:
        return _series(p, s)
    return _miller(p, s)
