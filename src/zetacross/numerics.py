"""Shared numerical kernels: Bernoulli numbers, bracketed root finding,
and adaptive Gauss-Kronrod quadrature.

All routines are deterministic: fixed splitting orders, fixed iteration
caps, no randomness. Identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .errors import SearchError, gate


# --------------------------------------------------------------------------
# Bernoulli numbers (exact Fractions; callers round them into float tables)
# --------------------------------------------------------------------------

def even_bernoulli(m: int) -> list[Fraction]:
    """B_2 .. B_2m from the integer tangent numbers T_1 .. T_m (Brent and
    Harvey 2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = [0] + [math.factorial(j - 1) for j in range(1, m + 1)]
    for i in range(2, m + 1):
        for j in range(i, m + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            for k in range(1, m + 1)]


# --------------------------------------------------------------------------
# Bracketed root finding: bracket expansion and bisection to collapse
# --------------------------------------------------------------------------

def expand_bracket(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Expand [lo, hi] geometrically to the right until f changes sign.

    An end where f is exactly zero counts as a sign change, so the
    result always suits bisect_root. Raises SearchError when 60
    widenings (a factor 1.5^60, about 4e10) find no sign change.
    """
    flo = f(lo)
    fhi = f(hi)
    for _ in range(60):
        if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return lo, hi
        lo, flo = hi, fhi
        hi = hi * 1.5
        fhi = f(hi)
    raise SearchError(f"no sign change in [{lo}, {hi}] after 60 expansions")


def bisect_root(f: Callable[[float], float], a: float, b: float) -> float:
    """Deterministic bisection down to bracket collapse, at most 200 halvings.

    Requires f(a) and f(b) of opposite sign (or one exactly zero).
    Returns the endpoint with the smaller |f|.
    """
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise SearchError(f"bisect_root: no sign change on [{a}, {b}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # bracket collapsed to adjacent floats
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


# --------------------------------------------------------------------------
# Gauss-Kronrod 7-15 panel and adaptive driver
# --------------------------------------------------------------------------

# Standard (G7, K15) abscissas and weights on [-1, 1]; positive half shown,
# the rule is symmetric. Gauss nodes sit at indices 1, 3, 5, 7.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552591, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
)
_WG = (
    0.12948496616886969, 0.27970539148927666,
    0.38183005050511894, 0.41795918367346938,
)


def _fsum(terms: list[float]) -> float:
    """math.fsum, or NaN where it raises on an intermediate overflow or inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def gk15_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel over [a, b]: returns (K15 value, error estimate)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    sym = [f(c + x) + f(c - x) for x in (h * xk for xk in _XGK[:7])]
    k15 = _fsum([_WGK[7] * fc] + [w * v for w, v in zip(_WGK, sym)]) * h
    g7 = _fsum([_WG[3] * fc] + [w * v for w, v in zip(_WG, sym[1::2])]) * h
    return k15, abs(k15 - g7)


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        rel_tol: float, max_depth: int = 50) -> float:
    """Adaptive bisection with G7/K15 panels, deterministic left-to-right.

    The error target is apportioned to panels by width. The total, an
    exactly rounded sum, is additive over adjacent ranges to ~2*rel_tol.
    Once a panel is accepted unconverged, at the width floor or at the
    depth cap, raises AccuracyError unless the error estimate is
    <= rel_tol max(|value|, scale); NaN fails.
    """
    if b == a:
        return 0.0
    if b < a:
        raise SearchError(f"adaptive_quadrature: reversed range [{a}, {b}]")

    # Coarse scale estimate from a fixed 8-panel pass.
    scale = 0.0
    step = (b - a) / 8.0
    for i in range(8):
        v, _ = gk15_panel(f, a + i * step, a + (i + 1) * step)
        scale += abs(v)
    scale = max(scale, 1e-300)

    width = b - a
    accepted: list[float] = []
    err_total = 0.0
    stop = None  # what accepted the last unconverged panel, if one was
    # Explicit stack, rightmost pushed first so processing is left-to-right.
    stack: list[tuple[float, float, int]] = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        v, err = gk15_panel(f, lo, hi)
        converged = err <= rel_tol * scale * ((hi - lo) / width)
        at_floor = hi - lo <= abs(lo) * 1e-15 + 1e-300
        if converged or at_floor or depth >= max_depth:
            accepted.append(v)
            err_total += err
            if not converged:
                stop = "width floor" if at_floor else "depth cap"
            continue
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    value = _fsum(accepted)
    if stop:
        gate(err_total, rel_tol * max(abs(value), scale), "quadrature",
             lambda: f"quadrature {stop} reached; error estimate {err_total:.3e}")
    return value
