"""Independent oracles used to freeze expected values in the test suite.

These deliberately do not share code with the package: fixed-term
Euler-Maclaurin with literal Bernoulli fractions (and the package's
former Bernoulli recurrence as an exact reference), an asymptotic-series
rotation angle, direct series for the Bessel zero bracket, plain AGM
for the elliptic quarter period (and the package's former AGM loop and
Jacobi path as bit-for-bit references), random triples for the generic
elimination identity, and the package's former sequential splitmix64
skip as a bit-for-bit reference. Keep them boring.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# B_2 .. B_30, literal values.
_B2K = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
]


def bernoulli_reference(n: int) -> list[Fraction]:
    """B_0 .. B_n by the recurrence sum_{j<=m} C(m+1, j) B_j = 0 over
    exact Fractions (B_1 = -1/2): even_bernoulli must give the even ones
    exactly."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, j), updated incrementally
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    return b


def draw_reference(seed: int, index: int) -> tuple[tuple, tuple, tuple]:
    """(n, p, k) of the index-th parameter draw by a plain splitmix64
    that steps through all 18 * index skipped outputs."""
    mask = (1 << 64) - 1
    state = seed & mask

    def next_u64() -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for _ in range(18 * index):
        next_u64()
    n = tuple(1 + next_u64() % 6 for _ in range(6))
    p = tuple(-3 + next_u64() % 7 for _ in range(6))
    k = tuple(math.sqrt(0.05 + 0.90 * ((next_u64() >> 11) * 2.0 ** -53)) for _ in range(6))
    return n, p, k


def zeta_half_oracle(t: float, n_terms: int = 1000) -> complex:
    """zeta(1/2 + it) by Euler-Maclaurin with a fixed 10^3-term head."""
    s = complex(0.5, t)
    total = 0.0 + 0.0j
    for n in range(1, n_terms):
        total += complex(n) ** (-s)
    big_n = float(n_terms)
    n_ms = complex(big_n) ** (-s)
    total += n_ms * big_n / (s - 1.0) + 0.5 * n_ms
    rising = s
    pw = n_ms / big_n
    for k, b in enumerate(_B2K, start=1):
        term = float(b) / math.factorial(2 * k) * rising * pw
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        pw /= big_n * big_n
    return total


def zeta_mod_sq_oracle(t: float) -> float:
    """|zeta(1/2 + it)|^2 from the fixed-term oracle."""
    return abs(zeta_half_oracle(t)) ** 2


def theta_asymptotic(t: float) -> float:
    """Rotation angle by its large-t series (valid t >~ 5)."""
    return (
        0.5 * t * math.log(t / (2.0 * math.pi))
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t ** 3)
        + 31.0 / (80640.0 * t ** 5)
    )


def hardy_z_oracle(t: float) -> float:
    """Signed Z(t) built from the oracle zeta and the asymptotic angle."""
    th = theta_asymptotic(t)
    return (complex(math.cos(th), math.sin(th)) * zeta_half_oracle(t)).real


def bisect_oracle(f, a: float, b: float, iters: int = 200) -> float:
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def j0_series_oracle(x: float) -> float:
    """J_0 by its plain ascending series (adequate for |x| < 6)."""
    term = 1.0
    acc = 1.0
    q = -0.25 * x * x
    for m in range(60):
        term *= q / ((m + 1.0) ** 2)
        acc += term
        if abs(term) < 1e-19:
            break
    return acc


def agm_k_oracle(k: float, iters: int = 8) -> float:
    """K(k) by eight fixed AGM steps."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(iters):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def elliptic_k_reference(k: float) -> float:
    """K(k) by the AGM loop that stops only once a == b, else after 60
    steps: elliptic_k must give its values bit for bit."""
    if k == 0.0:
        return 0.5 * math.pi
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(60):
        if abs(a - b) <= 1e-17 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def sncndn_reference(u: complex, k: float) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) away from the poles by the package's former path,
    which took K(k) and K(k') afresh from elliptic_k_reference on every
    call: sncndn_complex must match it bit for bit."""
    kp = math.sqrt((1.0 - k) * (1.0 + k))

    def real(x: float, m: float) -> tuple[float, float, float]:
        m2 = m * m
        mp = math.sqrt((1.0 - m) * (1.0 + m))
        if m < 1e-8:
            sn, cn = math.sin(x), math.cos(x)
            return sn, cn, math.sqrt(1.0 - m2 * sn * sn)
        big = elliptic_k_reference(m)
        v = math.fmod(x, 4.0 * big)
        if v < 0.0:
            v += 4.0 * big
        qi = min(int(divmod(v, big)[0]), 3)
        r = v - qi * big
        w, s_sn, s_cn = ((r, 1.0, 1.0), (big - r, 1.0, -1.0),
                         (r, -1.0, -1.0), (big - r, -1.0, 1.0))[qi]
        a, b, c = 1.0, mp, m
        a_list, c_list, n = [a], [c], 0
        while abs(c) > 1e-16 * a and n < 40:
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
            a_list.append(a)
            c_list.append(c)
            n += 1
        phi = (2.0 ** n) * a_list[n] * w
        for i in range(n, 0, -1):
            arg = max(-1.0, min(1.0, c_list[i] / a_list[i] * math.sin(phi)))
            phi = 0.5 * (phi + math.asin(arg))
        sn, cn = math.sin(phi), math.cos(phi)
        return s_sn * sn, s_cn * cn, math.sqrt(1.0 - m2 * sn * sn)

    s, c, d = real(u.real, k)
    if u.imag == 0.0:
        return complex(s), complex(c), complex(d)
    s1, c1, d1 = real(u.imag, kp)
    k2 = k * k
    den = c1 * c1 + k2 * s * s * s1 * s1
    return (complex(s * d1, c * d * s1 * c1) / den,
            complex(c * c1, -s * d * s1 * d1) / den,
            complex(d * c1 * d1, -k2 * s * c * s1) / den)


def crossbreeding_property_residuals(count: int, seed: int = 123456789) -> np.ndarray:
    """Residuals of the generic elimination identity on random triples.

    Draws theta > 0 and positive middle terms, splits the outer sum
    randomly, and returns |(a1+a3) b2 - (b1+b3) a2| / max(lhs, rhs).
    """
    rng = np.random.RandomState(seed)
    theta = np.exp(rng.uniform(-3.0, 3.0, size=count))
    a2 = np.exp(rng.uniform(-6.0, 6.0, size=count))
    b2 = np.exp(rng.uniform(-6.0, 6.0, size=count))
    ua = rng.uniform(1e-6, 1.0 - 1e-6, size=count)
    ub = rng.uniform(1e-6, 1.0 - 1e-6, size=count)
    a1 = ua * theta * a2
    a3 = (1.0 - ua) * theta * a2
    b1 = ub * theta * b2
    b3 = (1.0 - ub) * theta * b2
    lhs = (a1 + a3) * b2
    rhs = (b1 + b3) * a2
    return np.abs(lhs - rhs) / np.maximum(lhs, rhs)


def simpson_refine_oracle(f, a: float, b: float, rel: float = 1e-11,
                          max_levels: int = 24) -> float:
    """Composite Simpson with interval doubling until two levels agree."""
    prev = None
    n = 16
    for _ in range(max_levels):
        h = (b - a) / n
        acc = f(a) + f(b)
        for i in range(1, n):
            acc += f(a + i * h) * (4.0 if i % 2 else 2.0)
        val = acc * h / 3.0
        if prev is not None and abs(val - prev) <= rel * max(abs(val), 1e-30):
            return val
        prev = val
        n *= 2
    return prev
