"""Parameter tuples quantified over by the identity set, plus their
seeded random draws.

Draws use splitmix64 (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB) so any implementation in any
language reproduces the same parameter streams from the same seed:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    out = z ^ (z >> 31)

Integers map through `out mod range`; unit doubles take the top 53 bits
as out >> 11, scaled by 2^-53. Exponents draw from 1..6, orders from
-3..3, squared moduli uniformly from (0.05, 0.95).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import EllipticModulus

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; identical streams cross-language."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (modulo reduction; tiny ranges)."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True, slots=True)
class ParameterSet:
    """Exponents n (positive), orders p (any sign), moduli k (k^2 in (0,1))."""

    n: tuple[int, int, int, int, int, int]
    p: tuple[int, int, int, int, int, int]
    k: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.n) != 6 or len(self.p) != 6 or len(self.k) != 6:
            raise DomainError("parameter set needs six of each of n, p, k")
        for n_i in self.n:
            if not isinstance(n_i, int) or n_i < 1:
                raise DomainError(f"exponents must be positive integers, got {n_i}")
        for p_i in self.p:
            if not isinstance(p_i, int):
                raise DomainError(f"orders must be integers, got {p_i}")
        for k_i in self.k:
            EllipticModulus.check(k_i)  # 0 < k^2 < 1, without the AGMs


DEFAULT_PARAMS = ParameterSet(
    n=(1, 1, 1, 1, 1, 1),
    p=(0, 1, 2, 0, 1, 2),
    k=(0.5, 0.6, 0.7, 0.5, 0.6, 0.7),
)


def draw_parameter_set(seed: int, index: int = 0) -> ParameterSet:
    """The index-th seeded draw (index >= 0); consumes 18 generator outputs."""
    if index < 0:
        raise DomainError(f"draw index must be nonnegative, got {index}")
    gen = SplitMix64(seed)
    # skip 18 * index outputs: each one only adds the increment to the state
    gen.state = (gen.state + 18 * index * 0x9E3779B97F4A7C15) & _MASK64
    n = tuple(gen.next_int(1, 6) for _ in range(6))
    p = tuple(gen.next_int(-3, 3) for _ in range(6))
    k = tuple(math.sqrt(0.05 + 0.90 * gen.next_unit()) for _ in range(6))
    return ParameterSet(n=n, p=p, k=k)
