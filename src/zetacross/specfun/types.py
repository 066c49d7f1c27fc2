"""Value types shared by the special-function evaluators."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError


@dataclass(frozen=True)
class ComplexPoint:
    """A finite point in the complex plane (NaN/inf rejected)."""

    re: float
    im: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError(f"non-finite complex point ({self.re}, {self.im})")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexPoint":
        return cls(float(z.real), float(z.imag))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class EllipticModulus:
    """Jacobi modulus k with 0 < k^2 < 1 (open interval)."""

    k: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and 0.0 < self.k * self.k < 1.0):
            raise DomainError(f"elliptic modulus needs 0 < k^2 < 1, got k={self.k}")

    @property
    def k_prime(self) -> float:
        return math.sqrt((1.0 - self.k) * (1.0 + self.k))


def as_complex(z: complex | float | ComplexPoint) -> complex:
    """Coerce an argument to a finite python complex."""
    if isinstance(z, ComplexPoint):
        return z.to_complex()
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"non-finite argument {w}")
    return w
