"""The five classical-function reproductions of the three-term identity
and the ten exact equations obtained by eliminating their common factor.

Each transmutation T1..T5 rebuilds the terms a_l = c_l^2 g_l as products
of function moduli pinned on level curves: the second-generation factor
(target c_l) always enters squared, the first-generation factor (target
the unsquared weight h_l) enters squared for l = 1, 2 and to the first
power for l = 3, mirroring g_1 = h_1^2, g_2 = h_2^2, g_3 = h_3. Printed
sources occasionally drop the square on the l = 3 second-generation
factor; the power rule above is forced by term equality b_l = a_l and is
applied uniformly (see the project notes on reconciled typos).

Crossbreeding two instances A, B with the same factor theta multiplies
the outer terms of one against the middle term of the other:
(A.b1 + A.b3) B.b2 = (B.b1 + B.b3) A.b2, exactly, since both sides
equal theta A.b2 B.b2. Like the transmutations, each crossbred equation
is certified where it is made, to TERM_EQUALITY_TOL relative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .critline import MotherInstance
from .errors import AccuracyError, ContractError, DomainError
from .levelset import LevelAssignment

TRANSMUTATION_IDS = ("T1", "T2", "T3", "T4", "T5")

# (first-generation slot, second-generation slot) per transmutation
TRANSMUTATION_SLOTS = {
    "T1": (3, 8),
    "T2": (4, 9),
    "T3": (5, 10),
    "T4": (6, 11),
    "T5": (7, 12),
}

# every two of the five, in the canonical listing order (T1,T2), (T1,T3), ..., (T4,T5)
CROSSBREED_PAIRS = tuple(itertools.combinations(TRANSMUTATION_IDS, 2))

# each listed pair keyed by itself, so the equations share its tuples
_LISTED_PAIR = {pair: pair for pair in CROSSBREED_PAIRS}

TERM_EQUALITY_TOL = 1e-8  # relative; bounds the transmutations and the ten crossbreeds


@dataclass(frozen=True, slots=True)
class TransmutationInstance:
    """Three composite terms b_l reproducing a_l, with the shared factor."""

    id: str
    b: tuple[float, float, float]
    theta: float

    def __post_init__(self) -> None:
        if self.id not in TRANSMUTATION_IDS:
            raise DomainError(f"unknown transmutation id {self.id!r}")
        if not all(x > 0.0 and math.isfinite(x) for x in self.b):
            raise DomainError(f"terms must be positive finite, got {self.b}")

    @property
    def three_term_residual(self) -> float:
        """|b1 - theta b2 + b3| relative to the largest term."""
        return abs(self.b[0] - self.theta * self.b[1] + self.b[2]) / max(self.b)


@dataclass(frozen=True, slots=True)
class MetaEquation:
    """One crossbred identity (a1+a3) b2 = (b1+b3) a2."""

    pair: tuple[str, str]
    lhs: float
    rhs: float
    residual: float

    @property
    def label(self) -> str:
        return f"{self.pair[0]}x{self.pair[1]}"


def make_transmutation(tid: str, inst: MotherInstance,
                       assign: LevelAssignment) -> TransmutationInstance:
    """Assemble b_l from the assignment's certified points and certify
    term equality b_l = a_l and the three-term identity, each to
    TERM_EQUALITY_TOL relative, raising AccuracyError past it."""
    if tid not in TRANSMUTATION_SLOTS:
        raise DomainError(f"unknown transmutation id {tid!r}")
    n1, n2 = TRANSMUTATION_SLOTS[tid]
    b = []
    for l in (1, 2, 3):
        w1 = assign.points[(n1, l)].modulus
        w2 = assign.points[(n2, l)].modulus
        if l == 3:
            b_l = w1 * (w2 * w2)
        else:
            b_l = (w1 * w1) * (w2 * w2)
        a_l = inst.a[l - 1]
        rel = abs(b_l - a_l) / a_l
        if not rel <= TERM_EQUALITY_TOL:
            raise AccuracyError(
                f"transmutation {tid}, term l={l}: |b - a| / a = "
                f"{rel:.3e} exceeds {TERM_EQUALITY_TOL:.1e} (a = {a_l:.6g})"
            )
        b.append(b_l)
    out = TransmutationInstance(id=tid, b=tuple(b), theta=inst.theta)
    if not out.three_term_residual <= TERM_EQUALITY_TOL:
        raise AccuracyError(
            f"transmutation {tid}: three-term residual {out.three_term_residual:.3e}"
        )
    return out


def crossbreed(a: TransmutationInstance, b: TransmutationInstance) -> MetaEquation:
    """Eliminate the common factor between two instances and certify the
    equation's residual to TERM_EQUALITY_TOL, raising AccuracyError past it."""
    if a.theta != b.theta:
        raise ContractError(
            f"cannot crossbreed across different factors ({a.theta} vs {b.theta})"
        )
    lhs = (a.b[0] + a.b[2]) * b.b[1]
    rhs = (b.b[0] + b.b[2]) * a.b[1]
    residual = abs(lhs - rhs) / max(lhs, rhs)
    if not residual <= TERM_EQUALITY_TOL:
        raise AccuracyError(f"crossbreed {a.id}x{b.id}: residual {residual:.3e} "
                            f"exceeds {TERM_EQUALITY_TOL:.1e}", achieved=residual)
    pair = _LISTED_PAIR.get((a.id, b.id), (a.id, b.id))
    return MetaEquation(pair=pair, lhs=lhs, rhs=rhs, residual=residual)


def second_generation(inst: MotherInstance,
                      assign: LevelAssignment) -> list[MetaEquation]:
    """All ten certified crossbreeds of the five transmutations, in listing order."""
    instances = {
        tid: make_transmutation(tid, inst, assign) for tid in TRANSMUTATION_IDS
    }
    return [crossbreed(instances[x], instances[y]) for (x, y) in CROSSBREED_PAIRS]
