"""Level-curve solving: given a function family and a positive target v,
produce a complex point s with |F(s)| = v, certified by re-evaluation.

Each family class's solve walks canonical one-dimensional search paths
that jointly cover every reachable target:

  Cosine       real axis (v <= 1), then the imaginary axis where
               |cos iy| = cosh y grows without bound;
  Power(n)     closed form s = v^(1/n) on the positive real axis;
  RecipGamma   the real interval (0, x*] up to the gamma minimum, then
               the vertical line 1/2 + iy where |gamma|^2 = pi/cosh(pi y);
  Bessel(p)    the real axis (oscillatory, dense in [0, max]; scanned on
               the signed J_p), then the imaginary axis where |J_p(iy)|
               grows like I_p;
  Jacobi       the real quarter period, the vertical segment from K
               (sn climbs to 1/k, dn falls to 0), then the imaginary
               axis toward the shared pole at i K'.

A target that no canonical path reaches raises SearchError. Solutions
are deterministic: fixed grids, fixed expansion schedules, first-bracket
(smallest-|s|) selection along each path, paths tried in a fixed order.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from typing import Callable

from .critline import MotherInstance, gen1_target
from .errors import AccuracyError, DomainError, SearchError, gate
from .numerics import bisect_root
from .params import ParameterSet
from .specfun import (
    ComplexPoint,
    EllipticModulus,
    bessel_j,
    jacobi_elliptic,
    recip_gamma_abs,
)
from .specfun.jacobi import POLE_EXCLUSION, pole_distance

# abscissa of the gamma minimum on (0, inf), and the 1/|gamma| ridge there
_GAMMA_MIN_X = 1.4616321449683623
_RECIP_GAMMA_RIDGE = recip_gamma_abs(complex(_GAMMA_MIN_X, 0.0))
_JACOBI_KIND_BY_L = {1: "SN", 2: "CN", 3: "DN"}


class LevelFamily:
    """One of the five function families whose moduli are constrained.
    Each subclass holds its own parameters and defines abs_value(s) = |F(s)|,
    solve(v), a point on its canonical paths with |F| = v, and describe(),
    its label in reports and gate messages."""

    __slots__ = ()

    def near_pole(self, s: complex) -> bool:
        """Whether s lies in a pole's exclusion zone; no pole by default."""
        return False


@dataclass(frozen=True, slots=True)
class LevelCurveSpec:
    """A family plus a positive target modulus, tagged with its slot."""

    family: LevelFamily
    target: float
    slot: tuple[int, int]  # (n in 3..12, l in 1..3)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target) and self.target > 0.0):
            raise DomainError(f"level target must be positive, got {self.target}")
        n, l = self.slot
        if n not in range(3, 13) or l not in (1, 2, 3):
            raise DomainError(f"bad slot {self.slot}")
        fam, required = self.family, FAMILIES[(n - 3) % 5]
        if not isinstance(fam, required):
            raise DomainError(f"slot {self.slot} requires family {required.__name__}, "
                              f"got {type(fam).__name__}")
        if isinstance(fam, Jacobi) and fam.kind != _JACOBI_KIND_BY_L[l]:
            raise DomainError(f"slot {self.slot} requires jacobi kind {_JACOBI_KIND_BY_L[l]}")

    @property
    def generation(self) -> str:
        return "FIRST" if self.slot[0] <= 7 else "SECOND"


@dataclass(frozen=True, slots=True)
class LevelPoint:
    """A certified solution of |F(s)| = target, with the modulus |F(s)|."""

    spec: LevelCurveSpec
    s: ComplexPoint
    modulus: float

    @property
    def residual(self) -> float:
        return abs(self.modulus - self.spec.target)


RESIDUAL_TOL = 1e-10


def _certify(spec: LevelCurveSpec, s: complex) -> LevelPoint:
    point = LevelPoint(spec=spec, s=ComplexPoint.from_complex(s),
                       modulus=spec.family.abs_value(s))
    gate(point.residual, RESIDUAL_TOL * max(1.0, spec.target), "level", lambda: (
        f"level residual {point.residual:.3e} exceeds tolerance for "
        f"{spec.family.describe()} target {spec.target:.6g}"), slot=spec.slot)
    return point


def _bisect_on_path(fval: Callable[[float], float], v: float,
                    lo: float, hi: float) -> float | None:
    """Root of fval(x) = v on [lo, hi] if the endpoints bracket it."""
    try:
        return bisect_root(lambda x: fval(x) - v, lo, hi)
    except SearchError:
        return None


def _scan_first_bracket(fval: Callable[[float], float], v: float,
                        lo: float, hi: float, steps: int) -> float | None:
    """Leftmost crossing of |fval| = v on a fixed uniform grid, fval real
    and signed: a cell brackets when fval - s v changes sign, s the sign
    of its left end if above v, else of its right end."""
    x_prev = lo
    f_prev = fval(lo)
    if abs(f_prev) == v:
        return lo
    for i in range(1, steps + 1):
        x_i = lo + (hi - lo) * i / steps
        f_i = fval(x_i)
        if abs(f_i) == v:
            return x_i
        sv = math.copysign(v, f_prev if abs(f_prev) > v else f_i)
        if (f_prev - sv < 0.0) != (f_i - sv < 0.0):
            return bisect_root(lambda x: fval(x) - sv, x_prev, x_i)
        x_prev, f_prev = x_i, f_i
    return None


@dataclass(frozen=True, slots=True)
class Cosine(LevelFamily):
    def abs_value(self, s: complex) -> float:
        return abs(cmath.cos(s))

    def solve(self, v: float) -> complex:
        if v <= 1.0:
            return complex(math.acos(v), 0.0)
        return complex(0.0, math.acosh(v))

    def describe(self) -> str:
        return "cosine"


@dataclass(frozen=True, slots=True)
class Power(LevelFamily):
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"power family needs an integer n >= 1, got {self.n!r}")

    def abs_value(self, s: complex) -> float:
        return abs(s) ** self.n

    def solve(self, v: float) -> complex:
        s = v ** (1.0 / self.n)
        # one multiplicative Newton step squeezes out pow() rounding
        cur = s ** self.n
        if cur > 0.0:
            s *= (v / cur) ** (1.0 / self.n)
        return complex(s, 0.0)

    def describe(self) -> str:
        return f"power(n={self.n})"


@dataclass(frozen=True, slots=True)
class RecipGamma(LevelFamily):
    def abs_value(self, s: complex) -> float:
        return recip_gamma_abs(s)  # stable where gamma over/underflows

    def near_pole(self, s: complex) -> bool:
        return round(s.real) <= 0 and abs(s - round(s.real)) < POLE_EXCLUSION

    def solve(self, v: float) -> complex:
        if v <= _RECIP_GAMMA_RIDGE * (1.0 - 1e-12):
            lo = min(0.5 * v, 0.5)
            fval = lambda x: recip_gamma_abs(complex(x, 0.0))
            while fval(lo) > v and lo > 1e-300:
                lo *= 0.5
            root = _bisect_on_path(fval, v, lo, _GAMMA_MIN_X)
            if root is not None:
                return complex(root, 0.0)
        # vertical line: 1/|gamma(1/2+iy)| = sqrt(cosh(pi y)/pi)
        arg = math.pi * v * v
        if arg < 1.0:
            raise SearchError(f"1/gamma target {v} unreachable on canonical paths")
        y = math.acosh(arg) / math.pi
        return complex(0.5, y)

    def describe(self) -> str:
        return "recip_gamma"


@dataclass(frozen=True, slots=True)
class Bessel(LevelFamily):
    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise DomainError(f"bessel family needs an integer order, got {self.p!r}")

    def abs_value(self, s: complex) -> float:
        return abs(bessel_j(self.p, s))

    def solve(self, v: float) -> complex:
        p = abs(self.p)
        fval = lambda x: bessel_j(p, complex(x, 0.0)).real
        # Real axis within the validated |s| <= 50 domain: any target below
        # the envelope crosses inside the first lobes, so no expansion.
        root = _scan_first_bracket(fval, v, 0.0, 50.0, 400)
        if root is not None:
            return complex(root, 0.0)
        # imaginary axis: |J_p(iy)| = I_p(y), increasing; capped at the
        # validated argument domain
        gval = lambda y: abs(bessel_j(p, complex(0.0, y)))
        y_hi = 10.0
        while gval(y_hi) < v:
            y_hi *= 2.0
            if y_hi > 60.0:
                raise SearchError(
                    f"bessel target {v} out of reach within the validated domain"
                )
        root = _bisect_on_path(gval, v, 0.0, y_hi)
        if root is None:
            raise SearchError(f"bessel target {v} unreachable on canonical paths")
        return complex(0.0, root)

    def describe(self) -> str:
        return f"bessel(p={self.p})"


@dataclass(frozen=True, slots=True)
class Jacobi(LevelFamily):
    kind: str  # "SN", "CN" or "DN"
    modulus: EllipticModulus

    def __post_init__(self) -> None:
        if self.kind not in ("SN", "CN", "DN") or not isinstance(self.modulus, EllipticModulus):
            raise DomainError("jacobi family needs a kind SN, CN or DN and an "
                              f"EllipticModulus, got {self.kind!r}, {self.modulus!r}")

    def abs_value(self, s: complex) -> float:
        return abs(jacobi_elliptic(self.kind, s, self.modulus))

    def near_pole(self, s: complex) -> bool:
        return pole_distance(s, self.modulus) < POLE_EXCLUSION

    def solve(self, v: float) -> complex:
        kind, mod = self.kind, self.modulus
        big_k, big_kp = mod.big_k, mod.big_kp
        y_cap = big_kp - max(2.0 * POLE_EXCLUSION, 1e-9 * big_kp)

        def along_real(u: float) -> float:
            return abs(jacobi_elliptic(kind, complex(u, 0.0), mod))

        def along_kvert(y: float) -> float:
            return abs(jacobi_elliptic(kind, complex(big_k, y), mod))

        def along_imag(y: float) -> float:
            return abs(jacobi_elliptic(kind, complex(0.0, y), mod))

        root = _bisect_on_path(along_real, v, 0.0, big_k)
        if root is not None:
            return complex(root, 0.0)
        root = _bisect_on_path(along_kvert, v, 0.0, y_cap)
        if root is not None:
            return complex(big_k, root)
        root = _bisect_on_path(along_imag, v, 0.0, y_cap)
        if root is not None:
            return complex(0.0, root)
        raise SearchError(
            f"jacobi {kind} target {v} unreachable on canonical paths (k={mod.k:.6g})"
        )

    def describe(self) -> str:
        return f"jacobi({self.kind}, k={self.modulus.k:.6g})"


# the family of slot n is FAMILIES[(n - 3) % 5], in both generations
FAMILIES = (Cosine, Power, RecipGamma, Bessel, Jacobi)
# the two families without a parameter, shared by every slot and call
COSINE = Cosine()
RECIP_GAMMA = RecipGamma()


def level_point(spec: LevelCurveSpec) -> LevelPoint:
    """Solve |F(s)| = target on the family's canonical paths and certify
    the point to RESIDUAL_TOL max(1, target), raising AccuracyError past it."""
    return _certify(spec, spec.family.solve(spec.target))


# --------------------------------------------------------------------------
# Arc tracing
# --------------------------------------------------------------------------

ARC_RESIDUAL_TOL = 1e-9


def trace_level_arc(spec: LevelCurveSpec, start: LevelPoint, step: float,
                    count: int) -> list[LevelPoint]:
    """Predictor-corrector walk along |F(s)| = target.

    Every vertex is a LevelPoint re-certified to ARC_RESIDUAL_TOL *
    max(1, target); the walk stops early at pole-exclusion zones, at the
    family's domain edge (Bessel's |s| = 50), when a step is below the
    float spacing at s or when the corrector fails to re-converge.
    """
    if not (1e-4 < step < 1e-1):
        raise DomainError(f"arc step must lie in (1e-4, 1e-1), got {step}")
    if count < 0:
        raise DomainError("count must be nonnegative")
    fam = spec.family
    v = spec.target
    if not start.residual <= RESIDUAL_TOL * max(1.0, v):
        raise DomainError("start point is not certified")

    def gradient(at: complex) -> complex:
        h = 1e-6
        gx = (fam.abs_value(at + h) - fam.abs_value(at - h)) / (2.0 * h)
        gy = (fam.abs_value(at + h * 1j) - fam.abs_value(at - h * 1j)) / (2.0 * h)
        return complex(gx, gy)

    out: list[LevelPoint] = []
    s = start.s.to_complex()
    prev_tangent: complex | None = None
    with contextlib.suppress(DomainError):  # the domain's edge or a pole ends the walk
        for _ in range(count):
            grad = gradient(s)
            norm = abs(grad)
            if norm >= 1e-12:
                tangent = complex(-grad.imag, grad.real) / norm
                if prev_tangent is not None and (
                    tangent.real * prev_tangent.real + tangent.imag * prev_tangent.imag
                ) < 0.0:
                    tangent = -tangent
                predicted = s + step * tangent
            else:
                # stationary modulus (saddle): probe compass directions and
                # keep the first best off-level defect
                best = None
                for j in range(16):
                    direction = cmath.exp(complex(0.0, 2.0 * math.pi * j / 16.0))
                    cand = s + step * direction
                    defect = abs(fam.abs_value(cand) - v)
                    if best is None or defect < best[0]:
                        best = (defect, cand)
                predicted = best[1]
                if predicted == s:
                    break  # the step is below the float spacing at s
                tangent = (predicted - s) / abs(predicted - s)
            cgrad = gradient(predicted)
            cnorm = abs(cgrad)
            if cnorm < 1e-12:
                break  # cannot correct without a usable normal
            unit_grad = cgrad / cnorm

            def along_normal(r: float) -> float:
                return fam.abs_value(predicted + r * unit_grad)

            root = None
            half = 0.25 * step
            for _ in range(4):
                root = _bisect_on_path(along_normal, v, -half, half)
                if root is not None:
                    break
                half *= 2.0
            if root is None:
                break
            nxt = predicted + root * unit_grad
            if fam.near_pole(nxt):
                break
            vertex = LevelPoint(spec=spec, s=ComplexPoint.from_complex(nxt),
                                modulus=fam.abs_value(nxt))
            if not vertex.residual <= ARC_RESIDUAL_TOL * max(1.0, v):
                break
            out.append(vertex)
            prev_tangent = tangent
            s = nxt
    return out


# --------------------------------------------------------------------------
# Full assignment for one mother instance
# --------------------------------------------------------------------------

ALL_SLOTS = tuple((n, l) for n in range(3, 13) for l in (1, 2, 3))


def family_for_slot(n: int, l: int, params: ParameterSet) -> LevelFamily:
    """The function family attached to slot (n, l); first-generation
    slots (n <= 7) read parameter index l, second-generation l+3."""
    idx = (l - 1) if n <= 7 else (l + 2)
    family = FAMILIES[(n - 3) % 5]
    if family is Power:
        return Power(params.n[idx])
    if family is Bessel:
        return Bessel(params.p[idx])
    if family is Jacobi:
        return Jacobi(_JACOBI_KIND_BY_L[l], EllipticModulus(params.k[idx]))
    return COSINE if family is Cosine else RECIP_GAMMA


def spec_for_slot(slot: tuple[int, int], inst: MotherInstance,
                  params: ParameterSet) -> LevelCurveSpec:
    """Target c_l for the second generation, the unsquared weight value
    h_l at alpha0 for the first. The spec keeps the slot tuple it is given."""
    n, l = slot
    target = gen1_target(l, inst.alpha0[l - 1]) if n <= 7 else inst.c[l - 1]
    return LevelCurveSpec(family_for_slot(n, l, params), target, slot)


@dataclass(frozen=True, slots=True)
class LevelAssignment:
    """Certified points for all thirty (n, l) slots of one instance."""

    points: dict[tuple[int, int], LevelPoint]


def build_level_assignments(inst: MotherInstance, params: ParameterSet) -> LevelAssignment:
    """Solve all thirty loci for one instance; errors keep their type and
    carry their slot in the text, an AccuracyError its gate's fields too. Specs and
    points share the ALL_SLOTS tuples as their slot keys."""
    points: dict[tuple[int, int], LevelPoint] = {}
    for slot in ALL_SLOTS:
        spec = spec_for_slot(slot, inst, params)
        try:
            points[slot] = level_point(spec)
        except (SearchError, AccuracyError) as err:
            err.args = (f"slot (n={slot[0]}, l={slot[1]}): {err}",)
            raise
    return LevelAssignment(points=points)
