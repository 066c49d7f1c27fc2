"""Level-curve solving: given a function family and a positive target v,
produce a complex point s with |F(s)| = v, certified by re-evaluation.

Each family carries canonical one-dimensional search paths that jointly
cover every reachable target:

  cosine       real axis (v <= 1), then the imaginary axis where
               |cos iy| = cosh y grows without bound;
  powers       closed form s = v^(1/n) on the positive real axis;
  1/gamma      the real interval (0, x*] up to the gamma minimum, then
               the vertical line 1/2 + iy where |gamma|^2 = pi/cosh(pi y);
  bessel       the real axis (oscillatory, dense in [0, max]), then the
               imaginary axis where |J_p(iy)| grows like I_p;
  jacobi       the real quarter period, the vertical segment from K
               (sn climbs to 1/k, dn falls to 0), then the imaginary
               axis toward the shared pole at i K'.

A coarse-grid rectangle fallback backs the paths. Solutions are
deterministic: fixed grids, fixed expansion schedules, first-bracket
(smallest-|s|) selection along each path, paths tried in a fixed order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .critline import MotherInstance, gen1_target
from .errors import AccuracyError, DomainError, PoleError, SearchError
from .numerics import bisect_root
from .params import ParameterSet
from .specfun import (
    BesselOrder,
    ComplexPoint,
    EllipticModulus,
    bessel_j,
    elliptic_k,
    jacobi_elliptic,
    log_gamma_complex,
    recip_gamma_abs,
)
from .specfun.jacobi import POLE_EXCLUSION, pole_distance

# abscissa and height of the gamma minimum on (0, inf)
_GAMMA_MIN_X = 1.4616321449683623
_JACOBI_KIND_BY_L = {1: "SN", 2: "CN", 3: "DN"}
_FAMILY_KIND_BY_SLOT = {
    3: "COSINE", 8: "COSINE",
    4: "POWER", 9: "POWER",
    5: "RECIP_GAMMA", 10: "RECIP_GAMMA",
    6: "BESSEL", 11: "BESSEL",
    7: "JACOBI", 12: "JACOBI",
}


@dataclass(frozen=True)
class LevelFamily:
    """One of the five function families whose moduli are constrained."""

    kind: str
    n: int | None = None
    order: BesselOrder | None = None
    jacobi_kind: str | None = None
    modulus: EllipticModulus | None = None

    def __post_init__(self) -> None:
        if self.kind == "POWER":
            if self.n is None or self.n < 1:
                raise DomainError(f"power family needs n >= 1, got {self.n}")
        elif self.kind == "BESSEL":
            if self.order is None:
                raise DomainError("bessel family needs an integer order")
        elif self.kind == "JACOBI":
            if self.jacobi_kind not in ("SN", "CN", "DN") or self.modulus is None:
                raise DomainError("jacobi family needs a kind and a modulus")
        elif self.kind not in ("COSINE", "RECIP_GAMMA"):
            raise DomainError(f"unknown family kind {self.kind!r}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def cosine(cls) -> "LevelFamily":
        return cls("COSINE")

    @classmethod
    def power(cls, n: int) -> "LevelFamily":
        return cls("POWER", n=n)

    @classmethod
    def recip_gamma(cls) -> "LevelFamily":
        return cls("RECIP_GAMMA")

    @classmethod
    def bessel(cls, order: int | BesselOrder) -> "LevelFamily":
        if not isinstance(order, BesselOrder):
            order = BesselOrder(order)
        return cls("BESSEL", order=order)

    @classmethod
    def jacobi(cls, kind: str, k: float | EllipticModulus) -> "LevelFamily":
        if not isinstance(k, EllipticModulus):
            k = EllipticModulus(k)
        return cls("JACOBI", jacobi_kind=kind, modulus=k)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, s: complex) -> complex:
        if self.kind == "COSINE":
            return cmath.cos(s)
        if self.kind == "POWER":
            return s ** self.n
        if self.kind == "RECIP_GAMMA":
            return cmath.exp(-log_gamma_complex(s))
        if self.kind == "BESSEL":
            return bessel_j(self.order, s)
        return jacobi_elliptic(self.jacobi_kind, s, self.modulus)

    def abs_value(self, s: complex) -> float:
        if self.kind == "RECIP_GAMMA":
            return recip_gamma_abs(s)  # stable where gamma over/underflows
        if self.kind == "POWER":
            return abs(s) ** self.n
        return abs(self.evaluate(s))

    def reject_near_pole(self, s: complex) -> bool:
        if self.kind == "JACOBI":
            return pole_distance(s, self.modulus) < POLE_EXCLUSION
        if self.kind == "RECIP_GAMMA":
            n = round(s.real)
            return n <= 0 and abs(s - n) < POLE_EXCLUSION
        return False

    def describe(self) -> str:
        if self.kind == "POWER":
            return f"power(n={self.n})"
        if self.kind == "BESSEL":
            return f"bessel(p={self.order.p})"
        if self.kind == "JACOBI":
            return f"jacobi({self.jacobi_kind}, k={self.modulus.k:.6g})"
        return self.kind.lower()


@dataclass(frozen=True)
class LevelCurveSpec:
    """A family plus a positive target modulus, tagged with its slot."""

    family: LevelFamily
    target: float
    generation: str  # FIRST | SECOND
    slot: tuple[int, int]  # (n in 3..12, l in 1..3)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target) and self.target > 0.0):
            raise DomainError(f"level target must be positive, got {self.target}")
        n, l = self.slot
        if n not in _FAMILY_KIND_BY_SLOT or l not in (1, 2, 3):
            raise DomainError(f"bad slot {self.slot}")
        if _FAMILY_KIND_BY_SLOT[n] != self.family.kind:
            raise DomainError(
                f"slot {self.slot} requires family {_FAMILY_KIND_BY_SLOT[n]}, "
                f"got {self.family.kind}"
            )
        want_gen = "FIRST" if n <= 7 else "SECOND"
        if self.generation != want_gen:
            raise DomainError(f"slot {self.slot} is generation {want_gen}")
        if self.family.kind == "JACOBI" and self.family.jacobi_kind != _JACOBI_KIND_BY_L[l]:
            raise DomainError(
                f"slot {self.slot} requires jacobi kind {_JACOBI_KIND_BY_L[l]}"
            )


@dataclass(frozen=True)
class LevelPoint:
    """A certified solution of |F(s)| = target."""

    spec: LevelCurveSpec
    s: ComplexPoint
    residual: float


RESIDUAL_TOL = 1e-10


def _certify(spec: LevelCurveSpec, s: complex, res_tol: float) -> LevelPoint:
    resid = abs(spec.family.abs_value(s) - spec.target)
    if resid > res_tol * max(1.0, spec.target):
        raise AccuracyError(
            f"level residual {resid:.3e} exceeds tolerance for "
            f"{spec.family.describe()} target {spec.target:.6g}",
            achieved=resid,
        )
    return LevelPoint(spec=spec, s=ComplexPoint.from_complex(s), residual=resid)


def _bisect_on_path(fval: Callable[[float], float], v: float,
                    lo: float, hi: float) -> float | None:
    """Root of fval(x) = v on [lo, hi] if the endpoints bracket it."""
    def m(x: float) -> float:
        return fval(x) - v

    mlo, mhi = m(lo), m(hi)
    if mlo == 0.0:
        return lo
    if mhi == 0.0:
        return hi
    if (mlo < 0.0) == (mhi < 0.0):
        return None
    return bisect_root(m, lo, hi)


def _scan_first_bracket(fval: Callable[[float], float], v: float,
                        lo: float, hi: float, steps: int) -> float | None:
    """Leftmost path crossing of fval = v on a fixed uniform grid."""
    def m(x: float) -> float:
        return fval(x) - v

    x_prev = lo
    m_prev = m(lo)
    if m_prev == 0.0:
        return lo
    for i in range(1, steps + 1):
        x_i = lo + (hi - lo) * i / steps
        m_i = m(x_i)
        if m_i == 0.0:
            return x_i
        if (m_prev < 0.0) != (m_i < 0.0):
            return bisect_root(m, x_prev, x_i)
        x_prev, m_prev = x_i, m_i
    return None


def _solve_cosine(v: float) -> complex:
    if v <= 1.0:
        return complex(math.acos(v), 0.0)
    return complex(0.0, math.acosh(v))


def _solve_power(n: int, v: float) -> complex:
    s = v ** (1.0 / n)
    # one multiplicative Newton step squeezes out pow() rounding
    cur = s ** n
    if cur > 0.0:
        s *= (v / cur) ** (1.0 / n)
    return complex(s, 0.0)


def _solve_recip_gamma(v: float) -> complex:
    v_ridge = recip_gamma_abs(complex(_GAMMA_MIN_X, 0.0))
    if v <= v_ridge * (1.0 - 1e-12):
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


def _solve_bessel(order: BesselOrder, v: float) -> complex:
    p = abs(order.p)
    fval = lambda x: abs(bessel_j(p, complex(x, 0.0)))
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


def _solve_jacobi(kind: str, mod: EllipticModulus, v: float) -> complex:
    k = mod.k
    big_k = elliptic_k(k)
    big_kp = elliptic_k(mod.k_prime)
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
        f"jacobi {kind} target {v} unreachable on canonical paths (k={k:.6g})"
    )


def _grid_fallback(spec: LevelCurveSpec, res_tol: float) -> LevelPoint:
    """Coarse 64x64 modulus grid over an expanding square, then bisection
    along the first bracketing horizontal edge (lexicographic order)."""
    fam = spec.family
    v = spec.target
    size = 4.0
    for _ in range(3):
        n_cells = 64
        step = size / n_cells
        candidates: list[tuple[float, float, float, float]] = []
        for j in range(n_cells + 1):
            y = j * step
            prev_x = 0.0
            s0 = complex(prev_x, y)
            prev_m = fam.abs_value(s0) - v if not fam.reject_near_pole(s0) else math.nan
            for i in range(1, n_cells + 1):
                x = i * step
                s1 = complex(x, y)
                if fam.reject_near_pole(s1):
                    prev_m = math.nan
                    prev_x = x
                    continue
                cur_m = fam.abs_value(s1) - v
                if not math.isnan(prev_m) and (prev_m < 0.0) != (cur_m < 0.0):
                    mid = complex(0.5 * (prev_x + x), y)
                    candidates.append((abs(mid), mid.real, mid.imag, prev_x))
                prev_m = cur_m
                prev_x = x
        if candidates:
            candidates.sort()
            _, _, y, x_lo = candidates[0]
            root = _bisect_on_path(
                lambda x: fam.abs_value(complex(x, y)), v, x_lo, x_lo + step
            )
            if root is not None:
                return _certify(spec, complex(root, y), res_tol)
        size *= 2.0
    raise SearchError(
        f"target {v:.6g} unreachable for {fam.describe()} after 3 region expansions"
    )


def level_point(spec: LevelCurveSpec, res_tol: float = RESIDUAL_TOL) -> LevelPoint:
    """Solve |F(s)| = target on the family's canonical paths."""
    fam = spec.family
    v = spec.target
    try:
        if fam.kind == "COSINE":
            return _certify(spec, _solve_cosine(v), res_tol)
        if fam.kind == "POWER":
            return _certify(spec, _solve_power(fam.n, v), res_tol)
        if fam.kind == "RECIP_GAMMA":
            return _certify(spec, _solve_recip_gamma(v), res_tol)
        if fam.kind == "BESSEL":
            return _certify(spec, _solve_bessel(fam.order, v), res_tol)
        return _certify(spec, _solve_jacobi(fam.jacobi_kind, fam.modulus, v), res_tol)
    except (SearchError, AccuracyError, PoleError):
        return _grid_fallback(spec, res_tol)


# --------------------------------------------------------------------------
# Arc tracing
# --------------------------------------------------------------------------

ARC_RESIDUAL_TOL = 1e-9


def trace_level_arc(spec: LevelCurveSpec, start: LevelPoint, step: float,
                    count: int) -> list[ComplexPoint]:
    """Predictor-corrector walk along |F(s)| = target.

    Every vertex is re-certified to ARC_RESIDUAL_TOL * max(1, target);
    the walk stops early at pole-exclusion zones or when the corrector
    fails to re-converge, returning the vertices collected so far.
    """
    if not (1e-4 < step < 1e-1):
        raise DomainError(f"arc step must lie in (1e-4, 1e-1), got {step}")
    if count < 0:
        raise DomainError("count must be nonnegative")
    fam = spec.family
    v = spec.target
    if start.residual > RESIDUAL_TOL * max(1.0, v):
        raise DomainError("start point is not certified")

    def gradient(at: complex) -> complex:
        h = 1e-6
        gx = (fam.abs_value(at + h) - fam.abs_value(at - h)) / (2.0 * h)
        gy = (fam.abs_value(at + h * 1j) - fam.abs_value(at - h * 1j)) / (2.0 * h)
        return complex(gx, gy)

    out: list[ComplexPoint] = []
    s = start.s.to_complex()
    prev_tangent: complex | None = None
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
        if fam.reject_near_pole(nxt):
            break
        resid = abs(fam.abs_value(nxt) - v)
        if resid > ARC_RESIDUAL_TOL * max(1.0, v):
            break
        out.append(ComplexPoint.from_complex(nxt))
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
    kind = _FAMILY_KIND_BY_SLOT[n]
    idx = (l - 1) if n <= 7 else (l + 2)
    if kind == "COSINE":
        return LevelFamily.cosine()
    if kind == "POWER":
        return LevelFamily.power(params.n[idx])
    if kind == "RECIP_GAMMA":
        return LevelFamily.recip_gamma()
    if kind == "BESSEL":
        return LevelFamily.bessel(params.p[idx])
    return LevelFamily.jacobi(_JACOBI_KIND_BY_L[l], params.k[idx])


def spec_for_slot(n: int, l: int, inst: MotherInstance,
                  params: ParameterSet) -> LevelCurveSpec:
    """Target c_l for the second generation, the unsquared weight value
    h_l at alpha0 for the first."""
    family = family_for_slot(n, l, params)
    if n <= 7:
        target = gen1_target(l, inst.alpha0[l - 1])
        generation = "FIRST"
    else:
        target = inst.c[l - 1]
        generation = "SECOND"
    return LevelCurveSpec(family=family, target=target,
                          generation=generation, slot=(n, l))


@dataclass(frozen=True)
class LevelAssignment:
    """Certified points for all thirty (n, l) slots of one instance."""

    points: dict[tuple[int, int], LevelPoint]

    def point(self, n: int, l: int) -> LevelPoint:
        return self.points[(n, l)]


def build_level_assignments(inst: MotherInstance, params: ParameterSet,
                            res_tol: float = RESIDUAL_TOL) -> LevelAssignment:
    """Solve all thirty loci for one instance; errors carry their slot."""
    points: dict[tuple[int, int], LevelPoint] = {}
    for (n, l) in ALL_SLOTS:
        spec = spec_for_slot(n, l, inst, params)
        try:
            points[(n, l)] = level_point(spec, res_tol)
        except (SearchError, AccuracyError) as err:
            raise SearchError(f"slot (n={n}, l={l}): {err}") from err
    return LevelAssignment(points=points)
