"""Mean-value construction on the critical line.

A base window [pi L, pi L + U] is lifted through the inverse of a
pluggable increasing map phi1 (the "ladder"); on the lifted window the
weighted integrand Z(t)^2 f_l(phi1(t)) attains its average at interior
points alpha1, whose images alpha0 = phi1(alpha1) fall back inside the
base window. The three weights sin^2, cos^2, cos 2t cancel identically
(f1 - f2 + f3 = 0), which forces the three averaged terms a_l into the
exact two-sided identity a1 - a2 + a3 = 0; theta = (a1 + a3)/a2 is the
factor later eliminated by cross-multiplying two instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from .errors import AccuracyError, ConfigError, DegeneracyError, DomainError
from .numerics import adaptive_quadrature, bisect_root, expand_bracket, newton_polish
from .specfun import hardy_z, zeta_mod_sq

EULER_GAMMA = 0.5772156649015329
L_MIN = 10
U_MAX = 0.25 * math.pi

_MIN_ASYMPTOTIC_T = math.e ** 2


@dataclass(frozen=True)
class Segment:
    """A closed interval on the positive t-axis."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        ok = math.isfinite(self.lo) and math.isfinite(self.hi)
        if not ok or self.lo < 0.0 or self.hi < self.lo:
            raise DomainError(f"bad segment [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def base_segment(U: float, L: int) -> Segment:
    """The window [pi L, pi L + U]; U in (0, pi/4), integer L >= L_MIN."""
    if not (0.0 < U < U_MAX):
        raise DomainError(f"U must lie in (0, pi/4), got {U}")
    if not isinstance(L, int) or L < L_MIN:
        raise DomainError(f"L must be an integer >= {L_MIN}, got {L}")
    lo = math.pi * L
    return Segment(lo, lo + U)


@dataclass(frozen=True)
class LadderModel:
    """Strictly increasing map with phi1(T) < T.

    ASYMPTOTIC: phi1(T) = T - (1 - gamma) T / ln T   (T > e^2)
    AFFINE:     phi1(T) = T - delta                  (delta >= 0)

    The affine family includes the degenerate delta = 0 identity, used
    by the scaling study as a null configuration.
    """

    kind: str = "ASYMPTOTIC"
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("ASYMPTOTIC", "AFFINE"):
            raise ConfigError(f"unknown ladder kind {self.kind!r}")
        if self.kind == "AFFINE" and not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"affine ladder needs delta >= 0, got {self.delta}")

    def value(self, t: float) -> float:
        if self.kind == "AFFINE":
            return t - self.delta
        if t <= _MIN_ASYMPTOTIC_T:
            raise DomainError(f"asymptotic ladder needs T > e^2, got {t}")
        return t - (1.0 - EULER_GAMMA) * t / math.log(t)

    def derivative(self, t: float) -> float:
        if self.kind == "AFFINE":
            return 1.0
        ln = math.log(t)
        return 1.0 - (1.0 - EULER_GAMMA) * (ln - 1.0) / (ln * ln)

    @classmethod
    def parse(cls, text: str) -> "LadderModel":
        text = text.strip().lower()
        if text == "asymptotic":
            return cls("ASYMPTOTIC")
        if text.startswith("affine:"):
            return cls("AFFINE", float(text.split(":", 1)[1]))
        if text == "affine":
            return cls("AFFINE", 0.0)
        raise ConfigError(f"cannot parse ladder model {text!r}")

    def config_string(self) -> str:
        if self.kind == "ASYMPTOTIC":
            return "asymptotic"
        return f"affine:{self.delta!r}"


def ladder_phi1(t: float, model: LadderModel) -> float:
    """phi1(t) under the given model."""
    return model.value(t)


class WeightKind(IntEnum):
    """The three window weights; f(SIN_SQ) - f(COS_SQ) + f(COS_2T) = 0."""

    SIN_SQ = 1
    COS_SQ = 2
    COS_2T = 3


# weight index l = 1, 2, 3 -> sin^2, cos^2, cos 2t
_WEIGHTS: dict[int, Callable[[float], float]] = {
    1: lambda t: math.sin(t) ** 2,
    2: lambda t: math.cos(t) ** 2,
    3: lambda t: math.cos(2.0 * t),
}


def weight_fn(l: int | WeightKind) -> Callable[[float], float]:
    if l not in _WEIGHTS:
        raise DomainError(f"weight index must be 1, 2 or 3, got {l}")
    return _WEIGHTS[l]


def gen1_target(l: int, alpha0: float) -> float:
    """|sin a0|, |cos a0| or |cos 2 a0|: the unsquared weight magnitude."""
    if l == 1:
        return abs(math.sin(alpha0))
    if l == 2:
        return abs(math.cos(alpha0))
    if l == 3:
        return abs(math.cos(2.0 * alpha0))
    raise DomainError(f"weight index must be 1, 2 or 3, got {l}")


def hl_integral(seg: Segment, rel_tol: float = 1e-11) -> float:
    """Integral of Z(t)^2 over seg by adaptive panels."""
    if rel_tol < 1e-12:
        raise ConfigError(f"rel_tol below 1e-12 is not supported, got {rel_tol}")
    if seg.length == 0.0:
        return 0.0
    return adaptive_quadrature(zeta_mod_sq, seg.lo, seg.hi, rel_tol)


def reverse_iterate(seg: Segment, model: LadderModel) -> Segment:
    """Preimage segment [x, y] with phi1(x) = seg.lo, phi1(y) = seg.hi."""

    def solve(target: float) -> float:
        def h(t: float) -> float:
            return model.value(t) - target

        lo, hi = expand_bracket(h, target, max(target * 1.25, target + 1.0))
        if lo == hi:
            root = lo
        else:
            root = bisect_root(h, lo, hi)
            root = newton_polish(h, model.derivative, root, lo, hi)
        if abs(model.value(root) - target) > 1e-10 * max(1.0, abs(target)):
            raise AccuracyError(
                f"ladder inversion residual too large at target {target}",
                achieved=model.value(root),
            )
        return root

    return Segment(solve(seg.lo), solve(seg.hi))


def _mean_crossing(fn: Callable[[float], float], seg: Segment, mean: float,
                   cells: int, offset: float = 0.0) -> tuple[float, bool]:
    """Leftmost point where fn crosses its mean on seg; flag if none.

    Scans a uniform grid (optionally phase-shifted for degeneracy
    retries), doubling up to 3 times, then bisects inside the first
    sign-change cell. The grid points depend only on seg, cells and
    offset, so in build_mother_instance the three weights' scans visit
    the same t values and share one Z^2 evaluation at each.
    """
    scale = max(abs(mean), 1e-300)

    def h(t: float) -> float:
        return fn(t) - mean

    for attempt in range(4):
        n = cells * (2 ** attempt)
        step = seg.length / n
        t_prev = seg.lo + offset * step
        h_prev = h(t_prev)
        h_max = abs(h_prev)
        bracket = None
        for i in range(1, n + 1):
            t_i = min(seg.lo + (i + offset) * step, seg.hi)
            h_i = h(t_i)
            h_max = max(h_max, abs(h_i))
            if bracket is None:
                if h_prev == 0.0:
                    bracket = (t_prev, t_prev)
                elif (h_prev < 0.0) != (h_i < 0.0):
                    bracket = (t_prev, t_i)
            t_prev, h_prev = t_i, h_i
            if t_i >= seg.hi:
                break
        if h_max <= 1e-13 * scale:
            return seg.midpoint, True  # numerically constant integrand
        if bracket is not None:
            lo, hi = bracket
            if lo == hi:
                return lo, False
            return bisect_root(h, lo, hi), False
    return seg.midpoint, True


def weighted_integrand(l: int, model: LadderModel,
                       z_sq: Callable[[float], float] | None = None
                       ) -> Callable[[float], float]:
    """G_l(t) = Z(t)^2 f_l(phi1(t)), with Z^2 from z_sq (zeta_mod_sq if None)."""
    f_l = weight_fn(l)
    z_sq = z_sq or zeta_mod_sq

    def g(t: float) -> float:
        return z_sq(t) * f_l(model.value(t))

    return g


def weighted_mean(l: int, lifted: Segment, model: LadderModel,
                  rel_tol: float = 1e-11) -> float:
    """Average of G_l over the lifted segment, by adaptive panels."""
    g = weighted_integrand(l, model)
    return adaptive_quadrature(g, lifted.lo, lifted.hi, rel_tol) / lifted.length


def mean_value_abscissa(l: int, lifted: Segment, model: LadderModel,
                        rel_tol: float = 1e-11, cells: int = 1024,
                        grid_offset: float = 0.0,
                        mean: float | None = None, *,
                        z_sq: Callable[[float], float] | None = None
                        ) -> tuple[float, bool]:
    """Point alpha1 in lifted where Z^2 f_l(phi1) equals its average.

    Returns (alpha1, flagged); flagged means the integrand was
    numerically constant and the midpoint rule was applied. The solved
    point is certified to |G(alpha1) - mean| <= 1e-10 mean; the residual
    floor is the t-axis float spacing times the local slope, so very
    large t would need a looser bound (the desk-scale grid stays an
    order of magnitude clear of it). z_sq, if given, replaces zeta_mod_sq
    in the crossing search and residual check only, never in the mean's
    quadrature; it must return zeta_mod_sq's values, e.g. from a memo.
    """
    g = weighted_integrand(l, model, z_sq)
    if mean is None:
        mean = weighted_mean(l, lifted, model, rel_tol)
    alpha1, flagged = _mean_crossing(g, lifted, mean, cells, grid_offset)
    if not flagged:
        resid = abs(g(alpha1) - mean)
        if resid > 1e-10 * max(abs(mean), 1e-300):
            raise AccuracyError(
                f"mean-value residual {resid:.3e} too large for weight {l}",
                achieved=resid,
            )
    return alpha1, flagged


@dataclass(frozen=True)
class MotherInstance:
    """One certified three-term instance over a (U, L) window.

    Each a_l is the certified quadrature mean of G_l over the lifted
    segment, attained at the solved crossing alpha1_l; c_l and g_l are
    the factor split a_l = c_l^2 g_l through the crossing equation, so
    c_l equals |Z(alpha1_l)| to the placement tolerance (recorded in
    placement_residual). The middle mean is evaluated through the
    pointwise identity f2 = f1 + f3 (a2 = a1 + a3 by integral
    additivity) and cross-checked against an independent quadrature of
    G_2 (additivity_residual); theta = (a1 + a3)/a2 is then exactly 1
    for this construction, which is what crossbreeding eliminates.
    """

    U: float
    L: int
    model: LadderModel
    mode: str
    alpha1: tuple[float, float, float]
    alpha0: tuple[float, float, float]
    c: tuple[float, float, float]
    g: tuple[float, float, float]
    a: tuple[float, float, float]
    theta: float
    mean_flags: tuple[bool, bool, bool]
    placement_residual: tuple[float, float, float]
    additivity_residual: float

    @property
    def max_a(self) -> float:
        return max(self.a)

    @property
    def identity_residual(self) -> float:
        return abs(self.a[0] - self.a[1] + self.a[2])


def build_mother_instance(U: float, L: int, model: LadderModel,
                          mode: str = "EXACT",
                          quad_rel: float = 1e-11) -> MotherInstance:
    """Assemble the three averaged terms and their common factor theta.

    EXACT mode additionally certifies |a1 - a2 + a3| <= 1e-8 max a_l
    (the numerical consequence of f1 - f2 + f3 = 0) and the quadrature
    additivity cross-check on the middle term.

    The crossing phase (three scans, their bisections, the zero check
    and the placement check) shares one Z evaluation per distinct t
    across the three weights, through a memo that lives for this call
    only; the quadratures for the means do not use it. Every value is
    the one an unshared evaluation would give, bit for bit.
    """
    if mode not in ("EXACT", "ASYMPTOTIC"):
        raise ConfigError(f"mode must be EXACT or ASYMPTOTIC, got {mode!r}")
    base = base_segment(U, L)
    lifted = reverse_iterate(base, model)

    means = {
        1: weighted_mean(1, lifted, model, quad_rel),
        3: weighted_mean(3, lifted, model, quad_rel),
    }
    means[2] = means[1] + means[3]
    mean2_direct = weighted_mean(2, lifted, model, quad_rel)
    additivity_residual = abs(means[2] - mean2_direct) / max(mean2_direct, 1e-300)

    z = functools.cache(hardy_z)

    def z_sq(t: float) -> float:
        v = z(t)
        return v * v

    alpha1 = []
    alpha0 = []
    c_vals = []
    g_vals = []
    a_vals = []
    flags = []
    placement = []
    for l in (1, 2, 3):
        target = means[l]
        a1 = None
        flagged = False
        last_err: AccuracyError | None = None
        for retry in range(4):
            try:
                a1, flagged = mean_value_abscissa(
                    l, lifted, model, rel_tol=quad_rel,
                    grid_offset=0.5 * retry / 4.0, mean=target, z_sq=z_sq,
                )
            except AccuracyError as err:
                last_err = err  # steep crossing; a shifted grid finds another
                continue
            if abs(z(a1)) >= 1e-12:
                break
        else:
            if last_err is not None:
                raise last_err
            raise DegeneracyError(
                f"abscissa for weight {l} pinned on a zeta zero at {a1}"
            )
        a0 = model.value(a1)
        if not (base.lo < a0 < base.hi):
            raise AccuracyError(
                f"alpha0 {a0} escaped the base window ({base.lo}, {base.hi})"
            )
        gl = weight_fn(l)(a0)
        if gl <= 0.0:
            raise DegeneracyError(f"weight {l} vanished at alpha0 = {a0}")
        cl = math.sqrt(target / gl)
        direct = weighted_integrand(l, model, z_sq)(a1)
        alpha1.append(a1)
        alpha0.append(a0)
        c_vals.append(cl)
        g_vals.append(gl)
        a_vals.append(target)
        flags.append(flagged)
        placement.append(abs(direct - target) / max(target, 1e-300))

    a1_, a2_, a3_ = a_vals
    if a2_ <= 0.0:
        raise DegeneracyError("middle term vanished")
    theta = (a1_ + a3_) / a2_
    inst = MotherInstance(
        U=U, L=L, model=model, mode=mode,
        alpha1=tuple(alpha1), alpha0=tuple(alpha0),
        c=tuple(c_vals), g=tuple(g_vals), a=tuple(a_vals),
        theta=theta, mean_flags=tuple(flags),
        placement_residual=tuple(placement),
        additivity_residual=additivity_residual,
    )
    if mode == "EXACT":
        if any(flags):
            raise DegeneracyError("mean-value flag raised in EXACT mode")
        if inst.identity_residual > 1e-8 * inst.max_a:
            raise AccuracyError(
                f"three-term identity residual {inst.identity_residual:.3e} "
                f"exceeds 1e-8 * {inst.max_a:.3e}"
            )
        if additivity_residual > 10.0 * quad_rel:
            raise AccuracyError(
                f"middle-term additivity cross-check failed: {additivity_residual:.3e}"
            )
    return inst


__all__ = [
    "EULER_GAMMA", "L_MIN", "U_MAX", "Segment", "base_segment",
    "LadderModel", "ladder_phi1", "WeightKind", "weight_fn", "gen1_target",
    "hl_integral", "reverse_iterate", "mean_value_abscissa",
    "MotherInstance", "build_mother_instance",
]
