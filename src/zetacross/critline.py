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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import AccuracyError, ConfigError, DegeneracyError, DomainError
from .numerics import adaptive_quadrature, bisect_root, expand_bracket
from .specfun import hardy_z

EULER_GAMMA = 0.5772156649015329
L_MIN = 10
U_MAX = 0.25 * math.pi
QUAD_REL = 1e-11  # every mean quadrature; middle-term additivity holds to 10 QUAD_REL

_MIN_ASYMPTOTIC_T = math.e ** 2
# A window that finishes leaves 135-435 distinct t after its means; the cap
# bounds the memory of a runaway quadrature and keeps the first 120 t, the
# quadrature's 8-panel pre-pass, which span the whole window.
_Z_MEMO_SIZE = 2048


@dataclass(frozen=True, slots=True)
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


def base_segment(U: float, L: int) -> Segment:
    """The window [pi L, pi L + U]; U in (0, pi/4), integer L >= L_MIN."""
    if not (0.0 < U < U_MAX):
        raise DomainError(f"U must lie in (0, pi/4), got {U}")
    if not isinstance(L, int) or L < L_MIN:
        raise DomainError(f"L must be an integer >= {L_MIN}, got {L}")
    lo = math.pi * L
    return Segment(lo, lo + U)


@dataclass(frozen=True, slots=True)
class LadderModel:
    """Strictly increasing map with phi1(T) < T.

    ASYMPTOTIC: phi1(T) = T - (1 - gamma) T / ln T   (T > e^2)
    AFFINE:     phi1(T) = T - delta                  (delta >= 0)

    The affine family includes the degenerate delta = 0 identity.
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

    @classmethod
    def parse(cls, text: str) -> "LadderModel":
        text = text.strip().lower()
        if text == "asymptotic":
            return cls("ASYMPTOTIC")
        if text.startswith("affine:"):
            try:
                return cls("AFFINE", float(text.split(":", 1)[1]))
            except ValueError as err:
                raise ConfigError(f"bad affine ladder delta in {text!r}") from err
        raise ConfigError(f"ladder model {text!r} is not asymptotic or affine:DELTA")

    def config_string(self) -> str:
        return "asymptotic" if self.kind == "ASYMPTOTIC" else f"affine:{self.delta!r}"


# weight index l = 1, 2, 3 -> sin, cos, cos 2t, and the weights f_l = sin^2,
# cos^2, cos 2t; gen1_target reads the first table, because sqrt(f_l) would
# not give |sin| and |cos| bit for bit
_UNSQUARED: dict[int, Callable[[float], float]] = {
    1: math.sin,
    2: math.cos,
    3: lambda t: math.cos(2.0 * t),
}
_WEIGHTS: dict[int, Callable[[float], float]] = {
    1: lambda t: math.sin(t) ** 2,
    2: lambda t: math.cos(t) ** 2,
    3: _UNSQUARED[3],
}


def weight_fn(l: int) -> Callable[[float], float]:
    if l not in _WEIGHTS:
        raise DomainError(f"weight index must be 1, 2 or 3, got {l}")
    return _WEIGHTS[l]


def gen1_target(l: int, alpha0: float) -> float:
    """|sin a0|, |cos a0| or |cos 2 a0|: the unsquared weight magnitude."""
    if l not in _UNSQUARED:
        raise DomainError(f"weight index must be 1, 2 or 3, got {l}")
    return abs(_UNSQUARED[l](alpha0))


def reverse_iterate(seg: Segment, model: LadderModel) -> Segment:
    """Preimage segment [x, y] with phi1(x) = seg.lo, phi1(y) = seg.hi.

    Raises DomainError when the preimage has no float width, as a base
    window narrower than the float spacing at its height does.
    """

    def solve(target: float) -> float:
        def h(t: float) -> float:
            return model.value(t) - target

        lo, hi = expand_bracket(h, target, max(target * 1.25, target + 1.0))
        root = bisect_root(h, lo, hi)
        if not abs(model.value(root) - target) <= 1e-10 * max(1.0, abs(target)):
            raise AccuracyError(
                f"ladder inversion residual too large at target {target}",
                achieved=model.value(root),
            )
        return root

    lifted = Segment(solve(seg.lo), solve(seg.hi))
    if not lifted.length > 0.0:
        raise DomainError(f"window [{seg.lo}, {seg.hi}] has no float width")
    return lifted


def _mean_crossing(fn: Callable[[float], float], nodes: Sequence[float],
                   mean: float) -> float:
    """Leftmost crossing of fn's mean over the increasing scan points nodes.

    Bisects between the first pair of adjacent nodes that straddle the
    mean, or whose left node meets it exactly. Raises DegeneracyError
    when every |fn - mean| at the nodes is <= 1e-13 |mean| (fn is
    numerically constant) or when no pair brackets a crossing.
    """
    h = [fn(t) - mean for t in nodes]
    if all(abs(v) <= 1e-13 * max(abs(mean), 1e-300) for v in h):
        raise DegeneracyError("mean-value integrand is numerically constant")
    for i in range(1, len(nodes)):
        if h[i - 1] == 0.0 or (h[i - 1] < 0.0) != (h[i] < 0.0):
            return bisect_root(lambda t: fn(t) - mean, nodes[i - 1], nodes[i])
    raise DegeneracyError(f"no crossing of the mean {mean!r} on [{nodes[0]}, {nodes[-1]}]")


def weighted_integrand(l: int, model: LadderModel,
                       z_sq: Callable[[float], float]) -> Callable[[float], float]:
    """G_l(t) = Z(t)^2 f_l(phi1(t)), with Z^2 from z_sq, which must give
    zeta_mod_sq's values bit for bit, e.g. from a memo."""
    f_l = weight_fn(l)

    def g(t: float) -> float:
        return z_sq(t) * f_l(model.value(t))

    return g


def weighted_mean(l: int, lifted: Segment, model: LadderModel, *,
                  z_sq: Callable[[float], float]) -> float:
    """Average of G_l over lifted by adaptive panels to QUAD_REL; z_sq as in
    weighted_integrand."""
    g = weighted_integrand(l, model, z_sq)
    return adaptive_quadrature(g, lifted.lo, lifted.hi, QUAD_REL) / lifted.length


def mean_value_abscissa(l: int, nodes: Sequence[float], model: LadderModel,
                        mean: float, *, z_sq: Callable[[float], float]
                        ) -> tuple[float, float]:
    """Point alpha1 where Z^2 f_l(phi1) equals mean, its average.

    nodes are increasing scan points inside the lifted window. Returns
    (alpha1, placement residual |G(alpha1) - mean| / mean) for the
    crossing _mean_crossing finds between them. Raises DegeneracyError
    where no pair of nodes brackets a crossing, and AccuracyError unless
    the residual is <= 1e-10; the residual floor is the t-axis float
    spacing times the local slope, so very large t would need a looser
    bound (the desk-scale grid stays an order of magnitude clear of it).
    z_sq, as in weighted_integrand, serves the scan, the bisection and
    the residual check.
    """
    g = weighted_integrand(l, model, z_sq)
    alpha1 = _mean_crossing(g, nodes, mean)
    resid = abs(g(alpha1) - mean) / max(abs(mean), 1e-300)
    if not resid <= 1e-10:
        raise AccuracyError(
            f"mean-value residual {resid:.3e} too large for weight {l}",
            achieved=resid,
        )
    return alpha1, resid


@dataclass(frozen=True, slots=True)
class MotherInstance:
    """One certified three-term instance over a (U, L) window.

    Each a_l is the certified quadrature mean of G_l over the lifted
    segment, attained at alpha1_l, the leftmost crossing of a_l among
    the t values the mean quadratures evaluated; c_l and g_l are
    the factor split a_l = c_l^2 g_l through the crossing equation, so
    c_l equals |Z(alpha1_l)| to the placement tolerance (recorded in
    placement_residual). The middle mean is evaluated through the
    pointwise identity f2 = f1 + f3 (a2 = a1 + a3 by integral
    additivity) and cross-checked against an independent quadrature of
    G_2 (additivity_residual); theta = (a1 + a3)/a2 is then exactly 1
    for this construction, which is what crossbreeding eliminates.
    Every residual here passed its gate when the instance was built,
    so mean_flags, kept for report readers, is always all False.
    """

    U: float
    L: int
    model: LadderModel
    alpha1: tuple[float, float, float]
    alpha0: tuple[float, float, float]
    c: tuple[float, float, float]
    g: tuple[float, float, float]
    a: tuple[float, float, float]
    theta: float
    placement_residual: tuple[float, float, float]
    additivity_residual: float

    @property
    def mean_flags(self) -> tuple[bool, bool, bool]:
        return (False, False, False)

    @property
    def max_a(self) -> float:
        return max(self.a)

    @property
    def identity_residual(self) -> float:
        return abs(self.a[0] - self.a[1] + self.a[2])


def build_mother_instance(U: float, L: int, model: LadderModel,
                          mode: str = "EXACT") -> MotherInstance:
    """Assemble the three averaged terms and their common factor theta.

    Raises DegeneracyError where a weight has no usable crossing, and
    AccuracyError unless each placement residual is <= 1e-10,
    |a1 - a2 + a3| <= 1e-8 max a_l (the numerical consequence of
    f1 - f2 + f3 = 0) and the quadrature additivity cross-check on the
    middle term holds to 10 QUAD_REL; NaN fails every gate. mode must
    be "EXACT"; it stays only for callers that pass it positionally.

    The three means and the three crossings share one Z evaluation per
    distinct t, through a memo of at most _Z_MEMO_SIZE entries that
    lives for this call only; every value is the one an unshared
    evaluation would give, bit for bit. Each weight's crossing is one
    scan of the Z values the means made, one bisection and one gate.
    The scan brackets up to rounding: the GK15 weights are positive, so
    each a_l is a convex combination of G_l at the accepted panels'
    nodes, all of which the scan reads (for a2 = a1 + a3, to the
    additivity gate's tolerance).
    """
    if mode != "EXACT":
        raise ConfigError(f"mode must be EXACT, got {mode!r}")
    base = base_segment(U, L)
    lifted = reverse_iterate(base, model)
    memo: dict[float, float] = {}

    def z_sq(t: float) -> float:
        v = memo.get(t)
        if v is None:
            v = hardy_z(t)
            if len(memo) < _Z_MEMO_SIZE:
                memo[t] = v
        return v * v

    means = {
        1: weighted_mean(1, lifted, model, z_sq=z_sq),
        3: weighted_mean(3, lifted, model, z_sq=z_sq),
    }
    means[2] = means[1] + means[3]
    mean2_direct = weighted_mean(2, lifted, model, z_sq=z_sq)
    additivity_residual = abs(means[2] - mean2_direct) / max(mean2_direct, 1e-300)
    if not additivity_residual <= 10.0 * QUAD_REL:
        raise AccuracyError(
            f"middle-term additivity cross-check failed: {additivity_residual:.3e}"
        )

    nodes = sorted(memo)  # before any bisection adds its points
    alpha1 = []
    alpha0 = []
    c_vals = []
    g_vals = []
    a_vals = []
    placement = []
    for l in (1, 2, 3):
        target = means[l]
        a1, resid = mean_value_abscissa(l, nodes, model, target, z_sq=z_sq)
        a0 = model.value(a1)
        if not (base.lo < a0 < base.hi):
            raise AccuracyError(
                f"alpha0 {a0} escaped the base window ({base.lo}, {base.hi})"
            )
        gl = weight_fn(l)(a0)
        if gl <= 0.0:
            raise DegeneracyError(f"weight {l} vanished at alpha0 = {a0}")
        cl = math.sqrt(target / gl)
        alpha1.append(a1)
        alpha0.append(a0)
        c_vals.append(cl)
        g_vals.append(gl)
        a_vals.append(target)
        placement.append(resid)

    a1_, a2_, a3_ = a_vals
    if a2_ <= 0.0:
        raise DegeneracyError("middle term vanished")
    theta = (a1_ + a3_) / a2_
    inst = MotherInstance(
        U=U, L=L, model=model,
        alpha1=tuple(alpha1), alpha0=tuple(alpha0),
        c=tuple(c_vals), g=tuple(g_vals), a=tuple(a_vals),
        theta=theta,
        placement_residual=tuple(placement),
        additivity_residual=additivity_residual,
    )
    if not inst.identity_residual <= 1e-8 * inst.max_a:
        raise AccuracyError(
            f"three-term identity residual {inst.identity_residual:.3e} "
            f"exceeds 1e-8 * {inst.max_a:.3e}"
        )
    return inst


__all__ = [
    "EULER_GAMMA", "L_MIN", "QUAD_REL", "U_MAX", "Segment", "base_segment",
    "LadderModel", "weight_fn", "gen1_target",
    "reverse_iterate", "mean_value_abscissa",
    "MotherInstance", "build_mother_instance",
]
