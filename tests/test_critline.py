"""Mean-value construction: segments, ladders, quadrature, instances."""

import functools
import math

import pytest

from zetacross import critline
from zetacross.critline import (
    EULER_GAMMA,
    QUAD_REL,
    LadderModel,
    Segment,
    base_segment,
    build_mother_instance,
    mean_value_abscissa,
    reverse_iterate,
    weight_fn,
    weighted_integrand,
    weighted_mean,
    _mean_crossing,
)
from zetacross.errors import AccuracyError, ConfigError, DegeneracyError, DomainError
from zetacross.harness import RunConfig, run
from zetacross.numerics import adaptive_quadrature
from zetacross.specfun import zeta, zeta_mod_sq

from oracles import simpson_refine_oracle, zeta_mod_sq_oracle

# frozen from the Simpson refinement oracle over the oracle integrand
HL_0_10 = 9.982734637918945


def test_segment_validation():
    with pytest.raises(DomainError):
        Segment(5.0, 4.0)
    with pytest.raises(DomainError):
        Segment(-1.0, 2.0)
    with pytest.raises(DomainError):
        base_segment(1.0, 50)  # U too large
    with pytest.raises(DomainError):
        base_segment(0.3, 3)  # L below desk-scale floor
    seg = base_segment(math.pi / 8, 50)
    assert seg.lo == pytest.approx(50 * math.pi)
    assert seg.length == pytest.approx(math.pi / 8)
    # U below the float spacing at 20 pi collapses the window to a point
    for m in (LadderModel("ASYMPTOTIC"), LadderModel("AFFINE", 2.0)):
        with pytest.raises(DomainError, match="no float width"):
            reverse_iterate(base_segment(1e-15, 20), m)


def test_weights_identity():
    # f1 - f2 + f3 vanishes identically
    worst = 0.0
    t = 0.1
    for _ in range(100000):
        t += 0.731
        v = weight_fn(1)(t) - weight_fn(2)(t) + weight_fn(3)(t)
        worst = max(worst, abs(v))
    assert worst <= 5e-16


def test_weights_at_pi_over_8():
    x = math.pi / 8
    assert weight_fn(1)(x) == pytest.approx(0.1464466, abs=1e-7)
    assert weight_fn(2)(x) == pytest.approx(0.8535534, abs=1e-7)
    assert weight_fn(3)(x) == pytest.approx(0.7071068, abs=1e-7)


def _hl(lo, hi):
    """Integral of Z(t)^2 over [lo, hi] at the pipeline's quadrature tolerance."""
    return adaptive_quadrature(zeta_mod_sq, lo, hi, QUAD_REL)


def test_hl_integral_degenerate_and_additive():
    assert _hl(7.0, 7.0) == 0.0
    left = _hl(10.0, 15.0)
    right = _hl(15.0, 20.0)
    full = _hl(10.0, 20.0)
    assert abs(left + right - full) <= 2e-11 * full


def test_hl_integral_against_refinement_oracle():
    got = _hl(0.0, 10.0)
    ref = simpson_refine_oracle(zeta_mod_sq_oracle, 0.0, 10.0, rel=1e-12)
    assert got == pytest.approx(HL_0_10, rel=1e-10)
    assert got == pytest.approx(ref, rel=1e-10)


def test_ladder_affine():
    m = LadderModel("AFFINE", 2.0)
    assert m.value(100.0) == 98.0


def test_ladder_asymptotic_formula_and_monotone():
    m = LadderModel("ASYMPTOTIC")
    for T in (math.pi * 1e3, math.pi * 3e4):
        direct = T - (1.0 - EULER_GAMMA) * T / math.log(T)
        assert m.value(T) == pytest.approx(direct, rel=1e-15)
        assert m.value(T) < T
    t = 9.0
    prev = m.value(t)
    for i in range(1000):
        t += 0.917
        cur = m.value(t)
        assert cur > prev
        prev = cur
    with pytest.raises(DomainError):
        m.value(2.0)


def test_ladder_parse_round_trip():
    for text in ("asymptotic", "affine:2.5", "affine:0.0"):
        m = LadderModel.parse(text)
        assert LadderModel.parse(m.config_string()) == m
    with pytest.raises(ConfigError):
        LadderModel.parse("spiral")
    with pytest.raises(ConfigError):
        LadderModel.parse("affine:abc")


def test_reverse_iterate_affine_exact():
    seg = Segment(100.0, 101.0)
    out = reverse_iterate(seg, LadderModel("AFFINE", 2.0))
    assert out.lo == pytest.approx(102.0, abs=1e-10)
    assert out.hi == pytest.approx(103.0, abs=1e-10)


def test_reverse_iterate_round_trip_asymptotic():
    m = LadderModel("ASYMPTOTIC")
    seg = base_segment(math.pi / 8, 1000)
    out = reverse_iterate(seg, m)
    assert abs(m.value(out.lo) - seg.lo) <= 1e-10 * seg.lo
    assert abs(m.value(out.hi) - seg.hi) <= 1e-10 * seg.hi
    assert out.lo > seg.lo  # phi1(T) < T forces the preimage upward


def _memo_z_sq():
    """Z^2 through a dict memo of Z, as build_mother_instance keeps it."""
    memo = {}

    def z_sq(t):
        if t not in memo:
            memo[t] = zeta.hardy_z(t)
        v = memo[t]
        return v * v

    return memo, z_sq


def test_mean_crossing_constant_integrand_flagged():
    nodes = [3.0 + i / 1024 for i in range(1025)]
    with pytest.raises(DegeneracyError, match="numerically constant"):
        _mean_crossing(lambda t: 2.5, nodes, 2.5)
    # a crossing narrower than the node spacing is not bracketed: the
    # tent peaks between two nodes and every node reads -1
    t0 = 3.0 + 0.5 / 1024

    def tent(t):
        return -1.0 + 2.0 * max(0.0, 1.0 - abs(t - t0) / 1e-4)

    with pytest.raises(DegeneracyError, match="no crossing"):
        _mean_crossing(tent, nodes, 0.0)


def test_mean_crossing_bisects_first_straddling_pair(monkeypatch):
    nodes = [3.0, 3.1, 3.15, 3.5, 3.55, 3.9, 4.0]
    brackets = []
    bisect = critline.bisect_root

    def spy(h, lo, hi):
        brackets.append((lo, hi))
        return bisect(h, lo, hi)

    monkeypatch.setattr(critline, "bisect_root", spy)
    alpha = _mean_crossing(lambda t: t - 3.0, nodes, 0.52)
    assert brackets == [(3.5, 3.55)]
    assert 3.5 < alpha < 3.55
    # a node that meets the mean exactly closes the first bracket and is
    # returned as the root; so is a first node that meets it
    brackets.clear()
    assert _mean_crossing(lambda t: t - 3.0, nodes, 0.5) == 3.5
    assert _mean_crossing(lambda t: t - 3.0, nodes, 0.0) == 3.0
    assert brackets == [(3.15, 3.5), (3.0, 3.1)]


def test_mean_value_abscissa_interior_and_certified():
    m = LadderModel("ASYMPTOTIC")
    lifted = reverse_iterate(base_segment(math.pi / 8, 50), m)
    memo, z_sq = _memo_z_sq()
    means = {l: weighted_mean(l, lifted, m, z_sq=z_sq) for l in (1, 2, 3)}
    nodes = sorted(memo)
    for l in (1, 2, 3):
        alpha, resid = mean_value_abscissa(l, nodes, m, means[l], z_sq=zeta_mod_sq)
        assert resid <= 1e-10
        assert lifted.lo < alpha < lifted.hi
        g = weighted_integrand(l, m, zeta_mod_sq)
        assert abs(g(alpha) - means[l]) <= 1e-10 * means[l]


def test_weighted_mean_with_shared_z_sq_bit_identical():
    m = LadderModel("ASYMPTOTIC")
    z = functools.cache(zeta.hardy_z)  # one memo across the three weights

    def z_sq(t):
        v = z(t)
        return v * v

    for L in (20, 843):  # Euler-Maclaurin and Riemann-Siegel heights
        lifted = reverse_iterate(base_segment(math.pi / 8, L), m)
        for l in (1, 2, 3):
            assert (weighted_mean(l, lifted, m, z_sq=z_sq)
                    == weighted_mean(l, lifted, m, z_sq=zeta_mod_sq))


def test_mean_value_defect_against_doubled_refinement():
    # G_l(alpha1) |seg| vs the integral at doubled refinement
    m = LadderModel("ASYMPTOTIC")
    inst = build_mother_instance(math.pi / 8, 50, m, "EXACT")
    lifted = reverse_iterate(base_segment(math.pi / 8, 50), m)
    for idx, l in enumerate((1, 2, 3)):
        g = weighted_integrand(l, m, zeta_mod_sq)
        fine = adaptive_quadrature(g, lifted.lo, lifted.hi, 1e-12) / lifted.length
        assert abs(inst.a[idx] - fine) <= 1e-9 * fine


def test_mother_instance_exact_grid():
    m = LadderModel("ASYMPTOTIC")
    for U in (math.pi / 16, math.pi / 8, math.pi / 5):
        for L in (20, 50, 100):
            inst = build_mother_instance(U, L, m, "EXACT")
            base = base_segment(U, L)
            lifted = reverse_iterate(base, m)
            assert inst.identity_residual <= 1e-8 * inst.max_a
            assert abs(inst.theta - 1.0) <= 1e-8
            for a1, a0 in zip(inst.alpha1, inst.alpha0):
                assert lifted.lo < a1 < lifted.hi
                assert base.lo < a0 < base.hi
            for a_val, g_val, c_val in zip(inst.a, inst.g, inst.c):
                assert a_val > 0.0 and g_val > 0.0 and c_val > 0.0
                assert a_val == pytest.approx(c_val * c_val * g_val, rel=1e-13)
            # c is |Z(alpha1)| up to the placement tolerance
            assert max(inst.placement_residual) <= 1e-10
            assert inst.additivity_residual <= 1e-10


def test_mother_instance_z_calls_shared_across_weights(monkeypatch):
    # three unshared mean quadratures cost ~1,530 Z calls per instance;
    # with one memo the means make 135-435 and each crossing only adds
    # its bisection, about 245 in all on these windows
    calls = []

    def counting(fn):
        def wrapped(t):
            calls.append(t)
            return fn(t)
        return wrapped

    for name in ("hardy_z_em", "hardy_z_rs"):
        monkeypatch.setattr(zeta, name, counting(getattr(zeta, name)))
    m = LadderModel("ASYMPTOTIC")
    for U, L in ((math.pi / 8, 20), (math.pi / 8, 100), (math.pi / 8, 500),
                 (0.20788119619068202, 843)):
        calls.clear()
        build_mother_instance(U, L, m, "EXACT")
        assert len(calls) <= 300


def test_mother_instance_crossing_scans_make_no_z_call(monkeypatch):
    # each weight's scan reads the Z values the means made; only its
    # bisection evaluates new points
    calls, events = [], []

    def spy(fn, name):
        def wrapped(*args, **kwargs):
            events.append((name, len(calls)))
            return fn(*args, **kwargs)
        return wrapped

    def counting_z(t):
        calls.append(t)
        return zeta.hardy_z(t)

    monkeypatch.setattr(critline, "hardy_z", counting_z)
    monkeypatch.setattr(critline, "mean_value_abscissa",
                        spy(critline.mean_value_abscissa, "crossing"))
    monkeypatch.setattr(critline, "bisect_root", spy(critline.bisect_root, "bisect"))
    build_mother_instance(math.pi / 8, 100, LadderModel("ASYMPTOTIC"))
    start = [i for i, (name, _) in enumerate(events) if name == "crossing"]
    assert len(start) == 3
    for i in start:
        assert events[i + 1][0] == "bisect"
        assert events[i + 1][1] == events[i][1]


def test_mother_instance_alpha1_matches_unshared_crossing():
    m = LadderModel("ASYMPTOTIC")
    for L in (20, 100, 500):
        inst = build_mother_instance(math.pi / 8, L, m, "EXACT")
        lifted = reverse_iterate(base_segment(math.pi / 8, L), m)
        memo, z_sq = _memo_z_sq()
        for l in (1, 3, 2):
            weighted_mean(l, lifted, m, z_sq=z_sq)
        nodes = sorted(memo)
        for l in (1, 2, 3):
            alpha, resid = mean_value_abscissa(l, nodes, m, mean=inst.a[l - 1],
                                               z_sq=zeta_mod_sq)
            assert resid == inst.placement_residual[l - 1]
            assert alpha == inst.alpha1[l - 1]


def test_mother_instance_z_memo_cap_keeps_coverage(monkeypatch):
    # the first 120 memo entries are the 8-panel pre-pass, which spans
    # the whole window, so a memo capped there still brackets every mean
    m = LadderModel("ASYMPTOTIC")
    full = build_mother_instance(math.pi / 8, 20, m)
    monkeypatch.setattr(critline, "_Z_MEMO_SIZE", 120)
    capped = build_mother_instance(math.pi / 8, 20, m)
    assert capped.a == full.a
    assert capped.alpha1 == full.alpha1


def test_mother_instance_deterministic():
    m = LadderModel("ASYMPTOTIC")
    a = build_mother_instance(math.pi / 8, 50, m, "EXACT")
    b = build_mother_instance(math.pi / 8, 50, m, "EXACT")
    assert a == b  # dataclass equality covers every field bit-for-bit


def test_mother_instance_affine_identity_ladder():
    # delta = 0: lifted segment equals the base segment
    m = LadderModel("AFFINE", 0.0)
    inst = build_mother_instance(math.pi / 8, 50, m, "EXACT")
    assert inst.theta == 1.0
    base = base_segment(math.pi / 8, 50)
    for a1, a0 in zip(inst.alpha1, inst.alpha0):
        assert a1 == a0
        assert base.lo < a0 < base.hi


def test_additivity_gate_rejects_nan(monkeypatch):
    # a NaN middle-term quadrature must fail the additivity gate, not
    # pass it and leave the window certified
    direct = critline.weighted_mean

    def nan_for_middle(l, *args, **kwargs):
        return math.nan if l == 2 else direct(l, *args, **kwargs)

    monkeypatch.setattr(critline, "weighted_mean", nan_for_middle)
    with pytest.raises(AccuracyError, match="additivity"):
        build_mother_instance(math.pi / 8, 20, LadderModel("ASYMPTOTIC"))
    entry = run(RunConfig(L_list=(20,)))["payload"]["runs"][0]
    assert entry["certified"] is False
    assert entry["error"].startswith("AccuracyError: middle-term additivity")


def test_placement_gate_raises_once(monkeypatch):
    # a failed placement is final: no shifted grid is tried
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise AccuracyError("mean-value residual too large", achieved=1.0)

    monkeypatch.setattr(critline, "mean_value_abscissa", failing)
    with pytest.raises(AccuracyError, match="mean-value residual"):
        build_mother_instance(math.pi / 8, 20, LadderModel("ASYMPTOTIC"))
    assert len(calls) == 1


def test_means_against_mpmath_quadrature():
    # each a_l against a 25-digit quadrature of Z(t)^2 f_l(phi1(t)) over
    # the same lifted window, to the additivity gate's 10 QUAD_REL
    mpmath = pytest.importorskip("mpmath")
    model = LadderModel("ASYMPTOTIC")
    inst = build_mother_instance(math.pi / 8, 20, model)
    lifted = reverse_iterate(base_segment(math.pi / 8, 20), model)
    weights = (lambda x: mpmath.sin(x) ** 2, lambda x: mpmath.cos(x) ** 2,
               lambda x: mpmath.cos(2 * x))

    def mean(f_l):
        def g(t):
            return mpmath.siegelz(t) ** 2 * f_l(t - (1 - mpmath.euler) * t / mpmath.log(t))
        lo, hi = mpmath.mpf(lifted.lo), mpmath.mpf(lifted.hi)
        return mpmath.quad(g, [lo, hi]) / (hi - lo)

    with mpmath.workdps(25):
        for a_l, f_l in zip(inst.a, weights):
            ref = mean(f_l)
            assert abs(a_l - ref) <= 10.0 * QUAD_REL * abs(ref)
