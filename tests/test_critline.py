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


def test_mean_crossing_constant_integrand_flagged():
    seg = Segment(3.0, 4.0)
    with pytest.raises(DegeneracyError, match="numerically constant"):
        _mean_crossing(lambda t: 2.5, seg, 2.5)
    # a crossing narrower than one grid cell is not bracketed: the tent
    # peaks mid-cell and every grid point reads -1
    t0 = 3.0 + 0.5 / 1024

    def tent(t):
        return -1.0 + 2.0 * max(0.0, 1.0 - abs(t - t0) / 1e-4)

    with pytest.raises(DegeneracyError, match="no crossing"):
        _mean_crossing(tent, seg, 0.0)


def _full_scan_crossing(fn, seg, mean):
    """_mean_crossing without its early exit: all 1,025 grid points."""
    cells = 1024
    step = seg.length / cells
    ts = [min(seg.lo + i * step, seg.hi) for i in range(cells + 1)]
    hs = [fn(t) - mean for t in ts]
    if max(abs(h) for h in hs) <= 1e-13 * max(abs(mean), 1e-300):
        raise DegeneracyError("mean-value integrand is numerically constant")
    for i in range(1, cells + 1):
        if hs[i - 1] == 0.0 or (hs[i - 1] < 0.0) != (hs[i] < 0.0):
            return critline.bisect_root(lambda t: fn(t) - mean, ts[i - 1], ts[i])
    raise DegeneracyError("no crossing")


def _scan_counts(monkeypatch):
    """Spy recording, at each bisection, how many fn calls the scan made."""
    calls, at_bisect = [], []
    bisect = critline.bisect_root

    def spy(h, lo, hi):
        at_bisect.append(len(calls))
        return bisect(h, lo, hi)

    monkeypatch.setattr(critline, "bisect_root", spy)
    return calls, at_bisect


def test_mean_crossing_stops_at_first_settled_bracket(monkeypatch):
    seg = Segment(3.0, 4.0)
    step = seg.length / 1024
    calls, at_bisect = _scan_counts(monkeypatch)
    mean = 2.5 * step  # t - 3 crosses it mid-way through cell 3

    def line(t):
        calls.append(t)
        return t - 3.0

    alpha = _mean_crossing(line, seg, mean)
    assert at_bisect == [4]  # t_0 .. t_3, then bisection
    assert 3.0 + 2 * step < alpha < 3.0 + 3 * step
    monkeypatch.undo()
    assert alpha == _full_scan_crossing(line, seg, mean)


def test_mean_crossing_scans_on_until_not_constant(monkeypatch):
    # fn equals the mean exactly up to t_10, so cell 1 brackets at once;
    # h then rises by 4e-14 per cell and first clears 1e-13 at t_13
    seg = Segment(3.0, 4.0)
    step = seg.length / 1024
    calls, at_bisect = _scan_counts(monkeypatch)

    def ramp(t):
        calls.append(t)
        return 1.0 + 4e-14 * max(0, round((t - seg.lo) / step) - 10)

    alpha = _mean_crossing(ramp, seg, 1.0)
    assert at_bisect == [14]
    monkeypatch.undo()
    assert alpha == _full_scan_crossing(ramp, seg, 1.0) == seg.lo


def test_mean_crossing_flat_integrand_scans_everything(monkeypatch):
    # noise below 1e-13 of the mean brackets in cell 1 but never settles
    # the constant verdict, so the whole grid is read before it raises
    seg = Segment(3.0, 4.0)
    step = seg.length / 1024
    calls, _ = _scan_counts(monkeypatch)

    def flat(t):
        calls.append(t)
        return 2.5 + 1e-14 * (-1) ** round((t - seg.lo) / step)

    with pytest.raises(DegeneracyError, match="numerically constant"):
        _mean_crossing(flat, seg, 2.5)
    assert len(calls) == 1025


def test_mean_crossing_matches_full_scan_on_grid():
    m = LadderModel("ASYMPTOTIC")
    for U in (math.pi / 16, math.pi / 8, math.pi / 5):
        for L in (20, 100, 500):
            z = functools.cache(zeta.hardy_z)

            def z_sq(t):
                v = z(t)
                return v * v

            lifted = reverse_iterate(base_segment(U, L), m)
            means = {l: weighted_mean(l, lifted, m, z_sq=z_sq) for l in (1, 3)}
            means[2] = means[1] + means[3]
            for l in (1, 2, 3):
                g = weighted_integrand(l, m, z_sq)
                assert _mean_crossing(g, lifted, means[l]) == _full_scan_crossing(
                    g, lifted, means[l])


def test_mean_value_abscissa_interior_and_certified():
    m = LadderModel("ASYMPTOTIC")
    lifted = reverse_iterate(base_segment(math.pi / 8, 50), m)
    for l in (1, 2, 3):
        mean = weighted_mean(l, lifted, m)
        alpha, resid = mean_value_abscissa(l, lifted, m, mean)
        assert resid <= 1e-10
        assert lifted.lo < alpha < lifted.hi
        g = weighted_integrand(l, m)
        assert abs(g(alpha) - mean) <= 1e-10 * mean


def test_weighted_mean_with_shared_z_sq_bit_identical():
    m = LadderModel("ASYMPTOTIC")
    z = functools.cache(zeta.hardy_z)  # one memo across the three weights

    def z_sq(t):
        v = z(t)
        return v * v

    for L in (20, 843):  # Euler-Maclaurin and Riemann-Siegel heights
        lifted = reverse_iterate(base_segment(math.pi / 8, L), m)
        for l in (1, 2, 3):
            assert weighted_mean(l, lifted, m, z_sq=z_sq) == weighted_mean(l, lifted, m)


def test_mean_value_defect_against_doubled_refinement():
    # G_l(alpha1) |seg| vs the integral at doubled refinement
    m = LadderModel("ASYMPTOTIC")
    inst = build_mother_instance(math.pi / 8, 50, m, "EXACT")
    lifted = reverse_iterate(base_segment(math.pi / 8, 50), m)
    for idx, l in enumerate((1, 2, 3)):
        fine = weighted_mean(l, lifted, m, rel_tol=1e-12)
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
    # three unshared full 1024-cell scans cost ~3,590 Z calls per instance,
    # and three unshared mean quadratures ~1,530; with one memo and scans
    # that stop at their settled brackets, 879, 812 and 953 at U = pi/8
    # (Euler-Maclaurin) and 811 at the Riemann-Siegel window
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
        assert len(calls) <= 1000


def test_mother_instance_alpha1_matches_unshared_crossing():
    m = LadderModel("ASYMPTOTIC")
    for L in (20, 100, 500):
        inst = build_mother_instance(math.pi / 8, L, m, "EXACT")
        lifted = reverse_iterate(base_segment(math.pi / 8, L), m)
        for l in (1, 2, 3):
            alpha, resid = mean_value_abscissa(l, lifted, m, mean=inst.a[l - 1])
            assert resid == inst.placement_residual[l - 1]
            assert alpha == inst.alpha1[l - 1]


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
