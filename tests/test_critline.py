"""Mean-value construction: segments, ladders, quadrature, instances."""

import math

import pytest

from zetacross.critline import (
    EULER_GAMMA,
    LadderModel,
    Segment,
    base_segment,
    build_mother_instance,
    hl_integral,
    ladder_phi1,
    mean_value_abscissa,
    reverse_iterate,
    weight_fn,
    weighted_integrand,
    weighted_mean,
    _mean_crossing,
)
from zetacross.errors import ConfigError, DomainError
from zetacross.specfun import zeta

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


def test_hl_integral_degenerate_and_additive():
    assert hl_integral(Segment(7.0, 7.0)) == 0.0
    left = hl_integral(Segment(10.0, 15.0))
    right = hl_integral(Segment(15.0, 20.0))
    full = hl_integral(Segment(10.0, 20.0))
    assert abs(left + right - full) <= 2e-11 * full


def test_hl_integral_against_refinement_oracle():
    got = hl_integral(Segment(0.0, 10.0), 1e-11)
    ref = simpson_refine_oracle(zeta_mod_sq_oracle, 0.0, 10.0, rel=1e-12)
    assert got == pytest.approx(HL_0_10, rel=1e-10)
    assert got == pytest.approx(ref, rel=1e-10)


def test_hl_integral_rejects_loose_tolerance_floor():
    with pytest.raises(ConfigError):
        hl_integral(Segment(1.0, 2.0), rel_tol=1e-13)


def test_ladder_affine():
    m = LadderModel("AFFINE", 2.0)
    assert ladder_phi1(100.0, m) == 98.0
    assert m.derivative(100.0) == 1.0


def test_ladder_asymptotic_formula_and_monotone():
    m = LadderModel("ASYMPTOTIC")
    for T in (math.pi * 1e3, math.pi * 3e4):
        direct = T - (1.0 - EULER_GAMMA) * T / math.log(T)
        assert ladder_phi1(T, m) == pytest.approx(direct, rel=1e-15)
        assert ladder_phi1(T, m) < T
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
    alpha, flagged = _mean_crossing(lambda t: 2.5, seg, 2.5, cells=64)
    assert flagged
    assert alpha == seg.midpoint


def test_mean_value_abscissa_interior_and_certified():
    m = LadderModel("ASYMPTOTIC")
    lifted = reverse_iterate(base_segment(math.pi / 8, 50), m)
    for l in (1, 2, 3):
        alpha, flagged = mean_value_abscissa(l, lifted, m)
        assert not flagged
        assert lifted.lo < alpha < lifted.hi
        g = weighted_integrand(l, m)
        mean = weighted_mean(l, lifted, m)
        assert abs(g(alpha) - mean) <= 1e-10 * mean


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
    # three unshared 1024-cell scans cost ~3,590 Z calls per instance
    calls = []

    def counting(fn):
        def wrapped(t):
            calls.append(t)
            return fn(t)
        return wrapped

    for name in ("hardy_z_em", "hardy_z_rs"):
        monkeypatch.setattr(zeta, name, counting(getattr(zeta, name)))
    m = LadderModel("ASYMPTOTIC")
    for L in (20, 100, 500):
        calls.clear()
        build_mother_instance(math.pi / 8, L, m, "EXACT")
        assert len(calls) <= 1600


def test_mother_instance_alpha1_matches_unshared_crossing():
    m = LadderModel("ASYMPTOTIC")
    for L in (20, 100, 500):
        inst = build_mother_instance(math.pi / 8, L, m, "EXACT")
        lifted = reverse_iterate(base_segment(math.pi / 8, L), m)
        for l in (1, 2, 3):
            alpha, flagged = mean_value_abscissa(l, lifted, m, mean=inst.a[l - 1])
            assert not flagged
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
