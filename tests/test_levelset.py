"""Level-curve solving: closed forms, canonical paths, tracing, slots."""

import dataclasses
import math

import pytest

from zetacross.critline import LadderModel, build_mother_instance, gen1_target
from zetacross.errors import AccuracyError, DomainError, SearchError
from zetacross.levelset import (
    ALL_SLOTS,
    COSINE,
    RECIP_GAMMA,
    Bessel,
    Cosine,
    Jacobi,
    LevelCurveSpec,
    LevelPoint,
    Power,
    RecipGamma,
    build_level_assignments,
    family_for_slot,
    level_point,
    trace_level_arc,
)
from zetacross.params import DEFAULT_PARAMS, SplitMix64, draw_parameter_set
from zetacross.specfun import ComplexPoint, EllipticModulus, bessel_j, elliptic_k, jacobi_elliptic


# the second-generation slot n of each family class
SLOT_BY_CLASS = {Cosine: 8, Power: 9, RecipGamma: 10, Bessel: 11, Jacobi: 12}


def _spec(family, v):
    l = {"SN": 1, "CN": 2, "DN": 3}[family.kind] if isinstance(family, Jacobi) else 1
    return LevelCurveSpec(family, v, (SLOT_BY_CLASS[type(family)], l))


def test_power_closed_form():
    p = level_point(_spec(Power(2), 4.0))
    assert p.s.re == pytest.approx(2.0, abs=1e-15)
    assert p.s.im == 0.0
    assert p.residual <= 1e-10 * 4.0


def test_cosine_values():
    p = level_point(_spec(COSINE, 1.0))
    assert (p.s.re, p.s.im) == (0.0, 0.0)
    p = level_point(_spec(COSINE, 1.5430806348152437))  # cosh 1
    assert p.s.re == 0.0
    assert p.s.im == pytest.approx(1.0, rel=1e-12)


def test_recip_gamma_unit_target_on_real_axis():
    p = level_point(_spec(RECIP_GAMMA, 1.0))
    assert p.s.im == 0.0
    assert p.s.re == pytest.approx(1.0, rel=1e-9)


def test_bessel_small_target_before_first_zero():
    # |J_0| dips below a small v only in a narrow window around each zero;
    # the signed real-axis scan brackets it just left of j_{0,1} = 2.404826
    for v, x in ((1.3564e-4, 2.404564), (3.13e-3, 2.398804)):
        pt = level_point(_spec(Bessel(0), v))
        assert pt.s.im == 0.0
        assert pt.s.re == pytest.approx(x, abs=1e-6)
        assert pt.residual <= 1e-10


def test_jacobi_sn_half():
    fam = Jacobi("SN", EllipticModulus(0.5))
    p = level_point(LevelCurveSpec(fam, 0.5, (12, 1)))
    assert p.s.im == 0.0
    assert 0.0 < p.s.re < elliptic_k(0.5)
    got = jacobi_elliptic("SN", p.s.to_complex(), 0.5)
    assert abs(got) == pytest.approx(0.5, abs=1e-12)


def test_spec_slot_validation():
    with pytest.raises(DomainError):
        LevelCurveSpec(COSINE, 1.0, (9, 1))  # wrong family
    with pytest.raises(DomainError):
        LevelCurveSpec(COSINE, -1.0, (8, 1))  # bad target
    with pytest.raises(DomainError):
        LevelCurveSpec(Jacobi("SN", EllipticModulus(0.5)), 1.0, (12, 2))
    with pytest.raises(DomainError):
        Bessel(1.5)  # Bessel orders are integers
    with pytest.raises(DomainError):
        Power(2.5)  # power exponents are integers
    with pytest.raises(DomainError):
        Power(0)
    with pytest.raises(DomainError):
        Jacobi("XN", EllipticModulus(0.5))
    # every slot takes exactly its own family class, in both generations
    families = (COSINE, Power(2), RECIP_GAMMA, Bessel(1), Jacobi("SN", EllipticModulus(0.5)))
    for n in range(3, 13):
        for fam in families:
            if SLOT_BY_CLASS[type(fam)] in (n, n + 5):
                assert LevelCurveSpec(fam, 1.0, (n, 1)).family is fam
            else:
                with pytest.raises(DomainError):
                    LevelCurveSpec(fam, 1.0, (n, 1))


def test_existence_coverage_log_uniform():
    # per family: log-uniform targets all solved or typed search error,
    # repeated solving is bit-identical, and every point lies on one of
    # the family's canonical paths: the real axis or a vertical line
    gen = SplitMix64(2718281828)
    big_k = elliptic_k(0.6)
    families = [
        (COSINE, (0.0,)),
        (Power(3), ()),
        (RECIP_GAMMA, (0.5,)),
        (Bessel(1), (0.0,)),
        (Jacobi("SN", EllipticModulus(0.6)), (0.0, big_k)),
        (Jacobi("CN", EllipticModulus(0.6)), (0.0, big_k)),
        (Jacobi("DN", EllipticModulus(0.6)), (0.0, big_k)),
    ]
    for fam, vertical_lines in families:
        solved = 0
        for _ in range(40):
            v = 10.0 ** (-3.0 + 6.0 * gen.next_unit())
            spec = _spec(fam, v)
            try:
                a = level_point(spec)
                b = level_point(spec)
            except SearchError:
                continue
            assert (a.s.re, a.s.im) == (b.s.re, b.s.im)
            assert a.residual <= 1e-10 * max(1.0, v)
            assert a.s.im == 0.0 or a.s.re in vertical_lines, (fam.describe(), v)
            solved += 1
        assert solved == 40, f"{fam.describe()} solved only {solved}/40"


def test_trace_power_circle():
    fam = Power(1)
    spec = _spec(fam, 2.0)
    start = level_point(spec)
    arc = trace_level_arc(spec, start, 0.05, 100)
    assert len(arc) == 100
    for vertex in arc:
        assert abs(vertex.s.to_complex()) == pytest.approx(2.0, abs=1e-9)


def test_trace_cosine_from_saddle():
    spec = _spec(COSINE, 1.0)
    start = level_point(spec)
    arc = trace_level_arc(spec, start, 0.02, 30)
    assert len(arc) == 30
    for vertex in arc:
        assert abs(spec.family.abs_value(vertex.s.to_complex()) - 1.0) <= 1e-9


def test_trace_count_zero_and_step_validation():
    spec = _spec(Power(1), 2.0)
    start = level_point(spec)
    assert trace_level_arc(spec, start, 0.05, 0) == []
    with pytest.raises(DomainError):
        trace_level_arc(spec, start, 0.5, 10)


def test_trace_bessel_ends_at_the_domain_edge():
    # |J_0| = J_0(48.8) is a loop around the zero j_{0,16} = 49.48 that
    # reaches past |s| = 50; the walk ends where bessel_j's domain does,
    # as at a pole exclusion, instead of raising
    x0 = 48.8
    v = abs(bessel_j(0, x0))
    spec = _spec(Bessel(0), v)
    start = LevelPoint(spec=spec, s=ComplexPoint(x0, 0.0), modulus=v)
    arc = trace_level_arc(spec, start, 0.05, 200)
    assert 10 < len(arc) < 200
    assert max(abs(vertex.s.to_complex()) for vertex in arc) <= 50.0
    for vertex in arc:
        assert abs(abs(bessel_j(0, vertex.s.to_complex())) - v) <= 1e-9


def test_family_for_slot_parameter_indexing():
    ps = draw_parameter_set(11, 0)
    fam = family_for_slot(9, 2, ps)   # second generation, l=2 -> index 4
    assert fam.n == ps.n[4]
    fam = family_for_slot(4, 2, ps)   # first generation, l=2 -> index 1
    assert fam.n == ps.n[1]
    fam = family_for_slot(11, 3, ps)
    assert fam.p == ps.p[5]
    fam = family_for_slot(7, 1, ps)
    assert fam.modulus.k == ps.k[0]


def test_full_assignment_certified():
    inst = build_mother_instance(math.pi / 8, 50, LadderModel("ASYMPTOTIC"), "EXACT")
    assign = build_level_assignments(inst, DEFAULT_PARAMS)
    assert len(assign.points) == 30
    assert set(assign.points) == set(ALL_SLOTS)
    for (n, l), p in assign.points.items():
        assert p.residual <= 1e-10 * max(1.0, p.spec.target)
        if n >= 8:
            assert p.spec.target == inst.c[l - 1]
            assert p.spec.generation == "SECOND"
        else:
            assert p.spec.target == gen1_target(l, inst.alpha0[l - 1])
            assert p.spec.generation == "FIRST"
    # power slots are closed-form: |s| equals the target root exactly
    for l in (1, 2, 3):
        p = assign.points[(9, l)]
        n_exp = p.spec.family.n
        assert abs(p.s.to_complex()) ** n_exp == pytest.approx(inst.c[l - 1], rel=1e-14)


def test_assignment_error_carries_slot():
    # an unreachable bessel target must name its slot: c_1 = 1e30 is far
    # above |J_p| on the validated imaginary axis, while the cosine, power
    # and 1/gamma slots before it still reach c_1
    inst = build_mother_instance(math.pi / 8, 50, LadderModel("ASYMPTOTIC"), "EXACT")
    huge = dataclasses.replace(inst, c=(1e30,) + inst.c[1:])
    with pytest.raises(SearchError, match=r"slot \(n=11, l=1\)"):
        build_level_assignments(huge, DEFAULT_PARAMS)


def test_assignment_error_keeps_the_gate_type(monkeypatch):
    # a level point that fails its residual gate stays an AccuracyError,
    # with its slot and its achieved value
    inst = build_mother_instance(math.pi / 8, 50, LadderModel("ASYMPTOTIC"), "EXACT")
    monkeypatch.setattr(Cosine, "abs_value", lambda self, s: math.nan)
    with pytest.raises(AccuracyError, match=r"slot \(n=3, l=1\)") as err:
        build_level_assignments(inst, DEFAULT_PARAMS)
    assert math.isnan(err.value.achieved)
    target = gen1_target(1, inst.alpha0[0])
    assert (err.value.stage, err.value.slot) == ("level", (3, 1))
    assert err.value.bound == 1e-10 * max(1.0, target)


def test_level_residual_gate_rejects_nan(monkeypatch):
    monkeypatch.setattr(Power, "abs_value", lambda self, s: math.nan)
    with pytest.raises(AccuracyError) as err:
        level_point(_spec(Power(2), 4.0))
    assert math.isnan(err.value.achieved)
    assert (err.value.bound, err.value.stage, err.value.slot) == (4e-10, "level", (9, 1))
