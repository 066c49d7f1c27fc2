"""Transmutations, crossbreeding, and the ten-equation listing."""

import math

import pytest

from zetacross.critline import LadderModel, build_mother_instance
from zetacross.equations import (
    CROSSBREED_PAIRS,
    TRANSMUTATION_IDS,
    MetaEquation,
    TransmutationInstance,
    crossbreed,
    make_transmutation,
    second_generation,
)
from zetacross.errors import AccuracyError, ContractError, DomainError
from zetacross.levelset import build_level_assignments
from zetacross.params import DEFAULT_PARAMS, draw_parameter_set

from oracles import crossbreeding_property_residuals


def test_synthetic_trig_terms():
    # c = (1,1,1) and alpha0 = pi/8 reproduce the weight triple directly
    x = math.pi / 8
    b = (math.sin(x) ** 2, math.cos(x) ** 2, math.cos(2 * x))
    t = TransmutationInstance(id="T1", b=b, theta=1.0)
    assert b[0] == pytest.approx(0.1464466, abs=1e-7)
    assert b[1] == pytest.approx(0.8535534, abs=1e-7)
    assert b[2] == pytest.approx(0.7071068, abs=1e-7)
    assert t.three_term_residual <= 1e-15


def test_crossbreed_arithmetic_identity():
    a = TransmutationInstance(id="T1", b=(1.0, 2.0, 3.0), theta=2.0)
    b = TransmutationInstance(id="T2", b=(2.0, 4.0, 6.0), theta=2.0)
    eq = crossbreed(a, b)
    assert eq.lhs == 16.0
    assert eq.rhs == 16.0
    assert eq.residual == 0.0
    assert eq.label == "T1xT2"


def test_crossbreed_self_is_exact():
    a = TransmutationInstance(id="T3", b=(0.3, 0.9, 0.6), theta=1.0)
    eq = crossbreed(a, a)
    assert eq.residual == 0.0


def test_crossbreed_gates_its_residual():
    # (1 + 3) 2 = 8 against (1 + 4) 2 = 10: residual 0.2, far past 1e-8
    a = TransmutationInstance(id="T1", b=(1.0, 2.0, 3.0), theta=2.0)
    b = TransmutationInstance(id="T2", b=(1.0, 2.0, 4.0), theta=2.0)
    with pytest.raises(AccuracyError, match=r"crossbreed T1xT2: residual 2\.000e-01") as err:
        crossbreed(a, b)
    assert err.value.achieved == pytest.approx(0.2)


def test_crossbreed_theta_mismatch_rejected():
    a = TransmutationInstance(id="T1", b=(1.0, 2.0, 3.0), theta=2.0)
    b = TransmutationInstance(id="T2", b=(1.0, 2.0, 3.0), theta=2.0 + 1e-12)
    with pytest.raises(ContractError):
        crossbreed(a, b)


def test_instance_validation():
    with pytest.raises(DomainError):
        TransmutationInstance(id="T9", b=(1.0, 1.0, 1.0), theta=1.0)
    with pytest.raises(DomainError):
        TransmutationInstance(id="T1", b=(1.0, -1.0, 1.0), theta=1.0)


def test_generic_crossbreeding_property():
    res = crossbreeding_property_residuals(100000)
    assert res.max() <= 1e-12


@pytest.fixture(scope="module")
def pipeline():
    inst = build_mother_instance(math.pi / 8, 50, LadderModel("ASYMPTOTIC"), "EXACT")
    assign = build_level_assignments(inst, DEFAULT_PARAMS)
    return inst, assign


def test_power_transmutation_exact_to_ulp(pipeline):
    # closed-form |s|^n loci make b_l = c_l^2 h_l at rounding level
    inst, assign = pipeline
    t = make_transmutation("T2", inst, assign)
    for l in range(3):
        assert abs(t.b[l] - inst.a[l]) <= 1e-12 * inst.a[l]


def test_all_transmutations_certified(pipeline):
    inst, assign = pipeline
    for tid in TRANSMUTATION_IDS:
        t = make_transmutation(tid, inst, assign)
        assert t.three_term_residual <= 1e-8
        for l in range(3):
            assert abs(t.b[l] - inst.a[l]) <= 1e-8 * inst.a[l]


def test_bessel_transmutation_with_drawn_orders(pipeline):
    inst, _ = pipeline
    ps = draw_parameter_set(20240809, 0)
    assign = build_level_assignments(inst, ps)
    t = make_transmutation("T4", inst, assign)
    assert abs(t.b[0] - inst.theta * t.b[1] + t.b[2]) <= 1e-8 * max(t.b)


def test_crossbreed_pairs_are_every_two_of_five_in_listing_order():
    assert CROSSBREED_PAIRS == (
        ("T1", "T2"), ("T1", "T3"), ("T1", "T4"), ("T1", "T5"),
        ("T2", "T3"), ("T2", "T4"), ("T2", "T5"),
        ("T3", "T4"), ("T3", "T5"), ("T4", "T5"),
    )


def test_second_generation_listing(pipeline):
    inst, assign = pipeline
    eqs = second_generation(inst, assign)
    assert len(eqs) == 10  # C(5,2)
    assert [e.pair for e in eqs] == list(CROSSBREED_PAIRS)
    assert max(e.residual for e in eqs) <= 1e-8
    for e in eqs:
        assert isinstance(e, MetaEquation)
        assert e.lhs > 0.0 and e.rhs > 0.0
