"""Memory layout of the per-op value types: slotted, with shared slot
keys, families and pairs, so a held level assignment stays small."""

import gc
import math
import tracemalloc

import pytest

from zetacross import levelset
from zetacross.critline import LadderModel, base_segment, build_mother_instance
from zetacross.equations import CROSSBREED_PAIRS, make_transmutation, second_generation
from zetacross.harness import RunConfig
from zetacross.levelset import _FAMILIES, ALL_SLOTS, LevelFamily, build_level_assignments
from zetacross.params import DEFAULT_PARAMS
from zetacross.specfun import bessel_j


@pytest.fixture(scope="module")
def inst():
    return build_mother_instance(math.pi / 8, 100, LadderModel(), "EXACT")


def test_value_types_have_no_instance_dict(inst):
    assign = build_level_assignments(inst, DEFAULT_PARAMS)
    point = assign.points[(12, 1)]
    values = [
        base_segment(math.pi / 8, 100), inst.model, inst, DEFAULT_PARAMS,
        RunConfig(), point.spec.family, point.spec, point, _FAMILIES["JACOBI"],
        assign, point.s, point.spec.family.modulus,
        make_transmutation("T1", inst, assign), second_generation(inst, assign)[0],
    ]
    assert len({type(v) for v in values}) == 14
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)


def test_slots_families_and_pairs_are_shared(inst):
    first = build_level_assignments(inst, DEFAULT_PARAMS)
    second = build_level_assignments(inst, DEFAULT_PARAMS)
    for assign in (first, second):
        for slot, key in zip(ALL_SLOTS, assign.points):
            assert key is slot and assign.points[key].spec.slot is slot
        for n, fam in ((3, LevelFamily.cosine()), (5, LevelFamily.recip_gamma())):
            for l in (1, 2, 3):
                assert assign.points[(n, l)].spec.family is fam
                assert assign.points[(n + 5, l)].spec.family is fam
    for eq, pair in zip(second_generation(inst, first), CROSSBREED_PAIRS):
        assert eq.pair is pair


def test_held_assignment_memory_is_bounded(inst, monkeypatch):
    # About 22,500 traced bytes per held assignment before the value types were
    # slotted and their slot keys and families shared; about 12,100 after.
    # Bessel values replayed from a memo filled before tracing starts keep
    # the traced builds quick; no held object comes from the memo.
    memo = {}

    def bessel_memo(p, s):
        if (p, s) not in memo:
            memo[(p, s)] = bessel_j(p, s)
        return memo[(p, s)]

    monkeypatch.setattr(levelset, "bessel_j", bessel_memo)
    build_level_assignments(inst, DEFAULT_PARAMS)  # fill the memo and lazy tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for _ in range(10):
            assign = build_level_assignments(inst, DEFAULT_PARAMS)
            held.append((assign, second_generation(inst, assign)))
        gc.collect()
        per_assignment = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    assert per_assignment <= 13_000, per_assignment
