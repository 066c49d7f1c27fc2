"""Parameter tuples and the cross-language seeded generator."""

import pytest

from zetacross.errors import DomainError
from zetacross.params import (
    DEFAULT_PARAMS,
    ParameterSet,
    SplitMix64,
    draw_parameter_set,
)

# published reference outputs of splitmix64 for seed 0
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    gen = SplitMix64(0)
    assert tuple(gen.next_u64() for _ in range(3)) == SEED0_OUTPUTS


def test_unit_doubles_in_range():
    gen = SplitMix64(987654321)
    for _ in range(1000):
        u = gen.next_unit()
        assert 0.0 <= u < 1.0


def test_validation():
    with pytest.raises(DomainError):
        ParameterSet(n=(0, 1, 1, 1, 1, 1), p=(0,) * 6, k=(0.5,) * 6)
    with pytest.raises(DomainError):
        ParameterSet(n=(1,) * 6, p=(0,) * 6, k=(1.0,) * 6)
    with pytest.raises(DomainError):
        ParameterSet(n=(1,) * 5, p=(0,) * 6, k=(0.5,) * 6)
    assert DEFAULT_PARAMS.p == (0, 1, 2, 0, 1, 2)


def test_draws_deterministic_and_indexed():
    a = draw_parameter_set(42, 0)
    b = draw_parameter_set(42, 0)
    c = draw_parameter_set(42, 1)
    assert a == b
    assert a != c
    for ps in (a, c):
        assert all(1 <= n <= 6 for n in ps.n)
        assert all(-3 <= p <= 3 for p in ps.p)
        assert all(0.05 < k * k < 0.95 for k in ps.k)


def test_negative_draw_index_rejected():
    # a negative index skips no outputs, so it would alias draw 0
    for index in (-1, -3):
        with pytest.raises(DomainError):
            draw_parameter_set(7, index)


def test_draw_indexing_matches_stream_skip():
    # draw(seed, i) must equal skipping 18 i outputs then drawing
    gen = SplitMix64(7)
    for _ in range(18):
        gen.next_u64()
    n = tuple(gen.next_int(1, 6) for _ in range(6))
    assert draw_parameter_set(7, 1).n == n
