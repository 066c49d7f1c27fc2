"""Only typed errors leave the special functions, the level solver and
the arc walk: every call returns or raises a ZetacrossError."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetacross.errors import ZetacrossError
from zetacross.levelset import (
    ALL_SLOTS,
    LevelCurveSpec,
    Power,
    family_for_slot,
    level_point,
    trace_level_arc,
)
from zetacross.params import ParameterSet
from zetacross.specfun import (
    bessel_j,
    elliptic_k,
    jacobi_elliptic,
    log_gamma_complex,
    recip_gamma_abs,
)

_PARAMS = st.builds(
    ParameterSet,
    n=st.tuples(*[st.integers(1, 6)] * 6),
    p=st.tuples(*[st.integers(-5, 5)] * 6),
    k=st.tuples(*[st.floats(0.05, 0.99)] * 6),
)
_SPECS = st.builds(
    lambda slot, params, target: LevelCurveSpec(family_for_slot(*slot, params), target, slot),
    slot=st.sampled_from(ALL_SLOTS),
    params=_PARAMS,
    target=st.floats(1e-300, 1e300),
)


def _returns_or_raises_typed(fn, *args):
    try:
        return fn(*args)
    except ZetacrossError:
        return None


@settings(max_examples=400, deadline=None, database=None)
@given(p=st.integers(-60, 60), z=st.complex_numbers(), k=st.floats())
@example(p=0, z=0.5 + 460j, k=0.5)  # 1/|gamma| above the float range
@example(p=0, z=-180.5 + 0j, k=0.5)
@example(p=0, z=-1e308 + 5e-4j, k=0.5)  # pi z beyond the float range
@example(p=0, z=complex(1.3e308, 1.3e308), k=0.5)  # |z| beyond the float range
def test_special_functions_raise_only_typed_errors(p, z, k):
    _returns_or_raises_typed(bessel_j, p, z)
    _returns_or_raises_typed(recip_gamma_abs, z)
    _returns_or_raises_typed(recip_gamma_abs, z.real)
    _returns_or_raises_typed(log_gamma_complex, z)
    _returns_or_raises_typed(elliptic_k, k)
    for kind in ("SN", "CN", "DN"):
        _returns_or_raises_typed(jacobi_elliptic, kind, z, k)


@settings(max_examples=100, deadline=None, database=None)
@given(spec=_SPECS, step=st.floats(1.001e-4, 0.099), count=st.integers(0, 12))
@example(  # a step below the float spacing at |s| = 1e16 leaves s unchanged
    spec=LevelCurveSpec(Power(1), 1e16, (4, 1)), step=0.09, count=5)
def test_level_points_and_arcs_raise_only_typed_errors(spec, step, count):
    start = _returns_or_raises_typed(level_point, spec)
    if start is not None:
        _returns_or_raises_typed(trace_level_arc, spec, start, step, count)
