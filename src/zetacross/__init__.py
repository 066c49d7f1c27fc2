"""zetacross: numerical certification of exact level-curve identities
driven by |zeta(1/2 + it)|^2 on the critical line."""

__version__ = "0.1.0"

from .critline import (  # noqa: E402,F401
    LadderModel,
    MotherInstance,
    Segment,
    base_segment,
    build_mother_instance,
    mean_value_abscissa,
    reverse_iterate,
)
from .equations import (  # noqa: E402,F401
    MetaEquation,
    TransmutationInstance,
    crossbreed,
    make_transmutation,
    second_generation,
)
from .levelset import (  # noqa: E402,F401
    LevelAssignment,
    LevelCurveSpec,
    LevelFamily,
    LevelPoint,
    build_level_assignments,
    level_point,
    trace_level_arc,
)
from .params import DEFAULT_PARAMS, ParameterSet, draw_parameter_set  # noqa: E402,F401
from .harness import (  # noqa: E402,F401
    RunConfig,
    emit_atlas,
    parse_config,
    run,
)
