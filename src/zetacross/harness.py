"""Run orchestration: configuration, certification runs and level-curve
atlas emission.

Reports are versioned JSON with a deterministic payload; everything
time-dependent lives in an unhashed header so identical configurations
produce byte-identical payloads.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from . import __version__
from .critline import (
    L_MIN,
    QUAD_REL,
    LadderModel,
    MotherInstance,
    U_MAX,
    build_mother_instance,
)
from .equations import (TERM_EQUALITY_TOL, MetaEquation, TransmutationInstance,
                        certify_window)
from .errors import ConfigError, DomainError, ZetacrossError
from .levelset import (ALL_SLOTS, RESIDUAL_TOL, LevelAssignment, LevelPoint, Power,
                       build_level_assignments, level_point, spec_for_slot,
                       trace_level_arc)
from .params import DEFAULT_PARAMS, ParameterSet
from .specfun import ComplexPoint
from .specfun.zeta import Z_VALIDATED_T

SCHEMA_VERSION = 2

# entries here explain places where printed sources were reconciled or
# an underdetermined reading was pinned; they ship inside every report
RECONCILED_NOTES = [
    "third-term power rule: the second-generation factor always enters "
    "squared and the first-generation factor to the first power for l=3; "
    "printed variants that drop the square are treated as typos",
    "middle-term exponent/order indices in two printed crossbreeds are "
    "normalized to the middle term of the source three-term form",
    "level-set label collision in one printed locus definition read as "
    "the new set, not the earlier one it textually repeats",
]
INTERPRETATION_NOTES = [
    "window quantifier read as L >= L0 (the printed 'for all L <= L0' "
    "contradicts 'L0 sufficiently big')",
    "squared moduli restricted to the open interval (0,1); the closed "
    "variant printed once is not exercised",
    "the lifting map is a pluggable model (asymptotic default, affine "
    "alternative); the certified identities hold for any increasing "
    "model since the common factor cancels",
    "desk-scale window floor L_MIN = 10",
]


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Inputs for one certification run. The certified bounds quad_rel,
    level_res and eq_res are fixed class constants, echoed in the report."""

    U: float = math.pi / 8.0
    L_list: tuple[int, ...] = (20, 100, 500)
    ladder: LadderModel = field(default_factory=LadderModel)
    params: ParameterSet = DEFAULT_PARAMS
    quad_rel: ClassVar[float] = QUAD_REL
    level_res: ClassVar[float] = RESIDUAL_TOL
    eq_res: ClassVar[float] = TERM_EQUALITY_TOL

    def __post_init__(self) -> None:
        if not (0.0 < self.U < U_MAX):
            raise ConfigError(f"U must lie in (0, pi/4), got {self.U}")
        if not self.L_list:
            raise ConfigError("L_list must not be empty")
        top = self.ladder.value(Z_VALIDATED_T)  # phi1 increases, so this caps pi L + U
        for L in self.L_list:
            if not isinstance(L, int) or L < L_MIN:
                raise ConfigError(f"every L must be an integer >= {L_MIN}, got {L}")
            if L > top or math.pi * L + self.U > top:  # L > top: no float overflow in pi L
                raise ConfigError(f"L = {L} lifts past Z's validated t <= {Z_VALIDATED_T:g}")
        if len(set(self.L_list)) != len(self.L_list):
            raise ConfigError(f"every L must appear once, got {self.L_list}")


def _ints(val: str) -> tuple[int, ...]:
    return tuple(int(x) for x in val.split(",") if x)


# config key -> converter of its value text; n, p and k make up params
_CONFIG_KEYS = {
    "U": float,
    "L_list": _ints,
    "ladder": LadderModel.parse,
    "n": _ints,
    "p": _ints,
    "k": lambda val: tuple(float(x) for x in val.split(",") if x),
}


def parse_config(text: str, flags: dict[str, str] | None = None) -> RunConfig:
    """Parse key = value lines; a flags entry overrides its key. Unknown keys fail."""
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    values.update(flags or {})

    kwargs: dict = {}
    for key, val in values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](val)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({err})") from err
    param_parts = {key: kwargs.pop(key) for key in ("n", "p", "k") if key in kwargs}
    if param_parts:
        if set(param_parts) != {"n", "p", "k"}:
            raise ConfigError("parameter overrides need all of n, p, k")
        try:
            kwargs["params"] = ParameterSet(**param_parts)
        except DomainError as err:
            raise ConfigError(f"bad parameter set: {err}") from err
    return RunConfig(**kwargs)


# --------------------------------------------------------------------------
# Certification run
# --------------------------------------------------------------------------

def _mother_payload(inst: MotherInstance) -> dict:
    return {
        "alpha1": list(inst.alpha1),
        "alpha0": list(inst.alpha0),
        "c": list(inst.c),
        "g": list(inst.g),
        "a": list(inst.a),
        "theta": inst.theta,
        "identity_residual": inst.identity_residual,
        "placement_residual": list(inst.placement_residual),
        "additivity_residual": inst.additivity_residual,
        "mean_flags": list(inst.mean_flags),
    }


def _level_payload(assign: LevelAssignment) -> list[dict]:
    out = []
    for (n, l) in sorted(assign.points):
        p = assign.points[(n, l)]
        out.append({
            "slot": [n, l],
            "family": p.spec.family.describe(),
            "generation": p.spec.generation,
            "target": p.spec.target,
            "re": p.s.re,
            "im": p.s.im,
            "residual": p.residual,
        })
    return out


def _transmutation_payload(inst: MotherInstance,
                           trans: dict[str, TransmutationInstance]) -> list[dict]:
    return [
        {"id": tid, "b": list(t.b),
         "term_residuals": [abs(t.b[i] - inst.a[i]) / inst.a[i] for i in range(3)],
         "three_term_residual": t.three_term_residual}
        for tid, t in trans.items()
    ]


def _equation_payload(eqs: list[MetaEquation]) -> list[dict]:
    return [
        {"label": e.label, "pair": list(e.pair), "lhs": e.lhs, "rhs": e.rhs,
         "residual": e.residual}
        for e in eqs
    ]


def run(config: RunConfig) -> dict:
    """Execute the full pipeline per L and assemble the report dict.

    Every certificate is a gate that raises where its value is made: the
    mother instance's placement, identity and additivity residuals, every
    level residual within RESIDUAL_TOL, and each transmutation's term
    equality and three-term identity and each of the ten crossbred
    equations within TERM_EQUALITY_TOL. A window is certified exactly
    when it raises none of them; a raised error is recorded in its entry
    and the run continues with the next L. The header's failures record,
    keyed by L, holds each raised error's type and, from a gate, its
    stage, slot, achieved value and bound.
    """
    runs = []
    timings = {}
    failures = {}
    for L in config.L_list:
        t0 = time.perf_counter()
        entry: dict = {"U": config.U, "L": L}
        try:
            inst = build_mother_instance(config.U, L, config.ladder)
            assign = build_level_assignments(inst, config.params)
            trans, eqs = certify_window(inst, assign)
            entry["mother"] = _mother_payload(inst)
            entry["level_points"] = _level_payload(assign)
            entry["transmutations"] = _transmutation_payload(inst, trans)
            entry["meta_equations"] = _equation_payload(eqs)
            entry["certified"] = True
        except ZetacrossError as err:
            entry["certified"] = False
            entry["error"] = f"{type(err).__name__}: {err}"
            failures[str(L)] = {"type": type(err).__name__, **{
                k: getattr(err, k, None) for k in ("stage", "slot", "achieved", "bound")}}
        runs.append(entry)
        timings[str(L)] = time.perf_counter() - t0

    payload = {
        "config": {
            "U": config.U,
            "L_list": list(config.L_list),
            "ladder": config.ladder.config_string(),
            "quad_rel": config.quad_rel,
            "level_res": config.level_res,
            "eq_res": config.eq_res,
            "params": {"n": list(config.params.n), "p": list(config.params.p),
                       "k": list(config.params.k)},
        },
        "runs": runs,
        "reconciled_notes": RECONCILED_NOTES,
        "interpretation_notes": INTERPRETATION_NOTES,
        "certified": all(entry["certified"] for entry in runs),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "header": {
            "tool": f"zetacross {__version__}",
            "created_unix": time.time(),
            "timing_seconds": timings,
            "failures": failures,
        },
        "payload": payload,
    }


def payload_bytes(report: dict) -> bytes:
    """Deterministic serialization of the payload (header excluded)."""
    return json.dumps(report["payload"], sort_keys=True).encode()


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")


# --------------------------------------------------------------------------
# Atlas emission
# --------------------------------------------------------------------------

def emit_atlas(config: RunConfig, slots: list[tuple[int, int]], out_dir: str | Path,
               step: float = 0.02, count: int = 200) -> tuple[list[Path], list[str]]:
    """One CSV per slot with re-certified (re, im, residual) rows.

    Power-family slots sample their closed-form circle at 256 points;
    the others walk the implicit curve from the solved point. Slots
    whose solve fails are skipped with a warning. A slot outside the
    thirty loci (n = 3..12, l = 1..3), a step outside (1e-4, 1e-1) or a
    negative count raises ConfigError before any work.
    """
    bad = [slot for slot in slots if slot not in ALL_SLOTS]
    if bad:
        raise ConfigError(f"slots must have n in 3..12 and l in 1..3, got {bad}")
    if not (1e-4 < step < 1e-1):
        raise ConfigError(f"arc step must lie in (1e-4, 1e-1), got {step}")
    if count < 0:
        raise ConfigError(f"count must be nonnegative, got {count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inst = build_mother_instance(config.U, config.L_list[0], config.ladder)
    written: list[Path] = []
    warnings: list[str] = []
    for (n, l) in slots:
        try:
            spec = spec_for_slot((n, l), inst, config.params)
            start = level_point(spec)
        except ZetacrossError as err:
            warnings.append(f"slot ({n},{l}) skipped: {err}")
            continue
        if isinstance(spec.family, Power):
            radius = spec.target ** (1.0 / spec.family.n)
            points = []
            for i in range(256):
                phi = 2.0 * math.pi * i / 256.0
                s = ComplexPoint(radius * math.cos(phi), radius * math.sin(phi))
                points.append(LevelPoint(spec, s, spec.family.abs_value(s.to_complex())))
        else:
            points = [start, *trace_level_arc(spec, start, step, count)]
        path = out_dir / f"slot_{n}_{l}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "residual"])
            for p in points:
                writer.writerow([repr(p.s.re), repr(p.s.im), repr(p.residual)])
        written.append(path)
    return written, warnings
