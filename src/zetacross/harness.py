"""Run orchestration: configuration, certification runs, the factor
scaling study, and level-curve atlas emission.

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

from . import __version__
from .critline import (
    L_MIN,
    LadderModel,
    MotherInstance,
    U_MAX,
    build_mother_instance,
)
from .equations import (
    CROSSBREED_PAIRS,
    TRANSMUTATION_IDS,
    MetaEquation,
    TransmutationInstance,
    crossbreed,
    make_transmutation,
)
from .errors import ConfigError, DomainError, ZetacrossError
from .levelset import LevelAssignment, build_level_assignments, trace_level_arc
from .params import DEFAULT_PARAMS, ParameterSet

SCHEMA_VERSION = 1

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


@dataclass(frozen=True)
class RunConfig:
    """Inputs for one certification run."""

    U: float = math.pi / 8.0
    L_list: tuple[int, ...] = (20, 100, 500)
    ladder: LadderModel = field(default_factory=LadderModel)
    mode: str = "EXACT"
    params: ParameterSet = DEFAULT_PARAMS
    seed: int = 20240809
    quad_rel: float = 1e-11
    level_res: float = 1e-10
    eq_res: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.U < U_MAX):
            raise ConfigError(f"U must lie in (0, pi/4), got {self.U}")
        if not self.L_list:
            raise ConfigError("L_list must not be empty")
        for L in self.L_list:
            if not isinstance(L, int) or L < L_MIN:
                raise ConfigError(f"every L must be an integer >= {L_MIN}, got {L}")
        if self.mode not in ("EXACT", "ASYMPTOTIC"):
            raise ConfigError(f"mode must be EXACT or ASYMPTOTIC, got {self.mode!r}")
        for name, tol in (("quad_rel", self.quad_rel),
                          ("level_res", self.level_res),
                          ("eq_res", self.eq_res)):
            if not (tol > 0.0 and math.isfinite(tol)):
                raise ConfigError(f"{name} must be positive, got {tol}")


def serialize_config(config: RunConfig) -> str:
    """Flat key = value text form (parse_config round-trips it)."""
    lines = [
        "# zetacross run configuration",
        f"U = {config.U!r}",
        "L_list = " + ",".join(str(L) for L in config.L_list),
        f"ladder = {config.ladder.config_string()}",
        f"mode = {config.mode}",
        f"seed = {config.seed}",
        f"quad_rel = {config.quad_rel!r}",
        f"level_res = {config.level_res!r}",
        f"eq_res = {config.eq_res!r}",
        "n = " + ",".join(str(v) for v in config.params.n),
        "p = " + ",".join(str(v) for v in config.params.p),
        "k = " + ",".join(repr(v) for v in config.params.k),
    ]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value form; unknown keys are errors."""
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()

    kwargs: dict = {}
    param_parts: dict = {}
    for key, val in values.items():
        try:
            if key == "U":
                kwargs["U"] = float(val)
            elif key == "L_list":
                kwargs["L_list"] = tuple(int(x) for x in val.split(",") if x)
            elif key == "ladder":
                kwargs["ladder"] = LadderModel.parse(val)
            elif key == "mode":
                kwargs["mode"] = val.upper()
            elif key == "seed":
                kwargs["seed"] = int(val)
            elif key in ("quad_rel", "level_res", "eq_res"):
                kwargs[key] = float(val)
            elif key == "n":
                param_parts["n"] = tuple(int(x) for x in val.split(",") if x)
            elif key == "p":
                param_parts["p"] = tuple(int(x) for x in val.split(",") if x)
            elif key == "k":
                param_parts["k"] = tuple(float(x) for x in val.split(",") if x)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({err})") from err
    if param_parts:
        if set(param_parts) != {"n", "p", "k"}:
            raise ConfigError("parameter overrides need all of n, p, k")
        try:
            kwargs["params"] = ParameterSet(**param_parts)
        except DomainError as err:
            raise ConfigError(f"bad parameter set: {err}") from err
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


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
    out = []
    for tid in TRANSMUTATION_IDS:
        t = trans[tid]
        out.append({
            "id": tid,
            "b": list(t.b),
            "term_residuals": [
                abs(t.b[i] - inst.a[i]) / inst.a[i] for i in range(3)
            ],
            "three_term_residual": t.three_term_residual,
        })
    return out


def _equation_payload(eqs: list[MetaEquation]) -> list[dict]:
    return [
        {"label": e.label, "pair": list(e.pair), "lhs": e.lhs, "rhs": e.rhs,
         "residual": e.residual}
        for e in eqs
    ]


def run(config: RunConfig) -> dict:
    """Execute the full pipeline per L and assemble the report dict.

    Certification per (U, L): mother identity within 1e-8, every level
    residual within level_res, term equality within eq_res, and all ten
    equation residuals within eq_res. Module errors are recorded and the
    run continues with the next L.
    """
    runs = []
    timings = {}
    all_ok = True
    for L in config.L_list:
        t0 = time.perf_counter()
        entry: dict = {"U": config.U, "L": L}
        try:
            inst = build_mother_instance(
                config.U, L, config.ladder, config.mode, config.quad_rel
            )
            assign = build_level_assignments(inst, config.params, config.level_res)
            trans = {
                tid: make_transmutation(tid, inst, assign, config.eq_res)
                for tid in TRANSMUTATION_IDS
            }
            eqs = [crossbreed(trans[x], trans[y]) for (x, y) in CROSSBREED_PAIRS]
            entry["mother"] = _mother_payload(inst)
            entry["level_points"] = _level_payload(assign)
            entry["transmutations"] = _transmutation_payload(inst, trans)
            entry["meta_equations"] = _equation_payload(eqs)
            certified = (
                inst.identity_residual <= 1e-8 * inst.max_a
                and abs(inst.theta - 1.0) <= 1e-8
                and not any(inst.mean_flags)
                and all(
                    p.residual <= config.level_res * max(1.0, p.spec.target)
                    for p in assign.points.values()
                )
                and all(
                    r <= config.eq_res
                    for t in entry["transmutations"]
                    for r in t["term_residuals"]
                )
                and all(e["residual"] <= config.eq_res
                        for e in entry["meta_equations"])
            )
            entry["certified"] = certified
            all_ok = all_ok and certified
        except ZetacrossError as err:
            entry["certified"] = False
            entry["error"] = f"{type(err).__name__}: {err}"
            all_ok = False
        runs.append(entry)
        timings[str(L)] = time.perf_counter() - t0

    payload = {
        "config": json.loads(json.dumps({
            "U": config.U,
            "L_list": list(config.L_list),
            "ladder": config.ladder.config_string(),
            "mode": config.mode,
            "seed": config.seed,
            "quad_rel": config.quad_rel,
            "level_res": config.level_res,
            "eq_res": config.eq_res,
            "params": {"n": list(config.params.n), "p": list(config.params.p),
                       "k": list(config.params.k)},
        })),
        "runs": runs,
        "reconciled_notes": RECONCILED_NOTES,
        "interpretation_notes": INTERPRETATION_NOTES,
        "certified": all_ok,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "header": {
            "tool": f"zetacross {__version__}",
            "created_unix": time.time(),
            "timing_seconds": timings,
        },
        "payload": payload,
    }


def payload_bytes(report: dict) -> bytes:
    """Deterministic serialization of the payload (header excluded)."""
    return json.dumps(report["payload"], sort_keys=True).encode()


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")


# --------------------------------------------------------------------------
# Scaling study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    L: int
    theta: float
    abs_dev: float  # |theta - 1|
    shape: float    # lnln(pi L) / ln(pi L)
    ratio: float    # abs_dev / shape


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple[ScalingRow, ...]
    fitted_constant: float
    max_upper_ratio: float
    within_bound: bool


def scaling_study(config: RunConfig) -> ScalingStudy:
    """Survey |theta - 1| against the decay shape lnln(pi L)/ln(pi L).

    The constant is fitted (least squares through the origin) on the
    lower half of L_list; the study passes when the upper half's worst
    ratio does not exceed twice that constant. Under the exact mean
    construction theta deviates only at quadrature-noise level, so the
    columns certify that the factor's deviation sits far below the
    decay-shape envelope rather than reproducing it.
    """
    if config.mode != "ASYMPTOTIC":
        raise ConfigError("scaling study requires mode = ASYMPTOTIC")
    if len(config.L_list) < 3:
        raise ConfigError("scaling study needs at least three L values")
    if list(config.L_list) != sorted(set(config.L_list)):
        raise ConfigError("L_list must be strictly increasing")

    rows = []
    for L in config.L_list:
        inst = build_mother_instance(
            config.U, L, config.ladder, "ASYMPTOTIC", config.quad_rel
        )
        x = math.log(math.pi * L)
        shape = math.log(x) / x
        dev = abs(inst.theta - 1.0)
        rows.append(ScalingRow(L=L, theta=inst.theta, abs_dev=dev,
                               shape=shape, ratio=dev / shape))

    half = (len(rows) + 1) // 2
    lower, upper = rows[:half], rows[half:]
    sxx = sum(r.shape * r.shape for r in lower)
    sxy = sum(r.shape * r.abs_dev for r in lower)
    fitted = sxy / sxx
    max_upper = max(r.ratio for r in upper)
    return ScalingStudy(
        rows=tuple(rows),
        fitted_constant=fitted,
        max_upper_ratio=max_upper,
        within_bound=max_upper <= 2.0 * fitted or max_upper == 0.0,
    )


def write_scaling_csv(study: ScalingStudy, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "theta", "abs_dev", "shape", "ratio"])
        for r in study.rows:
            writer.writerow([r.L, repr(r.theta), repr(r.abs_dev),
                             repr(r.shape), repr(r.ratio)])


# --------------------------------------------------------------------------
# Atlas emission
# --------------------------------------------------------------------------

def emit_atlas(config: RunConfig, slots: list[tuple[int, int]], out_dir: str | Path,
               step: float = 0.02, count: int = 200) -> tuple[list[Path], list[str]]:
    """One CSV per slot with re-certified (re, im, residual) rows.

    Power-family slots sample their closed-form circle at 256 points;
    the others walk the implicit curve from the solved point. Slots
    whose solve fails are skipped with a warning.
    """
    from .levelset import spec_for_slot, level_point

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    L = config.L_list[0]
    inst = build_mother_instance(config.U, L, config.ladder, config.mode,
                                 config.quad_rel)
    written: list[Path] = []
    warnings: list[str] = []
    for (n, l) in slots:
        try:
            spec = spec_for_slot(n, l, inst, config.params)
            start = level_point(spec, config.level_res)
        except ZetacrossError as err:
            warnings.append(f"slot ({n},{l}) skipped: {err}")
            continue
        rows: list[tuple[float, float, float]] = []
        if spec.family.kind == "POWER":
            radius = spec.target ** (1.0 / spec.family.n)
            for i in range(256):
                phi = 2.0 * math.pi * i / 256.0
                s = complex(radius * math.cos(phi), radius * math.sin(phi))
                resid = abs(spec.family.abs_value(s) - spec.target)
                rows.append((s.real, s.imag, resid))
        else:
            p0 = start.s
            rows.append((p0.re, p0.im, start.residual))
            for vertex in trace_level_arc(spec, start, step, count):
                resid = abs(spec.family.abs_value(vertex.to_complex()) - spec.target)
                rows.append((vertex.re, vertex.im, resid))
        path = out_dir / f"slot_{n}_{l}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "residual"])
            for row in rows:
                writer.writerow([repr(row[0]), repr(row[1]), repr(row[2])])
        written.append(path)
    return written, warnings


def certification_ok(report: dict) -> bool:
    return bool(report["payload"]["certified"])
