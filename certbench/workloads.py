"""The benchmark's workloads and its per-op deadline.

One caller, one op in flight. Each op calls the public ``zetacross``
API in-process under a per-op deadline; an op that passes its deadline
is stopped by ``OpDeadline``, which is not a ``ZetacrossError``, so the
program cannot swallow it, and the loop carries on with the next op.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from itertools import count
from pathlib import PurePath
from typing import Callable, Iterator

# R2 low-discrepancy steps (inverse powers of the plastic number).
_PLASTIC = 1.324717957244746
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)


class OpDeadline(Exception):
    """Raised into an op that has run past its deadline."""


@dataclass
class OpResult:
    status: str  # certified | uncertified | error | deadline | check_failed
    seconds: float
    entry: object = None  # the op's result; a payload-shaped dict after finish()
    payload: bytes | None = None
    stage: str = ""
    problems: list[str] = field(default_factory=list)


def _stage(exc: BaseException) -> str:
    """Chain of package frames at the point an op was stopped, down to
    the first numerics or special-function frame."""
    chain = []
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = PurePath(frame.filename).parts
        if "zetacross" not in parts:
            continue
        mod = ".".join(parts[parts.index("zetacross") + 1:])[: -len(".py")]
        chain.append(f"{mod}.{frame.name}")
        if mod.startswith(("numerics", "specfun")):
            break
    return " > ".join(chain)


class Alarm:
    """One-shot wall-clock alarm that raises OpDeadline while armed."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpDeadline()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def timed_op(op: Callable[[], OpResult], deadline_s: float, alarm: Alarm) -> OpResult:
    """Run one op under its deadline; the result carries its wall time."""
    t0 = time.perf_counter()
    try:
        alarm.arm(deadline_s)
        result = op()
        alarm.disarm()
    except OpDeadline as exc:
        result = OpResult("deadline", 0.0, stage=_stage(exc))
    except Exception as exc:  # an untyped error escaping the public API
        result = OpResult("error", 0.0,
                          stage=f"{_stage(exc)}: {type(exc).__name__}: {exc}")
    finally:
        alarm.disarm()
    result.seconds = time.perf_counter() - t0
    return result


def payload_digest(entry: dict) -> bytes:
    return json.dumps(entry, sort_keys=True).encode()


class VerifyWorkload:
    """Each op is ``harness.run(RunConfig(U=U, L_list=(L,)))``: the whole
    default verify pipeline for one window.

    The windows are a fixed panel: the first PANEL_SIZE points of the R2
    sequence mapped to U in the interior of (0, pi/4) and L log-uniform
    on [L_lo, L_hi]. Runs replay the panel in whole passes, each pass in
    an order drawn from the seed. Whether a window's quadrature runs away
    is set by the window itself (mostly by its height L), so seeded
    windows would make the runaway count of a ~20-window run, and every
    throughput figure with it, vary from seed to seed far beyond the
    bounds; whole passes over one panel keep that count fixed.
    """

    PANEL_SIZE = 10
    pass_size = PANEL_SIZE

    def __init__(self, name: str, L_lo: int, L_hi: int, warmup_L: int,
                 deadline_s: float, oracle_sample: int) -> None:
        self.name = name
        self.L_lo, self.L_hi = L_lo, L_hi
        self.warmup_L = warmup_L
        self.deadline_s = deadline_s
        self.oracle_sample = oracle_sample

    def prepare(self, prog) -> None:
        return None

    def warmup_input(self) -> dict:
        return {"U": math.pi / 8.0, "L": self.warmup_L}

    def panel(self) -> list[dict]:
        span = math.log(self.L_hi) - math.log(self.L_lo)
        out = []
        for j in range(self.PANEL_SIZE):
            x = (0.5 + j * _R2[0]) % 1.0
            y = (0.5 + j * _R2[1]) % 1.0
            out.append({"U": 0.25 * math.pi * (0.02 + 0.96 * x),
                        "L": round(math.exp(math.log(self.L_lo) + y * span))})
        return out

    def inputs(self, seed: int) -> Iterator[dict]:
        rng = random.Random(seed)
        panel = self.panel()
        while True:
            order = list(panel)
            rng.shuffle(order)
            yield from order

    def materialise(self, prog, state, seed: int, inp: dict):
        return prog.harness.RunConfig(U=inp["U"], L_list=(inp["L"],))

    def run_op(self, prog, state, config) -> OpResult:
        report = prog.harness.run(config)
        run = report["payload"]["runs"][0]
        conf = report["payload"]["config"]
        entry = dict(run, params=conf["params"],
                     bounds={k: conf[k] for k in ("quad_rel", "level_res", "eq_res")})
        if run["certified"]:
            status, stage = "certified", ""
        else:
            status = "uncertified"
            stage = "harness.run: " + run.get("error", "certification gates not met")
        return OpResult(status, 0.0, entry=entry,
                        payload=prog.harness.payload_bytes(report), stage=stage)

    def finish(self, prog, result: OpResult) -> None:
        return None

    def describe(self, inp: dict) -> dict:
        return {"U": inp["U"], "L": inp["L"]}


# the acceptance grid: nine EXACT instances under the default ladder
GRID_U = (math.pi / 16.0, math.pi / 8.0, math.pi / 5.0)
GRID_L = (20, 100, 500)


class LevelDrawsWorkload:
    """Each op solves the thirty level points of one seeded parameter
    draw against one of the nine acceptance-grid instances, then builds
    the five transmutations and the ten crossbred equations."""

    name = "level-draws"
    pass_size = len(GRID_U) * len(GRID_L)  # every instance once per pass

    def __init__(self, deadline_s: float, oracle_sample: int) -> None:
        self.deadline_s = deadline_s
        self.oracle_sample = oracle_sample

    def prepare(self, prog) -> list:
        ladder = prog.critline.LadderModel()
        return [prog.critline.build_mother_instance(U, L, ladder, "EXACT")
                for U in GRID_U for L in GRID_L]

    def warmup_input(self) -> dict:
        return {"draw": None, "instance": 4}  # default parameters, (pi/8, 100)

    def inputs(self, seed: int) -> Iterator[dict]:
        for i in count():
            yield {"draw": i, "instance": i % self.pass_size}

    def materialise(self, prog, state, seed: int, inp: dict):
        if inp["draw"] is None:
            params = prog.params.DEFAULT_PARAMS
        else:
            params = prog.params.draw_parameter_set(seed, inp["draw"])
        return state[inp["instance"]], params

    def run_op(self, prog, state, prepared) -> OpResult:
        inst, params = prepared
        assign = prog.levelset.build_level_assignments(inst, params)
        trans = {tid: prog.equations.make_transmutation(tid, inst, assign)
                 for tid in prog.equations.TRANSMUTATION_IDS}
        eqs = prog.equations.second_generation(inst, assign)
        return OpResult("certified", 0.0, entry=(inst, params, assign, trans, eqs))

    def finish(self, prog, result: OpResult) -> None:
        """Turn a completed op's objects into a payload-shaped dict and its
        bytes (outside the timer)."""
        if result.entry is None:
            return
        result.entry = self._entry(prog, *result.entry)
        result.payload = payload_digest(result.entry)

    @staticmethod
    def _entry(prog, inst, params, assign, trans, eqs) -> dict:
        bounds = prog.harness.RunConfig()
        return {
            "U": inst.U, "L": inst.L,
            "mother": mother_entry(inst),
            "level_points": [
                {"slot": [n, l], "target": p.spec.target, "re": p.s.re,
                 "im": p.s.im, "residual": p.residual}
                for (n, l), p in sorted(assign.points.items())
            ],
            "transmutations": [
                {"id": tid, "b": list(t.b),
                 "three_term_residual": t.three_term_residual}
                for tid, t in trans.items()
            ],
            "meta_equations": [
                {"label": e.label, "lhs": e.lhs, "rhs": e.rhs, "residual": e.residual}
                for e in eqs
            ],
            "params": {"n": list(params.n), "p": list(params.p), "k": list(params.k)},
            "bounds": {"quad_rel": bounds.quad_rel, "level_res": bounds.level_res,
                       "eq_res": bounds.eq_res},
        }

    def describe(self, inp: dict) -> dict:
        return {"draw": inp["draw"], "instance": inp["instance"],
                "U": GRID_U[inp["instance"] // len(GRID_L)],
                "L": GRID_L[inp["instance"] % len(GRID_L)]}


def mother_entry(inst) -> dict:
    return {
        "alpha1": list(inst.alpha1), "alpha0": list(inst.alpha0),
        "c": list(inst.c), "g": list(inst.g), "a": list(inst.a),
        "theta": inst.theta, "mean_flags": list(inst.mean_flags),
        "placement_residual": list(inst.placement_residual),
        "additivity_residual": inst.additivity_residual,
        "identity_residual": inst.identity_residual,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Deadlines are twice the slowest completing verify window seen (1.5 s)
# and about nine times the 95th-percentile level draw (0.23 s) on a 2-core
# x86-64 machine, so only ops that run away reach them.
WORKLOADS = {
    "verify-em": VerifyWorkload("verify-em", 10, 550, warmup_L=550,
                                deadline_s=3.0, oracle_sample=3),
    "verify-rs": VerifyWorkload("verify-rs", 700, 10000, warmup_L=700,
                                deadline_s=3.0, oracle_sample=2),
    "level-draws": LevelDrawsWorkload(deadline_s=2.0, oracle_sample=4),
}
