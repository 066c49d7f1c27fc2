"""Seeded certification benchmark for zetacross.

Run from the root of a source checkout:

    python3 certbench/run.py --workload verify-em --seed 1 --seconds 25 --trace 0

One process, one caller, one op in flight (a closed loop). The program
is imported from ``./src`` and driven through its public API only. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it print every metric with its unit, the run's metadata, the
payload digests and every failed op with its input and stage.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOADS,
    OpResult,
    Alarm,
    sha256,
    timed_op,
)

SETUP_REPEATS = 3
PROGRAM_MODULES = ("harness", "critline", "levelset", "equations", "params")
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "certified_ratio": "ratio", "peak_rss_mb": "MB",
}


def _purge_program() -> None:
    for key in [k for k in sys.modules if k == "zetacross" or k.startswith("zetacross.")]:
        del sys.modules[key]


def _import_program(src: Path) -> SimpleNamespace:
    pkg = importlib.import_module("zetacross")
    if Path(pkg.__file__).resolve().parent != (src / "zetacross").resolve():
        raise SystemExit(f"zetacross imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"zetacross.{name}")
                              for name in PROGRAM_MODULES})


def setup(wl, src: Path, seed: int, alarm: Alarm):
    """Import, prepare and run the untimed warm-up op, SETUP_REPEATS times
    from a fresh import of the package (its lazy tables start empty)."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        _purge_program()
        t0 = time.perf_counter()
        prog = _import_program(src)
        state = wl.prepare(prog)
        prepared = wl.materialise(prog, state, seed, wl.warmup_input())
        warm = timed_op(lambda: wl.run_op(prog, state, prepared), wl.deadline_s, alarm)
        times.append(time.perf_counter() - t0)
        wl.finish(prog, warm)
        if warm.status != "certified":
            raise SystemExit(f"warm-up op failed ({warm.status}): {warm.stage}")
        digests.append(sha256(warm.payload))
    return prog, state, statistics.median(times), times, digests


def op_loop(wl, prog, state, seed: int, seconds: float, alarm: Alarm, tracer=None):
    """Run whole passes of ops until their summed wall time reaches
    ``seconds``.

    Inputs are built between ops, outside the op timers; only time spent
    inside ops counts towards ``seconds`` and ``ops_per_s``.
    """
    results: list[tuple[int, dict, OpResult]] = []
    busy = 0.0
    for i, inp in enumerate(wl.inputs(seed)):
        if busy >= seconds and i % wl.pass_size == 0:
            break
        prepared = wl.materialise(prog, state, seed, inp)
        if tracer is not None:
            mark = len(tracer.end)
            tracer.current_op = i
        res = timed_op(lambda: wl.run_op(prog, state, prepared), wl.deadline_s, alarm)
        if tracer is not None:
            tracer.current_op = -1
            if res.status in ("deadline", "error"):
                tracer.repair(mark)
        busy += res.seconds
        results.append((i, inp, res))
    return results, busy


def check_ops(wl, prog, seed: int, results) -> list[str]:
    """Re-check every op's recorded residuals and re-evaluate a seeded
    sample with the mpmath oracle. A certified op that fails a check
    becomes a failed op; the returned problems make the run incorrect."""
    from oracle import oracle, recheck

    problems = []
    for i, _inp, res in results:
        wl.finish(prog, res)
        if res.status == "certified":
            res.problems = recheck(res.entry)
    certified = [r for r in results if r[2].status == "certified" and not r[2].problems]
    for i, _inp, res in random.Random(seed).sample(
            certified, min(wl.oracle_sample, len(certified))):
        res.problems = oracle(res.entry)
    for i, inp, res in results:
        if res.status == "certified" and res.problems:
            res.status = "check_failed"
            res.stage = "; ".join(res.problems[:3])
            problems.append(f"op {i} {wl.describe(inp)}: {res.stage}")
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_facts(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(root: Path) -> dict:
    import numpy

    return {
        "commit": git_commit(root),
        **source_facts(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def emit(metrics: dict[str, tuple[float, str]], detail: dict, correct: bool,
         attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "zetacross" / "__init__.py").is_file():
        print(f"no zetacross sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (a dependency; its import is not program set-up)

    wl = WORKLOADS[args.workload]
    alarm = Alarm()
    prog, state, setup_s, setup_runs, warm_digests = setup(wl, src, args.seed, alarm)
    problems = []
    if len(set(warm_digests)) != 1:
        problems.append(f"warm-up payload differs between imports: {warm_digests}")

    tracer = None
    detail: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "deadline_s": wl.deadline_s,
                    "setup_runs_s": setup_runs}
    if args.trace:
        from spans import Tracer

        # the warm-up op once untraced and once traced gives the overhead
        prepared = wl.materialise(prog, state, args.seed, wl.warmup_input())
        plain_warm = timed_op(lambda: wl.run_op(prog, state, prepared),
                              wl.deadline_s, alarm)
        tracer = Tracer()
        detail["wrapped_functions"] = tracer.install()
        tracer.current_op = -2
        traced_warm = timed_op(lambda: wl.run_op(prog, state, prepared),
                               wl.deadline_s, alarm)
        tracer.current_op = -1

    results, busy = op_loop(wl, prog, state, args.seed, args.seconds, alarm, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += check_ops(wl, prog, args.seed, results)

    attempted = len(results)
    ok = [r for r in results if r[2].status == "certified"]
    failed = attempted - len(ok)
    op_times = [r.seconds if r.status == "certified" else wl.deadline_s
                for _, _, r in results]
    tail_s, tail_pct = tail(op_times)
    detail.update({
        "meta": metadata(root),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "busy_s": busy,
        "op_tail_percentile": tail_pct, "op_count": attempted,
        "warmup_payload_sha256": warm_digests[0],
        "ops_payload_sha256": sha256(b"".join(r.payload for _, _, r in ok)),
        "failed_ops": [
            {"op": i, **wl.describe(inp), "status": r.status, "stage": r.stage,
             "seconds": round(r.seconds, 3)}
            for i, inp, r in results if r.status != "certified"
        ],
        "problems": problems,
    })

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(ok) / busy,
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail_s,
            "certified_ratio": len(ok) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        from spans import layer_metrics

        done = [i for i, _, r in results if r.status not in ("deadline", "error")]
        data = tracer.arrays()
        layer, recon = layer_metrics(tracer.names, data, done)
        problems += [f"trace reconciliation: {p}" for p in recon]
        layer["trace.overhead_ratio"] = traced_warm.seconds / plain_warm.seconds
        layer["trace.spans_per_op"] = int((data["op"] >= 0).sum()) / attempted
        spans_file = HERE / "out" / f"spans-{wl.name}.npz"
        spans_file.parent.mkdir(exist_ok=True)
        numpy.savez(spans_file, names=numpy.array(tracer.names), **data)
        detail["spans_file"] = str(spans_file.relative_to(root))
        metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
    emit(metrics, detail, not problems, attempted, failed)
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
