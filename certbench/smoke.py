"""Smoke check of the benchmark itself; run from the root of a checkout:

    python3 certbench/smoke.py

1. A short untraced and a short traced run of every workload print every
   metric that BENCHMARK.json names, with its unit.
2. A known runaway verify-rs window, run with a short deadline, ends as a
   failed op at its deadline, stopped inside the quadrature.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits with a non-zero code and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

# verify-rs window whose weighted-mean quadrature never converges
RUNAWAY = {"U": 0.12015486078767028, "L": 6665}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("certbench") / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl["name"], trace)
            if proc.returncode != 0:
                errors.append(f"{wl['name']} trace={trace}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{wl['name']} trace={trace}: keys {sorted(result)}")
            if not result["correct"]:
                errors.append(f"{wl['name']} trace={trace}: run reported incorrect")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{wl['name']} trace={trace}: metrics differ from "
                              f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"{wl['name']} trace={trace}: {len(got)} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    return errors


def check_runaway() -> list[str]:
    from workloads import Alarm, timed_op

    sys.path.insert(0, str(ROOT / "src"))
    from zetacross import harness

    config = harness.RunConfig(U=RUNAWAY["U"], L_list=(RUNAWAY["L"],))
    t0 = time.perf_counter()
    res = timed_op(lambda: harness.run(config), 2.0, Alarm())
    elapsed = time.perf_counter() - t0
    print(f"runaway window {RUNAWAY}: {res.status} after {elapsed:.2f} s at {res.stage}")
    errors = []
    if res.status != "deadline" or elapsed > 3.0:
        errors.append(f"runaway window ended {res.status} after {elapsed:.2f} s")
    if "numerics.adaptive_quadrature" not in res.stage:
        errors.append(f"runaway window stopped outside the quadrature: {res.stage}")
    return errors


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "certbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "verify-em", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory run exited {proc.returncode} with output "
                f"{proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_metrics(spec) + check_runaway() + check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
