#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on the minimal proxy sizes.

    python3 perfbench/smoke.py

1. Every workload runs clean: exit 0, ``correct``, no failed operation,
   every end-to-end metric present.
2. The traced run of one workload reports every per-layer metric.
3. A corrupted reference is caught: with one cached reference count
   off by one, the run must fail, report the operation, and exit
   non-zero.  The reference file is restored afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import END_TO_END_UNITS, PER_LAYER_UNITS, ref_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int = 0) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny",
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output\n{done.stderr}")
    return done.returncode, json.loads(lines[-1])


def main() -> int:
    for name in WORKLOADS:
        code, result = bench(name)
        if code != 0 or not result["correct"] or result["failed"]:
            raise SystemExit(f"{name}: clean run failed: exit {code}, {result}")
        if set(result["metrics"]) != set(END_TO_END_UNITS):
            raise SystemExit(f"{name}: end-to-end metrics {sorted(result['metrics'])}")
        print(f"ok   {name}: {result['attempted']} operations correct")

    code, result = bench("census-cold", trace=1)
    if code != 0 or set(result["metrics"]) != set(PER_LAYER_UNITS):
        raise SystemExit(f"traced run: exit {code}, metrics {sorted(result['metrics'])}")
    print(f"ok   census-cold traced: {len(result['metrics'])} per-layer metrics")

    path = ref_path(WORKLOADS["census-cold"], tiny=True)
    original = path.read_text()
    record = json.loads(original)
    victim = sorted(record["counts"])[0]
    record["counts"][victim] += 1
    path.write_text(json.dumps(record))
    try:
        code, result = bench("census-cold")
    finally:
        path.write_text(original)
    if code == 0 or result["correct"] or not result["failed"]:
        raise SystemExit(f"corrupted reference {victim} not caught: exit {code}, {result}")
    print(f"ok   corrupted reference {victim} caught: {result['failed']} failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
