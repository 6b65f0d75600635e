#!/usr/bin/env python3
"""The repository benchmark: closed-loop passes over one workload.

    python3 perfbench/run.py --workload fig8-twitter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, one process each

A run sets up its inputs several times (``setup_s`` is the median), runs
one uncounted warm-up pass, then repeats passes for ``--seconds``.  Each
pass sends the workload's operations one after another; every result is
checked against a reference count made by a different executor family.
Any mismatch or exception counts as a failed operation and makes the
command exit non-zero.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  README.md in this directory maps each layer metric
to the end-to-end metric it should move.

The last line of standard output is one JSON object; a record with a
provenance block goes to ``.perfbench/records/`` and, when traced, a
Chrome trace to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cap_threads() -> None:
    """Cap the BLAS/OpenMP pools at the core count (before numpy loads)."""
    n = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


def run_all(args, names) -> int:
    """Every workload in a fresh process of its own, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        sys.stderr.write(done.stderr)
        print("\n".join(done.stdout.splitlines()[:-1]))
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    _cap_threads()
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="relabels the proxy inputs (default 2020)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="minimal proxy sizes (the smoke check)")
    parser.add_argument("--references", action="store_true",
                        help="compute and cache the reference counts, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    import harness

    return harness.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
