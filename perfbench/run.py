#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload operate-clean --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` as the tests do, with whichever DTW kernel it selects (nothing is
built).  The second-to-last stdout line holds the run facts, the metrics
printed without a bound, the verdict quality and the problems found; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run.  The exit code is 1 when a correctness check fails.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

# one thread, so every run uses the same count whatever the caller's
# environment, and never more than nproc
BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _blas_facts(np) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"),
             "blas_threads_requested": BLAS_THREADS, "blas_threads": None}
    # ask the loaded library itself how many threads it uses
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(np, tg, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "dtw_backend": tg.DTW_BACKEND,
        "turnoutguard": tg.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_facts(np),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "closed_loop_callers": 1,
    }


def result_line(outcome, units: dict) -> dict:
    return {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "turnoutguard" / "__init__.py").is_file():
        print(f"perfbench: no turnoutguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # read when numpy loads OpenBLAS

    import numpy as np
    import turnoutguard as tg
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        outcome = workloads.run(workdir, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    line = result_line(outcome, units)
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    unbounded = {} if args.trace else {
        name: {"value": outcome.metrics.get(name), "unit": unit}
        for name, unit in workloads.UNBOUNDED_UNITS.items()}
    print(json.dumps({"run_facts": {**run_facts(np, tg, args), **outcome.facts},
                      "unbounded_metrics": unbounded,
                      "quality": {k: {"value": v, "unit": "ratio"}
                                  for k, v in outcome.quality.items()},
                      "problems": outcome.problems}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
