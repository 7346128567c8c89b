"""Direct solver against block-preconditioned GMRES on the stabilized
cartesian cantilever at dt = 1e-5, n = 40, 80 and 160.

    PYTHONPATH=src python3 tools/crossover.py [--out BENCH_crossover.json]

Each (solver, n) case runs in a fresh process with one BLAS thread, so its
peak RSS (ru_maxrss) is its own.  Set-up is the `cantilever.setup` call
(boundary selection, assembly, factorization or preconditioner build); the
step time is the median of STEPS timed steps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

SIZES = (40, 80, 160)
SOLVERS = ("direct", "gmres")
DT = 1e-5
STEPS = 10
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def run_case(solver: str, n: int) -> dict:
    """Set-up and step timings of one case in this process."""
    from poromech.mesh import build_cartesian
    from poromech.problems import cantilever

    mesh = build_cartesian(n, n)
    start = time.perf_counter()
    system, state = cantilever.setup(mesh, DT, stabilize=True,
                                     linear_solver=solver)
    setup_s = time.perf_counter() - start
    step_s, iterations = [], []
    for _ in range(STEPS):
        start = time.perf_counter()
        state = system.step(state)
        step_s.append(time.perf_counter() - start)
        report = system.last_report
        iterations.append(report.iterations if report is not None else 0)
    return {"solver": solver, "n": n, "unknowns": system.free.size,
            "setup_s": setup_s,
            "step_ms_median": 1e3 * statistics.median(step_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "iterations": iterations}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_crossover.json")
    parser.add_argument("--case", nargs=2, metavar=("SOLVER", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case[0], int(args.case[1]))))
        return 0

    cases = []
    for n in SIZES:
        for solver in SOLVERS:
            out = subprocess.run(
                [sys.executable, __file__, "--case", solver, str(n)],
                env={**os.environ, **ENV}, check=True, capture_output=True,
                text=True).stdout
            cases.append(json.loads(out.splitlines()[-1]))
            print(cases[-1])
    record = {
        "problem": f"stabilized cartesian cantilever, dt = {DT:g}, "
                   f"GMRES rtol 1e-6, {STEPS} timed steps",
        "machine": {"platform": platform.platform(),
                    "cpus": os.cpu_count(), "blas_threads": 1,
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "left_out": "n = 320 (about 513k unknowns) was not run; its "
                    "set-up time, step time and peak RSS are unmeasured",
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
