"""poromech benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures the end-to-end metrics with no wrappers
installed.  With --trace 1 it alternates untraced and traced episodes and
reports the per-layer metrics and the tracing overhead (the median over
pairs of traced minus untraced run_s).  Either way every episode's output
checks count toward `attempted` / `failed`.  The last line of standard
output is the JSON result; the lines before it are the environment and a
readable summary.  A copy of the result, and for traced runs the spans as
CSV, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS thread: SuperLU is single-threaded anyway, and on a shared
# 2-core machine a second thread adds more noise than speed.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LIMITS = ("wall-clock timing with perf_counter only, no machine-wide "
          "tracing or hardware counters; peak RSS is ru_maxrss of this "
          "fresh process")


def git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git; 'unknown' when
    root is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def finite(metrics: dict) -> dict:
    """JSON has no NaN: an unmeasurable value is reported as null."""
    return {k: {"value": v["value"] if math.isfinite(v["value"]) else None,
                "unit": v["unit"]} for k, v in metrics.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "poromech").is_dir():
        print(f"error: no poromech sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy

    import harness
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}', expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "commit": git_commit(ROOT), "limits": LIMITS,
    }
    print("env " + json.dumps(env), flush=True)

    if args.trace:
        # Untraced and traced episodes alternate, so that each difference
        # of a pair is taken in nearly the same machine state.
        t0 = time.perf_counter()
        rec = tracing.Recorder()
        untraced, episodes, overheads = [], [], []
        while not episodes or time.perf_counter() - t0 < args.seconds:
            plain = harness.run_episode(workload.setup, args.seed)
            plain.sim = None
            untraced.append(plain)
            rec.run_id = len(episodes) + 1
            uninstall = tracing.instrument(rec)
            try:
                episodes.append(harness.run_episode(workload.setup,
                                                    args.seed))
            finally:
                uninstall()
            overheads.append(episodes[-1].run_s - plain.run_s)
        metrics = tracing.layer_metrics(rec, episodes,
                                        statistics.median(overheads))
        counted = untraced + episodes
        setups = [ep.setup_s for ep in episodes]
        RESULTS.mkdir(exist_ok=True)
        rec.write_csv(RESULTS / f"spans-{workload.name}-seed{args.seed}.csv")
    else:
        episodes, setups = harness.measure(workload.setup, args.seed,
                                           args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = harness.end_to_end(episodes, setups, peak_mb)
        counted = episodes

    attempted = sum(ep.attempted for ep in counted)
    failed = sum(ep.failed for ep in counted)
    step_ms = [ms for ep in episodes for ms in ep.step_ms]
    tail = harness.tail_percentile(len(step_ms))
    summary = {
        "episodes": len(episodes), "steps": len(step_ms),
        # Not bounded metrics: on a two-speed machine they do not repeat
        # from run to run (README.md, "Environment and limits").
        "step_ms_p10": harness.percentile(step_ms, 10.0),
        "step_ms_p50": harness.percentile(step_ms, 50.0),
        "run_s_median": (statistics.median(ep.run_s for ep in episodes)
                         if episodes else None),
        "tail_percentile": tail,
        "step_ms_tail": harness.percentile(step_ms, tail) if tail else None,
        "failed_frac": failed / attempted if attempted else 1.0,
        "checks": [ep.checks for ep in counted],
        "setup_s": setups,
        "run_s": [ep.run_s for ep in episodes],
    }
    print("summary " + json.dumps(summary), flush=True)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": finite(metrics)}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{workload.name}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps({"env": env, "summary": summary,
                               "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
