"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 0-9]

Runs run.py once per workload and seed, one process at a time, for
run_seconds from BENCHMARK.json, and prints
for each end-to-end metric the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json.  A spread above a third
of the bound is flagged: the benchmark is meant to stay below that.  Raw
results go to perfbench/results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """Result line of one run, plus its wall time as "wall_s"."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    args = ap.parse_args()
    (HERE / "results").mkdir(exist_ok=True)
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall={result['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        (HERE / "results" / f"spread-{workload}.json").write_text(
            json.dumps(runs, indent=1))
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(r['correct'] for r in runs)} correct, "
              f"{sum(r['wall_s'] for r in runs):.0f} s wall")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            median, rel = spread(values)
            flag = ""
            if rel > m["bound"] / 3:
                flag = "  <-- above bound/3"
                flagged += 1
            print(f"  {m['name']:26s} median {median:11.5g} {m['unit']:6s}"
                  f" spread {rel:7.2%} bound {m['bound']:.0%}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
