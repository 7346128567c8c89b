"""Episode runner and statistics.

An episode is one complete simulation, closed loop: set-up, then each
step starts when the previous one returns, then the output checks.  A
bare set-up builds a simulation, times it and drops it.  A run repeats
episodes until its time is used, it has MIN_SETUPS set-up samples and
enough steps that at least TAIL_SAMPLES lie beyond p90.  Between
episodes it takes bare set-ups while set-ups have had less than
SETUP_SHARE of the run, so that workloads whose set-up is cheap next to
their steps still time set-up many times, spread over the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from poromech.solver import SolverError

MIN_SETUPS = 3
SETUP_SHARE = 0.5
TAIL_SAMPLES = 10
MAX_SECONDS = 120.0   # a run stops here even if its steps keep failing
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Episode:
    setup_s: float = 0.0
    run_s: float = 0.0
    step_ms: list = field(default_factory=list)
    iterations: list = field(default_factory=list)   # Krylov, per step
    steps_attempted: int = 0
    steps_failed: int = 0
    checks: dict = field(default_factory=dict)
    err_rel: float | None = None
    sim: object = None

    @property
    def attempted(self) -> int:
        return self.steps_attempted + len(self.checks)

    @property
    def failed(self) -> int:
        return self.steps_failed + sum(not ok for ok in self.checks.values())


def run_episode(setup, seed: int) -> Episode:
    """One simulation; a SolverError ends it as one failed step, and an
    ended episode runs no checks."""
    clock = time.perf_counter
    ep = Episode()
    t0 = clock()
    sim = setup(seed)
    ep.setup_s = clock() - t0
    sim.begin()
    for n in range(1, sim.steps + 1):
        ep.steps_attempted += 1
        t_step = clock()
        try:
            sim.state = sim.system.step(sim.state)
        except SolverError:
            ep.steps_failed += 1
            break
        ep.step_ms.append(1e3 * (clock() - t_step))
        report = sim.system.last_report
        ep.iterations.append(report.iterations if report is not None else 0)
        sim.observe(n)
    else:
        ep.checks = {name: bool(ok) for name, ok in sim.checks().items()}
        ep.err_rel = float(sim.err_rel())
    ep.run_s = clock() - t0
    ep.sim = sim
    return ep


def bare_setup(setup, seed: int) -> float:
    """Seconds one set-up takes; the simulation is dropped."""
    t0 = time.perf_counter()
    setup(seed)
    return time.perf_counter() - t0


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the q-th percentile of n distinct values,
    with the percentile interpolated linearly between order statistics."""
    return n - 1 - math.floor(q / 100.0 * (n - 1)) if n else 0


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least TAIL_SAMPLES samples beyond it,
    or None when even the median has fewer."""
    for q in PERCENTILES:
        if samples_beyond(n, q) >= TAIL_SAMPLES:
            return q
    return None


def percentile(values, q: float) -> float:
    """q-th percentile, linear interpolation between order statistics
    (numpy's default); NaN for no values."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def steps_done(episodes, elapsed: float, seconds: float) -> bool:
    """The run's time is used and at least TAIL_SAMPLES steps lie beyond
    p90."""
    tail = tail_percentile(sum(len(ep.step_ms) for ep in episodes))
    return elapsed >= seconds and tail is not None and tail >= 90.0


def enough(episodes, setups, elapsed: float, seconds: float) -> bool:
    """Stop rule of a run; `setups` holds every set-up time, bare or not."""
    return elapsed >= MAX_SECONDS or (len(setups) >= MIN_SETUPS
                                      and steps_done(episodes, elapsed,
                                                     seconds))


def measure(setup, seed: int, seconds: float):
    """Untraced run: (episodes, set-up times).  Each episode's simulation
    is dropped when it ends, so one is alive at a time for peak RSS."""
    clock = time.perf_counter
    t0 = clock()
    episodes, setups = [], []
    while not enough(episodes, setups, clock() - t0, seconds):
        elapsed = clock() - t0
        if episodes and (sum(setups) < SETUP_SHARE * elapsed
                         or steps_done(episodes, elapsed, seconds)):
            setups.append(bare_setup(setup, seed))
            continue
        ep = run_episode(setup, seed)
        ep.sim = None
        episodes.append(ep)
        setups.append(ep.setup_s)
    return episodes, setups


def end_to_end(episodes, setups, peak_rss_mb: float) -> dict:
    """Bounded end-to-end metrics of one untraced run.

    Set-up and step times are reported at p90, which follows the slower
    of the machine's two speeds; the step median and p10 and the episode
    time (run_s) are summary figures only.  See README.md, "Environment
    and limits".
    """
    steps = [ms for ep in episodes for ms in ep.step_ms]
    errs = [ep.err_rel for ep in episodes if ep.err_rel is not None]
    out = {
        "setup_s": (percentile(setups, 90.0), "s"),
        "step_ms_p90": (percentile(steps, 90.0), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # Deterministic per input, so every episode gives the same value.
        "err_rel": (max(errs) if errs else math.nan, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
