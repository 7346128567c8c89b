"""Study protocols: mesh families, refinement ladders, stabilization and
solver-iteration comparisons.

Every study takes the Voronoi settings as keywords, `**mesh`, and passes
them unchanged to family_mesh, which alone declares them and their
defaults; any other keyword is a TypeError.  The two manufactured
ladders also pass the solver keywords (assembly.SOLVER_KEYWORDS) through
to manufactured_case, so DiscreteSystem alone declares their defaults.
The command line reads both the defaults of its study options and the
keywords that carry them from these signatures.

The cases of a refinement ladder run in a process pool of one worker per
usable CPU (the CPUs this process may run on, so `taskset` or a cpuset
limits it), at most one per case, and serially when that is one.  Every
case of a ladder is checked before a worker starts.  All cases are
deterministic for fixed seeds, so results do not depend on the worker
count.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..assembly import SOLVER_KEYWORDS
from ..mesh import (PolyMesh, build_cartesian, build_hybrid, build_skewed,
                    build_voronoi)
from ..solver import RTOL
from . import cantilever, manufactured
from .norms import ErrorNorms

FAMILIES = ("cartesian", "skewed", "hybrid", "voronoi")


def family_mesh(family: str, n: int, *, seed: int = 0,
                lloyd_iters: int = 20) -> PolyMesh:
    """Mesh of the named family with roughly n x n resolution.

    For the grid families n is the subdivision count per side; the Voronoi
    family gets n^2 generators (exactly n^2 cells).
    """
    if family == "cartesian":
        return build_cartesian(n, n)
    if family == "skewed":
        return build_skewed(n, n)
    if family == "hybrid":
        return build_hybrid(n, n)
    if family == "voronoi":
        return build_voronoi(n * n, lloyd_iters=lloyd_iters, seed=seed)
    raise ValueError(f"unknown mesh family '{family}', expected one of "
                     f"{FAMILIES}")


def step_count(dt: float, t_end: float) -> int:
    """round(t_end / dt), checked to be at least 1."""
    # the chained comparisons are False for nan as well
    if not (0.0 < dt < np.inf and 0.0 < t_end < np.inf
            and round(t_end / dt) >= 1):
        raise ValueError(f"t_end = {t_end} and dt = {dt} must be finite "
                         f"and positive with round(t_end / dt) >= 1")
    return int(round(t_end / dt))


def manufactured_case(mesh: PolyMesh, dt: float, t_end: float = 1.0,
                      **options) -> dict:
    """March the smooth reference problem over round(t_end / dt) >= 1
    steps, gathering its error norms; `**options` go to manufactured.setup."""
    steps = step_count(dt, t_end)
    system, state = manufactured.setup(mesh, dt, **options)
    norms = ErrorNorms(system, manufactured.pressure,
                       manufactured.displacement)
    for _ in range(steps):
        state = system.step(state)
        norms.accumulate(state)
    row = {"cells": mesh.num_cells, "unknowns": mesh.num_unknowns,
           "h": float(mesh.cell_diam.max()), "dt": dt, "steps": steps}
    row.update(norms.totals())
    return row


def _ladder_case(family: str, n: int, dt: float, *, t_end: float,
                 **options) -> dict:
    """One ladder case: the solver keywords of options go to
    manufactured_case, the others to family_mesh."""
    solver = {key: options.pop(key)
              for key in SOLVER_KEYWORDS & options.keys()}
    return manufactured_case(family_mesh(family, n, **options), dt, t_end,
                             **solver)


def _run_cases(ladder: list[tuple[int, float]], family: str, *,
               t_end: float, **options) -> list[dict]:
    """Manufactured-case rows of the (n, dt) pairs of ladder, in order.

    The ladder must have a case and every pair is checked before a case
    runs; the cases then run in min(usable CPUs, cases) worker processes,
    longest first, or here when that is one.
    """
    if not ladder:
        raise ValueError("at least one level is needed")
    for _, dt in ladder:
        step_count(dt, t_end)
    case = functools.partial(_ladder_case, family, t_end=t_end, **options)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(ladder))
    if workers <= 1:
        return [case(n, dt) for n, dt in ladder]
    # a case costs about n^2 cells times t_end / dt steps; submitting the
    # costly ones first keeps a worker from idling at the end of the ladder
    longest_first = sorted(ladder, key=lambda pair: -pair[0] ** 2 / pair[1])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows = dict(zip(longest_first, pool.map(case, *zip(*longest_first))))
    return [rows[pair] for pair in ladder]


def convergence_study(family: str = "cartesian", levels: int = 5, *,
                      base: int = 5, dt0: float = 0.1, t_end: float = 1.0,
                      **options) -> list[dict]:
    """Simultaneous space-time ladder: 4x the cells, half the step."""
    ladder = [(base * 2**level, dt0 / 2**level) for level in range(levels)]
    return _run_cases(ladder, family, t_end=t_end, **options)


def time_refinement_study(family: str = "cartesian", n: int = 40, *,
                          dt0: float = 0.1, levels: int = 5,
                          t_end: float = 1.0, **options) -> list[dict]:
    """Halve the time step on one fixed mesh: dt = dt0 / 2^k for
    k = 0, ..., levels - 1."""
    ladder = [(n, dt0 / 2**k) for k in range(levels)]
    return _run_cases(ladder, family, t_end=t_end, **options)


def observed_rates(rows: list[dict], x_key: str = "h") -> dict:
    """Rates of the three error norms e_p, e_u and e_s from the two finest
    cases of a ladder."""
    if len(rows) < 2:
        raise ValueError("need at least two cases to observe a rate")
    prev, last = rows[-2], rows[-1]
    ratio = np.log(prev[x_key] / last[x_key])
    return {key: float(np.log(prev[key] / last[key]) / ratio)
            for key in ("e_p", "e_u", "e_s")}


def stabilization_study(families=FAMILIES, *, n: int = 10,
                        dt: float = 1.0e-5, **mesh) -> list[dict]:
    """Single undrained-limit cantilever step with and without the
    pressure-jump terms; reports the checkerboard indicator of both.

    Each row keeps the stepped (system, state) pairs under "runs", keyed
    "unstabilized" and "stabilized" like the indicators, for snapshots.
    """
    if not families:
        raise ValueError("at least one mesh family is needed")
    rows = []
    for family in families:
        grid = family_mesh(family, n, **mesh)
        row = {"family": family, "cells": grid.num_cells, "dt": dt,
               "runs": {}}
        for label, flag in (("unstabilized", False), ("stabilized", True)):
            system, state = cantilever.setup(grid, dt, stabilize=flag)
            state = system.step(state)
            row[label] = system.jump_indicator(state)
            row["runs"][label] = system, state
        rows.append(row)
    return rows


def solver_study(levels=(0, 1, 2), *, family: str = "cartesian",
                 base: int = 10, dt: float = 1.0e-5,
                 stabilize: bool = True, rtol: float = RTOL,
                 **mesh) -> list[dict]:
    """GMRES iteration counts of one cantilever step across refinements."""
    if not levels:
        raise ValueError("at least one refinement level is needed")
    if min(levels) < 0:
        raise ValueError(f"refinement levels must be non-negative, got "
                         f"{list(levels)}")
    rows = []
    for level in levels:
        grid = family_mesh(family, base * 2**level, **mesh)
        system, state = cantilever.setup(grid, dt, stabilize=stabilize,
                                         linear_solver="gmres", rtol=rtol)
        state = system.step(state)
        report = system.last_report
        rows.append({"level": level, "family": family,
                     "cells": grid.num_cells,
                     "unknowns": grid.num_unknowns, "dt": dt,
                     "stabilized": stabilize,
                     "iterations": report.iterations,
                     "residual_reduction": report.reduction})
    return rows
