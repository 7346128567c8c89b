"""Study protocols: mesh families, refinement ladders, stabilization and
solver-iteration comparisons.

Independent cases of a study may run in separate processes; the worker
count is capped by the POROMECH_THREADS environment variable.  All cases
are deterministic for fixed seeds, so results do not depend on the worker
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..mesh import (PolyMesh, build_cartesian, build_hybrid, build_skewed,
                    build_voronoi)
from . import cantilever, manufactured
from .norms import ErrorNorms

FAMILIES = ("cartesian", "skewed", "hybrid", "voronoi")

# Quadrilateral-based families on which cell pressures can checkerboard in
# the undrained limit; Voronoi meshes do not need stabilization.
STABILIZED_FAMILIES = ("cartesian", "skewed", "hybrid")


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


def level_mesh(family: str, level: int, *, base: int = 10, seed: int = 0,
               lloyd_iters: int = 20) -> PolyMesh:
    """Refinement level of a family: resolution doubles per level."""
    return family_mesh(family, base * 2**level, seed=seed,
                       lloyd_iters=lloyd_iters)


def _worker_count(workers: int | None, n_tasks: int) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    cap = os.environ.get("POROMECH_THREADS")
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, min(workers, n_tasks))


def _run_cases(worker, tasks, workers):
    workers = _worker_count(workers, len(tasks))
    if workers == 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def manufactured_case(mesh: PolyMesh, dt: float, t_end: float = 1.0, *,
                      stabilize: bool = False) -> dict:
    """March the smooth reference problem with the direct solver and
    accumulate its error norms."""
    system, state = manufactured.setup(mesh, dt, stabilize=stabilize)
    norms = ErrorNorms(system, manufactured.pressure,
                       manufactured.displacement)
    steps = int(round(t_end / dt))
    for _ in range(steps):
        state = system.step(state)
        norms.accumulate(state)
    row = {"cells": mesh.num_cells, "unknowns": mesh.num_unknowns,
           "h": float(mesh.cell_diam.max()), "dt": dt, "steps": steps}
    row.update(norms.totals())
    return row


def _manufactured_task(task: tuple) -> dict:
    family, n, dt, t_end, stabilize, seed, lloyd_iters = task
    mesh = family_mesh(family, n, seed=seed, lloyd_iters=lloyd_iters)
    return manufactured_case(mesh, dt, t_end, stabilize=stabilize)


def convergence_study(family: str = "cartesian", levels: int = 5, *,
                      base: int = 5, dt0: float = 0.1, t_end: float = 1.0,
                      stabilize: bool = False, seed: int = 0,
                      lloyd_iters: int = 20,
                      workers: int | None = None) -> list[dict]:
    """Simultaneous space-time ladder: 4x the cells, half the step."""
    if levels < 1:
        raise ValueError(f"at least one level is needed, got levels = "
                         f"{levels}")
    tasks = [(family, base * 2**level, dt0 / 2**level, t_end, stabilize,
              seed, lloyd_iters) for level in range(levels)]
    return _run_cases(_manufactured_task, tasks, workers)


def time_refinement_study(family: str = "cartesian", n: int = 40, *,
                          t_end: float = 1.0, stabilize: bool = False,
                          seed: int = 0, lloyd_iters: int = 20,
                          workers: int | None = None) -> list[dict]:
    """Halve the time step on one fixed mesh: the fixed ladder
    dt = 0.1 / 2^k for k = 0, ..., 4."""
    tasks = [(family, n, 0.1 / 2**k, t_end, stabilize, seed, lloyd_iters)
             for k in range(5)]
    return _run_cases(_manufactured_task, tasks, workers)


def observed_rates(rows: list[dict], x_key: str = "h") -> dict:
    """Rates of the three error norms e_p, e_u and e_s from the two finest
    cases of a ladder."""
    if len(rows) < 2:
        raise ValueError("need at least two cases to observe a rate")
    prev, last = rows[-2], rows[-1]
    ratio = np.log(prev[x_key] / last[x_key])
    return {key: float(np.log(prev[key] / last[key]) / ratio)
            for key in ("e_p", "e_u", "e_s")}


def stabilization_study(families=STABILIZED_FAMILIES + ("voronoi",),
                        *, n: int = 10, dt: float = 1.0e-5, seed: int = 0,
                        lloyd_iters: int = 20) -> list[dict]:
    """Single undrained-limit cantilever step with and without the
    pressure-jump terms; reports the checkerboard indicator of both.

    Each row keeps the stepped (system, state) pairs under "runs", keyed
    "unstabilized" and "stabilized" like the indicators, for snapshots.
    """
    if not families:
        raise ValueError("at least one mesh family is needed")
    rows = []
    for family in families:
        mesh = family_mesh(family, n, seed=seed, lloyd_iters=lloyd_iters)
        row = {"family": family, "cells": mesh.num_cells, "dt": dt,
               "runs": {}}
        for label, flag in (("unstabilized", False), ("stabilized", True)):
            system, state = cantilever.setup(mesh, dt, stabilize=flag)
            state = system.step(state)
            row[label] = system.jump_indicator(state)
            row["runs"][label] = system, state
        rows.append(row)
    return rows


def solver_study(levels=(0, 1, 2), *, family: str = "cartesian",
                 base: int = 10, dt: float = 1.0e-5,
                 stabilize: bool = True, rtol: float = 1e-6,
                 seed: int = 0, lloyd_iters: int = 20) -> list[dict]:
    """GMRES iteration counts of one cantilever step across refinements."""
    if not levels:
        raise ValueError("at least one refinement level is needed")
    rows = []
    for level in levels:
        mesh = level_mesh(family, level, base=base, seed=seed,
                          lloyd_iters=lloyd_iters)
        system, state = cantilever.setup(mesh, dt, stabilize=stabilize,
                                         linear_solver="gmres", rtol=rtol)
        state = system.step(state)
        report = system.last_report
        rows.append({"level": level, "family": family,
                     "cells": mesh.num_cells,
                     "unknowns": mesh.num_unknowns, "dt": dt,
                     "stabilized": stabilize,
                     "iterations": report.iterations,
                     "residual_reduction": report.reduction})
    return rows
