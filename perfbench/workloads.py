"""The benchmark workloads: one complete simulation each, with checks.

Each workload builds a Simulation from a seed.  Construction is the set-up
(mesh, DiscreteSystem, initial state); `begin` prepares the per-run
observers that are not part of the set-up; `observe` runs after every step;
`checks` compares the final output with a reference and returns
{check name: passed}; `err_rel` is the workload's accuracy figure.

Only the Voronoi mesh depends on the seed; the other meshes are fixed, so
on those workloads every seed runs the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import poromech.mesh as pm_mesh
from poromech.problems import ErrorNorms, cantilever, mandel, manufactured


class Simulation:
    steps: int
    system: object
    state: object

    def begin(self) -> None:
        pass

    def observe(self, n: int) -> None:
        pass

    def checks(self) -> dict[str, bool]:
        raise NotImplementedError

    def err_rel(self) -> float:
        raise NotImplementedError


class Manufactured(Simulation):
    """Manufactured solution on the unit square, t in (0, steps * dt].

    err_rel is the space-time pressure error e_p; the exact pressure has
    unit amplitude, so it is also the relative error.  Checks: e_p, e_u and
    e_s each at most its bound.
    """

    def __init__(self, mesh, dt: float, steps: int, bounds: dict):
        self.steps, self.bounds = steps, bounds
        self.system, self.state = manufactured.setup(mesh, dt)

    def begin(self) -> None:
        self.norms = ErrorNorms(self.system, manufactured.pressure,
                                manufactured.displacement)

    def observe(self, n: int) -> None:
        self.norms.accumulate(self.state)

    def checks(self) -> dict[str, bool]:
        self.totals = self.norms.totals()
        return {key: self.totals[key] <= bound
                for key, bound in self.bounds.items()}

    def err_rel(self) -> float:
        return self.totals["e_p"]


class Mandel(Simulation):
    """Mandel consolidation, midline profiles sampled at fractions of Tc.

    err_rel is the largest profile error over the samples, divided by the
    undrained pressure p0.  Checks, as in acceptance criterion 6: every
    profile error at most 1e-3 p0, and the sealed-edge pressure overshoots
    p0 by more than 5% (Mandel-Cryer effect).
    """

    FRACTIONS = (0.05, 0.075, 0.1)
    DT_FRACTION = 1e-4

    def __init__(self, mesh):
        t_char = mandel.MandelSolution(mandel.default_material()).t_char
        dt = self.DT_FRACTION * t_char
        self.system, self.solution, self.state = mandel.setup(mesh, dt)
        self.sample_steps = {int(round(f / self.DT_FRACTION)): f
                             for f in self.FRACTIONS}
        self.steps = max(self.sample_steps)

    def begin(self) -> None:
        mesh = self.system.mesh
        height = mesh.vertices[:, 1].max()
        cells = mandel.profile_cells(mesh, height)
        self.cells = cells[np.argsort(mesh.cell_centroid[cells, 0])]
        self.p0 = self.solution.undrained_pressure()
        self.history = [self.state.p[self.cells[0]] / self.p0]
        self.errors = []

    def observe(self, n: int) -> None:
        p = self.state.p
        self.history.append(p[self.cells[0]] / self.p0)
        if n in self.sample_steps:
            exact = mandel.exact_cell_means(self.solution, self.system,
                                            self.cells, self.state.time)
            self.errors.append(
                float(np.abs(p[self.cells] - exact).max()) / self.p0)

    def checks(self) -> dict[str, bool]:
        checks = {f"profile_t{f:g}": err <= 1e-3
                  for f, err in zip(self.FRACTIONS, self.errors)}
        checks["overshoot"] = max(self.history) > 1.05
        return checks

    def err_rel(self) -> float:
        return max(self.errors)


class Cantilever(Simulation):
    """Stabilized cantilever stepped with GMRES at dt = 1e-5.

    Reference values come from the direct solver on the same mesh and time
    step.  err_rel is the relative deviation of the top-right vertical
    displacement from that reference, so it measures how far GMRES stops
    from the exact discrete solution.  Checks: tip deflection within 1e-4
    and checkerboard indicator within 1e-3 (relative) of the reference.
    A GMRES solve that does not converge raises SolverError, which the
    episode counts as a failed step.
    """

    DT = 1e-5
    TIP_TOL = 1e-4
    INDICATOR_TOL = 1e-3

    def __init__(self, mesh, steps: int, tip_ref: float,
                 indicator_ref: float):
        self.steps = steps
        self.tip_ref, self.indicator_ref = tip_ref, indicator_ref
        self.system, self.state = cantilever.setup(
            mesh, self.DT, stabilize=True, linear_solver="gmres")

    def _tip(self) -> float:
        verts = self.system.mesh.vertices
        corner = int(np.argmax(verts[:, 0] + verts[:, 1]))
        return float(self.state.u[2 * corner + 1])

    def checks(self) -> dict[str, bool]:
        indicator = self.system.jump_indicator(self.state)
        return {
            "tip": abs(self._tip() - self.tip_ref)
            <= self.TIP_TOL * abs(self.tip_ref),
            "indicator": abs(indicator - self.indicator_ref)
            <= self.INDICATOR_TOL * abs(self.indicator_ref),
        }

    def err_rel(self) -> float:
        return abs(self._tip() - self.tip_ref) / abs(self.tip_ref)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Simulation]


def _mms_cart80(seed: int) -> Simulation:
    mesh = pm_mesh.build_cartesian(80, 80)
    return Manufactured(mesh, dt=0.025, steps=40,
                        bounds={"e_p": 0.0085, "e_u": 6e-4, "e_s": 6e-3})


def _mandel_cart20(seed: int) -> Simulation:
    return Mandel(pm_mesh.build_cartesian(20, 20))


def _cantilever_hybrid40(seed: int) -> Simulation:
    # Direct-solver values after 60 steps on build_hybrid(40, 40).
    return Cantilever(pm_mesh.build_hybrid(40, 40), steps=60,
                      tip_ref=-3.035118392622804e-05,
                      indicator_ref=0.0658862877973517)


def _mms_voronoi40(seed: int) -> Simulation:
    mesh = pm_mesh.build_voronoi(1600, lloyd_iters=20, seed=seed)
    return Manufactured(mesh, dt=0.025, steps=40,
                        bounds={"e_p": 0.014, "e_u": 1.2e-3, "e_s": 0.019})


WORKLOADS = {w.name: w for w in [
    Workload("mms-cart80-direct",
             "set-up dominated: per-cell VEM/MFD operators on 6400 quads "
             "and a 32k-unknown LU", _mms_cart80),
    Workload("mandel-cart20-direct",
             "thousands of cheap direct steps: LU refinement solves and "
             "per-vertex boundary series dominate", _mandel_cart20),
    Workload("cantilever-hybrid40-gmres",
             "the only path through stabilization, the block "
             "preconditioner and the GMRES loop", _cantilever_hybrid40),
    Workload("mms-voronoi40-direct",
             "seeded Voronoi mesh generation and local operators on "
             "4- to 8-gons", _mms_voronoi40),
]}
