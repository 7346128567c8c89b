"""Poroelastic cantilever: unit square clamped on the left, a uniform
downward traction of unit total load on top, sealed (no-flow) everywhere.

With zero storage the fluid cannot escape, so small time steps drive the
discretization toward the undrained limit where cell pressures on
quadrilateral meshes develop checkerboard modes; the macro-element pressure
jump stabilization removes them.  All pressure dofs are free (the flow
boundary is pure flux), which the trace block tolerates because it is
always positive definite.
"""

from __future__ import annotations

import numpy as np

from ..assembly import (BoundaryConditions, DiscreteSystem, Material, State,
                        solver_options)
from ..mesh import PolyMesh


def default_material() -> Material:
    return Material(shear=3.571e4, lam=1.429e5, alpha=1.0, storage=0.0,
                    kappa=1.0e-7)


def setup(mesh: PolyMesh, dt: float,
          **options) -> tuple[DiscreteSystem, State]:
    """Assemble the cantilever with default_material() and its zero
    initial state.  `**options` passes the SOLVER_KEYWORDS unchanged to
    DiscreteSystem, which declares their defaults; others are a TypeError.

    The top traction is spread evenly over the width so that the total
    downward load is 1.  It enters at the first step, so the initial state
    is identically zero rather than solved for.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    width, height = hi - lo
    tol = 1e-9 * max(width, height)
    bcs = BoundaryConditions(
        displacement=[(lambda x: x[0] < lo[0] + tol, (True, True),
                       lambda x, t: (0.0, 0.0))],
        traction=[(lambda x: x[1] > hi[1] - tol,
                   lambda x, t: (0.0, -1.0 / width))])
    system = DiscreteSystem(mesh, default_material(), bcs, dt,
                            **solver_options(options))
    state0 = State(time=0.0, u=np.zeros(system.n_u),
                   p=np.zeros(system.n_p), pi=np.zeros(system.n_pi))
    return system, state0
