"""Smooth time-dependent reference problem on the unit square.

The fields

    p(x, y, t)  = -cos(pi t) sin(pi x) sin(pi y)
    u_x(x, y, t) = -sin(pi t) cos(pi x) cos(pi y)
    u_y(x, y, t) =  sin(pi t) sin(pi x) sin(pi y)

with unit shear modulus, first Lame parameter, pressure coupling and
permeability (and zero storage) satisfy the momentum balance with the body
force b below and the mass balance with the fluid source g below; both were
derived symbolically offline and are guarded by finite-difference residual
tests.  Displacements and pressure are prescribed on the whole boundary.
"""

from __future__ import annotations

import math

import numpy as np

from ..assembly import BoundaryConditions, DiscreteSystem, Material, State
from ..mesh import PolyMesh

PI = np.pi


def default_material() -> Material:
    return Material(shear=1.0, lam=1.0, alpha=1.0, storage=0.0, kappa=1.0)


# The exact fields are written once, for a module of elementwise functions:
# numpy on arrays of points, or math on the Python floats of one boundary
# point, which builds no array per call.
def _pressure(lib, x, y, t):
    return -lib.cos(PI * t) * lib.sin(PI * x) * lib.sin(PI * y)


def _displacement(lib, x, y, t):
    s_t = lib.sin(PI * t)
    return (-lib.cos(PI * x) * lib.cos(PI * y) * s_t,
            lib.sin(PI * x) * lib.sin(PI * y) * s_t)


def pressure(points, t: float):
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return _pressure(np, x, y, t)


def displacement(points, t: float):
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return np.column_stack(_displacement(np, x, y, t))


def boundary_pressure(point, t: float) -> float:
    """Exact pressure at one point, a (2,) array."""
    return _pressure(math, *point.tolist(), t)


def boundary_displacement(point, t: float) -> tuple[float, float]:
    """Exact displacement at one point, a (2,) array."""
    return _displacement(math, *point.tolist(), t)


def body_force(points, t: float):
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    sin_x, cos_x = np.sin(PI * x), np.cos(PI * x)
    sin_y, cos_y = np.sin(PI * y), np.cos(PI * y)
    sin_t, cos_t = np.sin(PI * t), np.cos(PI * t)
    b = np.empty((x.size, 2))
    b[:, 0] = -PI * (6.0 * PI * sin_t * cos_y + sin_y * cos_t) * cos_x
    b[:, 1] = PI * (6.0 * PI * sin_t * sin_y - cos_t * cos_y) * sin_x
    return b


def mass_source(points, t: float):
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return (2.0 * PI**2 * np.cos(PI * t) * np.sin(PI * x)
            * (np.cos(PI * y) - np.sin(PI * y)))


def setup(mesh: PolyMesh, dt: float, *, stabilize: bool = False,
          linear_solver: str = "direct") -> tuple[DiscreteSystem, State]:
    """Discrete problem with exact Dirichlet data and consistent start.

    The initial displacement vanishes identically (the exact field does),
    so only the pressure cell means seed the time loop.
    """
    material = default_material()
    mesh.tag_boundary(pressure=lambda x: True)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True), boundary_displacement)],
        pressure=boundary_pressure)
    system = DiscreteSystem(mesh, material, bcs, dt,
                            stabilize=stabilize,
                            linear_solver=linear_solver,
                            body_force=body_force, mass_source=mass_source)
    state0 = system.initial_state(p0=lambda pts: pressure(pts, 0.0),
                                  u0=np.zeros(system.n_u), t0=0.0)
    return system, state0
