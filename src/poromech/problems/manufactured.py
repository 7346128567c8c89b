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

Every field is a sum of products of sin/cos of pi x, pi y and pi t.
The vectorized fields (pressure, displacement, body_force, mass_source)
keep the four spatial factors of a read-only points array that owns its
data, such as a system's quad_points, which every call from the system
passes, so a step pays only for the time factors and the products.  The
entry is held through a weak reference to the array and is dropped when
the array is freed; the factors of any other array (fresh points,
mesh.vertices) are computed on each call.  Cached or not, the values are
the same bits.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ..assembly import BoundaryConditions, DiscreteSystem, Material, State
from ..mesh import PolyMesh

PI = np.pi


def default_material() -> Material:
    return Material(shear=1.0, lam=1.0, alpha=1.0, storage=0.0, kappa=1.0)


# The exact fields are written once, as products of the separated factors
# sin(pi x), cos(pi x), sin(pi y), cos(pi y) and a time factor: numpy
# arrays for the vectorized fields, math on the Python floats of one
# point for the boundary callables, which build no array per call.
def _pressure(sin_x, sin_y, cos_t):
    return -cos_t * sin_x * sin_y


def _displacement(sin_x, cos_x, sin_y, cos_y, sin_t):
    return -cos_x * cos_y * sin_t, sin_x * sin_y * sin_t


# id of a points array -> (weak reference to it, its spatial factors); the
# reference drops the entry when the array is freed
_TRIG_CACHE: dict = {}


def _trig(points):
    """sin(pi x), cos(pi x), sin(pi y), cos(pi y) at the (n, 2) points.

    The factors of a read-only array that owns its data (a system's
    quad_points) are kept until that array is freed; any other array
    is evaluated afresh.
    """
    points = np.asarray(points, dtype=float)
    cached = not points.flags.writeable and points.flags.owndata
    if cached:
        entry = _TRIG_CACHE.get(id(points))
        if entry is not None and entry[0]() is points:
            return entry[1]
    x, y = points.reshape(-1, 2).T
    trig = (np.sin(PI * x), np.cos(PI * x), np.sin(PI * y), np.cos(PI * y))
    for factor in trig:
        factor.flags.writeable = False
    if cached:
        key = id(points)
        _TRIG_CACHE[key] = (
            weakref.ref(points, lambda _: _TRIG_CACHE.pop(key, None)), trig)
    return trig


def pressure(points, t: float):
    sin_x, _, sin_y, _ = _trig(points)
    return _pressure(sin_x, sin_y, np.cos(PI * t))


def displacement(points, t: float):
    trig = _trig(points)
    u = np.empty((trig[0].size, 2))
    u[:, 0], u[:, 1] = _displacement(*trig, np.sin(PI * t))
    return u


def boundary_pressure(point, t: float) -> float:
    """Exact pressure at one point, a (2,) array."""
    x, y = point.tolist()
    return _pressure(math.sin(PI * x), math.sin(PI * y), math.cos(PI * t))


def boundary_displacement(point, t: float) -> tuple[float, float]:
    """Exact displacement at one point, a (2,) array."""
    x, y = point.tolist()
    return _displacement(math.sin(PI * x), math.cos(PI * x),
                         math.sin(PI * y), math.cos(PI * y),
                         math.sin(PI * t))


def body_force(points, t: float):
    sin_x, cos_x, sin_y, cos_y = _trig(points)
    sin_t, cos_t = np.sin(PI * t), np.cos(PI * t)
    b = np.empty((sin_x.size, 2))
    b[:, 0] = -PI * (6.0 * PI * sin_t * cos_y + sin_y * cos_t) * cos_x
    b[:, 1] = PI * (6.0 * PI * sin_t * sin_y - cos_t * cos_y) * sin_x
    return b


def mass_source(points, t: float):
    sin_x, _, sin_y, cos_y = _trig(points)
    return 2.0 * PI**2 * np.cos(PI * t) * sin_x * (cos_y - sin_y)


def setup(mesh: PolyMesh, dt: float, *, stabilize: bool = False,
          linear_solver: str = "direct", rtol: float = 1e-6,
          maxiter: int = 500) -> tuple[DiscreteSystem, State]:
    """Discrete problem with exact Dirichlet data and consistent start.

    The initial displacement vanishes identically (the exact field does),
    so only the pressure cell means seed the time loop.
    """
    material = default_material()
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True), boundary_displacement)],
        pressure_where=lambda x: True, pressure=boundary_pressure)
    system = DiscreteSystem(mesh, material, bcs, dt,
                            stabilize=stabilize,
                            linear_solver=linear_solver,
                            body_force=body_force, mass_source=mass_source,
                            rtol=rtol, maxiter=maxiter)
    state0 = system.initial_state(p0=lambda pts: pressure(pts, 0.0),
                                  u0=np.zeros(system.n_u))
    return system, state0
