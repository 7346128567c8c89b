"""Mandel's consolidation problem on the quarter domain (0, a) x (0, b).

A poroelastic sample is squeezed between rigid, frictionless, impermeable
platens by a constant force 2F.  Symmetry reduces the strip to a quarter:
rollers on the left and bottom edges, the drained right edge is traction
free at zero pressure, and the platen motion enters as a prescribed
vertical displacement of the top edge taken from the series solution.

The classical series solution is implemented for incompressible
constituents (vanishing storage, unit pressure coupling), the regime whose
early-time pressure rise above the undrained value is strongest.  It gives
the two fields the problem uses: the pore pressure, against which the cell
pressures are checked, and the vertical displacement that moves the platen.
"""

from __future__ import annotations

import functools

import numpy as np

from ..assembly import (BoundaryConditions, DiscreteSystem, Material, State,
                        solver_options)
from ..mesh import PolyMesh


# platen force F: the platens squeeze the full sample with 2F
FORCE = 2.0e2

# terms of the series solution, by default
N_TERMS = 200

# Newton steps converge in a handful of iterations; bisection alone takes
# about 55 to shrink a bracket of width pi/2 to machine precision
_ROOT_ITERATIONS = 100


def default_material() -> Material:
    """Stiff sandstone-like benchmark material."""
    return Material(shear=4.167e5, lam=2.778e5, alpha=1.0, storage=0.0,
                    kappa=1.0e-15)


def series_roots(ratio: float, count: int) -> np.ndarray:
    """First roots of tan(x) = ratio * x for ratio > 1.

    The n-th root lies in (n pi, (n + 1/2) pi), n = 0, 1, ...; the bracket
    endpoints are clipped inward to avoid the tangent poles.  All brackets
    are solved at once by Newton's method on g(x) = sin x - ratio x cos x,
    which has no poles, safeguarded by bisection (Press et al., rtsafe): a
    Newton step that leaves the bracket or fails to halve the previous step
    is replaced by the bracket midpoint.
    """
    # the chained comparison is False for nan as well
    if not 1.0 < ratio < np.inf:
        raise ValueError(f"root equation needs a finite ratio > 1, got "
                         f"{ratio}")
    eps = 1e-9
    k = np.arange(count)
    lo = k * np.pi + eps
    hi = (k + 0.5) * np.pi - eps
    # g goes from the sign -(-1)^k at lo to (-1)^k at hi, so (-1)^k g
    # changes from negative to positive in every bracket
    sign = (-1.0) ** k
    # start from the large-root asymptote (k + 1/2) pi - 1/(ratio x)
    x = hi - 1.0 / (ratio * hi)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    last = hi - lo
    for _ in range(_ROOT_ITERATIONS):
        sin, cos = np.sin(x), np.cos(x)
        g = sin - ratio * x * cos
        lo = np.where(sign * g < 0.0, x, lo)
        hi = np.where(sign * g > 0.0, x, hi)
        newton = x - g / ((1.0 - ratio) * cos + ratio * x * sin)
        take = ((newton >= lo) & (newton <= hi)
                & (np.abs(newton - x) <= 0.5 * np.abs(last)))
        new = np.where(take, newton, 0.5 * (lo + hi))
        last = new - x
        x = new
        if np.all(np.abs(last) <= 2.0 * np.finfo(float).eps * x):
            return x
    raise RuntimeError(f"roots of tan(x) = {ratio} x did not converge in "
                       f"{_ROOT_ITERATIONS} iterations")


class MandelSolution:
    """Series solution: the pore pressure and the vertical displacement
    on the quarter domain.

    Valid for t > 0; the t -> 0 limits are available in closed form through
    undrained_pressure and undrained_displacement.
    """

    def __init__(self, material: Material, width: float = 1.0,
                 n_terms: int = N_TERMS):
        if n_terms < 1:
            raise ValueError(f"n_terms must be at least 1, got {n_terms}")
        if material.storage != 0.0 or material.alpha != 1.0:
            raise ValueError("series solution assumes zero storage and "
                             "unit pressure coupling")
        self.material = material
        self.width = width
        lam, shear = material.lam, material.shear
        self.nu = lam / (2.0 * (lam + shear))
        self.nu_u = 0.5
        self.skempton = 1.0
        self.consolidation = float(material.kappa[0, 0]) * (lam + 2.0 * shear)
        self.t_char = width**2 / self.consolidation
        ratio = (1.0 - self.nu) / (self.nu_u - self.nu)
        self.roots = series_roots(ratio, n_terms)
        sin, cos = np.sin(self.roots), np.cos(self.roots)
        denom = self.roots - sin * cos
        self._coef_p = sin / denom
        self._coef_sc = sin * cos / denom

    def _decay(self, t: float) -> np.ndarray:
        return np.exp(-self.roots**2 * self.consolidation * t
                      / self.width**2)

    def pressure(self, x, t: float):
        """Pore pressure at horizontal position x and time t > 0.

        Every term of the series is evaluated at every point at once, so
        memory is O(len(x) * n_terms).
        """
        x = np.asarray(x, dtype=float)
        decay = self._coef_p * self._decay(t)
        arg = np.multiply.outer(x, self.roots) / self.width
        scale = (2.0 * FORCE * self.skempton * (1.0 + self.nu_u)
                 / (3.0 * self.width))
        return scale * ((np.cos(arg) - np.cos(self.roots)) @ decay)

    def vertical_displacement(self, y, t: float):
        """Vertical displacement at height y and time t > 0; it does not
        depend on x."""
        shear, a = self.material.shear, self.width
        s_sc = self._coef_sc @ self._decay(t)
        return (-FORCE * (1.0 - self.nu) / (2.0 * shear * a)
                + FORCE * (1.0 - self.nu_u) / (shear * a) * s_sc) \
            * np.asarray(y, dtype=float)

    def undrained_pressure(self) -> float:
        """Uniform pressure right after load application."""
        return (self.skempton * (1.0 + self.nu_u) * FORCE
                / (3.0 * self.width))

    def undrained_displacement(self, x, y):
        """Displacement right after load application."""
        shear, a = self.material.shear, self.width
        u_x = FORCE * self.nu_u / (2.0 * shear * a) * np.asarray(x)
        u_y = (-FORCE * (1.0 - self.nu_u) / (2.0 * shear * a)
               * np.asarray(y))
        return u_x, u_y


def setup(mesh: PolyMesh, dt: float, *, n_terms: int = N_TERMS,
          **options) -> tuple[DiscreteSystem, MandelSolution, State]:
    """Discrete Mandel problem on a quarter-domain mesh.

    The sample is default_material() under the platen force FORCE.
    Returns the assembled system, the series solution and the undrained
    initial state.  The mesh must cover (0, a) x (0, b) with the drained
    edge at x = a.  `**options` passes the SOLVER_KEYWORDS unchanged to
    DiscreteSystem, which declares their defaults; others are a TypeError.
    """
    material = default_material()
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    if not np.allclose(lo, 0.0, atol=1e-9):
        raise ValueError("quarter-domain mesh must start at the origin")
    width, height = hi
    solution = MandelSolution(material, width=width, n_terms=n_terms)
    tol = 1e-9 * max(width, height)

    # Only u_y is prescribed on the top edge, and it is the same at every
    # top vertex: evaluate the series once per time level.
    @functools.lru_cache(maxsize=1)
    def top_u_y(t):
        if t <= 0.0:
            return float(solution.undrained_displacement(0.0, height)[1])
        return float(solution.vertical_displacement(height, t))

    def top_displacement(x, t):
        return (0.0, top_u_y(t))

    zero = lambda x, t: (0.0, 0.0)
    bcs = BoundaryConditions(
        displacement=[
            (lambda x: x[0] < tol, (True, False), zero),
            (lambda x: x[1] < tol, (False, True), zero),
            (lambda x: x[1] > height - tol, (False, True),
             top_displacement),
        ],
        pressure_where=lambda x: x[0] > width - tol,
        pressure=lambda x, t: 0.0)
    system = DiscreteSystem(mesh, material, bcs, dt, **solver_options(options))
    state0 = system.initial_state(p0=solution.undrained_pressure())
    return system, solution, state0


def profile_cells(mesh: PolyMesh, height: float) -> np.ndarray:
    """Cells whose vertical extent contains the horizontal midline (to
    within 1e-12 height), in ascending order: one full row of cells on
    any mesh, and both rows beside the midline when it runs along faces.
    """
    y = mesh.vertices[mesh.edge_vertices, 1]
    first = mesh.cell_offsets[:-1]
    mid, tol = 0.5 * height, 1e-12 * height
    return np.flatnonzero((np.minimum.reduceat(y, first) <= mid + tol)
                          & (np.maximum.reduceat(y, first) >= mid - tol))


def exact_cell_means(solution: MandelSolution, system: DiscreteSystem,
                     cells: np.ndarray, t: float) -> np.ndarray:
    """Exact pressure cell means over the given cells at time t.

    The series is evaluated only at the quadrature points of these cells,
    the columns of their cell_integral rows.
    """
    block = system.cell_integral[cells]
    values = np.zeros(block.shape[1])
    values[block.indices] = solution.pressure(
        system.quad_points[block.indices, 0], t)
    return block @ values / system.mesh.cell_area[cells]


def run_profiles(system: DiscreteSystem, solution: MandelSolution,
                 state0: State, sample_times) -> dict:
    """March in time and collect midline pressure profiles.

    sample_times must be non-empty, finite and positive, as the series is
    valid only for t > 0, and (close to) multiples of the system time
    step.
    Returns the sampled profiles, the exact profile cell means, and the
    full normalized pressure history at the cell nearest the sealed edge.
    """
    mesh = system.mesh
    height = mesh.vertices[:, 1].max()
    cells = profile_cells(mesh, height)
    order = np.argsort(mesh.cell_centroid[cells, 0])
    cells = cells[order]
    corner = cells[0]
    p0 = solution.undrained_pressure()

    sample_times = np.asarray(sorted(sample_times), dtype=float)
    if sample_times.size == 0:
        raise ValueError("at least one sample time is needed")
    bad = ~(np.isfinite(sample_times) & (sample_times > 0.0))
    if bad.any():
        raise ValueError("sample times must be finite and positive, the "
                         "series is valid only for t > 0; got "
                         f"{sample_times[bad].tolist()}")
    steps = np.rint(sample_times / system.dt).astype(int)
    if np.any(np.abs(steps * system.dt - sample_times)
              > 1e-8 * sample_times):
        raise ValueError("sample times must be multiples of the time step")
    sampled = set(steps.tolist())

    profiles = []
    history_t = [state0.time]
    history_p = [state0.p[corner] / p0]
    state = state0
    for n in range(1, steps.max() + 1):
        state = system.step(state)
        history_t.append(state.time)
        history_p.append(state.p[corner] / p0)
        if n in sampled:
            profiles.append({
                "time": state.time,
                "cells": cells,
                "x": mesh.cell_centroid[cells, 0].copy(),
                "p": state.p[cells].copy(),
                "p_exact": exact_cell_means(solution, system, cells,
                                            state.time),
                "p_point": solution.pressure(
                    mesh.cell_centroid[cells, 0], state.time),
            })
    return {"profiles": profiles,
            "history_t": np.asarray(history_t),
            "history_p": np.asarray(history_p),
            "p_undrained": p0}
