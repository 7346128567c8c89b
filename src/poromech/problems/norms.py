"""Space-time error norms against smooth reference fields.

The system's cell_integral (quadrature weights on its quad_points, built in
its one set-up pass) integrates (p - p_K)^2 and the exact displacement, whose
cell means are compared with the cell_mean means of the discrete field;
effective stresses of both fields come from cell_strain.  Instantaneous norms
are accumulated over the time loop by the rectangle rule
sqrt(sum_n dt e(t_n)^2).
"""

from __future__ import annotations

import numpy as np

from ..assembly import DiscreteSystem, State


class ErrorNorms:
    """Accumulates e_p, e_u and e_s for one simulation run.

    pressure(points, t) and displacement(points, t) are vectorized exact
    fields; displacement returns (n, 2) arrays.  They are called on the
    system's read-only quad_points and on the mesh's vertices, a read-only
    array that the mesh owns, so fields that keep per-array factors (the
    manufactured ones) compute them once per run.
    """

    def __init__(self, system: DiscreteSystem, pressure, displacement):
        self.system = system
        self.pressure = pressure
        self.displacement = displacement
        self._acc = np.zeros(3)

    def instantaneous(self, state: State) -> tuple[float, float, float]:
        """(e_p, e_u, e_s) of one state against the exact fields."""
        system, mesh = self.system, self.system.mesh
        integral, pts = system.cell_integral, system.quad_points
        t = state.time
        area = mesh.cell_area

        diff = np.asarray(self.pressure(pts, t)) - state.p[system.quad_cells]
        e_p = np.sqrt((integral @ diff**2).sum())

        means = (integral @ np.asarray(self.displacement(pts, t))
                 / area[:, None])
        diff_u = means - (system.cell_mean @ state.u).reshape(-1, 2)
        e_u = np.sqrt(area @ (diff_u**2).sum(axis=1))

        u_interp = np.asarray(self.displacement(mesh.vertices, t)).ravel()
        strain = (system.cell_strain @ (u_interp - state.u)).reshape(-1, 3)
        shear, lam = system.material.shear, system.material.lam
        trace = strain[:, 0] + strain[:, 1]
        s_xx = 2.0 * shear * strain[:, 0] + lam * trace
        s_yy = 2.0 * shear * strain[:, 1] + lam * trace
        s_xy = shear * strain[:, 2]
        e_s = np.sqrt(area @ (s_xx**2 + s_yy**2 + 2.0 * s_xy**2))
        return float(e_p), float(e_u), float(e_s)

    def accumulate(self, state: State) -> None:
        """Add one time level to the rectangle-rule integrals."""
        e = self.instantaneous(state)
        self._acc += self.system.dt * np.asarray(e)**2

    def totals(self) -> dict:
        """Accumulated space-time norms."""
        e = np.sqrt(self._acc)
        return {"e_p": float(e[0]), "e_u": float(e[1]), "e_s": float(e[2])}
