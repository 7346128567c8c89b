"""Space-time error norms against smooth reference fields.

Pressure errors integrate (p - p_K)^2 with the cell quadrature rule.
Displacement errors compare exact cell means (quadrature) with the cell
means of the discrete field; effective-stress errors compare the constant
cell stress of the vertex interpolant of the exact displacement with that
of the discrete displacement.  Instantaneous norms are accumulated over the
time loop by the rectangle rule sqrt(sum_n dt e(t_n)^2).
"""

from __future__ import annotations

import numpy as np

from ..assembly import DiscreteSystem, State, _csr


class ErrorNorms:
    """Accumulates e_p, e_u and e_s for one simulation run.

    pressure(points, t) and displacement(points, t) are vectorized exact
    fields; displacement returns (n, 2) arrays.
    """

    def __init__(self, system: DiscreteSystem, pressure, displacement):
        self.system = system
        self.pressure = pressure
        self.displacement = displacement
        self._mean_op = system.cell_mean_operator()
        # Cell-mean strain (e_xx, e_yy, 2 e_xy) per cell from the mean
        # gradients of the interleaved vertex displacements.
        parts = []
        for ops in system.cell_ops:
            owner = 3 * np.broadcast_to(ops.group.cells[:, None],
                                        ops.mean_row.shape)
            ux, uy = 2 * ops.group.vertices, 2 * ops.group.vertices + 1
            dx, dy = ops.grad[:, 0], ops.grad[:, 1]
            parts += [(owner, ux, dx), (owner + 1, uy, dy),
                      (owner + 2, ux, dy), (owner + 2, uy, dx)]
        self._strain_op = _csr(parts, (3 * system.n_p, system.n_u))
        self._acc = np.zeros(3)
        self.steps = 0

    def instantaneous(self, state: State) -> tuple[float, float, float]:
        """(e_p, e_u, e_s) of one state against the exact fields."""
        system, mesh = self.system, self.system.mesh
        pts, wts, cells = system.quadrature()
        t = state.time
        area = mesh.cell_area

        diff = np.asarray(self.pressure(pts, t)) - state.p[cells]
        e_p = np.sqrt(wts @ diff**2)

        u_exact = np.asarray(self.displacement(pts, t))
        means = np.stack(
            [np.bincount(cells, wts * u_exact[:, c], minlength=mesh.num_cells)
             for c in (0, 1)], axis=-1) / area[:, None]
        diff_u = means - (self._mean_op @ state.u).reshape(-1, 2)
        e_u = np.sqrt(area @ (diff_u**2).sum(axis=1))

        u_interp = np.asarray(
            self.displacement(mesh.vertices, t)).ravel()
        strain = (self._strain_op @ (u_interp - state.u)).reshape(-1, 3)
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
        self.steps += 1

    def totals(self) -> dict:
        """Accumulated space-time norms."""
        e = np.sqrt(self._acc)
        return {"e_p": float(e[0]), "e_u": float(e[1]), "e_s": float(e[2])}
