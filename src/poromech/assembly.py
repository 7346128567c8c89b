"""Assembly and time stepping of the coupled poroelastic system.

Unknowns are vertex displacements (interleaved x, y), one cell pressure per
element, one-sided face velocities and face pressure traces.  The velocity
block is cell-local, so it is eliminated during assembly; the solved system
couples displacements, pressures and traces:

    [ A_uu    -A_up      0     ] [u ]   [ b_u  ]
    [ A_up^T   A_pp   dt A_ppi ] [p ] = [ b_p  ]
    [ 0      A_ppi^T    A_pipi ] [pi]   [ b_pi ]

Volume source callables (body force, fluid source) are vectorized: they take
an (n, 2) array of points and a time and return (n, 2) or (n,) values.
Boundary callables (displacement, traction, pressure, flux) take a single
point, a (2,) array, and a time.  They run once per step for each item
they prescribe: displacement once per fixed dof (twice at a vertex with both
components fixed), pressure once per fixed face, traction and flux once per
matching face.  They should therefore be cheap to call on one point; the
`where` selectors run only at set-up.

Set-up works on the vertex-count groups of the mesh cells
(PolyMesh.cell_groups): the local operators of a group are computed cell by
cell from the rows of the group's stored CellGeometry and stacked into
arrays, (m, 2 nv, 2 nv) stiffness matrices and (m, nv, nv) inverse inner
products, and each global block is built by one COO-to-CSR conversion of
the stacked index and value arrays of all groups.  The cell quadrature and
the velocity recovery run once per group as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import mfd, vem
from .mesh import FACE_FLUX, FACE_PRESSURE, PolyMesh, kappa_as_tensor
from .mesh.core import CellGeometry, CellGroup, polygon_quadrature
from .solver import BlockPreconditioner, SolverError, factorize, gmres
from .stab import (assemble_jump_matrix, beta_coefficient,
                   build_macro_elements)

# Iterative refinement of the direct solve stops once the componentwise
# backward error max_i |r_i| / (|A| |x| + |b|)_i is at most REFINE_STOP,
# after at most REFINE_SWEEPS sweeps; above REFINE_FAIL after the cap the
# solve is an error.
REFINE_STOP = 4.0 * np.finfo(float).eps
REFINE_FAIL = float(np.sqrt(np.finfo(float).eps))
REFINE_SWEEPS = 4


@dataclass
class Material:
    """Homogeneous poroelastic material.

    shear and lam are the drained elastic moduli, alpha the pressure
    coupling coefficient, storage the specific storage, kappa the (scalar,
    diagonal or full) permeability over viscosity.
    """
    shear: float
    lam: float
    alpha: float = 1.0
    storage: float = 0.0
    kappa: float | np.ndarray = 1.0


@dataclass
class BoundaryConditions:
    """Boundary data.

    displacement: list of (where, mask, value); where takes a boundary face
    midpoint, mask picks the constrained components, value(x, t) gives the
    prescribed displacement at a vertex of a matching face.
    traction: list of (where, value) with value(x, t) a 2-vector.
    pressure: value(x, t) on faces tagged as pressure boundary.
    flux: outward normal flux value(x, t) on faces tagged as flux boundary;
    None means no flow.
    """
    displacement: list = field(default_factory=list)
    traction: list = field(default_factory=list)
    pressure: object = None
    flux: object = None


@dataclass
class State:
    """Discrete solution at one time level.

    The one-sided velocities w are recovered on demand (see
    DiscreteSystem.recover_velocity) and may be None.
    """
    time: float
    u: np.ndarray
    p: np.ndarray
    pi: np.ndarray
    w: np.ndarray | None = None


@dataclass
class CellOperators:
    """Local operators of one vertex-count group of m cells with nv
    vertices each, stacked along the first axis."""
    group: CellGroup
    stiffness: np.ndarray      # (m, 2 nv, 2 nv), interleaved vector dofs
    grad: np.ndarray           # (m, 2, nv), cell-mean gradient rows
    mean_row: np.ndarray       # (m, nv), cell-mean value rows
    minv: np.ndarray           # (m, nv, nv), inverse velocity inner products


def _block_pairs(index: np.ndarray):
    """Row and column indices, (m, n^2) each and row-major, of the dense
    n-by-n local blocks coupling the indices (m, n) of each cell."""
    n = index.shape[1]
    return np.repeat(index, n, axis=1), np.tile(index, n)


def _csr(parts, shape) -> sp.csr_matrix:
    """One CSR matrix from (rows, cols, vals) array triples of equal
    shapes; duplicate entries add up."""
    rows, cols, vals = (np.concatenate([np.ravel(part[i]) for part in parts])
                        for i in range(3))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


class DiscreteSystem:
    """Coupled poroelastic discretization on a fixed mesh and time step.

    The condensed matrix depends only on the mesh, material and dt, so its
    factorization (or preconditioner) is built once and reused by every
    step.
    """

    def __init__(self, mesh: PolyMesh, material: Material,
                 bcs: BoundaryConditions, dt: float, *,
                 stabilize: bool = False,
                 body_force=None, mass_source=None,
                 linear_solver: str = "direct", tpfa: bool = False,
                 rtol: float = 1e-6, maxiter: int = 500):
        if dt <= 0.0:
            raise ValueError(f"time step must be positive, got {dt}")
        if linear_solver not in ("direct", "gmres"):
            raise ValueError(f"unknown linear solver '{linear_solver}'")
        self.mesh = mesh
        self.material = material
        self.bcs = bcs
        self.dt = float(dt)
        self.body_force = body_force
        self.mass_source = mass_source
        self.linear_solver = linear_solver
        self.rtol = rtol
        self.maxiter = maxiter
        self.last_report = None

        self.n_u = 2 * mesh.num_vertices
        self.n_p = mesh.num_cells
        self.n_pi = mesh.num_faces

        self._build_local_operators(tpfa)
        self._build_blocks()
        self._build_stabilization(stabilize)
        self._build_dirichlet()
        self._build_system()
        self._quad = None
        self._mean_op = None
        self._uu_lu = None
        self._pipi_lu = None

    # ----- local operators -------------------------------------------------

    def _build_local_operators(self, tpfa: bool) -> None:
        mesh, mat = self.mesh, self.material
        kappa = kappa_as_tensor(mat.kappa)
        if tpfa:
            inner, tensors = mfd.local_inner_product_tpfa, (kappa,)
        else:
            inner = mfd.local_inner_product
            tensors = (kappa, np.linalg.inv(kappa))
        self.cell_ops = []
        for group in mesh.cell_groups:
            m, nv = group.vertices.shape
            cells, m_k = [], np.empty((m, nv, nv))
            # one CellGeometry per cell: the rows of the group's arrays
            for i, geo in enumerate(map(CellGeometry._make,
                                        zip(*group.geometry))):
                cells.append(vem.vem_cell(geo, mat.shear, mat.lam))
                try:
                    m_k[i] = inner(geo, *tensors)
                except ValueError as err:
                    raise ValueError(f"cell {group.cells[i]}: {err}") \
                        from None
            self.cell_ops.append(CellOperators(
                group=group,
                stiffness=np.stack([c.stiffness for c in cells]),
                grad=np.stack([c.grad for c in cells]),
                mean_row=np.stack([c.mean_row for c in cells]),
                minv=np.linalg.inv(m_k)))
        self.velocity_offsets = mesh.cell_offsets

    def _build_blocks(self) -> None:
        mesh, mat = self.mesh, self.material
        uu, up, ppi, pipi = [], [], [], []
        self.app_diag = np.empty(self.n_p)
        for ops in self.cell_ops:
            group = ops.group
            m, nv = group.vertices.shape
            dofs = np.empty((m, 2 * nv), dtype=int)
            dofs[:, 0::2] = 2 * group.vertices
            dofs[:, 1::2] = 2 * group.vertices + 1
            uu.append(_block_pairs(dofs) + (ops.stiffness,))
            div_rows = ops.grad.transpose(0, 2, 1).reshape(m, 2 * nv)
            up.append((dofs, np.repeat(group.cells, 2 * nv),
                       mat.alpha * mesh.cell_area[group.cells, None]
                       * div_rows))

            fvec = mesh.face_length[group.faces]
            minv_f = np.matmul(ops.minv, fvec[..., None])[..., 0]
            self.app_diag[group.cells] = (fvec * minv_f).sum(axis=1)
            ppi.append((np.repeat(group.cells, nv), group.faces,
                        -minv_f * fvec))
            pipi.append(_block_pairs(group.faces)
                        + (ops.minv * (fvec[:, :, None] * fvec[:, None, :]),))

        self.a_uu = _csr(uu, (self.n_u, self.n_u))
        self.a_up = _csr(up, (self.n_u, self.n_p))
        self.a_ppi = _csr(ppi, (self.n_p, self.n_pi))
        self.a_pipi = _csr(pipi, (self.n_pi, self.n_pi))
        self.storage_diag = self.material.storage * self.mesh.cell_area

    def _build_stabilization(self, stabilize: bool) -> None:
        mat = self.material
        if not stabilize:
            self.partition = None
            self.j_mat = None
        else:
            self.partition = build_macro_elements(self.mesh)
            beta = beta_coefficient(mat.shear, mat.lam, mat.alpha)
            self.j_mat = assemble_jump_matrix(self.mesh, self.partition,
                                              beta)
        a_pp = sp.diags(self.storage_diag + self.dt * self.app_diag)
        if self.j_mat is not None:
            a_pp = a_pp + self.j_mat
        self.a_pp = sp.csr_matrix(a_pp)

    # ----- boundary conditions ---------------------------------------------

    def _build_dirichlet(self) -> None:
        mesh, bcs = self.mesh, self.bcs
        boundary = np.flatnonzero(mesh.boundary_mask)
        specs = {}
        for f in boundary:
            x_f = mesh.face_midpoint[f]
            for where, mask, value in bcs.displacement:
                if not where(x_f):
                    continue
                for v in mesh.faces[f]:
                    for comp in (0, 1):
                        if mask[comp]:
                            specs[2 * v + comp] = (comp, mesh.vertices[v],
                                                   value)
        self._u_specs = [specs[dof] for dof in sorted(specs)]
        self.fixed_u = np.array(sorted(specs), dtype=int)
        self.free_u = np.setdiff1d(np.arange(self.n_u), self.fixed_u)
        # the fixed components must pin both translations and every
        # rotation; a rotation about (x0, y0) moves no fixed component
        # when each fixed u_x sits on the line y = y0 and each fixed u_y
        # on the line x = x0
        vert, comp = np.divmod(self.fixed_u, 2)
        y_of_ux = mesh.vertices[vert[comp == 0], 1]
        x_of_uy = mesh.vertices[vert[comp == 1], 0]
        tol = 1e-12 * np.ptp(mesh.vertices)
        if (y_of_ux.size == 0 or x_of_uy.size == 0
                or (np.ptp(y_of_ux) <= tol and np.ptp(x_of_uy) <= tol)):
            raise ValueError(
                "displacement boundary conditions leave rigid body modes "
                f"unconstrained ({self.fixed_u.size} fixed components)")

        # traction faces in boundary-face order, each with its matching
        # values in the order of bcs.traction
        self._traction_specs = [
            (0.5 * mesh.face_length[f], mesh.face_midpoint[f],
             mesh.faces[f].tolist(), value)
            for f in boundary for where, value in bcs.traction
            if where(mesh.face_midpoint[f])]

        self.fixed_pi = np.flatnonzero(mesh.face_tags == FACE_PRESSURE)
        self._pi_points = list(mesh.face_midpoint[self.fixed_pi])
        self.free_pi = np.setdiff1d(np.arange(self.n_pi), self.fixed_pi)
        if self.fixed_pi.size and bcs.pressure is None:
            raise ValueError("mesh has pressure boundary faces but no "
                             "pressure value was given")
        self._flux_faces = np.flatnonzero(mesh.face_tags == FACE_FLUX)

        off_p = self.n_u
        off_pi = self.n_u + self.n_p
        self.free = np.concatenate([self.free_u,
                                    off_p + np.arange(self.n_p),
                                    off_pi + self.free_pi])
        self.fixed = np.concatenate([self.fixed_u, off_pi + self.fixed_pi])

    def dirichlet_values(self, t: float) -> np.ndarray:
        """Prescribed values of the fixed dofs at time t, in self.fixed
        order."""
        vals = [value(x, t)[comp] for comp, x, value in self._u_specs]
        vals += [self.bcs.pressure(x, t) for x in self._pi_points]
        return np.array(vals, dtype=float)

    # ----- global system ----------------------------------------------------

    def _build_system(self) -> None:
        full = sp.bmat(
            [[self.a_uu, -self.a_up, None],
             [self.a_up.T, self.a_pp, self.dt * self.a_ppi],
             [None, self.a_ppi.T, self.a_pipi]], format="csr")
        self._a_ff = full[self.free][:, self.free].tocsr()
        self._a_fd = full[self.free][:, self.fixed].tocsr()
        if self.linear_solver == "direct":
            self._lu = factorize(self._a_ff)
            self._abs_a_ff = abs(self._a_ff)
            self._precond = None
        else:
            self._lu = None
            self._abs_a_ff = None
            self._precond = BlockPreconditioner(self._a_ff, self.free_u % 2,
                                                self.n_p)

    def _solve(self, rhs: np.ndarray, t: float) -> np.ndarray:
        x_d = self.dirichlet_values(t)
        b_f = rhs[self.free]
        if self.fixed.size:
            b_f = b_f - self._a_fd @ x_d
        if self._lu is not None:
            # The coupled blocks span many orders of magnitude (stiffness
            # versus dt-scaled mobility), so the first solve can leave a
            # large componentwise backward error in the weakly scaled rows.
            # One refinement sweep on the cached factor always follows
            # (one sweep in working precision makes the LU solve
            # componentwise backward stable, Skeel 1980); more run only
            # while the backward error exceeds REFINE_STOP.
            x_f = self._lu.solve(b_f)
            r_f = b_f - self._a_ff @ x_f
            for _ in range(REFINE_SWEEPS):
                x_f = x_f + self._lu.solve(r_f)
                r_f = b_f - self._a_ff @ x_f
                denom = self._abs_a_ff @ np.abs(x_f) + np.abs(b_f)
                omega = np.max(np.divide(np.abs(r_f), denom,
                                         out=np.zeros_like(denom),
                                         where=denom > 0.0), initial=0.0)
                if omega <= REFINE_STOP:
                    break
            if omega > REFINE_FAIL:
                raise SolverError(
                    f"iterative refinement stalled at componentwise backward "
                    f"error {omega:.3e} after {REFINE_SWEEPS} sweeps")
            self.last_report = None
        else:
            x_f, self.last_report = gmres(
                lambda v: self._a_ff @ v, b_f, rtol=self.rtol,
                maxiter=self.maxiter, precond=self._precond)
            if not self.last_report.converged:
                raise SolverError(
                    f"GMRES did not converge in {self.maxiter} iterations "
                    f"(relative residual {self.last_report.reduction:.3e})")
        if not np.all(np.isfinite(x_f)):
            raise SolverError("linear solve produced non-finite values")
        x = np.empty(self.n_u + self.n_p + self.n_pi)
        x[self.free] = x_f
        x[self.fixed] = x_d
        return x

    # ----- right-hand sides --------------------------------------------------

    def quadrature(self):
        """Concatenated cell quadrature: (points, weights, owner cells).

        Weights of one cell sum to its area; the rule integrates
        quadratics exactly on each cell.  The points of a cell are
        contiguous; cells come in the order of mesh.cell_groups.
        """
        if self._quad is None:
            pts, wts, cells = [], [], []
            for group in self.mesh.cell_groups:
                q_pts, q_wts = polygon_quadrature(group.geometry.verts,
                                                  group.geometry.centroid)
                pts.append(q_pts.reshape(-1, 2))
                wts.append(q_wts.ravel())
                cells.append(np.repeat(group.cells, q_wts.shape[1]))
            self._quad = (np.concatenate(pts), np.concatenate(wts),
                          np.concatenate(cells))
        return self._quad

    def cell_mean_operator(self) -> sp.csr_matrix:
        """Cell means of an interleaved vertex field, (2 n_p, n_u): rows
        2k and 2k + 1 give the x and y means over cell k, through the cell
        mean of the displacement space."""
        if self._mean_op is None:
            parts = []
            for ops in self.cell_ops:
                owner = np.broadcast_to(ops.group.cells[:, None],
                                        ops.mean_row.shape)
                verts = ops.group.vertices
                parts += [(2 * owner, 2 * verts, ops.mean_row),
                          (2 * owner + 1, 2 * verts + 1, ops.mean_row)]
            self._mean_op = _csr(parts, (2 * self.n_p, self.n_u))
        return self._mean_op

    def mech_rhs(self, t: float) -> np.ndarray:
        """Momentum right-hand side: body force and traction terms."""
        b_u = np.zeros(self.n_u)
        if self.body_force is not None:
            # Cell integrals of the load reach the vertices through the
            # transposed cell-mean operator.
            pts, wts, cells = self.quadrature()
            load = np.asarray(self.body_force(pts, t), dtype=float)
            loads = np.empty(2 * self.n_p)
            loads[0::2] = np.bincount(cells, wts * load[:, 0],
                                      minlength=self.n_p)
            loads[1::2] = np.bincount(cells, wts * load[:, 1],
                                      minlength=self.n_p)
            b_u += self.cell_mean_operator().T @ loads
        for half_length, x_f, verts, value in self._traction_specs:
            half = half_length * np.asarray(value(x_f, t), dtype=float)
            for v in verts:
                b_u[2 * v] += half[0]
                b_u[2 * v + 1] += half[1]
        return b_u

    def mass_rhs(self, state: State, t: float) -> np.ndarray:
        """Mass balance right-hand side: accumulation history and source."""
        b_p = self.a_up.T @ state.u + self.storage_diag * state.p
        if self.mass_source is not None:
            pts, wts, cells = self.quadrature()
            src = np.asarray(self.mass_source(pts, t), dtype=float)
            b_p = b_p + self.dt * np.bincount(cells, wts * src,
                                              minlength=self.n_p)
        return b_p

    def trace_rhs(self, t: float) -> np.ndarray:
        """Flux constraint right-hand side on flux-tagged faces."""
        b_pi = np.zeros(self.n_pi)
        if self.bcs.flux is not None:
            mesh = self.mesh
            for f in self._flux_faces:
                b_pi[f] = -mesh.face_length[f] * self.bcs.flux(
                    mesh.face_midpoint[f], t)
        return b_pi

    # ----- stepping -----------------------------------------------------------

    def step(self, state: State, t_new: float | None = None) -> State:
        """Advance one time level of length dt from the given state."""
        if t_new is None:
            t_new = state.time + self.dt
        rhs = np.concatenate([self.mech_rhs(t_new),
                              self.mass_rhs(state, t_new),
                              self.trace_rhs(t_new)])
        x = self._solve(rhs, t_new)
        return State(time=t_new, u=x[:self.n_u],
                     p=x[self.n_u:self.n_u + self.n_p],
                     pi=x[self.n_u + self.n_p:])

    def initial_state(self, p0=0.0, u0: np.ndarray | None = None,
                      t0: float = 0.0) -> State:
        """Consistent initial state for a given initial pressure.

        p0 may be a scalar, a per-cell array, or a vectorized callable of
        the quadrature points.  Displacements solve the momentum equation
        against p0 unless u0 is given; traces and velocities always solve
        the flow problem against p0.
        """
        mesh = self.mesh
        x_d = self.dirichlet_values(t0)
        u_d, pi_d = x_d[:self.fixed_u.size], x_d[self.fixed_u.size:]
        if callable(p0):
            pts, wts, cells = self.quadrature()
            p_cells = np.bincount(cells, wts * np.asarray(p0(pts)),
                                  minlength=self.n_p) / mesh.cell_area
        else:
            p_cells = np.broadcast_to(np.asarray(p0, dtype=float),
                                      (self.n_p,)).copy()

        if u0 is None:
            if self._uu_lu is None:
                self._uu_lu = factorize(
                    self.a_uu[self.free_u][:, self.free_u])
            b_u = self.mech_rhs(t0) + self.a_up @ p_cells
            b_f = b_u[self.free_u]
            if self.fixed_u.size:
                b_f = b_f - self.a_uu[self.free_u][:, self.fixed_u] @ u_d
            u0 = np.empty(self.n_u)
            u0[self.free_u] = self._uu_lu.solve(b_f)
            u0[self.fixed_u] = u_d
        else:
            u0 = np.asarray(u0, dtype=float)

        if self._pipi_lu is None:
            self._pipi_lu = factorize(
                self.a_pipi[self.free_pi][:, self.free_pi])
        r_pi = self.trace_rhs(t0) - self.a_ppi.T @ p_cells
        b_f = r_pi[self.free_pi]
        if self.fixed_pi.size:
            b_f = b_f - self.a_pipi[self.free_pi][:, self.fixed_pi] @ pi_d
        pi0 = np.empty(self.n_pi)
        pi0[self.free_pi] = self._pipi_lu.solve(b_f)
        pi0[self.fixed_pi] = pi_d

        state = State(time=t0, u=u0, p=p_cells, pi=pi0)
        state.w = self.recover_velocity(state)
        return state

    def recover_velocity(self, state: State) -> np.ndarray:
        """One-sided face velocities from the cell-local flow equations.

        Returns a flat array indexed by self.velocity_offsets: the
        velocities of cell k occupy the slice offsets[k]:offsets[k + 1] in
        the order of mesh.cell_faces[k].
        """
        w = np.empty(self.velocity_offsets[-1])
        for ops in self.cell_ops:
            group = ops.group
            fvec = self.mesh.face_length[group.faces]
            rhs = fvec * (state.p[group.cells, None] - state.pi[group.faces])
            w[group.edges] = np.matmul(ops.minv, rhs[..., None])[..., 0]
        return w

    # ----- inspection ----------------------------------------------------------

    def condensed_matrix(self) -> sp.csr_matrix:
        """Condensed free-dof matrix actually solved each step."""
        return self._a_ff

    def jump_indicator(self, state: State) -> float:
        """Scaled pressure jump energy of a state (see stab module)."""
        from .stab import checkerboard_indicator
        return checkerboard_indicator(self.mesh, state.p)
