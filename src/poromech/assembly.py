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
point and a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mfd, vem
from .mesh import FACE_FLUX, FACE_PRESSURE, PolyMesh, kappa_as_tensor
from .mesh.core import polygon_quadrature
from .solver import BlockPreconditioner, SolverError, gmres
from .stab import (assemble_jump_matrix, beta_coefficient,
                   build_macro_elements)


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
class FourFieldBlocks:
    """Uncondensed blocks, mainly for verification and inspection.

    Row order (u, w, p, pi):

        [ A_uu    0         -A_up     0     ] [u ]   [ b_u  ]
        [ 0       A_ww      -A_wp    -A_wpi ] [w ]   [ 0    ]
        [ A_up^T  dt A_wp^T  Abar_pp  0     ] [p ] = [ b_p  ]
        [ 0       A_wpi^T    0        0     ] [pi]   [ b_pi ]
    """
    a_uu: sp.csr_matrix
    a_ww: sp.csr_matrix
    a_wp: sp.csr_matrix
    a_wpi: sp.csr_matrix
    a_up: sp.csr_matrix
    abar_pp: sp.csr_matrix
    velocity_offsets: np.ndarray


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
        self.vem_cells = [vem.vem_cell(mesh.cell_polygon(k), mat.shear,
                                       mat.lam)
                          for k in range(mesh.num_cells)]
        self.cell_minv = []
        for k in range(mesh.num_cells):
            verts = mesh.cell_polygon(k)
            if tpfa:
                m_k = mfd.local_inner_product_tpfa(verts, kappa)
            else:
                m_k = mfd.local_inner_product(verts, kappa)
            self.cell_minv.append(la.inv(m_k))
        sizes = [len(f) for f in mesh.cell_faces]
        self.velocity_offsets = np.concatenate(
            [[0], np.cumsum(sizes)]).astype(int)

    def _build_blocks(self) -> None:
        mesh, mat = self.mesh, self.material
        rows_uu, cols_uu, vals_uu = [], [], []
        rows_up, cols_up, vals_up = [], [], []
        rows_ppi, cols_ppi, vals_ppi = [], [], []
        rows_pipi, cols_pipi, vals_pipi = [], [], []
        self.app_diag = np.zeros(self.n_p)

        for k in range(mesh.num_cells):
            cell = mesh.cells[k]
            dofs = np.empty(2 * cell.size, dtype=int)
            dofs[0::2] = 2 * cell
            dofs[1::2] = 2 * cell + 1
            ops = self.vem_cells[k]
            rows_uu.append(np.repeat(dofs, dofs.size))
            cols_uu.append(np.tile(dofs, dofs.size))
            vals_uu.append(ops.stiffness.ravel())
            rows_up.append(dofs)
            cols_up.append(np.full(dofs.size, k))
            vals_up.append(mat.alpha * mesh.cell_area[k] * ops.div_row)

            faces = mesh.cell_faces[k]
            fvec = mesh.face_length[faces]
            minv = self.cell_minv[k]
            minv_f = minv @ fvec
            self.app_diag[k] = fvec @ minv_f
            rows_ppi.append(np.full(faces.size, k))
            cols_ppi.append(faces)
            vals_ppi.append(-minv_f * fvec)
            rows_pipi.append(np.repeat(faces, faces.size))
            cols_pipi.append(np.tile(faces, faces.size))
            vals_pipi.append((minv * np.outer(fvec, fvec)).ravel())

        def build(rows, cols, vals, shape):
            return sp.csr_matrix(
                (np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))), shape=shape)

        self.a_uu = build(rows_uu, cols_uu, vals_uu, (self.n_u, self.n_u))
        self.a_up = build(rows_up, cols_up, vals_up, (self.n_u, self.n_p))
        self.a_ppi = build(rows_ppi, cols_ppi, vals_ppi,
                           (self.n_p, self.n_pi))
        self.a_pipi = build(rows_pipi, cols_pipi, vals_pipi,
                            (self.n_pi, self.n_pi))
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
        self._u_specs = [(dof,) + specs[dof] for dof in sorted(specs)]
        self.fixed_u = np.array(sorted(specs), dtype=int)
        self.free_u = np.setdiff1d(np.arange(self.n_u), self.fixed_u)
        if self.fixed_u.size < 3:
            raise ValueError(
                "displacement boundary conditions leave rigid body modes "
                f"unconstrained ({self.fixed_u.size} fixed components)")

        self.fixed_pi = np.flatnonzero(mesh.face_tags == FACE_PRESSURE)
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
        vals = np.empty(self.fixed.size)
        for i, (dof, comp, x, value) in enumerate(self._u_specs):
            vals[i] = np.asarray(value(x, t), dtype=float)[comp]
        for i, f in enumerate(self.fixed_pi):
            vals[self.fixed_u.size + i] = self.bcs.pressure(
                self.mesh.face_midpoint[f], t)
        return vals

    # ----- global system ----------------------------------------------------

    def _build_system(self) -> None:
        full = sp.bmat(
            [[self.a_uu, -self.a_up, None],
             [self.a_up.T, self.a_pp, self.dt * self.a_ppi],
             [None, self.a_ppi.T, self.a_pipi]], format="csr")
        self._a_ff = full[self.free][:, self.free].tocsr()
        self._a_fd = full[self.free][:, self.fixed].tocsr()
        if self.linear_solver == "direct":
            self._lu = spla.splu(sp.csc_matrix(self._a_ff))
            self._precond = None
        else:
            self._lu = None
            self._precond = BlockPreconditioner(self._a_ff, self.free_u % 2,
                                                self.n_p)

    def _solve(self, rhs: np.ndarray, t: float) -> np.ndarray:
        x_d = self.dirichlet_values(t)
        b_f = rhs[self.free]
        if self.fixed.size:
            b_f = b_f - self._a_fd @ x_d
        if self._lu is not None:
            x_f = self._lu.solve(b_f)
            # The coupled blocks span many orders of magnitude (stiffness
            # versus dt-scaled mobility), so a backward-stable factorization
            # can leave a large forward error in the weakly scaled pressure
            # rows; refine on the cached factors to the round-off fixed
            # point.
            for _ in range(4):
                dx = self._lu.solve(b_f - self._a_ff @ x_f)
                x_f = x_f + dx
                if np.linalg.norm(dx) <= 1e-13 * np.linalg.norm(x_f):
                    break
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
        quadratics exactly on each cell.
        """
        if self._quad is None:
            pts, wts, cells = [], [], []
            for k in range(self.mesh.num_cells):
                q_pts, q_wts = polygon_quadrature(self.mesh.cell_polygon(k))
                pts.append(q_pts)
                wts.append(q_wts)
                cells.append(np.full(q_wts.size, k))
            self._quad = (np.vstack(pts), np.concatenate(wts),
                          np.concatenate(cells))
        return self._quad

    def cell_mean_operator(self) -> sp.csr_matrix:
        """Cell means of an interleaved vertex field, (2 n_p, n_u): rows
        2k and 2k + 1 give the x and y means over cell k, through the cell
        mean of the displacement space."""
        if self._mean_op is None:
            cells = np.concatenate(self.mesh.cells)
            owner = np.repeat(np.arange(self.n_p),
                              [c.size for c in self.mesh.cells])
            rows = np.concatenate([2 * owner, 2 * owner + 1])
            cols = np.concatenate([2 * cells, 2 * cells + 1])
            vals = np.concatenate([ops.mean_row for ops in self.vem_cells])
            self._mean_op = sp.csr_matrix(
                (np.tile(vals, 2), (rows, cols)),
                shape=(2 * self.n_p, self.n_u))
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
        if self.bcs.traction:
            mesh = self.mesh
            for f in np.flatnonzero(mesh.boundary_mask):
                x_f = mesh.face_midpoint[f]
                for where, value in self.bcs.traction:
                    if not where(x_f):
                        continue
                    half = 0.5 * mesh.face_length[f] * np.asarray(
                        value(x_f, t), dtype=float)
                    for v in mesh.faces[f]:
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
                self._uu_lu = spla.splu(sp.csc_matrix(
                    self.a_uu[self.free_u][:, self.free_u]))
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
            self._pipi_lu = spla.splu(sp.csc_matrix(
                self.a_pipi[self.free_pi][:, self.free_pi]))
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
        mesh = self.mesh
        w = np.empty(self.velocity_offsets[-1])
        for k in range(mesh.num_cells):
            faces = mesh.cell_faces[k]
            fvec = mesh.face_length[faces]
            rhs = fvec * (state.p[k] - state.pi[faces])
            w[self.velocity_offsets[k]:self.velocity_offsets[k + 1]] = \
                self.cell_minv[k] @ rhs
        return w

    # ----- inspection ----------------------------------------------------------

    def four_field_blocks(self) -> FourFieldBlocks:
        """Uncondensed velocity-explicit blocks for verification."""
        mesh = self.mesh
        n_w = self.velocity_offsets[-1]
        a_ww = sp.block_diag([la.inv(minv) for minv in self.cell_minv],
                             format="csr")
        rows_wp, cols_wp, vals_wp = [], [], []
        rows_wpi, cols_wpi, vals_wpi = [], [], []
        for k in range(mesh.num_cells):
            faces = mesh.cell_faces[k]
            fvec = mesh.face_length[faces]
            local = np.arange(self.velocity_offsets[k],
                              self.velocity_offsets[k + 1])
            rows_wp.append(local)
            cols_wp.append(np.full(faces.size, k))
            vals_wp.append(fvec)
            rows_wpi.append(local)
            cols_wpi.append(faces)
            vals_wpi.append(-fvec)
        a_wp = sp.csr_matrix(
            (np.concatenate(vals_wp),
             (np.concatenate(rows_wp), np.concatenate(cols_wp))),
            shape=(n_w, self.n_p))
        a_wpi = sp.csr_matrix(
            (np.concatenate(vals_wpi),
             (np.concatenate(rows_wpi), np.concatenate(cols_wpi))),
            shape=(n_w, self.n_pi))
        abar_pp = sp.csr_matrix(sp.diags(self.storage_diag))
        if self.j_mat is not None:
            abar_pp = sp.csr_matrix(abar_pp + self.j_mat)
        return FourFieldBlocks(a_uu=self.a_uu, a_ww=a_ww, a_wp=a_wp,
                               a_wpi=a_wpi, a_up=self.a_up,
                               abar_pp=abar_pp,
                               velocity_offsets=self.velocity_offsets)

    def condensed_matrix(self) -> sp.csr_matrix:
        """Condensed free-dof matrix actually solved each step."""
        return self._a_ff

    def jump_indicator(self, state: State) -> float:
        """Scaled pressure jump energy of a state (see stab module)."""
        from .stab import checkerboard_indicator
        return checkerboard_indicator(self.mesh, state.p)
