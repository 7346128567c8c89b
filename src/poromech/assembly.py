"""Assembly and time stepping of the coupled poroelastic system.

Unknowns are vertex displacements (interleaved x, y), one cell pressure per
element, one-sided face velocities and face pressure traces.  The velocity
block is cell-local, so it is eliminated during assembly; the solved system
couples displacements, pressures and traces:

    [ A_uu    -A_up      0     ] [u ]   [ b_u  ]
    [ A_up^T   A_pp   dt A_ppi ] [p ] = [ b_p  ]
    [ 0      A_ppi^T    A_pipi ] [pi]   [ b_pi ]

Volume callables (body force, fluid source, initial pressure) take the
(n, 2) quadrature points (and a time); their values must broadcast to
(n, 2) for the body force and to (n,) otherwise, and their cell integrals
must be finite, else a ValueError names the callable.  Every call from a
system passes the same read-only array, its quad_points, so a callable
may keep per-point work for it.
Boundary callables (displacement, traction, pressure, flux) take a single
point, a (2,) array, and a time.  They run once per step for each item
they prescribe: displacement once per fixed dof (twice at a vertex with both
components fixed), pressure once per fixed face, traction and flux once per
matching face.  They should therefore be cheap to call on one point.  Their
values must be finite: each step checks the assembled vector of each kind
once, and a NaN or infinity is a ValueError naming the kind, the time and
the first dof (displacement, traction) or face (pressure, flux) at fault.
The selectors (each `where` and pressure_where) run only at set-up, once
per boundary face.

Set-up is one pass over the vertex-count groups of the mesh cells
(PolyMesh.cell_groups).  Per group, the VEM and mimetic kernels run once
per cell on the rows of the group's stored CellGeometry and fill (m, ...)
arrays, from which the pass emits the COO parts of the four blocks and of
two operators on interleaved vertex fields: cell_mean (2 n_p, n_u), the x
and y cell means, and cell_strain (3 n_p, n_u), the cell-mean strains
(e_xx, e_yy, 2 e_xy).  The pass also runs the cell quadrature: the system
owns the points quad_points, their cells quad_cells and the weights as
cell_integral (n_p, n_q), so cell_integral @ f(quad_points) integrates f
over each cell, exactly for quadratics.  Each matrix is one COO-to-CSR
conversion of the parts of all groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import mfd, vem
from .mesh import PolyMesh
from .mesh.core import CellGeometry, polygon_quadrature
from .solver import (MAXITER, RTOL, BlockPreconditioner, KrylovStorage,
                     SolverError, factorize, gmres)
from .stab import (assemble_jump_matrix, beta_coefficient,
                   build_macro_elements, checkerboard_indicator)

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
    diagonal or full) permeability over viscosity.  The scalars must be
    finite with shear > 0, lam > -shear (so that the plane-strain elasticity
    tensor is positive definite) and storage >= 0, else a ValueError names
    the field.  kappa is stored as a 2x2 tensor, which must be finite,
    symmetric (to 1e-12 of its largest entry) and positive definite,
    checked in closed form: k_xx > 0 and det > 0; else a ValueError says
    which.
    """
    shear: float
    lam: float
    alpha: float = 1.0
    storage: float = 0.0
    kappa: float | np.ndarray = 1.0

    def __post_init__(self):
        for name, admissible in (("shear", self.shear > 0.0),
                                 ("lam", self.lam > -self.shear),
                                 ("alpha", True),
                                 ("storage", self.storage >= 0.0)):
            value = getattr(self, name)
            if not (admissible and np.isfinite(value)):
                raise ValueError(
                    f"Material.{name} = {value} is not admissible (finite "
                    "values with shear > 0, lam > -shear, storage >= 0)")
        kappa = np.array(self.kappa, dtype=float)
        if kappa.shape in ((), (2,)):
            kappa = np.diag(np.broadcast_to(kappa, (2,)))
        if kappa.shape != (2, 2):
            raise ValueError("kappa must be a scalar, a 2-vector, or a 2x2 "
                             "tensor")
        (kxx, kxy), (kyx, kyy) = entries = kappa.tolist()
        if not np.isfinite(kappa).all():
            raise ValueError(f"kappa must be finite, got {entries}")
        # a rotated tensor q D q^T is symmetric only to a few ulps
        if abs(kxy - kyx) > 1e-12 * np.abs(kappa).max():
            raise ValueError(f"kappa must be symmetric, got {entries}")
        if kxx <= 0.0 or kxx * kyy - kxy * kyx <= 0.0:
            raise ValueError(f"kappa must be positive definite, got {entries}")
        self.kappa = kappa


@dataclass
class BoundaryConditions:
    """Boundary data.

    The selectors (every `where` and pressure_where) are predicates on a
    boundary face midpoint.  Each runs once per boundary face at set-up;
    DiscreteSystem raises a ValueError naming a `where` that matches no
    face.

    displacement: list of (where, mask, value); mask picks the constrained
    components, value(x, t) gives the prescribed displacement at a vertex
    of a matching face.  A component that several entries fix takes the
    value of the first of them in the list.
    traction: list of (where, value) with value(x, t) a 2-vector.
    pressure_where: selects the prescribed-pressure faces Gamma_p; None
    selects none.
    pressure: value(x, t) on the pressure faces, given exactly when
    pressure_where selects a face.
    flux: outward normal flux value(x, t) on every other boundary face,
    Gamma_q; None means no flow.
    """
    displacement: list = field(default_factory=list)
    traction: list = field(default_factory=list)
    pressure_where: object = None
    pressure: object = None
    flux: object = None


@dataclass
class State:
    """Discrete solution at one time level.

    The one-sided face velocities are eliminated in the condensed system
    and not stored.
    """
    time: float
    u: np.ndarray
    p: np.ndarray
    pi: np.ndarray


def _block_pairs(index: np.ndarray):
    """Row and column indices, (m, n^2) each and row-major, of the dense
    n-by-n local blocks coupling the indices (m, n) of each cell."""
    n = index.shape[1]
    return np.repeat(index, n, axis=1), np.tile(index, n)


def _matches(name: str, selectors: list, faces: np.ndarray,
             points: np.ndarray):
    """(face, i) pairs, in face order, for each face whose point
    selectors[i] matches.  Each selector runs once per face; a ValueError
    names one that matches no face."""
    hits = np.array([[bool(where(x)) for where in selectors]
                     for x in points], dtype=bool)
    missing = np.flatnonzero(~hits.any(axis=0))
    if missing.size:
        raise ValueError(f"{name}[{missing[0]}] selects no boundary face")
    rows, cols = np.nonzero(hits)
    return zip(faces[rows], cols)


def _finite(name: str, values: np.ndarray, what: str,
            labels: np.ndarray | None = None) -> np.ndarray:
    """Return values; a NaN or an infinity is a ValueError naming name
    and the leading index, a `what`, of the first such entry, or that
    index's entry in labels when given."""
    if not np.isfinite(values).all():
        first = np.argwhere(~np.isfinite(values))[0, 0]
        if labels is not None:
            first = labels[first]
        raise ValueError(f"{name} is not finite at {what} {first}")
    return values


# The DiscreteSystem keywords that a problem set-up passes through; its
# loads and the tpfa flux choice stay fixed by the set-up.
SOLVER_KEYWORDS = frozenset({"stabilize", "linear_solver", "rtol", "maxiter"})


def solver_options(options: dict) -> dict:
    """Return options if every key is one of SOLVER_KEYWORDS; any other
    key is a TypeError naming it."""
    extra = sorted(options.keys() - SOLVER_KEYWORDS)
    if extra:
        raise TypeError(f"unexpected keyword argument '{extra[0]}'; a "
                        f"problem set-up passes only "
                        f"{', '.join(sorted(SOLVER_KEYWORDS))} through")
    return options


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
                 rtol: float = RTOL, maxiter: int = MAXITER):
        # the chained comparisons are False for nan as well
        if not 0.0 < dt < np.inf:
            raise ValueError(f"time step dt must be finite and positive, "
                             f"got {dt}")
        if not 0.0 < rtol < np.inf:
            raise ValueError(f"rtol must be finite and positive, got {rtol}")
        if maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {maxiter}")
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

        self._build_operators(tpfa)
        self._build_stabilization(stabilize)
        self._build_dirichlet()
        self._build_system()

    # ----- operators -------------------------------------------------------

    def _build_operators(self, tpfa: bool) -> None:
        mesh, mat = self.mesh, self.material
        if tpfa:
            inner, tensors = mfd.local_inner_product_tpfa, (mat.kappa,)
        else:
            inner = mfd.local_inner_product
            tensors = (mat.kappa, np.linalg.inv(mat.kappa))
        uu, up, ppi, pipi, mean, strain = [], [], [], [], [], []
        points, integral, n_q = [], [], 0
        self.app_diag = np.empty(self.n_p)
        self.storage_diag = np.empty(self.n_p)
        for group in mesh.cell_groups:
            m, nv = group.vertices.shape
            stiffness = np.empty((m, 2 * nv, 2 * nv))
            grad, mean_row = np.empty((m, 2, nv)), np.empty((m, nv))
            m_k = np.empty((m, nv, nv))
            # one CellGeometry per cell: the rows of the group's arrays
            for i, geo in enumerate(map(CellGeometry._make,
                                        zip(*group.geometry))):
                cell = vem.vem_cell(geo, mat.shear, mat.lam)
                stiffness[i], grad[i] = cell.stiffness, cell.grad
                mean_row[i] = cell.mean_row
                try:
                    m_k[i] = inner(geo, *tensors)
                except ValueError as err:
                    raise ValueError(f"cell {group.cells[i]}: {err}") \
                        from None
            minv = np.linalg.inv(m_k)

            ux, uy = 2 * group.vertices, 2 * group.vertices + 1
            dofs = np.empty((m, 2 * nv), dtype=int)
            dofs[:, 0::2], dofs[:, 1::2] = ux, uy
            uu.append(_block_pairs(dofs) + (stiffness,))
            divergence = grad.transpose(0, 2, 1).reshape(m, 2 * nv)
            self.storage_diag[group.cells] = mat.storage * group.geometry.area
            up.append((dofs, np.repeat(group.cells, 2 * nv),
                       mat.alpha * group.geometry.area[:, None] * divergence))
            owner = np.broadcast_to(group.cells[:, None], (m, nv))
            mean += [(2 * owner, ux, mean_row), (2 * owner + 1, uy, mean_row)]
            dx, dy = grad[:, 0], grad[:, 1]
            strain += [(3 * owner, ux, dx), (3 * owner + 1, uy, dy),
                       (3 * owner + 2, ux, dy), (3 * owner + 2, uy, dx)]

            fvec = group.geometry.lengths
            minv_f = np.matmul(minv, fvec[..., None])[..., 0]
            self.app_diag[group.cells] = (fvec * minv_f).sum(axis=1)
            ppi.append((np.repeat(group.cells, nv), group.faces,
                        -minv_f * fvec))
            pipi.append(_block_pairs(group.faces)
                        + (minv * (fvec[:, :, None] * fvec[:, None, :]),))

            q_pts, q_wts = polygon_quadrature(group.geometry.verts,
                                              group.geometry.centroid)
            points.append(q_pts.reshape(-1, 2))
            integral.append((np.repeat(group.cells, q_wts.shape[1]),
                             n_q + np.arange(q_wts.size), q_wts))
            n_q += q_wts.size

        self.a_uu = _csr(uu, (self.n_u, self.n_u))
        self.a_up = _csr(up, (self.n_u, self.n_p))
        self.a_up_t = self.a_up.T.tocsr()
        self.a_ppi = _csr(ppi, (self.n_p, self.n_pi))
        self.a_pipi = _csr(pipi, (self.n_pi, self.n_pi))
        self.cell_mean = _csr(mean, (2 * self.n_p, self.n_u))
        self.cell_strain = _csr(strain, (3 * self.n_p, self.n_u))
        self.quad_points = np.concatenate(points)
        self.quad_points.flags.writeable = False
        self.quad_cells = np.concatenate([part[0] for part in integral])
        self.cell_integral = _csr(integral, (self.n_p, n_q))

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
        midpoints = mesh.face_midpoint[boundary]
        matches = _matches("displacement",
                           [where for where, _, _ in bcs.displacement],
                           boundary, midpoints)
        # entry by entry, so that the first entry fixing a dof gives its value
        specs = {}
        for f, i in sorted(matches, key=lambda match: match[1]):
            _, mask, value = bcs.displacement[i]
            for v in mesh.faces[f]:
                for comp in (0, 1):
                    if mask[comp]:
                        specs.setdefault(2 * v + comp,
                                         (comp, mesh.vertices[v], value))
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
             mesh.faces[f].tolist(), bcs.traction[i][1])
            for f, i in _matches("traction",
                                 [where for where, _ in bcs.traction],
                                 boundary, midpoints)]

        where_p = bcs.pressure_where or (lambda x: False)
        on_pressure = np.array([bool(where_p(x)) for x in midpoints])
        if on_pressure.any() != (bcs.pressure is not None):
            raise ValueError(
                "pressure_where selects no boundary face, but a pressure "
                "value is given" if bcs.pressure is not None else
                "pressure_where selects boundary faces, but no pressure "
                "value is given")
        self.fixed_pi = boundary[on_pressure]
        self._pi_points = list(mesh.face_midpoint[self.fixed_pi])
        self.free_pi = np.setdiff1d(np.arange(self.n_pi), self.fixed_pi)
        self._flux_faces = boundary[~on_pressure]

        off_p = self.n_u
        off_pi = self.n_u + self.n_p
        self.free = np.concatenate([self.free_u,
                                    off_p + np.arange(self.n_p),
                                    off_pi + self.free_pi])
        self.fixed = np.concatenate([self.fixed_u, off_pi + self.fixed_pi])

    def dirichlet_values(self, t: float) -> np.ndarray:
        """Prescribed values of the fixed dofs at time t, in self.fixed
        order; a ValueError names the first displacement dof or pressure
        face whose value is not finite."""
        vals = [value(x, t)[comp] for comp, x, value in self._u_specs]
        vals += [self.bcs.pressure(x, t) for x in self._pi_points]
        x_d = np.array(vals, dtype=float)
        n_du = self.fixed_u.size
        _finite(f"the boundary displacement at t = {t:g}", x_d[:n_du], "dof",
                self.fixed_u)
        _finite(f"the boundary pressure at t = {t:g}", x_d[n_du:], "face",
                self.fixed_pi)
        return x_d

    # ----- global system ----------------------------------------------------

    def _build_system(self) -> None:
        # the free rows of the full matrix, split into free and fixed
        # columns; released before the factorization, the peak of set-up
        # memory
        rows = sp.bmat(
            [[self.a_uu, -self.a_up, None],
             [self.a_up_t, self.a_pp, self.dt * self.a_ppi],
             [None, self.a_ppi.T, self.a_pipi]], format="csr")[self.free]
        self._a_ff = rows[:, self.free].tocsr()
        self._a_fd = rows[:, self.fixed].tocsr()
        del rows
        if self.linear_solver == "direct":
            self._lu = factorize(self._a_ff)
            self._abs_a_ff = abs(self._a_ff)
            self._precond = None
            self._krylov = None
        else:
            self._lu = None
            self._abs_a_ff = None
            self._precond = BlockPreconditioner(self._a_ff, self.free_u % 2,
                                                self.n_p)
            # every solve of this system reuses one Krylov storage
            self._krylov = KrylovStorage(self._a_ff.shape[0])

    def _solve(self, rhs: np.ndarray, t: float) -> np.ndarray:
        x_d = self.dirichlet_values(t)
        b_f = rhs[self.free] - self._a_fd @ x_d
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
                # a zero row counts 0; a NaN row makes omega NaN
                omega = np.max(np.divide(np.abs(r_f), denom,
                                         out=np.zeros_like(denom),
                                         where=denom != 0.0), initial=0.0)
                if omega <= REFINE_STOP:
                    break
                if math.isnan(omega):
                    # no sweep removes a NaN or an infinity; name the first
                    # one of b_f, or end at the check of x_f below
                    bad = np.flatnonzero(~np.isfinite(b_f))
                    if bad.size:
                        raise SolverError(
                            f"non-finite right-hand side at free dof "
                            f"{bad[0]} (dof {self.free[bad[0]]})")
                    break
            if omega > REFINE_FAIL:
                raise SolverError(
                    f"iterative refinement stalled at componentwise backward "
                    f"error {omega:.3e} after {REFINE_SWEEPS} sweeps")
            self.last_report = None
        else:
            x_f, self.last_report = gmres(
                lambda v: self._a_ff @ v, b_f, rtol=self.rtol,
                maxiter=self.maxiter, precond=self._precond,
                storage=self._krylov)
            if not self.last_report.converged:
                raise SolverError(
                    f"GMRES did not converge in "
                    f"{self.last_report.iterations} iterations "
                    f"(relative residual {self.last_report.reduction:.3e})")
        if not np.all(np.isfinite(x_f)):
            raise SolverError("linear solve produced non-finite values")
        x = np.empty(self.n_u + self.n_p + self.n_pi)
        x[self.free] = x_f
        x[self.fixed] = x_d
        return x

    # ----- right-hand sides --------------------------------------------------

    def _integrate(self, name: str, values, *shape) -> np.ndarray:
        """Cell integrals of the values that the volume callable `name`
        returned at quad_points, broadcast to (n_q, *shape); a ValueError
        names the callable and a cell whose integral is not finite."""
        shape = (len(self.quad_points),) + shape
        try:
            values = np.broadcast_to(np.asarray(values, dtype=float), shape)
        except ValueError:
            raise ValueError(f"{name} returned shape {np.shape(values)}, "
                             f"expected {shape}") from None
        return _finite(f"the integral of {name}",
                       self.cell_integral @ values, "cell")

    def mech_rhs(self, t: float) -> np.ndarray:
        """Momentum right-hand side: body force and traction terms."""
        b_u = np.zeros(self.n_u)
        if self.body_force is not None:
            # Cell integrals of the load reach the vertices through the
            # transposed cell-mean operator.
            loads = self._integrate(
                "body_force", self.body_force(self.quad_points, t), 2)
            b_u += self.cell_mean.T @ loads.ravel()
        for half_length, x_f, verts, value in self._traction_specs:
            half = half_length * np.asarray(value(x_f, t), dtype=float)
            for v in verts:
                b_u[2 * v] += half[0]
                b_u[2 * v + 1] += half[1]
        if self._traction_specs:
            _finite(f"the boundary traction at t = {t:g}", b_u, "dof")
        return b_u

    def mass_rhs(self, state: State, t: float) -> np.ndarray:
        """Mass balance right-hand side: accumulation history and source."""
        b_p = self.a_up_t @ state.u + self.storage_diag * state.p
        if self.mass_source is not None:
            b_p = b_p + self.dt * self._integrate(
                "mass_source", self.mass_source(self.quad_points, t))
        return b_p

    def trace_rhs(self, t: float) -> np.ndarray:
        """Flux constraint right-hand side on the flux boundary faces."""
        b_pi = np.zeros(self.n_pi)
        if self.bcs.flux is not None:
            mesh = self.mesh
            for f in self._flux_faces:
                b_pi[f] = -mesh.face_length[f] * self.bcs.flux(
                    mesh.face_midpoint[f], t)
            _finite(f"the boundary flux at t = {t:g}", b_pi, "face")
        return b_pi

    # ----- stepping -----------------------------------------------------------

    def step(self, state: State) -> State:
        """Advance one time level of length dt from the given state."""
        t = state.time + self.dt
        rhs = np.concatenate([self.mech_rhs(t),
                              self.mass_rhs(state, t),
                              self.trace_rhs(t)])
        x = self._solve(rhs, t)
        return State(time=t, u=x[:self.n_u],
                     p=x[self.n_u:self.n_u + self.n_p],
                     pi=x[self.n_u + self.n_p:])

    def initial_state(self, p0=0.0, u0: np.ndarray | None = None) -> State:
        """Consistent state at t = 0 for a given initial pressure.

        p0 may be a scalar, an array of n_p cell values, or a vectorized
        callable of the quadrature points; a given u0 holds n_u vertex
        displacements.  A ValueError names p0 or u0 if its shape is wrong
        or a value is not finite.  Displacements solve the momentum
        equation against p0 unless u0 is given; traces always solve the
        flow problem against p0.  Both blocks are contiguous slices of the
        condensed matrices, free dofs ordered (u, p, pi) and fixed ones
        (u, pi); each solve factorizes its block afresh.
        """
        n_fu, n_du = self.free_u.size, self.fixed_u.size
        trace = slice(n_fu + self.n_p, None)       # free trace rows
        x_d = self.dirichlet_values(0.0)
        u_d, pi_d = x_d[:n_du], x_d[n_du:]
        if callable(p0):
            p_cells = (self._integrate("p0", p0(self.quad_points))
                       / self.mesh.cell_area)
        else:
            p_cells = np.asarray(p0, dtype=float)
            if p_cells.shape not in ((), (self.n_p,)):
                raise ValueError(f"p0 has shape {p_cells.shape}, expected a "
                                 f"scalar or n_p = {self.n_p} cell values")
            p_cells = _finite("p0", np.broadcast_to(p_cells, (self.n_p,)),
                              "cell").copy()

        if u0 is None:
            b_u = self.mech_rhs(0.0) + self.a_up @ p_cells
            u0 = np.empty(self.n_u)
            u0[self.free_u] = factorize(self._a_ff[:n_fu, :n_fu]).solve(
                b_u[self.free_u] - self._a_fd[:n_fu, :n_du] @ u_d)
            u0[self.fixed_u] = u_d
        else:
            u0 = np.asarray(u0, dtype=float)
            if u0.shape != (self.n_u,):
                raise ValueError(f"u0 has shape {u0.shape}, expected "
                                 f"n_u = {self.n_u} vertex displacements")
            u0 = _finite("u0", u0, "dof")

        r_pi = self.trace_rhs(0.0) - self.a_ppi.T @ p_cells
        pi0 = np.empty(self.n_pi)
        pi0[self.free_pi] = factorize(self._a_ff[trace, trace]).solve(
            r_pi[self.free_pi] - self._a_fd[trace, n_du:] @ pi_d)
        pi0[self.fixed_pi] = pi_d
        return State(time=0.0, u=u0, p=p_cells, pi=pi0)

    # ----- inspection ----------------------------------------------------------

    def condensed_matrix(self) -> sp.csr_matrix:
        """Condensed free-dof matrix actually solved each step."""
        return self._a_ff

    def jump_indicator(self, state: State) -> float:
        """Scaled pressure jump energy of a state (see stab module)."""
        return checkerboard_indicator(self.mesh, state.p)
