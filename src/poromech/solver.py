"""Sparse LU, right-preconditioned GMRES and the block upper-triangular
preconditioner of the condensed displacement-pressure-trace system.

Entry points: ``factorize(matrix)`` is the one sparse LU of the package,
used for the condensed matrix, the blocks of the initial state and the
preconditioner's two direct solves.  It factors A^T and solves with
SuperLU's transposed triangular path, (A^T)^T x = b.  Against a solve
with the factor of A (same ordering, same fill), that returns A^-1 b in
0.72-0.84x the time on factors of 0.14M-0.79M fill: the cantilever
preconditioner's Auu~ and Cpi~ at n = 40 (0.73x) and n = 80 (0.78-0.80x)
and Mandel's cart20 condensed matrix (0.77-0.84x).  On factors of
2.7M-4M fill it is about as fast: the n = 160 preconditioner blocks
0.94-0.98x, the cart80 condensed matrix 0.97x and the Voronoi40 ones
1.03-1.06x (medians over 150-280 alternating solves, one BLAS thread).
Factoring A^T takes 0.87-1.04x the time of A.  ``gmres`` solves with any
matvec and optional right preconditioner, orthogonalizing by classical
Gram-Schmidt run twice through BLAS in a ``KrylovStorage`` that grows in
chunks; a ``DiscreteSystem`` keeps one for all its solves, and the
preconditioner writes each M^-1 v straight into its row of it.  A solve
that allocated its own storage (4.3 MB on the 40 x 40 hybrid cantilever)
touched it afresh: in a new process that cost about 820 minor page faults
per step over the first 60-step run, against 14 with kept storage, all in
its first step; the step p90 of cantilever-hybrid40-gmres went from 12.89
to 12.21 ms (medians of 10 alternating pairs, each won, same iterates bit
for bit).  ``BlockPreconditioner(matrix, u_components, n_p)`` builds the
preconditioner from slices of the condensed free-dof matrix that GMRES
solves, so no block is assembled twice.  The preconditioner is the inverse
of

    [ Auu~   -A_up      0     ]
    [ 0       Bpp~   dt A_ppi ]
    [ 0       0         Cpi~  ]

with Auu~ the separate-displacement-component approximation of A_uu solved
directly, Bpp~ a fixed-stress pressure Schur complement approximation whose
inverse action is a single l1-Jacobi sweep, and Cpi~ the trace Schur
complement built from that sweep, factorized directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular


@dataclass
class KrylovReport:
    """Outcome of a Krylov solve."""
    converged: bool
    iterations: int
    residuals: np.ndarray      # absolute residual norms, length iterations+1

    @property
    def reduction(self) -> float:
        return float(self.residuals[-1] / self.residuals[0]) \
            if self.residuals[0] > 0 else 0.0


class SolverError(RuntimeError):
    """Raised on a singular factorization, an unconverged refinement,
    Krylov breakdown or preconditioner build failure."""


class LUFactor:
    """Solves with A through a SuperLU factor of A^T."""

    def __init__(self, lu_t):
        self._lu_t = lu_t

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b."""
        return self._lu_t.solve(b, trans="T")


def factorize(matrix: sp.spmatrix) -> LUFactor:
    """Sparse LU factor of a structurally symmetric matrix A.

    Every matrix factorized here is structurally symmetric, and its
    symmetric part is positive (semi)definite up to a row scaling, so an LU
    without row interchanges exists under any symmetric permutation: the
    columns are ordered by minimum degree on the pattern of A^T + A and the
    diagonal is always taken as the pivot.  Partial pivoting would break
    the symmetric ordering and multiply the fill.

    The factor is that of A^T, whose CSC arrays are those of A in CSR, so
    no format conversion is made, and ``solve`` takes SuperLU's transposed
    triangular path: faster than solving with the factor of A on factors
    of up to 0.8M fill and about as fast on those of 2.7M-4M fill (the
    module docstring gives the times per factor), so every factor takes
    it.
    """
    try:
        return LUFactor(spla.splu(sp.csr_matrix(matrix).T,
                                  permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True}))
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc


# An unconverged Arnoldi step whose new vector is shorter than this fraction
# of the preconditioned operator's output is a breakdown.
BREAKDOWN_TOL = 1e-14

# GMRES stops once the residual is at most RTOL times that of the zero
# guess, and gives up after MAXITER iterations.
RTOL = 1e-6
MAXITER = 500

# Krylov vectors the storage holds at first; it doubles whenever the basis
# fills it, up to min(maxiter, n) vectors.
KRYLOV_CHUNK = 32


class KrylovStorage:
    """The basis, the preconditioned vectors and the Hessenberg matrix of
    ``gmres`` for vectors of length n.

    They only grow (gmres reserves KRYLOV_CHUNK vectors at first and
    doubles them when the basis fills them), and every solve given the
    storage reuses them, so steady-state solves of one system
    allocate and first touch none of it.  A solve writes every basis and
    preconditioned row it reads and each Hessenberg column down to its
    subdiagonal; the entries below stay zero, so a solve sees the same
    numbers in fresh and in reused storage.
    """

    def __init__(self, n: int):
        self.n = n
        self.basis = np.empty((1, n))
        self.precon = np.empty((0, n))
        self.hess = np.zeros((1, 0))

    def reserve(self, cap: int):
        """(basis, precon, hess) holding at least cap vectors beyond the
        first basis vector, with what is stored kept."""
        old = len(self.precon)
        if cap > old:
            basis, precon = np.empty((cap + 1, self.n)), np.empty((cap, self.n))
            hess = np.zeros((cap + 1, cap))
            basis[:old + 1] = self.basis
            precon[:old] = self.precon
            hess[:old + 1, :old] = self.hess
            self.basis, self.precon, self.hess = basis, precon, hess
        return self.basis, self.precon, self.hess


def gmres(matvec, b: np.ndarray, rtol: float = RTOL, maxiter: int = MAXITER,
          precond=None, storage: KrylovStorage | None = None):
    """Non-restarted GMRES with right preconditioning and a zero initial
    guess.

    Arnoldi orthogonalizes by classical Gram-Schmidt run twice (CGS2): each
    pass is two matrix-vector products with the row-major basis, and two
    passes keep the basis orthogonal to working precision, like modified
    Gram-Schmidt with reorthogonalization (Giraud, Langou and Rozloznik
    2005).  The basis, the preconditioned vectors and the Hessenberg matrix
    live in ``storage`` (a fresh KrylovStorage(b.size) when none is given),
    which starts at KRYLOV_CHUNK vectors and doubles whenever the basis
    fills it.  ``precond(v, out)`` returns M^-1 v; it may write it into
    ``out``, the row of the storage that keeps it, and return ``out``,
    which saves a copy.  The recurrence residuals equal the true residuals
    of the original system because preconditioning acts from the right.
    Returns (x, KrylovReport).
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = math.sqrt(b @ b)
    if not math.isfinite(norm_b):
        raise SolverError(f"GMRES right-hand side has a non-finite 2-norm "
                          f"({norm_b})")
    if norm_b == 0.0:
        return np.zeros(n), KrylovReport(True, 0, np.zeros(1))
    if storage is None:
        storage = KrylovStorage(n)
    elif storage.n != n:
        raise ValueError(f"Krylov storage holds vectors of length "
                         f"{storage.n}, the right-hand side has {n}")

    maxiter = min(maxiter, n)
    # hess is rotated to upper triangular column by column
    basis, precon, hess = storage.reserve(min(KRYLOV_CHUNK, maxiter))
    cap = len(precon)
    givens = []                           # (c, s) of each rotation
    g = [norm_b]                          # rotated right-hand side

    np.divide(b, norm_b, out=basis[0])
    residuals = [norm_b]
    k = 0
    converged = False
    for j in range(maxiter):
        if j == cap:
            basis, precon, hess = storage.reserve(min(2 * cap, maxiter))
            cap = len(precon)
        z = precon[j]
        if precond is None:
            z[:] = basis[j]
        else:
            made = precond(basis[j], z)
            if made is not z:
                z[:] = made
        # The new vector is orthogonalized in place in the next basis row.
        w = basis[j + 1]
        w[:] = matvec(z)
        scale = max(math.sqrt(w @ w), 1.0)
        known = basis[:j + 1]
        h = known @ w
        w -= h @ known
        again = known @ w                 # second CGS pass
        w -= again @ known
        h += again
        h_next = math.sqrt(w @ w)

        # Givens update of column j and of the residual recurrence.
        col = h.tolist() + [h_next]
        for i, (c, s) in enumerate(givens):
            hi, hi1 = col[i], col[i + 1]
            col[i] = c * hi + s * hi1
            col[i + 1] = -s * hi + c * hi1
        denom = math.hypot(col[j], col[j + 1])
        if denom == 0.0:
            # Zero column in the triangular factor: the Krylov space is
            # A-invariant but the projected system is singular.
            raise SolverError(f"GMRES breakdown at iteration {j + 1} with "
                              f"a singular projected system")
        c, s = col[j] / denom, col[j + 1] / denom
        givens.append((c, s))
        col[j], col[j + 1] = denom, 0.0
        hess[:j + 2, j] = col
        g.append(-s * g[j])
        g[j] *= c

        k = j + 1
        residuals.append(abs(g[j + 1]))
        if residuals[-1] <= rtol * norm_b:
            converged = True
            break
        if h_next <= BREAKDOWN_TOL * scale:
            raise SolverError(f"GMRES breakdown at iteration {k} with "
                              f"relative residual {residuals[-1] / norm_b:.3e}")
        w /= h_next

    y = solve_triangular(hess[:k, :k], g[:k], check_finite=False)
    x = y @ precon[:k]
    return x, KrylovReport(converged, k, np.asarray(residuals))


def separate_components(a_uu: sp.spmatrix, components: np.ndarray):
    """Drop all couplings between different displacement components.

    ``components`` holds the component (0 or 1) of each row/column of the
    given displacement block.
    """
    coo = sp.coo_matrix(a_uu)
    keep = components[coo.row] == components[coo.col]
    return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                         shape=coo.shape)


class BlockPreconditioner:
    """Inverse action of the block upper-triangular preconditioner.

    Every block is a slice of ``matrix``, the condensed free-dof matrix
    ordered (u, p, pi) that the Krylov solver is applied to;
    ``u_components`` holds the component (0 or 1) of each of its leading
    displacement rows and ``n_p`` is the number of pressure rows.  Applied
    right to left: a direct solve with the trace Schur complement
    approximation, the trace-to-pressure coupling update, one l1-Jacobi
    sweep with the fixed-stress pressure matrix, the pressure-to-
    displacement coupling update, and a direct solve with the separate-
    component displacement block.
    """

    def __init__(self, matrix: sp.spmatrix, u_components: np.ndarray,
                 n_p: int):
        matrix = sp.csr_matrix(matrix)
        nu = u_components.size
        self.slices = (slice(0, nu), slice(nu, nu + n_p),
                       slice(nu + n_p, matrix.shape[0]))
        su, sp_, spi = self.slices
        a_uu = matrix[su, su]
        self._a_up = matrix[su, sp_]       # -A_up
        self._a_ppi = matrix[sp_, spi]     # dt A_ppi
        self._uu_lu = factorize(separate_components(a_uu, u_components))

        # Fixed-stress pressure approximation:
        # Bpp~ = A_pp + diag(A_up^T diag(A_uu)^-1 A_up).
        d_uu = a_uu.diagonal()
        if np.any(d_uu <= 0.0):
            raise SolverError("displacement block has a non-positive "
                              "diagonal entry")
        scaled = self._a_up.multiply(1.0 / d_uu[:, None])
        fs_diag = np.asarray(
            scaled.multiply(self._a_up).sum(axis=0)).ravel()
        bpp = sp.csr_matrix(matrix[sp_, sp_] + sp.diags(fs_diag))
        # l1-Jacobi: d_i = B_ii + sum_{j != i} |B_ij|.
        self._l1_diag = (bpp.diagonal()
                         + np.asarray(abs(bpp).sum(axis=1)).ravel()
                         - np.abs(bpp.diagonal()))
        bad = np.flatnonzero(self._l1_diag <= 0.0)
        if bad.size:
            raise SolverError(f"fixed-stress pressure sweep is not positive "
                              f"at pressure row {bad[0]}")

        # Trace Schur complement through the pressure sweep.
        cpi = matrix[spi, spi] - (
            matrix[spi, sp_] @ sp.diags(1.0 / self._l1_diag) @ self._a_ppi)
        self._pipi_lu = factorize(cpi)

    def __call__(self, y: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """M^-1 y, written into out when given (which must not overlap y)
        and returned."""
        su, sp_, spi = self.slices
        x = np.empty(y.size) if out is None else out
        pi, p = x[spi], x[sp_]
        pi[:] = self._pipi_lu.solve(y[spi])
        np.subtract(y[sp_], self._a_ppi @ pi, out=p)
        p /= self._l1_diag
        x[su] = self._uu_lu.solve(y[su] - self._a_up @ p)
        return x
