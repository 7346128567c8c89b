"""Right-preconditioned GMRES and the block upper-triangular preconditioner
of the condensed displacement-pressure-trace system.

Entry points: ``gmres`` solves with any matvec and optional right
preconditioner; ``BlockPreconditioner(matrix, u_components, n_p)`` builds
the preconditioner from slices of the condensed free-dof matrix that GMRES
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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    """Raised on Krylov breakdown or preconditioner build failure."""


# An unconverged Arnoldi step whose new vector is shorter than this fraction
# of the preconditioned operator's output is a breakdown.
BREAKDOWN_TOL = 1e-14


def gmres(matvec, b: np.ndarray, rtol: float = 1e-6, maxiter: int = 500,
          precond=None):
    """Non-restarted GMRES with right preconditioning and a zero initial
    guess.

    Arnoldi uses modified Gram-Schmidt with one reorthogonalization pass.
    The recurrence residuals equal the true residuals of the original system
    because preconditioning acts from the right. Returns (x, KrylovReport).
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), KrylovReport(True, 0, np.zeros(1))

    maxiter = min(maxiter, n)
    basis = np.zeros((maxiter + 1, n))
    precon = np.zeros((maxiter, n))       # preconditioned basis vectors
    hess = np.zeros((maxiter + 1, maxiter))
    givens = np.zeros((maxiter, 2))
    g = np.zeros(maxiter + 1)

    basis[0] = b / norm_b
    g[0] = norm_b
    residuals = [norm_b]
    k = 0
    converged = False
    for j in range(maxiter):
        z = precond(basis[j]) if precond is not None else basis[j]
        precon[j] = z
        w = np.asarray(matvec(z), dtype=float)
        scale = max(float(np.linalg.norm(w)), 1.0)
        for _ in range(2):                # MGS plus one reorthogonalization
            for i in range(j + 1):
                hij = float(basis[i] @ w)
                hess[i, j] += hij
                w -= hij * basis[i]
        h_next = float(np.linalg.norm(w))
        hess[j + 1, j] = h_next

        # Givens update of column j and of the residual recurrence.
        for i in range(j):
            c, s = givens[i]
            hi, hi1 = hess[i, j], hess[i + 1, j]
            hess[i, j] = c * hi + s * hi1
            hess[i + 1, j] = -s * hi + c * hi1
        denom = np.hypot(hess[j, j], hess[j + 1, j])
        if denom == 0.0:
            # Zero column in the triangular factor: the Krylov space is
            # A-invariant but the projected system is singular.
            raise SolverError(f"GMRES breakdown at iteration {j + 1} with "
                              f"a singular projected system")
        c, s = hess[j, j] / denom, hess[j + 1, j] / denom
        givens[j] = (c, s)
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]

        k = j + 1
        residuals.append(abs(float(g[j + 1])))
        if residuals[-1] <= rtol * norm_b:
            converged = True
            break
        if h_next <= BREAKDOWN_TOL * scale:
            raise SolverError(f"GMRES breakdown at iteration {k} with "
                              f"relative residual {residuals[-1] / norm_b:.3e}")
        basis[j + 1] = w / h_next

    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - hess[i, i + 1:k] @ y[i + 1:k]) / hess[i, i]
    x = precon[:k].T @ y
    return x, KrylovReport(converged, k,
                           np.asarray(residuals))


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
        try:
            self._uu_lu = spla.splu(sp.csc_matrix(
                separate_components(a_uu, u_components)))
        except RuntimeError as exc:
            raise SolverError(f"displacement block factorization failed: "
                              f"{exc}") from exc

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
        if np.any(self._l1_diag <= 0.0):
            raise SolverError("fixed-stress pressure sweep is not positive")

        # Trace Schur complement through the pressure sweep.
        cpi = matrix[spi, spi] - (
            matrix[spi, sp_] @ sp.diags(1.0 / self._l1_diag) @ self._a_ppi)
        try:
            self._pipi_lu = spla.splu(sp.csc_matrix(cpi))
        except RuntimeError as exc:
            raise SolverError(f"trace block factorization failed: "
                              f"{exc}") from exc

    def __call__(self, y: np.ndarray) -> np.ndarray:
        su, sp_, spi = self.slices
        pi = self._pipi_lu.solve(y[spi])
        p = (y[sp_] - self._a_ppi @ pi) / self._l1_diag
        u = self._uu_lu.solve(y[su] - self._a_up @ p)
        return np.concatenate([u, p, pi])
