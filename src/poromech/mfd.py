"""Mimetic inner products for one-sided face velocities of a polygonal cell.

Face degrees of freedom are normal velocity components w_{K,f} on the edges
of the cell polygon, ordered like the edges. The inner product matrix M_K is
exact for constant velocities (consistency condition M_K N_K = R_K) and
positive definite; the two-point variant is its diagonal specialization,
consistent only when kappa n_{K,f} is parallel to the centroid-to-face
vector c_{K,f}.

Every function takes the CellGeometry record of one cell (face i on edge i)
and a 2x2 permeability tensor, such as the one a Material has checked;
local_inner_product also takes its inverse, which the caller computes once
for all cells.
"""

from __future__ import annotations

import numpy as np

from .mesh.core import CellGeometry


def consistency_matrices(cell: CellGeometry, kappa: np.ndarray):
    """(N_K, R_K) with rows n_{K,f}^T kappa and |f| c_{K,f}^T.

    They satisfy R_K^T N_K = |K| kappa for any simple polygon.
    """
    return cell.normals @ kappa, cell.lengths[:, None] * cell.face_vectors


def local_inner_product(cell: CellGeometry, kappa: np.ndarray,
                        kappa_inv: np.ndarray) -> np.ndarray:
    """Mimetic velocity inner product M_K (m, m).

    M_K = R kappa^(-1) R^T / |K| + gamma_K (I - N (N^T N)^(-1) N^T) with
    gamma_K = trace(R kappa^(-1) R^T) / (m |K|), where kappa_inv is
    kappa^(-1).
    """
    m = len(cell.lengths)
    nmat, rmat = consistency_matrices(cell, kappa)
    core = rmat @ kappa_inv @ rmat.T
    gamma = np.trace(core) / (m * cell.area)
    proj = nmat @ np.linalg.solve(nmat.T @ nmat, nmat.T)
    return core / cell.area + gamma * (np.eye(m) - proj)


def local_inner_product_tpfa(cell: CellGeometry,
                             kappa: np.ndarray) -> np.ndarray:
    """Diagonal two-point variant, entries |f| ||c||^2 / (n . kappa c)."""
    cvec = cell.face_vectors
    denom = np.einsum("fi,ij,fj->f", cell.normals, kappa, cvec)
    if np.any(denom <= 0.0):
        raise ValueError("two-point inner product needs n . kappa c > 0 "
                         "(cell not star-shaped around its centroid?)")
    return np.diag(cell.lengths * (cvec ** 2).sum(axis=1) / denom)
