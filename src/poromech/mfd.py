"""Mimetic inner products for one-sided face velocities of a polygonal cell.

Face degrees of freedom are normal velocity components w_{K,f} on the edges
of the cell polygon, ordered like the edges. The inner product matrix M_K is
exact for constant velocities (consistency condition M_K N_K = R_K) and
positive definite; the two-point variant is its diagonal specialization,
consistent only when kappa n_{K,f} is parallel to the centroid-to-face
vector c_{K,f}.
"""

from __future__ import annotations

import numpy as np

from .mesh.core import (kappa_as_tensor, polygon_area_centroid,
                        polygon_edge_geometry)


def _face_geometry(verts: np.ndarray):
    verts = np.asarray(verts, dtype=float)
    area, centroid = polygon_area_centroid(verts)
    lengths, midpoints, normals = polygon_edge_geometry(verts)
    cvec = midpoints - centroid
    return area, lengths, normals, cvec


def consistency_matrices(verts: np.ndarray, kappa):
    """(N_K, R_K) with rows n_{K,f}^T kappa and |f| c_{K,f}^T.

    They satisfy R_K^T N_K = |K| kappa for any simple polygon.
    """
    kt = kappa_as_tensor(kappa)
    _, lengths, normals, cvec = _face_geometry(verts)
    return normals @ kt, lengths[:, None] * cvec


def local_inner_product(verts: np.ndarray, kappa) -> np.ndarray:
    """Mimetic velocity inner product M_K (m, m).

    M_K = R kappa^(-1) R^T / |K| + gamma_K (I - N (N^T N)^(-1) N^T) with
    gamma_K = trace(R kappa^(-1) R^T) / (m |K|).
    """
    kt = kappa_as_tensor(kappa)
    area, lengths, normals, cvec = _face_geometry(verts)
    nmat = normals @ kt
    rmat = lengths[:, None] * cvec
    core = rmat @ np.linalg.solve(kt, rmat.T)
    gamma = np.trace(core) / (len(lengths) * area)
    proj = nmat @ np.linalg.solve(nmat.T @ nmat, nmat.T)
    return core / area + gamma * (np.eye(len(lengths)) - proj)


def local_inner_product_tpfa(verts: np.ndarray, kappa) -> np.ndarray:
    """Diagonal two-point variant, entries |f| ||c||^2 / (n . kappa c)."""
    kt = kappa_as_tensor(kappa)
    _, lengths, normals, cvec = _face_geometry(verts)
    denom = np.einsum("fi,ij,fj->f", normals, kt, cvec)
    if np.any(denom <= 0.0):
        raise ValueError("two-point inner product needs n . kappa c > 0 "
                         "(cell not star-shaped around its centroid?)")
    return np.diag(lengths * (cvec ** 2).sum(axis=1) / denom)

