"""Lowest-order virtual element operators for plane-strain elasticity.

``vem_cell(verts, shear, lam)`` is the single entry point: it returns the
VemCell record of one polygonal cell, with its energy projector, vertex
monomials, cell-mean gradient, mean-value and divergence rows, and elastic
stiffness.  All operators act on the vertex values of the cell.  The
discrete space is accessed only through its degrees of freedom: integrals
of a virtual function over the cell boundary are exact because its trace
is piecewise linear, and its cell mean equals the mean of the energy
projection onto linear polynomials.  Vector degrees of freedom are
interleaved, (u_x, u_y) per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh.core import (polygon_area_centroid, polygon_diameter,
                        polygon_edge_geometry)


@dataclass
class VemCell:
    """Virtual element operators of one cell with nv vertices."""
    proj: np.ndarray           # (3, nv), projection onto the monomials
    mono: np.ndarray           # (nv, 3), scaled monomials at the vertices
    grad: np.ndarray           # (2, nv), cell-mean gradient
    stiffness: np.ndarray      # (2 nv, 2 nv), interleaved vector dofs

    @property
    def mean_row(self) -> np.ndarray:
        """Cell-mean value row (nv,), the constant projection coefficient
        (the enhanced space makes the cell mean of a virtual function equal
        that of its projection)."""
        return self.proj[0]

    @property
    def div_row(self) -> np.ndarray:
        """Cell-mean divergence row (2 nv,) on interleaved vector dofs."""
        return self.grad.T.ravel()


def vem_cell(verts: np.ndarray, shear: float, lam: float) -> VemCell:
    """All VEM operators of one counterclockwise polygon.

    The projection is onto the scaled monomials {1, (x-x_K)/h_K,
    (y-y_K)/h_K}.  The stiffness is the consistency part
    |K| sigma'(eps_K) : eps_K from the cell-mean strain plus the stability
    part 2 G times the vertex-value inner product of the projection
    residual, applied per displacement component.
    """
    verts = np.asarray(verts, dtype=float)
    area, centroid = polygon_area_centroid(verts)
    diam = polygon_diameter(verts)
    lengths, _, normals = polygon_edge_geometry(verts)
    nv = len(verts)
    mono = np.column_stack([np.ones(nv), (verts - centroid) / diam])

    # Boundary integrals of the vertex basis, exact for its edgewise-linear
    # trace: on edge e from vertex a to b, int_e phi_a m ds =
    # |e| (2 m(x_a) + m(x_b)) / 6 for linear m, and int_e phi_a n ds =
    # |e| n_e / 2.  Vertex v ends edge v - 1 and starts edge v.
    prev = np.roll(lengths, 1)[:, None]
    b_mono = (lengths[:, None] * (2.0 * mono + np.roll(mono, -1, axis=0))
              + prev * (2.0 * mono + np.roll(mono, 1, axis=0))) / 6.0
    edge_flux = 0.5 * lengths[:, None] * normals
    b_flux = edge_flux + np.roll(edge_flux, 1, axis=0)

    # Projection: row 0 matches the boundary mean, rows 1-2 the gradient
    # orthogonality conditions, both written as boundary integrals.
    perimeter = lengths.sum()
    lhs = np.zeros((3, 3))
    lhs[0, :] = b_mono.sum(axis=0) / perimeter
    lhs[1, 1] = lhs[2, 2] = area / diam ** 2
    rhs = np.vstack([b_mono[:, 0] / perimeter, b_flux.T / diam])
    proj = np.linalg.solve(lhs, rhs)
    # Divergence-theorem value of the cell-mean gradient.
    grad = b_flux.T / area

    strain = np.zeros((3, 2 * nv))           # (e_xx, e_yy, 2 e_xy)
    strain[0, 0::2] = grad[0]
    strain[1, 1::2] = grad[1]
    strain[2, 0::2] = grad[1]
    strain[2, 1::2] = grad[0]
    dmat = np.array([[2.0 * shear + lam, lam, 0.0],
                     [lam, 2.0 * shear + lam, 0.0],
                     [0.0, 0.0, shear]])
    resid = np.eye(nv) - mono @ proj
    k_stab = 2.0 * shear * (resid.T @ resid)
    stiffness = area * strain.T @ dmat @ strain
    stiffness[0::2, 0::2] += k_stab
    stiffness[1::2, 1::2] += k_stab
    return VemCell(proj=proj, mono=mono, grad=grad, stiffness=stiffness)
