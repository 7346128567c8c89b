"""Lowest-order virtual element operators for plane-strain elasticity.

``vem_cell(cell, shear, lam)`` is the single entry point: it reads the
CellGeometry record of one polygonal cell (mesh.polygon_geometry, or a row
of the geometry PolyMesh stores per cell group) and returns its VemCell
record, with its energy projector, vertex monomials, cell-mean gradient,
mean-value and divergence rows, and elastic stiffness.  All operators act
on the vertex values of the cell.  The discrete space is accessed only
through its degrees of freedom: integrals of a virtual function over the
cell boundary are exact because its trace is piecewise linear, and its
cell mean equals the mean of the energy projection onto linear
polynomials.  Vector degrees of freedom are
interleaved, (u_x, u_y) per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh.core import CellGeometry

# Strain (e_xx, e_yy, 2 e_xy) of a unit x and of a unit y displacement at a
# vertex, as a linear map of the vertex's cell-mean gradient (g_x, g_y):
# the rows of the (2 nv, 3) strain matrix on interleaved dofs.
_STRAIN_OF_GRAD = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0, 0.0, 1.0, 0.0]])


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


def vem_cell(cell: CellGeometry, shear: float, lam: float) -> VemCell:
    """All VEM operators of one counterclockwise polygon, from its
    geometry.

    The projection is onto the scaled monomials {1, (x-x_K)/h_K,
    (y-y_K)/h_K}.  The stiffness is the consistency part
    |K| sigma'(eps_K) : eps_K from the cell-mean strain plus the stability
    part 2 G times the vertex-value inner product of the projection
    residual, applied per displacement component.
    """
    area, diam, lengths = cell.area, cell.diam, cell.lengths
    nv = len(lengths)
    mono = np.ones((nv, 3))
    mono[:, 1:] = (cell.verts - cell.centroid) / diam

    # Boundary integrals of the vertex basis, exact for its edgewise-linear
    # trace: int_dK phi_v ds = (|e_(v-1)| + |e_v|) / 2 and int_dK phi_v n ds
    # = (|e_(v-1)| n_(v-1) + |e_v| n_v) / 2, where vertex v ends edge v - 1
    # and starts edge v.
    prv = np.arange(-1, nv - 1)
    b_one = 0.5 * (lengths + lengths[prv])
    edge_flux = 0.5 * lengths[:, None] * cell.normals
    b_flux = edge_flux + edge_flux[prv]
    # Divergence-theorem value of the cell-mean gradient.
    grad = b_flux.T / area

    # Projection: row 0 matches the boundary mean, rows 1-2 the gradient
    # orthogonality conditions, both written as boundary integrals.  With
    # the boundary-mean row w = b_one / |dK| (int_dK m ds = b_one . m for
    # linear m) the system is upper triangular,
    #     [[1, w . m_1, w . m_2], [0, d, 0], [0, 0, d]] proj
    #         = [w; b_flux^T / h_K],    d = |K| / h_K^2,
    # and back-substitution gives rows 1-2 = h_K grad, then row 0.
    w = b_one / lengths.sum()
    proj = np.empty((3, nv))
    proj[1:] = diam * grad
    proj[0] = w - (w @ mono[:, 1:]) @ proj[1:]

    strain = (grad.T @ _STRAIN_OF_GRAD).reshape(2 * nv, 3)
    dmat = area * np.array([[2.0 * shear + lam, lam, 0.0],
                            [lam, 2.0 * shear + lam, 0.0],
                            [0.0, 0.0, shear]])
    resid = np.eye(nv) - mono @ proj
    k_stab = 2.0 * shear * (resid.T @ resid)
    stiffness = strain @ dmat @ strain.T
    stiffness[0::2, 0::2] += k_stab
    stiffness[1::2, 1::2] += k_stab
    return VemCell(proj=proj, mono=mono, grad=grad, stiffness=stiffness)
