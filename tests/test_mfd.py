"""Per-cell mimetic flow operators: consistency matrices and inner
products, read from the cell's CellGeometry and a 2x2 kappa tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poromech import mfd
from poromech.mesh.core import polygon_area_centroid, \
    polygon_edge_geometry, polygon_geometry

from helpers import RIGHT_TRIANGLE, UNIT_SQUARE, random_convex_polygon, \
    random_spd_tensor

SQUARE = polygon_geometry(UNIT_SQUARE)
I2 = np.eye(2)

# face order of the unit square cell: bottom, right, top, left
M_UNIT_SQUARE = np.array([[0.375, 0.0, -0.125, 0.0],
                          [0.0, 0.375, 0.0, -0.125],
                          [-0.125, 0.0, 0.375, 0.0],
                          [0.0, -0.125, 0.0, 0.375]])


def test_consistency_matrices_unit_square():
    nmat, rmat = mfd.consistency_matrices(SQUARE, I2)
    normals = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert nmat == pytest.approx(normals, abs=1e-15)
    assert rmat == pytest.approx(0.5 * normals, abs=1e-15)


def test_consistency_matrices_kappa_scaling():
    nmat1, rmat1 = mfd.consistency_matrices(SQUARE, I2)
    nmat2, rmat2 = mfd.consistency_matrices(SQUARE, 2.0 * I2)
    assert nmat2 == pytest.approx(2.0 * nmat1, abs=1e-15)
    assert rmat2 == pytest.approx(rmat1, abs=1e-15)


def test_divergence_theorem_identity_on_triangle():
    nmat, rmat = mfd.consistency_matrices(
        polygon_geometry(RIGHT_TRIANGLE), I2)
    assert rmat.T @ nmat == pytest.approx(0.5 * np.eye(2), abs=1e-14)
    assert np.linalg.matrix_rank(nmat) == 2
    assert np.linalg.matrix_rank(rmat) == 2


def test_inner_product_frozen_unit_square():
    assert mfd.local_inner_product(SQUARE, I2, I2) == \
        pytest.approx(M_UNIT_SQUARE, abs=1e-14)


def test_inner_product_kappa_homogeneity():
    m_1 = mfd.local_inner_product(SQUARE, I2, I2)
    m_4 = mfd.local_inner_product(SQUARE, 4.0 * I2, 0.25 * I2)
    assert m_4 == pytest.approx(0.25 * m_1, abs=1e-14)


def test_tpfa_unit_square():
    m_k = mfd.local_inner_product_tpfa(SQUARE, I2)
    assert m_k == pytest.approx(0.5 * np.eye(4), abs=1e-14)
    assert mfd.local_inner_product_tpfa(SQUARE, 2.0 * I2) == \
        pytest.approx(0.25 * np.eye(4), abs=1e-14)


def test_tpfa_rejects_distorted_cell():
    # simple CCW quadrilateral whose centroid sees one edge from behind
    chevron = np.array([[0.0, 0.0], [2.0, 5.5], [4.0, 0.0], [2.0, 6.0]])
    area, centroid = polygon_area_centroid(chevron)
    assert area > 0.0
    _, mids, normals = polygon_edge_geometry(chevron)
    assert np.min(((mids - centroid) * normals).sum(axis=1)) <= 0.0
    with pytest.raises(ValueError, match="two-point"):
        mfd.local_inner_product_tpfa(polygon_geometry(chevron), I2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=10))
def test_mimetic_invariants_random_cells(seed, n_verts):
    rng = np.random.default_rng(seed)
    verts = random_convex_polygon(rng, n_verts)
    kappa = random_spd_tensor(rng)
    cell = polygon_geometry(verts)
    area = cell.area

    nmat, rmat = mfd.consistency_matrices(cell, kappa)
    assert rmat.T @ nmat == pytest.approx(area * kappa, rel=1e-12)

    m_k = mfd.local_inner_product(cell, kappa, np.linalg.inv(kappa))
    assert m_k == pytest.approx(m_k.T, abs=1e-12 * np.abs(m_k).max())
    assert m_k @ nmat == pytest.approx(
        rmat, abs=1e-12 * np.abs(rmat).max())
    assert np.linalg.eigvalsh(m_k).min() > 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tpfa_exact_on_kappa_orthogonal_cells(seed):
    """On a rectangle with diagonal kappa both inner products reproduce
    the consistency constraint, the TPFA one with a diagonal matrix."""
    rng = np.random.default_rng(seed)
    w, h = rng.uniform(0.2, 3.0, 2)
    rect = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    kappa = np.diag(rng.uniform(0.1, 10.0, 2))
    cell = polygon_geometry(rect)
    nmat, rmat = mfd.consistency_matrices(cell, kappa)
    m_k = mfd.local_inner_product_tpfa(cell, kappa)
    assert m_k @ nmat == pytest.approx(rmat, abs=1e-12 * np.abs(rmat).max())
