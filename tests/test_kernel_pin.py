"""The geometry-in local operators against their vertices-in oracles.

vem.vem_cell and the mfd inner products read a CellGeometry record; the
oracles in tests/helpers.py are the same kernels as they were when each one
computed the cell geometry from the vertices itself.  They agree to
PIN_TOL of the largest entry of every operator, on random convex polygons
and on every cell of the four mesh families, and the geometry PolyMesh
stores for a cell is, bit for bit, what polygon_geometry gives for the
cell alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poromech import mfd, vem
from poromech.mesh import CellGeometry, polygon_geometry
from poromech.problems.studies import FAMILIES, family_mesh

from helpers import (random_convex_polygon, random_spd_tensor,
                     reference_inner_product, reference_inner_product_tpfa,
                     reference_vem_cell)

PIN_TOL = 2e-15


def assert_pinned(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= PIN_TOL * np.abs(want).max()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_kernels(cell: CellGeometry, verts, shear, lam, kappa):
    got = vem.vem_cell(cell, shear, lam)
    want = reference_vem_cell(verts, shear, lam)
    for name in ("stiffness", "proj", "grad", "mean_row", "mono"):
        assert_pinned(getattr(got, name), getattr(want, name))
    assert_pinned(mfd.local_inner_product(cell, kappa),
                  reference_inner_product(verts, kappa))
    try:
        m_tpfa = reference_inner_product_tpfa(verts, kappa)
    except ValueError:
        with pytest.raises(ValueError, match="two-point"):
            mfd.local_inner_product_tpfa(cell, kappa)
    else:
        assert_pinned(mfd.local_inner_product_tpfa(cell, kappa), m_tpfa)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=10))
def test_kernels_match_oracles_on_random_cells(seed, n_verts):
    rng = np.random.default_rng(seed)
    verts = random_convex_polygon(rng, n_verts)
    shear, lam = rng.uniform(0.1, 10.0, 2)
    check_kernels(polygon_geometry(verts), verts, shear, lam,
                  random_spd_tensor(rng))


@pytest.mark.parametrize("family", FAMILIES)
def test_kernels_match_oracles_on_mesh_cells(family):
    rng = np.random.default_rng(11)
    mesh = family_mesh(family, 6)
    kappa = random_spd_tensor(rng)
    checked = 0
    for group in mesh.cell_groups:
        for k, cell in zip(group.cells,
                           map(CellGeometry._make, zip(*group.geometry))):
            check_kernels(cell, mesh.cell_polygon(k), 1.3, 2.7, kappa)
            checked += 1
    assert checked == mesh.num_cells


@pytest.mark.parametrize("family", FAMILIES)
def test_stored_geometry_is_polygon_geometry(family):
    mesh = family_mesh(family, 6)
    for group in mesh.cell_groups:
        for k, row in zip(group.cells, zip(*group.geometry)):
            alone = polygon_geometry(mesh.cell_polygon(k))
            edges = slice(mesh.cell_offsets[k], mesh.cell_offsets[k + 1])
            stored = CellGeometry(
                mesh.cell_polygon(k), mesh.cell_area[k],
                mesh.cell_centroid[k], mesh.cell_diam[k],
                mesh.edge_lengths[edges], mesh.edge_normals[edges],
                mesh.cell_face_vectors(k))
            for name, a, b, c in zip(CellGeometry._fields, alone, row,
                                     stored):
                assert same_bits(a, b) and same_bits(a, c), name
