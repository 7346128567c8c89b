"""Non-convex cells: dart meshes (helpers.dart_mesh), Cartesian grids with
every other interior vertex pushed 0.8 h along (1, 1), so that most cells
are quadrilaterals with one reflex vertex whose centroid does not see the
whole cell.  The VEM and mimetic operators need only simple cells, so the
local invariants and the convergence rates of convex meshes must hold."""

import numpy as np
import pytest

from poromech import mfd, vem
from poromech.mesh import polygon_geometry, polygon_quadrature
from poromech.problems.studies import manufactured_case, observed_rates
from poromech.stab import (assemble_jump_matrix, build_macro_elements,
                           upsilon_weights)

from helpers import dart_mesh, polygon_moments, random_spd_tensor
from test_vem import exact_energy, linear_dofs

AMP = 0.8
RNG = np.random.default_rng(808)


@pytest.fixture(scope="module")
def dart10():
    return dart_mesh(10, AMP)


def dart_polygons(mesh):
    """Vertex arrays of the cells with a reflex vertex."""
    darts = []
    for k in range(mesh.num_cells):
        verts = mesh.vertices[mesh.cells[k]]
        to_prev = np.roll(verts, 1, axis=0) - verts
        to_next = np.roll(verts, -1, axis=0) - verts
        turn = to_next[:, 0] * to_prev[:, 1] - to_next[:, 1] * to_prev[:, 0]
        if np.any(turn < 0.0):
            darts.append(verts)
    return darts


def test_dart_mesh_is_mostly_darts(dart10):
    assert len(dart_polygons(dart10)) == 73
    assert dart10.cell_area.sum() == pytest.approx(1.0, rel=1e-14)


def test_quadrature_on_dart_cells(dart10):
    """Weights sum to the cell area and quadratics integrate exactly."""
    for verts in dart_polygons(dart10):
        pts, wts = polygon_quadrature(verts)
        x, y = pts[:, 0], pts[:, 1]
        moments = wts @ np.column_stack([np.ones_like(x), x, y, x * x,
                                         x * y, y * y])
        assert moments == pytest.approx(polygon_moments(verts), rel=1e-12,
                                        abs=1e-15)


def test_vem_consistent_for_linear_fields_on_dart_cells(dart10):
    shear, lam = 1.7, 2.9
    for verts in dart_polygons(dart10):
        geo = polygon_geometry(verts)
        cell = vem.vem_cell(geo, shear, lam)
        amat, bmat = RNG.uniform(-1.0, 1.0, (2, 2, 2))
        u_a = linear_dofs(verts, amat, (0.2, -0.1))
        energy = u_a @ cell.stiffness @ linear_dofs(verts, bmat)
        assert energy == pytest.approx(
            exact_energy(amat, bmat, shear, lam, geo.area), rel=1e-11)
        assert cell.grad.T.ravel() @ u_a == pytest.approx(
            np.trace(amat), rel=1e-12, abs=1e-12)
        vals = 0.4 + verts @ amat[0]
        assert cell.mono @ (cell.proj @ vals) == pytest.approx(vals,
                                                               abs=1e-12)


def test_mimetic_consistency_on_dart_cells(dart10):
    kappa = random_spd_tensor(RNG)
    for verts in dart_polygons(dart10):
        geo = polygon_geometry(verts)
        nmat, rmat = mfd.consistency_matrices(geo, kappa)
        m_k = mfd.local_inner_product(geo, kappa, np.linalg.inv(kappa))
        assert m_k @ nmat == pytest.approx(
            rmat, abs=1e-12 * np.abs(rmat).max())
        assert np.linalg.eigvalsh(m_k).min() > 0.0


def test_jump_weights_positive_and_jump_matrix_psd_on_darts(dart10):
    """Absolute corner areas keep every interior Upsilon_f positive, so the
    jump matrix stays positive semidefinite on non-convex cells."""
    ups = upsilon_weights(dart10)
    interior = dart10.face_cells[:, 1] >= 0
    assert np.all(ups[interior] > 0.0)
    jmat = assemble_jump_matrix(dart10, build_macro_elements(dart10),
                                beta=1.0).toarray()
    eigs = np.linalg.eigvalsh(jmat)
    assert eigs[0] >= -1e-14 * np.abs(eigs).max()


def test_convergence_on_dart_meshes():
    """Manufactured-solution rates on dart meshes meet criterion 5's
    bound (1.01/1.86/1.60 for e_p/e_u/e_s when written)."""
    rows = [manufactured_case(dart_mesh(n, AMP), 0.1 / 2**level)
            for level, n in enumerate((10, 20, 40))]
    rates = observed_rates(rows)
    assert all(rate >= 0.85 for rate in rates.values()), rates
