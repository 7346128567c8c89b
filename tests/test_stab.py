"""Macro-element partition, jump weights and the pressure-jump matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from poromech.mesh import MeshError, PolyMesh, build_cartesian, build_voronoi
from poromech.problems import cantilever
from poromech.problems.studies import FAMILIES, family_mesh
from poromech.stab import (MacroPartition, assemble_jump_matrix,
                           beta_coefficient, build_macro_elements,
                           checkerboard_indicator, corner_areas,
                           upsilon_weights)

from helpers import dart_mesh, inf_sup_constant

RNG = np.random.default_rng(42)


def assert_partition_valid(mesh, partition, name="", min_cells=3):
    """Every cell is in a macro-element, the macro ids are 0, 1, ...
    without a gap, and every macro-element has at least min_cells cells."""
    cell_macro = partition.cell_macro
    assert cell_macro.shape == (mesh.num_cells,), name
    assert cell_macro.min() == 0, name
    sizes = np.bincount(cell_macro)
    assert sizes.min() >= min_cells, \
        f"{name}: macro {sizes.argmin()} has {sizes.min()} cells"


def assert_macro_indicators_in_kernel(mesh, partition, jmat, name=""):
    """J annihilates the indicator of every macro-element."""
    for macro in range(partition.cell_macro.max() + 1):
        ind = (partition.cell_macro == macro).astype(float)
        assert np.abs(jmat @ ind).max() <= 1e-14, f"{name}: macro {macro}"


# ----- partition -------------------------------------------------------------

def test_partition_2x2_single_macro():
    mesh = build_cartesian(2, 2)
    partition = build_macro_elements(mesh)
    assert np.array_equal(partition.cell_macro, [0, 0, 0, 0])


def test_partition_3x3_absorbs_into_first_macro():
    mesh = build_cartesian(3, 3)
    partition = build_macro_elements(mesh)
    # the four cells around the first internal vertex (1/3, 1/3) seed the
    # only step-1 macro-element (its cells touch every internal vertex);
    # step 2 absorbs the remaining five cells into it
    assert np.array_equal(partition.cell_macro, np.zeros(9, dtype=int))
    assert_partition_valid(mesh, partition)


def test_partition_10x10_coverage():
    mesh = build_cartesian(10, 10)
    partition = build_macro_elements(mesh)
    assert_partition_valid(mesh, partition)
    # step 1 tiles the grid with 2x2 blocks; step 2 has nothing left
    assert np.array_equal(np.bincount(partition.cell_macro), np.full(25, 4))


def test_partition_deterministic(cart10):
    first = build_macro_elements(cart10)
    second = build_macro_elements(cart10)
    assert np.array_equal(first.cell_macro, second.cell_macro)


def test_partition_all_families(family_meshes_level0):
    meshes = dict(family_meshes_level0)
    # distorted cell classes: darts, tiny edges, aspect ratio 16
    meshes["dart_0.97"] = dart_mesh(10, 0.97)
    meshes["voronoi_unrelaxed"] = build_voronoi(100, lloyd_iters=0, seed=0)
    meshes["cartesian_aspect16"] = build_cartesian(10, 160)
    for name, mesh in meshes.items():
        partition = build_macro_elements(mesh)
        assert_partition_valid(mesh, partition, name)
        assert_macro_indicators_in_kernel(
            mesh, partition, assemble_jump_matrix(mesh, partition, 1.0), name)


def test_partition_needs_internal_vertices():
    with pytest.raises(MeshError):
        build_macro_elements(build_cartesian(1, 1))
    with pytest.raises(MeshError):
        build_macro_elements(build_cartesian(2, 1))


def test_partition_stalls_on_a_disconnected_cell():
    """A triangle apart from a 2x2 grid touches no macro-element."""
    grid = build_cartesian(2, 2)
    vertices = np.vstack([grid.vertices, [[2.0, 0.0], [3.0, 0.0],
                                          [2.0, 1.0]]])
    mesh = PolyMesh(vertices, grid.cells + [np.array([9, 10, 11])])
    with pytest.raises(MeshError, match="cell 4 is not connected"):
        build_macro_elements(mesh)


# ----- face weights ------------------------------------------------------------

def test_corner_areas_tile_the_cells(family_meshes_level0):
    for family, mesh in family_meshes_level0.items():
        areas = np.split(corner_areas(mesh),
                         np.cumsum([c.size for c in mesh.cells])[:-1])
        for k in range(mesh.num_cells):
            assert areas[k].sum() == pytest.approx(mesh.cell_area[k],
                                                   rel=1e-12), family
            assert np.all(areas[k] > 0.0), family


def test_upsilon_uniform_cartesian(cart10):
    ups = upsilon_weights(cart10)
    interior = cart10.face_cells[:, 1] >= 0
    # each m_{K,v} is a quarter cell: Upsilon = 4 (h^2 / 4) = h^2
    assert ups[interior] == pytest.approx(np.full(interior.sum(), 0.01),
                                          rel=1e-12)
    assert np.all(ups[~interior] == 0.0)
    # the four faces meeting at one interior vertex carry 4 h^2 in total
    v = np.flatnonzero(~cart10.boundary_vertex_mask)[0]
    at_vertex = np.any(cart10.faces == v, axis=1)
    assert ups[at_vertex].sum() == pytest.approx(4.0e-2, rel=1e-12)


def test_upsilon_positive_all_families(family_meshes_level0):
    for family, mesh in family_meshes_level0.items():
        ups = upsilon_weights(mesh)
        interior = mesh.face_cells[:, 1] >= 0
        assert np.all(ups[interior] > 0.0), family
        assert np.all(ups[~interior] == 0.0), family


def reference_upsilon(mesh):
    """Face-by-face sum of the corner quadrilateral areas at both face
    endpoints in both adjacent cells, each area from the shoelace formula."""
    ups = np.zeros(mesh.num_faces)
    for f in np.flatnonzero(~mesh.boundary_mask):
        for k in mesh.face_cells[f]:
            cell = list(mesh.cells[k])
            n = len(cell)
            for v in mesh.faces[f]:
                i = cell.index(v)
                x_v = mesh.vertices[v]
                quad = np.array([
                    x_v, 0.5 * (x_v + mesh.vertices[cell[(i + 1) % n]]),
                    mesh.cell_centroid[k],
                    0.5 * (x_v + mesh.vertices[cell[i - 1]])])
                x, y = quad[:, 0], quad[:, 1]
                ups[f] += 0.5 * abs(np.dot(x, np.roll(y, -1))
                                    - np.dot(np.roll(x, -1), y))
    return ups


def reference_jump_matrix(mesh, partition, beta):
    """Face-by-face assembly of the jump penalty over the interior faces
    whose two cells share a macro-element."""
    ups = upsilon_weights(mesh)
    rows, cols, vals = [], [], []
    for f in np.flatnonzero(~mesh.boundary_mask):
        ka, kb = (int(c) for c in mesh.face_cells[f])
        if partition.cell_macro[ka] != partition.cell_macro[kb]:
            continue
        w = beta * ups[f]
        rows += [ka, ka, kb, kb]
        cols += [ka, kb, ka, kb]
        vals += [w, -w, -w, w]
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(mesh.num_cells, mesh.num_cells))


def test_upsilon_matches_face_loop(family_meshes_level0):
    """Jump weights and jump matrix against their face loops."""
    for family, mesh in family_meshes_level0.items():
        ref = reference_upsilon(mesh)
        # The reference shoelace sums products of absolute coordinates, so
        # each of its four areas carries a round-off of order eps |x|^2.
        tol = 64.0 * np.finfo(float).eps * np.abs(mesh.vertices).max() ** 2
        assert np.abs(upsilon_weights(mesh) - ref).max() <= tol, family

        partition = build_macro_elements(mesh)
        beta = beta_coefficient(1.0, 1.0)
        ref = reference_jump_matrix(mesh, partition, beta)
        jmat = assemble_jump_matrix(mesh, partition, beta)
        assert abs(jmat - ref).max() <= 1e-15 * abs(ref).max(), family


# ----- stabilization coefficient --------------------------------------------------

def test_beta_coefficient_values():
    assert beta_coefficient(1.0, 1.0) == pytest.approx(1.0 / 12.0,
                                                       rel=1e-15)
    assert beta_coefficient(1.0, 1.0, alpha=0.0) == 0.0
    assert beta_coefficient(3.571e4, 1.429e5) == \
        pytest.approx(1.0 / 857280.0, rel=1e-12)
    assert beta_coefficient(3.571e4, 1.429e5) == \
        pytest.approx(1.1665e-6, rel=1e-4)
    # quadratic in the coupling coefficient
    assert beta_coefficient(2.0, 3.0, alpha=0.5) == \
        pytest.approx(0.25 * beta_coefficient(2.0, 3.0), rel=1e-15)


# ----- jump matrix -----------------------------------------------------------------

def test_jump_matrix_single_face_by_hand():
    """Two-cell macro-element: the quadratic form of p = (+1, -1) across
    the single internal face is beta * Upsilon_f * 4."""
    mesh = build_cartesian(2, 1)
    partition = MacroPartition(cell_macro=np.zeros(2, dtype=int))
    beta = 0.3
    jmat = assemble_jump_matrix(mesh, partition, beta).toarray()
    interior = np.flatnonzero(mesh.face_cells[:, 1] >= 0)
    assert interior.size == 1
    ups = upsilon_weights(mesh)[interior[0]]
    assert ups == pytest.approx(0.5, rel=1e-12)     # 4 quads of (1/2)(1)/4
    p = np.array([1.0, -1.0])
    assert p @ jmat @ p == pytest.approx(4.0 * beta * ups, rel=1e-12)
    assert jmat == pytest.approx(beta * ups * np.array([[1.0, -1.0],
                                                        [-1.0, 1.0]]))


def test_jump_matrix_invariants(cart10):
    partition = build_macro_elements(cart10)
    beta = beta_coefficient(1.0, 1.0)
    jmat = assemble_jump_matrix(cart10, partition, beta)
    dense = jmat.toarray()
    assert dense == pytest.approx(dense.T, abs=1e-15)
    for _ in range(100):
        x = RNG.standard_normal(cart10.num_cells)
        assert x @ (jmat @ x) >= -1e-12 * np.abs(x).max() ** 2
    # macro-element indicators span the kernel direction by direction
    assert_macro_indicators_in_kernel(cart10, partition, jmat)
    # no coupling across macro-elements
    coo = jmat.tocoo()
    same = partition.cell_macro[coo.row] == partition.cell_macro[coo.col]
    assert np.all(same[coo.data != 0.0])
    # linear in beta
    assert (2.0 * dense) == pytest.approx(
        assemble_jump_matrix(cart10, partition, 2.0 * beta).toarray())


# ----- checkerboard indicator --------------------------------------------------------

def test_indicator_of_exact_checkerboard(cart10):
    i, j = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
    p = np.where((i + j) % 2 == 0, 1.0, -1.0).reshape(-1)
    ups = upsilon_weights(cart10)
    interior = cart10.face_cells[:, 1] >= 0
    # every interior jump is +-2 and sum |K| p_K^2 = |Omega| = 1
    expected = 4.0 * ups[interior].sum()
    assert checkerboard_indicator(cart10, p) == pytest.approx(expected,
                                                              rel=1e-12)
    assert expected == pytest.approx(7.2, rel=1e-12)
    # scale invariance of the normalized form
    assert checkerboard_indicator(cart10, 10.0 * p) == \
        pytest.approx(expected, rel=1e-12)


def test_indicator_of_smooth_field_scales_quadratically():
    values = {}
    for n in (10, 20):
        mesh = build_cartesian(n, n)
        values[n] = checkerboard_indicator(mesh, mesh.cell_centroid[:, 0])
        assert values[n] < 0.05
    assert values[20] == pytest.approx(values[10] / 4.0, rel=0.2)


def test_indicator_of_uniform_field_is_zero(cart10):
    assert checkerboard_indicator(cart10, np.full(100, 2.5)) == 0.0
    assert checkerboard_indicator(cart10, np.zeros(100)) == 0.0


# ----- inf-sup certificate ------------------------------------------------------------

def assert_inf_sup_certificate(family, levels):
    """The cantilever's inf-sup constant (helpers.inf_sup_constant) on the
    family at each of levels: stabilized, at least 0.5 everywhere;
    unstabilized, at least 0.5 on Voronoi and, on the quadrilateral
    families, a drop of at least 3x per doubling of n, the checkerboard
    modes of Q1-P0 that the stabilization removes (Kechkar and Silvester,
    Math. Comp. 1992).  The bounds were fixed before the first run."""
    const = {(stab, n): inf_sup_constant(cantilever.setup(
                 family_mesh(family, n), 1e-5, stabilize=stab)[0])
             for stab in (False, True) for n in levels}
    assert all(const[True, n] >= 0.5 for n in levels), const
    if family == "voronoi":
        assert all(const[False, n] >= 0.5 for n in levels), const
    else:
        assert all(const[False, coarse] >= 3.0 * const[False, fine]
                   for coarse, fine in zip(levels, levels[1:])), const


@pytest.mark.parametrize("family", FAMILIES)
def test_stabilization_certified_by_inf_sup_constant(family):
    assert_inf_sup_certificate(family, (8, 16))


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES)
def test_stabilization_certified_by_inf_sup_constant_at_n32(family):
    assert_inf_sup_certificate(family, (16, 32))
