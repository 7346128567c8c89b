"""Mesh construction, geometry, generators and file round-trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

from poromech.mesh import (MeshError, MeshFormatError, PolyMesh,
                           build_cartesian, build_hybrid, build_skewed,
                           build_voronoi, polygon_area_centroid,
                           polygon_diameter, polygon_edge_geometry,
                           polygon_quadrature, read_mesh, write_mesh)
from poromech.assembly import Material
from poromech.mesh import generators

from helpers import (RIGHT_TRIANGLE, UNIT_SQUARE, dart_mesh, four_edge_mirror,
                     k_orthogonality_defect, kappa_tensor, polygon_moments,
                     random_convex_polygon, random_spd_tensor,
                     random_star_polygon, random_u_polygon, reference_faces,
                     reference_geometry, reference_quadrature,
                     reference_voronoi)
from poromech.problems.studies import FAMILIES, family_mesh

# A conforming mesh of one hexagon (two merged unit squares), two
# triangles and three quadrilaterals on the 4 x 3 vertex lattice of
# [0, 3] x [0, 2], with the cell sizes interleaved.
MIXED_CELLS = [[4, 5, 9, 8], [0, 1, 2, 6, 5, 4], [2, 3, 7], [5, 6, 10, 9],
               [2, 7, 6], [6, 7, 11, 10]]


def mixed_mesh():
    xx, yy = np.meshgrid(np.arange(4.0), np.arange(3.0))
    return PolyMesh(np.column_stack([xx.ravel(), yy.ravel()]), MIXED_CELLS)


def equivalence_meshes():
    meshes = {f"{family}-{n}": family_mesh(family, n)
              for family in FAMILIES for n in (6, 12)}
    meshes["mixed"] = mixed_mesh()
    return meshes


# ----- counts and geometry ---------------------------------------------------

def test_cartesian_counts():
    mesh = build_cartesian(10, 10)
    assert (mesh.num_vertices, mesh.num_cells, mesh.num_faces) == \
        (121, 100, 220)
    assert mesh.num_unknowns == 2 * 121 + 100 + 220 == 562

    mesh = build_cartesian(20, 20)
    assert (mesh.num_vertices, mesh.num_cells, mesh.num_faces) == \
        (441, 400, 840)

    mesh = build_cartesian(1, 1)
    assert (mesh.num_vertices, mesh.num_cells, mesh.num_faces) == (4, 1, 4)


def test_cartesian_invalid_dimensions():
    with pytest.raises(MeshError):
        build_cartesian(0, 5)


def test_single_cell_geometry():
    mesh = build_cartesian(1, 1)
    assert mesh.cell_area[0] == pytest.approx(1.0, abs=1e-15)
    assert mesh.cell_centroid[0] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert mesh.cell_diam[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert mesh.face_length == pytest.approx(np.ones(4), abs=1e-15)


def test_right_triangle_geometry():
    area, centroid = polygon_area_centroid(RIGHT_TRIANGLE)
    assert area == pytest.approx(0.5, abs=1e-15)
    assert centroid == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)
    assert polygon_diameter(RIGHT_TRIANGLE) == pytest.approx(np.sqrt(2.0))


def test_degenerate_polygon_rejected():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        polygon_area_centroid(line)


def test_quadrature_exact_for_quadratics():
    pts, wts = polygon_quadrature(UNIT_SQUARE)
    assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    assert wts @ pts[:, 0] == pytest.approx(0.5, abs=1e-14)
    assert wts @ pts[:, 0] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert wts @ (pts[:, 0] * pts[:, 1]) == pytest.approx(0.25, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=12), st.booleans())
def test_quadrature_exact_on_nonconvex_polygons(seed, n_verts, u_shaped):
    """Signed fan areas integrate quadratics exactly on simple polygons
    that are not star-shaped around their centroid; the weights of
    clockwise fan triangles are negative."""
    rng = np.random.default_rng(seed)
    verts = (random_u_polygon(rng) if u_shaped
             else random_star_polygon(rng, n_verts))
    area, centroid = polygon_area_centroid(verts)
    spokes = verts - centroid
    fan = (spokes[:, 0] * np.roll(spokes[:, 1], -1)
           - spokes[:, 1] * np.roll(spokes[:, 0], -1))
    if u_shaped:
        assert fan.min() < 0.0
    pts, wts = polygon_quadrature(verts)
    x, y = pts[:, 0], pts[:, 1]
    got = wts @ np.column_stack([np.ones_like(x), x, y, x * x, x * y,
                                 y * y])
    want = polygon_moments(verts)
    scale = area * (1.0 + np.abs(verts).max()) ** 2
    assert wts.sum() == pytest.approx(area, rel=1e-13)
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_quadrature_shares_spoke_midpoints():
    """2 nv points per cell integrate like the 3 nv-point fan rule."""
    rng = np.random.default_rng(5)
    for family in FAMILIES:
        mesh = family_mesh(family, 6)
        coef = rng.standard_normal(6)

        def quadratic(p):
            x, y = p[..., 0], p[..., 1]
            return np.tensordot(coef, [np.ones_like(x), x, y, x * x, x * y,
                                        y * y], axes=1)

        got = np.empty(mesh.num_cells)
        for group in mesh.cell_groups:
            verts = mesh.vertices[group.vertices]
            pts, wts = polygon_quadrature(verts,
                                          mesh.cell_centroid[group.cells])
            assert wts.shape == (group.cells.size, 2 * verts.shape[1])
            assert wts.sum(axis=1) == pytest.approx(
                mesh.cell_area[group.cells], rel=1e-14, abs=0.0), family
            got[group.cells] = (wts * quadratic(pts)).sum(axis=1)
        ref = np.empty(mesh.num_cells)
        for k in range(mesh.num_cells):
            pts, wts = reference_quadrature(mesh.vertices[mesh.cells[k]],
                                            mesh.cell_centroid[k])
            ref[k] = wts @ quadratic(pts)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), family


def test_polygon_helpers_batch_matches_single():
    rng = np.random.default_rng(9)
    batch = np.array([[random_convex_polygon(rng, 5) for _ in range(3)]
                      for _ in range(2)])                  # (2, 3, 5, 2)
    area, centroid = polygon_area_centroid(batch)
    lengths, mids, normals = polygon_edge_geometry(batch)
    diam = polygon_diameter(batch)
    pts, wts = polygon_quadrature(batch)
    assert area.shape == diam.shape == (2, 3)
    assert centroid.shape == (2, 3, 2) and normals.shape == (2, 3, 5, 2)
    assert pts.shape == (2, 3, 10, 2) and wts.shape == (2, 3, 10)
    for i in range(2):
        for j in range(3):
            one = batch[i, j]
            a, c = polygon_area_centroid(one)
            assert (a, *c) == (area[i, j], *centroid[i, j])
            assert polygon_diameter(one) == diam[i, j]
            for got, want in zip(polygon_edge_geometry(one),
                                 (lengths[i, j], mids[i, j],
                                  normals[i, j])):
                assert np.array_equal(got, want)
            for got, want in zip(polygon_quadrature(one),
                                 (pts[i, j], wts[i, j])):
                assert np.array_equal(got, want)


def test_mesh_matches_per_cell_reference():
    """Array-pass topology and geometry against the dict loop over edges
    and the per-cell geometry."""
    for name, mesh in equivalence_meshes().items():
        faces, face_cells, cell_faces = reference_faces(mesh.cells)
        assert np.array_equal(mesh.faces, faces), name
        assert np.array_equal(mesh.face_cells, face_cells), name
        assert np.array_equal(mesh.edge_faces, np.concatenate(cell_faces)), \
            name

        area, centroid, diam, lengths, normals = reference_geometry(
            mesh.vertices, mesh.cells)
        for got, want in [(mesh.cell_area, area),
                          (mesh.cell_centroid, centroid),
                          (mesh.cell_diam, diam),
                          (mesh.edge_lengths, np.concatenate(lengths)),
                          (mesh.edge_normals, np.concatenate(normals))]:
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), \
                name


def assert_same_voronoi(mesh, vertices, cells, vertex_tol):
    assert len(mesh.cells) == len(cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, cells))
    assert mesh.vertices.shape == vertices.shape
    assert np.abs(mesh.vertices - vertices).max() <= vertex_tol


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voronoi_matches_per_cell_lloyd(seed):
    mesh = build_voronoi(200, lloyd_iters=20, seed=seed)
    assert_same_voronoi(mesh, *reference_voronoi(200, 20, seed), 1e-14)


def test_mesh_invariants_all_families(family_meshes_level0):
    for family, mesh in family_meshes_level0.items():
        assert np.all(mesh.cell_area > 0.0), family
        assert np.all(mesh.face_cells[:, 0] >= 0), family
        # conformity: every face belongs to one or two cells
        counts = np.bincount(mesh.edge_faces, minlength=mesh.num_faces)
        interior = mesh.face_cells[:, 1] >= 0
        assert np.array_equal(counts, np.where(interior, 2, 1)), family
        # closure identity per cell
        for k in range(mesh.num_cells):
            edges = slice(*mesh.cell_offsets[k:k + 2])
            lengths = mesh.edge_lengths[edges]
            normals = mesh.edge_normals[edges]
            residual = np.linalg.norm(lengths @ normals)
            assert residual <= 1e-12 * lengths.sum(), family
        # unknown count and Euler characteristic of a simply connected mesh
        assert mesh.num_unknowns == (2 * mesh.num_vertices + mesh.num_cells
                                     + mesh.num_faces), family
        assert mesh.num_vertices - mesh.num_faces + mesh.num_cells == 1, \
            family


# ----- constructor validation ------------------------------------------------

def test_constructor_rejects_bad_cells():
    verts = UNIT_SQUARE
    with pytest.raises(MeshError):
        PolyMesh(verts, [[0, 1]])                     # too few vertices
    with pytest.raises(MeshError, match="cell 0 repeats a vertex"):
        PolyMesh(verts, [[0, 1, 1, 3]])
    with pytest.raises(MeshError):
        PolyMesh(verts, [[0, 3, 2, 1]])               # clockwise
    with pytest.raises(MeshError):
        PolyMesh(verts, [[0, 1, 2], [0, 1, 3]])       # same traversal twice
    with pytest.raises(MeshError, match=r"\(nv, 2\) array"):
        PolyMesh(np.zeros((4, 3)), [[0, 1, 2, 3]])    # 3-D vertices
    with pytest.raises(MeshError, match="cell 1 references a missing vertex"):
        PolyMesh(verts, [[0, 1, 2], [0, 2, 4]])       # no vertex 4


def test_constructor_rejects_non_finite_vertex():
    verts = np.array(UNIT_SQUARE, dtype=float)
    verts[2, 1] = np.inf
    with np.errstate(all="raise"), \
            pytest.raises(MeshError, match="vertex 2 .*non-finite"):
        PolyMesh(verts, [[0, 1, 2, 3]])


@pytest.mark.parametrize("cells, message", [
    ([], "at least one cell"),
    ([[0, 1, 2.7]], "cell 0 has a non-integral vertex index"),
    ([[0, 1, 3], [1, 2, np.nan]], "cell 1 has a non-integral"),
    ([[0, 1, 3], [1, 2, np.inf]], "cell 1 has a non-integral"),
])
def test_constructor_rejects_no_cells_or_non_integral_index(cells, message):
    with np.errstate(all="raise"), pytest.raises(MeshError, match=message):
        PolyMesh(UNIT_SQUARE, cells)


@pytest.mark.parametrize("cells", [[[0.0, 1.0, 2.0, 3.0]],
                                   np.array([[0, 1, 2, 3]], dtype=np.int32),
                                   np.array([[0, 1, 2, 3]], dtype=np.uint8)])
def test_constructor_takes_integral_indices_of_any_type(cells):
    mesh = PolyMesh(UNIT_SQUARE, cells)
    assert mesh.cells[0].dtype == mesh.edge_vertices.dtype == int
    assert mesh.cells[0].tolist() == [0, 1, 2, 3]
    assert mesh.cell_area[0] == 1.0


def exposed_arrays(mesh):
    """Every array that the mesh exposes, by name: its attributes, the
    cell views and the arrays of each cell group and its geometry."""
    arrays = {name: value for name, value in vars(mesh).items()
              if isinstance(value, np.ndarray)}
    arrays.update((f"cells[{k}]", cell) for k, cell in enumerate(mesh.cells))
    for group in mesh.cell_groups:
        nv = group.faces.shape[1]
        arrays.update((f"group {nv} {name}", getattr(group, name))
                      for name in group._fields[:-1])
        arrays.update((f"group {nv} geometry.{name}", value)
                      for name, value in group.geometry._asdict().items())
    return arrays


def test_mesh_keeps_its_own_copies():
    """Editing the caller's vertex or cell array after PolyMesh(...) changes
    no mesh array; the cells are views of the mesh's own edge_vertices."""
    vertices, cells = UNIT_SQUARE.copy(), np.array([[0, 1, 2, 3]])
    mesh = PolyMesh(vertices, cells)
    vertices[2] = (5.0, 5.0)
    cells[0, 0] = 3
    reference = exposed_arrays(PolyMesh(UNIT_SQUARE, [[0, 1, 2, 3]]))
    arrays = exposed_arrays(mesh)
    assert arrays.keys() == reference.keys()
    assert all(np.array_equal(arrays[name], reference[name])
               for name in arrays)
    assert np.shares_memory(mesh.cells[0], mesh.edge_vertices)


def test_mesh_arrays_are_read_only():
    mesh = mixed_mesh()
    arrays = exposed_arrays(mesh)
    assert len(arrays) > 40
    assert not [name for name, a in arrays.items() if a.flags.writeable]


@pytest.mark.parametrize("array", [
    lambda mesh: mesh.vertices,
    lambda mesh: mesh.cells[0],
    lambda mesh: mesh.cell_area,
    lambda mesh: mesh.cell_groups[0].geometry.area,
], ids=["vertices", "cells[0]", "cell_area", "geometry.area"])
def test_writing_into_a_mesh_array_raises(array):
    mesh = build_cartesian(2, 2)
    with pytest.raises(ValueError, match="read-only"):
        array(mesh)[0] = 0.5
    assert np.array_equal(array(mesh), array(build_cartesian(2, 2)))


# A unit square (cell 0) next to a second cell on vertices 4-7 that share
# no edge with it.
BAD_INPUT = {
    "clockwise cell": ([[2, 0], [3, 1], [3, 0], [9, 9]], [[4, 5, 6]],
                       "cell 1"),
    "zero-area cell": ([[2, 0], [2.5, 0.5], [3, 1], [9, 9]], [[4, 5, 6]],
                       "cell 1"),
    "zero-length edge": ([[2, 0], [3, 0], [3, 1], [3, 1]], [[4, 5, 6, 7]],
                         "cell 1"),
    "face shared by three cells": ([[2, 0], [2, 1], [2, 2], [2, 3]],
                                   [[1, 0, 4], [0, 1, 5]], r"face \(0, 1\)"),
    "face traversed twice": ([[2, 0], [2, 1], [2, 2], [2, 3]], [[0, 1, 4]],
                             r"face \(0, 1\)"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_names_cell_or_face(case):
    extra, cells, where = BAD_INPUT[case]
    vertices = np.vstack([UNIT_SQUARE, extra])
    # floating-point errors raise, so a NaN on the way fails the test
    with np.errstate(all="raise"), pytest.raises(MeshError, match=where):
        PolyMesh(vertices, [[0, 1, 2, 3]] + cells)


# ----- grid generators ---------------------------------------------------------

@pytest.mark.parametrize("build", [build_cartesian, build_skewed,
                                   build_hybrid])
def test_grid_generators_build_one_mesh(build, monkeypatch):
    """Each grid family builds its PolyMesh once, from one vertex and quad
    array, with no intermediate Cartesian mesh."""
    built = []
    monkeypatch.setattr(generators, "PolyMesh",
                        lambda *args: built.append(args) or PolyMesh(*args))
    for n in (1, 5):
        built.clear()
        assert isinstance(build(n, n + 1), PolyMesh)
        assert len(built) == 1


# ----- skew map ---------------------------------------------------------------

def test_skew_is_identity_on_quarter_lattice():
    base = build_cartesian(4, 4)
    skewed = build_skewed(4, 4)
    assert np.allclose(skewed.vertices, base.vertices, atol=1e-15)


def test_skew_frozen_interior_point():
    base = build_cartesian(10, 10)
    skewed = build_skewed(10, 10)
    v = np.flatnonzero(np.all(np.isclose(base.vertices, 0.1), axis=1))[0]
    # g(0.1, 0.1) = 0.1 - 0.07 sin^2(0.4 pi) in both components
    expected = 0.036684405196876840156
    assert skewed.vertices[v] == pytest.approx([expected, expected],
                                               abs=1e-15)


def test_skew_preserves_boundary():
    base = build_cartesian(10, 10)
    skewed = build_skewed(10, 10)
    on_boundary = base.boundary_vertex_mask
    assert np.allclose(skewed.vertices[on_boundary],
                       base.vertices[on_boundary], atol=1e-15)
    assert np.all(skewed.cell_area > 0.0)
    assert skewed.num_faces == base.num_faces


def test_skewed_mesh_counts_match_cartesian():
    mesh = build_skewed(10, 10)
    assert (mesh.num_vertices, mesh.num_cells, mesh.num_faces) == \
        (121, 100, 220)


# ----- hybrid generator --------------------------------------------------------

def test_hybrid_counts():
    assert build_hybrid(2, 2).num_cells == 6
    assert build_hybrid(10, 10).num_cells == 110
    assert abs(build_hybrid(10, 11).num_cells - 110) <= 0.15 * 110
    with pytest.raises(MeshError, match="at least one cell per direction"):
        build_hybrid(0, 3)


def test_hybrid_mixes_shapes():
    mesh = build_hybrid(10, 10)
    sizes = np.array([len(c) for c in mesh.cells])
    assert np.any(sizes == 3) and np.any(sizes == 4)
    assert mesh.cell_area.sum() == pytest.approx(1.0, abs=1e-12)


# ----- Voronoi generator --------------------------------------------------------

def test_voronoi_counts_and_determinism():
    mesh = build_voronoi(100, 20, seed=0)
    again = build_voronoi(100, 20, seed=0)
    assert mesh.num_cells == 100
    assert abs(mesh.num_vertices - 202) <= 0.02 * 202
    assert abs(mesh.num_faces - 301) <= 0.02 * 301
    assert np.array_equal(mesh.vertices, again.vertices)
    assert all(np.array_equal(a, b)
               for a, b in zip(mesh.cells, again.cells))
    assert mesh.cell_area.sum() == pytest.approx(1.0, abs=1e-10)


def test_voronoi_quadrant_generators():
    pts = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    mesh = build_voronoi(4, 0, points=pts)
    assert mesh.num_cells == 4
    assert mesh.num_vertices == 9
    assert mesh.num_faces == 12
    assert np.allclose(mesh.cell_area, 0.25, atol=1e-12)


def test_voronoi_lloyd_regularizes():
    rough = build_voronoi(100, 1, seed=0)
    smooth = build_voronoi(100, 20, seed=0)
    assert smooth.cell_diam.max() < rough.cell_diam.max()


def test_voronoi_too_few_generators():
    with pytest.raises(MeshError):
        build_voronoi(1)


# Generators of the clipped-cell checks: (0.5, 0.5), the varied one, then
# (0.2, 0.8) and (0.7, 0.1).
def four_generators(second):
    return np.array([[0.5, 0.5], second, [0.2, 0.8], [0.7, 0.1]])


def test_voronoi_rejects_generator_outside_the_box(monkeypatch):
    """A generator outside the unit square would get a wrong clipped cell
    (areas 0.364/0.180/0.245/0.211 where the nearest-generator areas are
    0.505/0/0.245/0.250); it is refused before any triangulation."""
    monkeypatch.setattr("scipy.spatial.Delaunay", None)
    with pytest.raises(MeshError,
                       match=r"generator 1 at \[1.5 0.5\] lies outside"):
        build_voronoi(5, points=four_generators([1.5, 0.5]))
    with pytest.raises(MeshError, match="generator 0 at"):
        build_voronoi(2, points=[[-1e-12, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("points", [
    [0.5, 0.5, 0.2, 0.8],                           # not two-dimensional
    [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],             # three columns
    [[0.5, np.nan], [0.2, 0.8]],
    [[0.5, np.inf], [0.2, 0.8]],
    [[0.5], [0.2, 0.8]],                            # ragged
    [["a", "b"], ["c", "d"]],
    [[0.5, 0.5]],                                   # one generator
], ids=["flat", "3-columns", "nan", "inf", "ragged", "strings", "one"])
def test_voronoi_rejects_bad_points(points):
    with pytest.raises(MeshError, match=r"\(n, 2\) array of n >= 2 finite"):
        build_voronoi(5, points=points)


@pytest.mark.parametrize("second", [[1.0, 0.5], [0.0, 0.0]])
def test_voronoi_boundary_generator_matches_nearest_generator_areas(second):
    """Generators on the boundary are inside the closed box and keep their
    cells: the areas match those of nearest-generator sampling on a 400 x
    400 grid (measured within 4.2e-4)."""
    pts = four_generators(second)
    mesh = build_voronoi(4, points=pts)
    ticks = (np.arange(400) + 0.5) / 400
    x, y = np.meshgrid(ticks, ticks)
    nearest = np.argmin((x.ravel()[:, None] - pts[:, 0]) ** 2
                        + (y.ravel()[:, None] - pts[:, 1]) ** 2, axis=1)
    sampled = np.bincount(nearest, minlength=4) / ticks.size ** 2
    assert np.abs(mesh.cell_area - sampled).max() <= 1e-3


# Largest vertex shift against the four-edge mirror measured at 200
# generators after 20 Lloyd steps (seeds 0-2): 1.9e-13 when the reflected
# set came from the bare diagram, 1.1e-13 with the checked Delaunay pass.
FOUR_EDGE_VERTEX_SHIFT = 5e-13
# The same at 1,600 generators, seeds 0-9: 7.9e-12 (seed 6) with the
# checked Delaunay pass.
FOUR_EDGE_VERTEX_SHIFT_1600 = 2e-11


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voronoi_matches_four_edge_mirror(seed):
    mesh = build_voronoi(200, lloyd_iters=20, seed=seed)
    vertices, cells = reference_voronoi(200, 20, seed,
                                        reflect=four_edge_mirror)
    assert_same_voronoi(mesh, vertices, cells, FOUR_EDGE_VERTEX_SHIFT)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_voronoi_matches_four_edge_mirror_1600(seed):
    mesh = build_voronoi(1600, lloyd_iters=20, seed=seed)
    vertices, cells = reference_voronoi(1600, 20, seed,
                                        reflect=four_edge_mirror)
    assert_same_voronoi(mesh, vertices, cells, FOUR_EDGE_VERTEX_SHIFT_1600)


@pytest.mark.parametrize("seed", [0, 1])
def test_voronoi_retriangulates_until_exact(seed, monkeypatch):
    """Every Lloyd step and the final mesh start from no reflected
    generators, so every pass must find the boundary generators itself and
    triangulate again; the cells still are the four-edge mirror's."""
    clipped_cells = generators._clipped_cells
    monkeypatch.setattr(
        generators, "_clipped_cells",
        lambda pts, candidates: clipped_cells(pts, np.zeros_like(candidates)))
    calls = []
    monkeypatch.setattr("scipy.spatial.Delaunay",
                        lambda points: calls.append(len(points))
                        or Delaunay(points))
    mesh = build_voronoi(200, lloyd_iters=20, seed=seed)
    assert len(calls) >= 2 * 21 and min(calls) == 200
    vertices, cells = reference_voronoi(200, 20, seed,
                                        reflect=four_edge_mirror)
    assert_same_voronoi(mesh, vertices, cells, FOUR_EDGE_VERTEX_SHIFT)


def test_voronoi_quadrant_matches_four_edge_mirror():
    pts = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    mesh = build_voronoi(4, 0, points=pts)
    vertices, cells = reference_voronoi(4, 0, 0, points=pts,
                                        reflect=four_edge_mirror)
    assert_same_voronoi(mesh, vertices, cells, FOUR_EDGE_VERTEX_SHIFT)


DEGENERATE_GENERATORS = {
    "two": [[0.3, 0.4], [0.7, 0.6]],
    "collinear": [[x, 0.5] for x in (0.1, 0.3, 0.5, 0.7, 0.9)],
    "coincident": [[0.2, 0.3], [0.2, 0.3], [0.8, 0.7]],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_GENERATORS))
def test_voronoi_degenerate_generators(name, monkeypatch):
    """Generators that qhull cannot triangulate on their own still give a
    mesh, the one of reflecting every generator."""
    pts = DEGENERATE_GENERATORS[name]
    mesh = build_voronoi(len(pts), 0, points=pts)
    assert mesh.num_cells == len(pts)
    assert abs(mesh.cell_area.sum() - 1.0) <= 1e-14
    assert np.isfinite(mesh.vertices).all()
    clipped_cells = generators._clipped_cells
    monkeypatch.setattr(
        generators, "_clipped_cells",
        lambda pts, candidates: clipped_cells(pts, np.ones_like(candidates)))
    oracle = build_voronoi(len(pts), 0, points=pts)
    assert_same_voronoi(mesh, oracle.vertices, oracle.cells, 0.0)


def test_voronoi_grid_generators_stay_a_grid():
    """Cocircular generators give flat hull triangles and repeated
    circumcentres; the square cells stay a fixed point of Lloyd's step."""
    ticks = (np.arange(10) + 0.5) / 10
    pts = np.column_stack([np.tile(ticks, 10), np.repeat(ticks, 10)])
    mesh = build_voronoi(100, 20, points=pts)
    assert mesh.num_vertices == 121 and mesh.num_faces == 220
    assert all(len(cell) == 4 for cell in mesh.cells)
    assert np.abs(mesh.cell_area - 0.01).max() <= 1e-14


def test_voronoi_give_up_raises_mesh_error(monkeypatch):
    calls = []

    def failing_delaunay(points):
        calls.append(len(points))
        raise QhullError("forced failure")

    monkeypatch.setattr("scipy.spatial.Delaunay", failing_delaunay)
    with pytest.raises(MeshError, match="too degenerate"):
        build_voronoi(50, 2, seed=0)
    # five attempts, two passes each: the bare generators, then every
    # generator reflected
    assert calls == [50, 250] * 5


def test_voronoi_cell_collapsed_by_the_merge_is_retried(monkeypatch):
    """A cell that the vertex merge leaves with fewer than three vertices
    is PolyMesh's MeshError, and build_voronoi retries it like any other
    degenerate set.  The first pass here moves every vertex of one cell
    onto its first vertex."""
    clipped_cells, polymesh = generators._clipped_cells, generators.PolyMesh
    errors = []

    def collapse_first(pts, candidates):
        centres, groups, reaches = clipped_cells(pts, candidates)
        if not errors:
            index = groups[0][1][0]
            centres[index] = centres[index[0]]
        return centres, groups, reaches

    def recorded(*args):
        try:
            return polymesh(*args)
        except MeshError as err:
            errors.append(str(err))
            raise

    monkeypatch.setattr(generators, "_clipped_cells", collapse_first)
    monkeypatch.setattr(generators, "PolyMesh", recorded)
    mesh = build_voronoi(30, 0, seed=4)
    assert len(errors) == 1 and "fewer than 3 vertices" in errors[0]
    assert mesh.num_cells == 30
    assert abs(mesh.cell_area.sum() - 1.0) <= 1e-12


def test_scipy_spatial_loads_with_the_first_voronoi_build():
    """Importing the package and its command line leaves scipy.spatial
    unloaded (this test module imports it, so a fresh process checks);
    build_voronoi loads it."""
    code = ("import sys, poromech, poromech.cli\n"
            "print('scipy.spatial' in sys.modules)\n"
            "poromech.mesh.build_voronoi(10)\n"
            "print('scipy.spatial' in sys.modules)\n")
    src = str(Path(generators.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "True"]


# ----- k-orthogonality ----------------------------------------------------------

def test_k_orthogonality():
    cart = build_cartesian(5, 5)
    assert k_orthogonality_defect(cart, 1.0) <= 1e-10
    assert k_orthogonality_defect(cart, np.diag([2.0, 1.0])) <= 1e-10
    skew = build_skewed(5, 5)
    assert k_orthogonality_defect(skew, 1.0) > 1e-10


def test_k_orthogonality_matches_cell_loop():
    rng = np.random.default_rng(3)
    for name, mesh in equivalence_meshes().items():
        kappa = random_spd_tensor(rng)
        worst = 0.0
        for k in range(mesh.num_cells):
            edges = slice(*mesh.cell_offsets[k:k + 2])
            kn = mesh.edge_normals[edges] @ kappa.T
            c = (mesh.face_midpoint[mesh.edge_faces[edges]]
                 - mesh.cell_centroid[k])
            cross = np.abs(kn[:, 0] * c[:, 1] - kn[:, 1] * c[:, 0])
            scale = np.hypot(kn[:, 0], kn[:, 1]) * np.hypot(c[:, 0], c[:, 1])
            worst = max(worst, float((cross / scale).max()))
        assert k_orthogonality_defect(mesh, kappa) == \
            pytest.approx(worst, rel=1e-14, abs=1e-15), name


# ----- permeability tensor ------------------------------------------------------

def test_kappa_as_tensor_accepts_spd():
    rng = np.random.default_rng(5)
    assert np.array_equal(kappa_tensor(2.0), 2.0 * np.eye(2))
    assert np.array_equal(kappa_tensor([1.0, 3.0]), np.diag([1.0, 3.0]))
    for _ in range(100):
        kappa = random_spd_tensor(rng)
        assert np.array_equal(kappa_tensor(kappa), kappa)


@pytest.mark.parametrize("kappa, reason", [
    (0.0, "positive definite"),
    (-1.0, "positive definite"),
    ([1.0, 0.0], "positive definite"),
    ([-2.0, 1.0], "positive definite"),
    ([[1.0, 0.5], [0.2, 1.0]], "symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
    ([[-1.0, 0.0], [0.0, -1.0]], "positive definite"),
    ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
    (np.inf, "finite"),
    ([1.0, 2.0, 3.0], "a 2-vector, or a 2x2 tensor"),
])
def test_kappa_as_tensor_rejects_non_spd(kappa, reason):
    with pytest.raises(ValueError, match=reason):
        Material(shear=1.0, lam=1.0, kappa=kappa)


# ----- file round trips -----------------------------------------------------------

def assert_roundtrip_exact(tmp_path, mesh):
    """Reading a written mesh gives its vertex bits, cells and faces, and
    writing that again gives the same bytes."""
    path = tmp_path / "mesh.txt"
    write_mesh(path, mesh)
    loaded = read_mesh(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert len(loaded.cells) == len(mesh.cells)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.cells, mesh.cells))
    assert np.array_equal(loaded.faces, mesh.faces)
    write_mesh(tmp_path / "again.txt", loaded)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_io_roundtrip_idempotent(tmp_path):
    assert_roundtrip_exact(tmp_path, build_cartesian(3, 3))


def test_io_preserves_voronoi_vertices(tmp_path):
    assert_roundtrip_exact(tmp_path, build_voronoi(100, 20, seed=3))


# the header and vertex records of the unit square as one cell
SQUARE_RECORDS = "4 1\n0 0\n1 0\n1 1\n0 1\n"


def read_text(tmp_path, text):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    return read_mesh(path)


def test_io_comments_and_whitespace(tmp_path):
    mesh = read_text(tmp_path, "# single cell\n" + SQUARE_RECORDS
                     + "4 0 1 2 3  # the cell\n")
    assert mesh.num_cells == 1
    assert mesh.num_faces == 4


def test_io_rejects_face_lines_of_earlier_layout(tmp_path):
    """A file with the face count in its header and face lines after the
    cells is rejected on the header line, with integer or float
    coordinates alike."""
    with pytest.raises(MeshFormatError, match="line 2: .*face lines"):
        read_text(tmp_path, "# single cell\n4 1 4\n0 0\n1 0\n1 1\n0 1\n"
                  "4 0 1 2 3  # the cell\n0 1 q\n1 2 q\n2 3 q\n3 0 q\n")
    write_mesh(tmp_path / "mesh.txt", build_cartesian(3, 3))
    lines = (tmp_path / "mesh.txt").read_text().splitlines()
    lines[0] += " 24"
    with pytest.raises(MeshFormatError, match="line 1: .*face lines"):
        read_text(tmp_path, "\n".join(lines + ["0 1 q"] * 24) + "\n")


def test_io_missing_vertex_is_parse_error(tmp_path):
    with pytest.raises(MeshFormatError, match="line 6"):
        read_text(tmp_path, SQUARE_RECORDS + "4 0 1 2 9\n")


def test_io_rejects_two_vertex_cell(tmp_path):
    with pytest.raises(MeshFormatError,
                       match="line 6: cell with fewer than 3 vertices"):
        read_text(tmp_path, SQUARE_RECORDS + "2 0 1\n")


def test_io_malformed_number_names_line(tmp_path):
    with pytest.raises(MeshFormatError, match="line 3"):
        read_text(tmp_path, "4 1\n0 0\n1 oops\n1 1\n0 1\n4 0 1 2 3\n")


def test_io_rejects_trailing_content(tmp_path):
    with pytest.raises(MeshFormatError, match="line 7: trailing"):
        read_text(tmp_path, SQUARE_RECORDS + "4 0 1 2 3\nextra\n")


def test_io_rejects_non_finite_coordinate(tmp_path):
    with np.errstate(all="raise"), \
            pytest.raises(MeshError, match=r"vertex 3 .*\[nan, 1\.0\]"):
        read_text(tmp_path, "4 1\n0 0\n1 0\n1 1\nnan 1\n4 0 1 2 3\n")


def test_io_truncated_file(tmp_path):
    """A file that ends in its vertex records or before its cell records,
    or whose header counts are negative."""
    for text in ("4 1\n0 0\n1 0\n", SQUARE_RECORDS):
        with pytest.raises(MeshFormatError, match="end of file"):
            read_text(tmp_path, text)
    with pytest.raises(MeshFormatError, match="line 1: negative count"):
        read_text(tmp_path, "-4 1\n")


@pytest.mark.parametrize("text, line", [
    ("4 1\n0 0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n", 2),
    ("4 1\n0 0\n1\n0\n1 1\n0 1\n4 0 1 2 3\n", 3),
    ("4 2\n0 0\n1 0\n1 1\n0 1\n3 0 1 2 3 0 2 3\n", 6),
    ("4\n1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n", 1),
], ids=["three-number-vertex", "split-vertex", "two-cells-on-a-line",
        "split-header"])
def test_io_one_record_per_line(tmp_path, text, line):
    """A record spread over two lines, or two records on one line, is an
    error naming the line of the faulty record."""
    with pytest.raises(MeshFormatError, match=f"^line {line}: expected"):
        read_text(tmp_path, text)


@pytest.mark.parametrize("name", [*FAMILIES, "dart", "mixed"])
def test_io_roundtrip_is_exact(tmp_path, name):
    if name == "dart":
        mesh = dart_mesh(10, 0.8)
    elif name == "mixed":
        mesh = mixed_mesh()
    else:
        mesh = family_mesh(name, 6)
    assert_roundtrip_exact(tmp_path, mesh)


# ----- property-based geometry checks ----------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=10))
def test_polygon_geometry_properties(seed, n_verts):
    rng = np.random.default_rng(seed)
    verts = random_convex_polygon(rng, n_verts)
    area, centroid = polygon_area_centroid(verts)
    assert area > 0.0
    lengths, mids, normals = polygon_edge_geometry(verts)
    # closure and unit normals
    assert np.linalg.norm(lengths @ normals) <= 1e-12 * lengths.sum()
    assert np.allclose(np.hypot(normals[:, 0], normals[:, 1]), 1.0)
    # outward normals of a convex polygon point away from the centroid
    assert np.all(((mids - centroid) * normals).sum(axis=1) > 0.0)
    # quadrature integrates constants and linears exactly
    pts, wts = polygon_quadrature(verts)
    assert wts.sum() == pytest.approx(area, rel=1e-12)
    assert wts @ pts == pytest.approx(area * centroid, rel=1e-12)
    # translation invariance, up to shoelace cancellation at the shift scale
    shift = rng.uniform(-5.0, 5.0, 2)
    area2, centroid2 = polygon_area_centroid(verts + shift)
    assert area2 == pytest.approx(area, rel=1e-12, abs=1e-12)
    assert centroid2 == pytest.approx(centroid + shift, abs=1e-8)
