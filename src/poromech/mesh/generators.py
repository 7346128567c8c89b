"""Mesh generators: Cartesian, skewed, quad/triangle hybrid, and clipped
Lloyd-relaxed Voronoi tessellations of the unit square."""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import Voronoi

from .core import MeshError, PolyMesh, polygon_area_centroid

SKEW_AMPLITUDE = 0.07
SKEW_FREQUENCY = 4.0 * np.pi


def build_cartesian(nx: int, ny: int, width: float = 1.0,
                    height: float = 1.0) -> PolyMesh:
    """Uniform nx-by-ny quadrilateral grid on [0, width] x [0, height]."""
    if nx < 1 or ny < 1:
        raise MeshError("grid must have at least one cell per direction")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xx, yy = np.meshgrid(xs, ys)               # row-major: vertex j*(nx+1)+i
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # cell j*nx+i has its south-west corner at vertex j*(nx+1)+i
    sw = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    cells = np.column_stack([sw, sw + 1, sw + nx + 2, sw + nx + 1])
    return PolyMesh(vertices, cells)


def apply_skew(mesh: PolyMesh) -> PolyMesh:
    """Distort a unit-square mesh by the smooth skew map

        g(x, y) = (x, y) + 0.07 sin(4 pi x) cos(4 pi y + pi/2) (1, 1).

    The perturbation vanishes on the boundary of the unit square, so the
    domain and its boundary vertices are preserved.
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    bump = SKEW_AMPLITUDE * np.sin(SKEW_FREQUENCY * x) \
        * np.cos(SKEW_FREQUENCY * y + 0.5 * np.pi)
    vertices = np.column_stack([x + bump, y + bump])
    return PolyMesh(vertices, mesh.cells, face_tags=mesh.face_tags)


def build_skewed(nx: int, ny: int) -> PolyMesh:
    """Skew-distorted Cartesian grid on the unit square."""
    return apply_skew(build_cartesian(nx, ny))


def build_hybrid(nx: int, ny: int, width: float = 1.0,
                 height: float = 1.0) -> PolyMesh:
    """Cartesian grid with one anti-diagonal band of cells split into
    triangles along their SW-NE diagonals, mixing element shapes while
    keeping the mesh conforming."""
    if nx < 1 or ny < 1:
        raise MeshError("grid must have at least one cell per direction")
    base = build_cartesian(nx, ny, width, height)
    band = (nx + ny) // 2 - 1
    cells = []
    for j in range(ny):
        for i in range(nx):
            sw, se, ne, nw = base.cells[j * nx + i]
            if i + j == band:
                cells.append([sw, se, ne])
                cells.append([sw, ne, nw])
            else:
                cells.append([sw, se, ne, nw])
    return PolyMesh(base.vertices, cells)


def build_voronoi(n_cells: int, lloyd_iters: int = 0, seed: int = 0,
                  points=None) -> PolyMesh:
    """Voronoi tessellation of the unit square, optionally Lloyd-relaxed.

    Generators are drawn uniformly with numpy's default PCG64 generator at
    the given seed (or passed explicitly via ``points``). Each Lloyd
    iteration replaces every generator by the centroid of its clipped cell.
    Degenerate configurations are retried with a small deterministic jitter.
    """
    if n_cells < 2 and points is None:
        raise MeshError("a Voronoi mesh needs at least two generators")
    rng = np.random.default_rng(seed)
    pts = rng.random((n_cells, 2)) if points is None \
        else np.asarray(points, dtype=float).copy()
    for _attempt in range(5):
        try:
            relaxed = pts
            for _ in range(lloyd_iters):
                relaxed = _lloyd_step(relaxed)
            return _voronoi_mesh(relaxed)
        except (MeshError, KeyError, IndexError):
            pts = np.clip(pts + 1e-7 * rng.standard_normal(pts.shape),
                          1e-6, 1.0 - 1e-6)
    raise MeshError("could not build a valid Voronoi mesh; generators are "
                    "too degenerate")


def _mirrored(pts: np.ndarray) -> np.ndarray:
    """Original generators plus reflections across the four box edges.

    The bisector between a generator and its reflection is the box edge
    itself, so the Voronoi cells of the original generators come out exactly
    clipped to the unit square.
    """
    left = np.column_stack([-pts[:, 0], pts[:, 1]])
    right = np.column_stack([2.0 - pts[:, 0], pts[:, 1]])
    down = np.column_stack([pts[:, 0], -pts[:, 1]])
    up = np.column_stack([pts[:, 0], 2.0 - pts[:, 1]])
    return np.vstack([pts, left, right, down, up])


def _region_groups(vor: Voronoi, n: int) -> list:
    """Regions of the first n generators, one (ids, (m, nv) Voronoi-vertex
    indices) pair per vertex count, each region ordered counterclockwise
    around its vertex mean."""
    regions = [vor.regions[r] for r in vor.point_region[:n]]
    sizes = np.fromiter(map(len, regions), dtype=int, count=n)
    flat = np.fromiter(chain.from_iterable(regions), dtype=int,
                       count=sizes.sum())
    if sizes.min() < 3 or flat.min() < 0:
        raise MeshError("unbounded or degenerate Voronoi region")
    offsets = np.cumsum(sizes) - sizes
    groups = []
    for nv in np.unique(sizes):
        ids = np.flatnonzero(sizes == nv)
        index = flat[offsets[ids, None] + np.arange(nv)]
        poly = vor.vertices[index]
        rel = poly - poly.mean(axis=1, keepdims=True)
        order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
        groups.append((ids, np.take_along_axis(index, order, axis=1)))
    return groups


def _lloyd_step(pts: np.ndarray) -> np.ndarray:
    """Centroids of the clipped Voronoi cells of the generators."""
    vor = Voronoi(_mirrored(pts))
    centroids = np.empty_like(pts)
    for ids, index in _region_groups(vor, len(pts)):
        centroids[ids] = polygon_area_centroid(vor.vertices[index])[1]
    return centroids


def _voronoi_mesh(pts: np.ndarray) -> PolyMesh:
    vor = Voronoi(_mirrored(pts))
    regions = [None] * len(pts)
    for ids, index in _region_groups(vor, len(pts)):
        for k, region in zip(ids, index):
            regions[k] = region
    used = sorted({v for r in regions for v in r})
    coords = vor.vertices[used]
    # snap coincident vertices (qhull can split high-degree Voronoi
    # vertices) and clamp onto the box
    coords = np.where(np.abs(coords) < 1e-9, 0.0, coords)
    coords = np.where(np.abs(coords - 1.0) < 1e-9, 1.0, coords)
    keys = np.round(coords, 9)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    remap = {old: int(inverse[i]) for i, old in enumerate(used)}
    vertices = coords[first]

    cells = []
    for region in regions:
        cell = []
        for v in region:
            nv = remap[v]
            if not cell or (nv != cell[-1] and nv != cell[0]):
                cell.append(nv)
        if len(cell) < 3:
            raise MeshError("Voronoi cell collapsed during vertex merge")
        area, _ = polygon_area_centroid(vertices[cell])
        cells.append(cell if area > 0 else cell[::-1])
    return PolyMesh(vertices, cells)
