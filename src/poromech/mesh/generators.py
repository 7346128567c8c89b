"""Mesh generators: Cartesian, skewed, quad/triangle hybrid, and clipped
Lloyd-relaxed Voronoi tessellations of the unit square.

Voronoi cells are clipped to the box by reflecting generators across its
edges (bounded CVT; Du, Faber and Gunzburger, SIAM Review 1999).  Only the
generators whose cells reach the box are reflected, and each pass is one
Delaunay triangulation whose circumcentres are the Voronoi vertices.  The
pass checks itself: a cell that reaches the box without its generator being
reflected sends that generator to the reflected set and the pass is
repeated.  The first Lloyd step starts from no reflections, so its first
pass is the bare diagram; each later step reflects the generators whose
cell reached the box, and those within one mean spacing of it, and rarely
needs a second pass.  At n = 1,600 each pass gives qhull about 2,200
points, not 5n = 8,000.

scipy.spatial is imported by the Voronoi builder only: the first Voronoi
build in a process pays for that import (its time and its resident
memory), and a process that builds no Voronoi mesh never loads it.
"""

from __future__ import annotations

import numpy as np

from .core import MeshError, PolyMesh, polygon_area_centroid

SKEW_AMPLITUDE = 0.07
SKEW_FREQUENCY = 4.0 * np.pi
# a Voronoi vertex this close to the unit square's boundary counts as
# reaching it, so that qhull's round-off cannot hide a cell that touches
# the box; reflecting a generator that needs no reflection is harmless
BOX_MARGIN = 1e-9
# Voronoi vertices closer than this are one vertex of the mesh
VERTEX_MERGE = 1e-9


def _grid(nx: int, ny: int):
    """Vertices (row-major, vertex j*(nx+1)+i) and counterclockwise quads
    (nx*ny, 4) of the uniform nx-by-ny grid on the unit square; cell
    j*nx+i has its south-west corner at vertex j*(nx+1)+i."""
    if nx < 1 or ny < 1:
        raise MeshError("grid must have at least one cell per direction")
    xx, yy = np.meshgrid(np.linspace(0.0, 1.0, nx + 1),
                         np.linspace(0.0, 1.0, ny + 1))
    sw = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return (np.column_stack([xx.ravel(), yy.ravel()]),
            np.column_stack([sw, sw + 1, sw + nx + 2, sw + nx + 1]))


def build_cartesian(nx: int, ny: int) -> PolyMesh:
    """Uniform nx-by-ny quadrilateral grid on the unit square."""
    return PolyMesh(*_grid(nx, ny))


def build_skewed(nx: int, ny: int) -> PolyMesh:
    """Cartesian grid on the unit square distorted by the smooth skew map

        g(x, y) = (x, y) + 0.07 sin(4 pi x) cos(4 pi y + pi/2) (1, 1).

    The perturbation vanishes on the boundary of the unit square, so the
    domain and its boundary vertices are preserved.
    """
    vertices, cells = _grid(nx, ny)
    x, y = vertices[:, 0], vertices[:, 1]
    bump = SKEW_AMPLITUDE * np.sin(SKEW_FREQUENCY * x) \
        * np.cos(SKEW_FREQUENCY * y + 0.5 * np.pi)
    return PolyMesh(np.column_stack([x + bump, y + bump]), cells)


def build_hybrid(nx: int, ny: int) -> PolyMesh:
    """Cartesian grid on the unit square with one anti-diagonal band of
    cells split into triangles along their SW-NE diagonals, mixing element
    shapes while keeping the mesh conforming."""
    vertices, quads = _grid(nx, ny)
    band = (nx + ny) // 2 - 1
    cells = []
    for k, (sw, se, ne, nw) in enumerate(quads):
        if k % nx + k // nx == band:      # i + j of cell k = j nx + i
            cells += [[sw, se, ne], [sw, ne, nw]]
        else:
            cells.append([sw, se, ne, nw])
    return PolyMesh(vertices, cells)


def build_voronoi(n_cells: int, lloyd_iters: int = 0, seed: int = 0,
                  points=None) -> PolyMesh:
    """Voronoi tessellation of the unit square, optionally Lloyd-relaxed.

    Generators are drawn uniformly with numpy's default PCG64 generator at
    the given seed, or passed explicitly via ``points``: n >= 2 finite
    points in the closed unit square, else MeshError.  Each Lloyd
    iteration replaces every generator by the centroid of its clipped cell.
    Degenerate configurations are retried with a small deterministic jitter;
    when five attempts fail, MeshError is raised (never qhull's error).
    """
    from scipy.spatial import QhullError

    rng = np.random.default_rng(seed)
    try:
        pts = rng.random((max(n_cells, 0), 2)) if points is None \
            else np.array(points, dtype=float)
    except (TypeError, ValueError):
        pts = np.empty(0)
    if pts.ndim != 2 or len(pts) < 2 or pts.shape[1] != 2 \
            or not np.isfinite(pts).all():
        raise MeshError("a Voronoi mesh needs an (n, 2) array of n >= 2 "
                        "finite generators")
    # _clipped_cells reflects correctly only generators inside the box
    outside = np.flatnonzero(((pts < 0.0) | (pts > 1.0)).any(axis=1))
    if outside.size:
        raise MeshError(f"generator {outside[0]} at {pts[outside[0]]}"
                        " lies outside the unit square")
    for _attempt in range(5):
        try:
            relaxed, candidates = pts, np.zeros(len(pts), dtype=bool)
            for _ in range(lloyd_iters):
                relaxed, candidates = _lloyd_step(relaxed, candidates)
            return _voronoi_mesh(relaxed, candidates)
        except (MeshError, QhullError):
            pts = np.clip(pts + 1e-7 * rng.standard_normal(pts.shape),
                          1e-6, 1.0 - 1e-6)
    raise MeshError("could not build a valid Voronoi mesh; generators are "
                    "too degenerate")


def _circumcentres(tri: np.ndarray) -> np.ndarray:
    """Circumcentres (m, 2) of the triangles (m, 3, 2); not finite for a
    flat triangle."""
    a = tri[:, 0]
    b, c = tri[:, 1] - a, tri[:, 2] - a
    det = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    bb, cc = (b ** 2).sum(axis=1), (c ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return a + np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                    b[:, 0] * cc - c[:, 0] * bb]) \
            / det[:, None]


def _clipped_cells(pts: np.ndarray, candidates: np.ndarray):
    """Clipped Voronoi cells of the generators from one Delaunay pass.

    The candidate generators are reflected across the four box edges and
    the whole set is triangulated; the triangle circumcentres are the
    Voronoi vertices.  A reflection across a box edge is never closer than
    its source generator to a point inside the box, so inside the box every
    cell is the cell of the bare generators, and the bisector of a candidate
    and its reflection is the box edge itself.  The pass is therefore exact
    when every other generator's cell is bounded (the generator is not on
    the hull) and lies inside the box, away from its boundary by
    BOX_MARGIN; otherwise those generators join the candidates and the set
    is triangulated again.  When qhull cannot triangulate the set (fewer
    than three, collinear or coincident generators), every generator is
    reflected.

    Returns the Voronoi vertices (nt, 2), the cells as one (ids, (m, nv)
    vertex indices) pair per vertex count, each cell ordered
    counterclockwise around its vertex mean, and the mask of the cells
    that reach the box.
    """
    from scipy.spatial import Delaunay, QhullError

    n = len(pts)
    while True:
        x, y = pts[candidates, 0], pts[candidates, 1]
        points = np.vstack([pts, np.column_stack([-x, y]),
                            np.column_stack([2.0 - x, y]),
                            np.column_stack([x, -y]),
                            np.column_stack([x, 2.0 - y])])
        try:
            tri = Delaunay(points)
        except QhullError:
            if candidates.all():
                raise
            candidates = np.ones(n, dtype=bool)
            continue
        simplices = tri.simplices[(tri.simplices < n).any(axis=1)]
        centres = _circumcentres(points[simplices])
        # a flat triangle (collinear points on the hull) counts as outside
        inside = ((centres > BOX_MARGIN) & (centres < 1.0 - BOX_MARGIN)) \
            .all(axis=1)
        # (generator, triangle) incidences of the first n points
        owner = simplices.ravel()
        mine = owner < n
        owner = owner[mine]
        corner = np.repeat(np.arange(len(centres)), 3)[mine]
        reaches = np.bincount(owner, weights=~inside[corner],
                              minlength=n) > 0
        unbounded = np.zeros(len(points), dtype=bool)
        unbounded[tri.convex_hull] = True
        missed = ~candidates & (reaches | unbounded[:n])
        if not missed.any():
            break
        candidates = candidates | missed
    sizes = np.bincount(owner, minlength=n)
    if sizes.min() < 3 or not np.isfinite(centres).all():
        raise MeshError("degenerate Voronoi cell")
    corner = corner[np.argsort(owner, kind="stable")]
    offsets = np.cumsum(sizes) - sizes
    groups = []
    for nv in np.unique(sizes):
        ids = np.flatnonzero(sizes == nv)
        index = corner[offsets[ids, None] + np.arange(nv)]
        index = _ccw(index, centres, centres[index].mean(axis=1))
        # cocircular generators give one circumcentre per triangle: order
        # around the mean of the distinct vertices, as their Voronoi
        # diagram has them
        poly = centres[index]
        distinct = (np.abs(poly - np.roll(poly, 1, axis=1))
                    > VERTEX_MERGE).any(axis=2)
        if not distinct.all():
            distinct |= ~distinct.any(axis=1, keepdims=True)
            mean = (poly * distinct[..., None]).sum(axis=1) \
                / distinct.sum(axis=1, keepdims=True)
            index = _ccw(index, centres, mean)
        groups.append((ids, index))
    return centres, groups, reaches


def _ccw(index: np.ndarray, centres: np.ndarray,
         mean: np.ndarray) -> np.ndarray:
    """Rows of vertex indices (m, nv) ordered counterclockwise around the
    points mean (m, 2)."""
    rel = centres[index] - mean[:, None]
    order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
    return np.take_along_axis(index, order, axis=1)


def _lloyd_step(pts: np.ndarray, candidates: np.ndarray):
    """Centroids of the clipped Voronoi cells of the generators, and the
    candidates for the next step: the generators whose cell reaches the
    box, and those within one mean spacing 1/sqrt(n) of it."""
    centres, groups, reaches = _clipped_cells(pts, candidates)
    centroids = np.empty_like(pts)
    for ids, index in groups:
        centroids[ids] = polygon_area_centroid(centres[index])[1]
    near = np.minimum(centroids, 1.0 - centroids).min(axis=1) \
        < 1.0 / np.sqrt(len(pts))
    return centroids, reaches | near


def _voronoi_mesh(pts: np.ndarray, candidates: np.ndarray) -> PolyMesh:
    centres, groups, _ = _clipped_cells(pts, candidates)
    used, slot = np.unique(np.concatenate([index.ravel()
                                           for _, index in groups]),
                           return_inverse=True)
    coords = centres[used]
    # snap coincident vertices (cocircular generators give one Voronoi
    # vertex per Delaunay triangle) and clamp onto the box
    coords = np.where(np.abs(coords) < VERTEX_MERGE, 0.0, coords)
    coords = np.where(np.abs(coords - 1.0) < VERTEX_MERGE, 1.0, coords)
    _, first, inverse = np.unique(np.round(coords, 9), axis=0,
                                  return_index=True, return_inverse=True)
    vertices = coords[first]
    remap = inverse.ravel()[slot]

    cells = [None] * len(pts)
    start = 0
    for ids, index in groups:
        cell = remap[start:start + index.size].reshape(index.shape)
        start += index.size
        # drop repeats of the previous or the first vertex; a cell left
        # with fewer than three is PolyMesh's MeshError, retried by the
        # caller
        keep = np.ones(cell.shape, dtype=bool)
        keep[:, 1:] = (cell[:, 1:] != cell[:, :-1]) \
            & (cell[:, 1:] != cell[:, :1])
        for k, row, mask in zip(ids, cell, keep):
            cells[k] = row[mask]
    return PolyMesh(vertices, cells)
