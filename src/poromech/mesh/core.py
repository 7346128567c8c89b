"""Conforming polygonal mesh: topology, geometry, and validation.

The polygon helpers take vertex arrays of shape (..., nv, 2): one polygon
is the (nv, 2) case, and a leading batch axis holds m polygons with the
same vertex count, (m, nv, 2).  Results carry the same leading axes, so a
scalar per polygon comes back with shape (...,) and a point with shape
(..., 2).  polygon_geometry gathers them into the CellGeometry record that
the local operators read.  PolyMesh calls it once per vertex-count group of
its cells (see PolyMesh.cell_groups) and keeps the record on the group; the
same code serves a single polygon.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

# (t_y, t_x) * _ROTATE = (t_y, -t_x): tangent rotated by -90 degrees
_ROTATE = np.array([1.0, -1.0])


class MeshError(ValueError):
    """Raised for non-conforming topology or degenerate geometry."""


def _reject(bad, reason: str) -> None:
    """Raise MeshError(reason) when any polygon of a batch is bad.

    The error's `polygon` attribute is the flat batch index of the first
    bad polygon (0 for a single polygon), so that a caller can name it.
    """
    if bad.any():
        err = MeshError(reason)
        err.polygon = int(np.flatnonzero(bad)[0])
        raise err


def _cyclic_next(verts: np.ndarray) -> np.ndarray:
    """Successor of every vertex along the vertex axis (-2), cyclically."""
    return np.concatenate([verts[..., 1:, :], verts[..., :1, :]], axis=-2)


def polygon_area_centroid(verts: np.ndarray):
    """Signed shoelace area (...,) and area centroid (..., 2) of simple
    polygons (..., nv, 2)."""
    verts = np.asarray(verts, dtype=float)
    nxt = _cyclic_next(verts)
    x, y = verts[..., 0], verts[..., 1]
    xn, yn = nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=-1)
    _reject(area == 0.0, "degenerate polygon with zero area")
    # sums along the contiguous vertex axis, which numpy adds pairwise
    moment = np.empty(area.shape + (2,))
    moment[..., 0] = ((x + xn) * cross).sum(axis=-1)
    moment[..., 1] = ((y + yn) * cross).sum(axis=-1)
    return area, moment / (6.0 * area[..., None])


def polygon_diameter(verts: np.ndarray):
    """Maximum pairwise vertex distance h_K, (...,)."""
    verts = np.asarray(verts, dtype=float)
    diff = verts[..., :, None, :] - verts[..., None, :, :]
    dist2 = (diff ** 2).sum(axis=-1)
    return np.sqrt(dist2.reshape(dist2.shape[:-2] + (-1,)).max(axis=-1))


def polygon_edge_geometry(verts: np.ndarray):
    """Edge lengths (..., nv), midpoints and outward unit normals
    (..., nv, 2) of counterclockwise polygons; edge i runs from vertex i to
    vertex i + 1."""
    verts = np.asarray(verts, dtype=float)
    nxt = _cyclic_next(verts)
    tang = nxt - verts
    lengths = np.hypot(tang[..., 0], tang[..., 1])
    _reject((lengths <= 0.0).any(axis=-1), "zero-length polygon edge")
    # outward normal of a counterclockwise polygon: rotate tangent by -90 deg
    normals = tang[..., ::-1] * _ROTATE / lengths[..., None]
    midpoints = 0.5 * (verts + nxt)
    return lengths, midpoints, normals


def polygon_quadrature(verts: np.ndarray, centroid: np.ndarray | None = None):
    """Quadrature on polygons (..., nv, 2): fan triangulation from the
    centroid with the three-edge-midpoint rule per triangle (exact for
    quadratics).

    Triangle i has the vertices c, v_i, v_(i+1) and the signed area A_i of
    a counterclockwise polygon.  Its spoke midpoint (c + v_i)/2 is shared
    with triangle i - 1, so it is stored once with weight (A_(i-1) + A_i)/3.
    Returns (points, weights) of shapes (..., 2 nv, 2) and (..., 2 nv): the
    nv spoke midpoints, then the nv outer edge midpoints.  The signed areas
    make the rule exact for quadratics on any simple polygon, and the
    weights of a polygon sum to its area; a polygon that is not star-shaped
    around its centroid has clockwise fan triangles, and so can have
    negative weights.
    """
    verts = np.asarray(verts, dtype=float)
    if centroid is None:
        _, centroid = polygon_area_centroid(verts)
    center = np.asarray(centroid, dtype=float)[..., None, :]
    nxt = _cyclic_next(verts)
    da, db = verts - center, nxt - center
    third = 0.5 * (da[..., 0] * db[..., 1] - da[..., 1] * db[..., 0]) / 3.0
    prev = np.concatenate([third[..., -1:], third[..., :-1]], axis=-1)
    points = np.concatenate([0.5 * (center + verts), 0.5 * (verts + nxt)],
                            axis=-2)
    return points, np.concatenate([prev + third, third], axis=-1)


class CellGeometry(NamedTuple):
    """Geometry of counterclockwise polygons (..., nv, 2): one cell, or a
    batch with leading axes.  Edge i runs from vertex i to vertex i + 1."""
    verts: np.ndarray         # (..., nv, 2) vertex coordinates
    area: np.ndarray          # (...,) area |K| > 0
    centroid: np.ndarray      # (..., 2) area centroid x_K
    diam: np.ndarray          # (...,) diameter h_K
    lengths: np.ndarray       # (..., nv) edge lengths |f|
    normals: np.ndarray       # (..., nv, 2) outward unit normals n_{K,f}
    face_vectors: np.ndarray  # (..., nv, 2) c_{K,f}, centroid to midpoint


def polygon_geometry(verts: np.ndarray) -> CellGeometry:
    """CellGeometry of counterclockwise polygons (..., nv, 2).

    Raises MeshError for a polygon with zero area, clockwise vertices or a
    zero-length edge; for a batch, its `polygon` attribute is the flat
    index of the first bad polygon.
    """
    verts = np.asarray(verts, dtype=float)
    area, centroid = polygon_area_centroid(verts)
    _reject(area < 0.0, "polygon is not counterclockwise")
    lengths, midpoints, normals = polygon_edge_geometry(verts)
    return CellGeometry(verts, area, centroid, polygon_diameter(verts),
                        lengths, normals, midpoints - centroid[..., None, :])


class CellGroup(NamedTuple):
    """The m cells of a mesh that have the same vertex count nv."""
    cells: np.ndarray       # (m,) cell ids, ascending
    vertices: np.ndarray    # (m, nv) vertex ids, counterclockwise
    faces: np.ndarray       # (m, nv) face ids, face i on edge i
    edges: np.ndarray       # (m, nv) positions in the flat edge arrays
    geometry: CellGeometry  # batched (m, ...) geometry of the cells


class PolyMesh:
    """Polygonal mesh {T, F, V} of a planar domain.

    Cells are simple polygons given as counterclockwise vertex index lists.
    Faces are derived from the cell boundaries; each face belongs to one or
    two cells (conformity) and is owned by the lower-indexed adjacent cell.

    The edges of all cells form flat arrays in the order of
    np.concatenate(cells): edge j of cell k runs from its vertex j to
    vertex j + 1 and sits at position cell_offsets[k] + j.

    Attributes
    ----------
    vertices : (nv, 2) float array of finite coordinates
    cells : list of int arrays, counterclockwise
    faces : (nf, 2) int array, endpoints in the owner cell's traversal order
    face_cells : (nf, 2) int array, adjacent cells (second entry -1 on the
        boundary)
    cell_faces : list of int arrays, faces of each cell aligned with its edges
    cell_offsets : (nt + 1,) int array, start of each cell's edges in the
        flat edge arrays
    edge_cells, edge_vertices, edge_next : flat edge arrays, the cell and
        start vertex of every cell edge and the flat index of the next
        edge of the same cell
    edge_faces, edge_lengths, edge_normals : flat edge arrays, the face,
        length and outward unit normal of every cell edge; cell_faces and
        cell_normals are their per-cell views, made on first use
    cell_groups : list of CellGroup, one per vertex count, ascending, each
        with the batched CellGeometry of its cells
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate: "
                            f"{self.vertices[bad[0]].tolist()}")
        self.cells = [np.asarray(c, dtype=int) for c in cells]
        sizes = np.fromiter(map(len, self.cells), dtype=int,
                            count=len(self.cells))
        small = np.flatnonzero(sizes < 3)
        if small.size:
            raise MeshError(f"cell {small[0]} has fewer than 3 vertices")
        self.cell_offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.edge_cells = np.repeat(np.arange(len(self.cells)), sizes)
        self.edge_vertices = np.concatenate(self.cells)
        self.edge_next = np.arange(1, self.cell_offsets[-1] + 1)
        self.edge_next[self.cell_offsets[1:] - 1] = self.cell_offsets[:-1]
        self._build_faces()
        self.cell_groups = [self._cell_group(np.flatnonzero(sizes == nv), nv)
                            for nv in np.unique(sizes)]
        self._compute_geometry()

    # -- topology ---------------------------------------------------------

    def _build_faces(self):
        """Faces from the flat cell edges, numbered in order of first
        appearance; the first traversal fixes the orientation."""
        start, owner = self.edge_vertices, self.edge_cells
        if start.min() < 0 or start.max() >= self.num_vertices:
            bad = (start < 0) | (start >= self.num_vertices)
            raise MeshError(f"cell {owner[bad][0]} references a missing "
                            "vertex")
        order = np.lexsort((start, owner))
        repeat = (np.diff(start[order]) == 0) & (np.diff(owner[order]) == 0)
        if repeat.any():
            raise MeshError(f"cell {owner[order][1:][repeat][0]} repeats a "
                            "vertex")
        end = start[self.edge_next]
        lo, hi = np.minimum(start, end), np.maximum(start, end)

        # Edges with the same endpoints are one face.  A stable sort by
        # the endpoint key lists the traversals of each face in flat
        # order: occurrence 0 creates the face, occurrence 1 must run the
        # other way, and a third traversal is an error.
        key = lo * self.num_vertices + hi
        order = np.argsort(key, kind="stable")
        new = np.ones(order.size, dtype=bool)
        new[1:] = np.diff(key[order]) != 0
        group = np.cumsum(new) - 1
        heads = np.flatnonzero(new)
        occurrence = np.empty_like(order)
        occurrence[order] = np.arange(order.size) - heads[group]
        first = np.empty_like(order)
        first[order] = order[heads][group]
        bad = (occurrence > 1) | ((occurrence == 1) & (start == start[first]))
        if bad.any():
            e = np.flatnonzero(bad)[0]
            key = (int(lo[e]), int(hi[e]))
            if occurrence[e] > 1:
                raise MeshError(f"face {key} shared by more than two cells")
            raise MeshError(f"face {key} traversed twice in the same "
                            "direction; cells are not conforming CCW")

        creates = occurrence == 0
        self.edge_faces = (np.cumsum(creates) - 1)[first]
        self.faces = np.column_stack([start[creates], end[creates]])
        self.face_cells = np.column_stack(
            [owner[creates], np.full(self.faces.shape[0], -1)])
        closes = occurrence == 1
        self.face_cells[self.edge_faces[closes], 1] = owner[closes]

    # -- geometry ---------------------------------------------------------

    def _cell_group(self, ids: np.ndarray, nv: int) -> CellGroup:
        """The group of the cells ids, which have nv vertices each."""
        edges = self.cell_offsets[ids, None] + np.arange(nv)
        vertices = self.edge_vertices[edges]
        try:
            geometry = polygon_geometry(self.vertices[vertices])
        except MeshError as err:
            raise MeshError(f"cell {ids[err.polygon]}: {err}") from None
        return CellGroup(ids, vertices, self.edge_faces[edges], edges,
                         geometry)

    def _compute_geometry(self):
        """Flat per-cell and per-edge arrays from the group geometry."""
        nt, n_edges = self.num_cells, self.cell_offsets[-1]
        self.cell_area = np.empty(nt)
        self.cell_centroid = np.empty((nt, 2))
        self.cell_diam = np.empty(nt)
        self.edge_lengths = np.empty(n_edges)
        self.edge_normals = np.empty((n_edges, 2))
        for group in self.cell_groups:
            geo = group.geometry
            self.cell_area[group.cells] = geo.area
            self.cell_centroid[group.cells] = geo.centroid
            self.cell_diam[group.cells] = geo.diam
            self.edge_lengths[group.edges] = geo.lengths
            self.edge_normals[group.edges] = geo.normals
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        self.face_length = np.hypot(*(b - a).T)
        self.face_midpoint = 0.5 * (a + b)

    # -- derived properties -----------------------------------------------

    @cached_property
    def cell_faces(self) -> list[np.ndarray]:
        """Faces of each cell aligned with its edges."""
        return np.split(self.edge_faces, self.cell_offsets[1:-1])

    @cached_property
    def cell_normals(self) -> list[np.ndarray]:
        """Outward unit normals of each cell, one per edge."""
        return np.split(self.edge_normals, self.cell_offsets[1:-1])

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def num_unknowns(self) -> int:
        """Total dof count 2|V| + |T| + |F| of the coupled scheme."""
        return 2 * self.num_vertices + self.num_cells + self.num_faces

    @property
    def boundary_mask(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    @property
    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.faces[self.boundary_mask].ravel()] = True
        return mask

    # -- local views --------------------------------------------------------

    def cell_polygon(self, k: int) -> np.ndarray:
        return self.vertices[self.cells[k]]

