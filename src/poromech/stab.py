"""Macro-element pressure-jump stabilization for equal-order cellwise
pressures.

A macro-element partition groups cells so that pressure jumps across faces
internal to a macro-element can be penalized without losing mass
conservation at the macro-element level: the jump term telescopes, so the
net flux over each macro-element boundary is untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh.core import MeshError, PolyMesh


@dataclass
class MacroPartition:
    """Disjoint cover of the cells by macro-elements."""
    cell_macro: np.ndarray          # (nt,) macro id of each cell
    macros: list[np.ndarray]        # cell ids of each macro-element

    @property
    def num_macros(self) -> int:
        return len(self.macros)


def build_macro_elements(mesh: PolyMesh) -> MacroPartition:
    """Two-step greedy macro-element partition.

    Step 1 sweeps the internal vertices in ascending index; every vertex not
    yet covered seeds a macro-element made of its adjacent cells, and all
    vertices of those cells become covered. Step 2 assigns leftover cells
    with a FIFO queue in ascending cell index: a cell face-adjacent to at
    least one macro-element joins the neighboring macro-element with the
    fewest cells (ties to the lowest macro id); otherwise it is requeued.
    """
    nt = mesh.num_cells
    internal = np.flatnonzero(~mesh.boundary_vertex_mask)
    if internal.size == 0:
        raise MeshError("mesh has no internal vertices; macro-element "
                        "partition is impossible")
    cells_of_vertex = mesh.cells_of_vertex()
    cell_macro = np.full(nt, -1, dtype=int)
    macros: list[list[int]] = []

    visited = np.zeros(mesh.num_vertices, dtype=bool)
    for v in internal:
        if visited[v]:
            continue
        members = cells_of_vertex[v]
        macro_id = len(macros)
        macros.append(list(members))
        for k in members:
            cell_macro[k] = macro_id
            visited[mesh.cells[k]] = True

    neighbors = mesh.face_neighbors()
    queue = deque(int(k) for k in range(nt) if cell_macro[k] < 0)
    stall = 0
    while queue:
        k = queue.popleft()
        adjacent = {int(cell_macro[n]) for n in neighbors[k]
                    if cell_macro[n] >= 0}
        if adjacent:
            macro_id = min(adjacent, key=lambda m: (len(macros[m]), m))
            macros[macro_id].append(k)
            cell_macro[k] = macro_id
            stall = 0
        else:
            queue.append(k)
            stall += 1
            if stall > len(queue):
                raise MeshError("macro-element assignment stalled; cell "
                                f"{k} is not connected to any macro-element")
    return MacroPartition(cell_macro=cell_macro,
                          macros=[np.array(sorted(m), dtype=int)
                                  for m in macros])


def corner_areas(mesh: PolyMesh) -> np.ndarray:
    """Area m_{K,v} of the quadrilateral spanned by vertex v of cell K, the
    midpoints of the two faces of K meeting at v, and the centroid of K.

    One entry per cell-vertex pair, in the order of
    np.concatenate(mesh.cells).
    """
    nxt = mesh.edge_next
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(nxt.size)
    verts = mesh.vertices[mesh.edge_vertices]
    # Shoelace formula relative to v, which avoids cancellation between
    # products of absolute coordinates.
    to_next = 0.5 * (verts[nxt] - verts)
    to_prev = 0.5 * (verts[prv] - verts)
    to_centroid = mesh.cell_centroid[mesh.edge_cells] - verts
    return 0.5 * np.abs(_cross(to_next, to_centroid)
                        + _cross(to_centroid, to_prev))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def upsilon_weights(mesh: PolyMesh) -> np.ndarray:
    """Jump weights Upsilon_f, (nf,), zero on boundary faces.

    Upsilon_f sums the corner-quadrilateral areas m_{K,v} over both adjacent
    cells and both face endpoints; on a uniform h-by-h Cartesian grid every
    interior face gets h^2.
    """
    areas = corner_areas(mesh)
    # Edge i of a cell runs from its vertex i to vertex i + 1.
    ups = np.bincount(mesh.edge_faces, areas + areas[mesh.edge_next],
                      minlength=mesh.num_faces)
    ups[mesh.boundary_mask] = 0.0
    return ups


def beta_coefficient(shear: float, lam: float, alpha: float = 1.0) -> float:
    """Stabilization magnitude beta = alpha^2 / (4 (2 G + lambda))."""
    return alpha ** 2 / (4.0 * (2.0 * shear + lam))


def assemble_jump_matrix(mesh: PolyMesh, partition: MacroPartition,
                         beta: float) -> sp.csr_matrix:
    """Pressure-jump penalty J, (nt, nt): beta sum over faces internal to a
    macro-element of Upsilon_f [[p]]_f [[chi]]_f."""
    interior = np.flatnonzero(~mesh.boundary_mask)
    ka, kb = mesh.face_cells[interior].T
    same = partition.cell_macro[ka] == partition.cell_macro[kb]
    ka, kb = ka[same], kb[same]
    w = beta * upsilon_weights(mesh)[interior[same]]
    return sp.csr_matrix(
        (np.concatenate([w, -w, -w, w]),
         (np.concatenate([ka, ka, kb, kb]), np.concatenate([ka, kb, ka, kb]))),
        shape=(mesh.num_cells, mesh.num_cells))


def checkerboard_indicator(mesh: PolyMesh, p: np.ndarray) -> float:
    """Scale-free roughness measure of a cellwise pressure field.

    Sum over all interior faces of Upsilon_f [[p]]_f^2, normalized by the
    volume-weighted mean square of p. Near zero for smooth fields, order one
    for checkerboard modes.
    """
    p = np.asarray(p, dtype=float)
    denom = float(mesh.cell_area @ (p ** 2))
    if denom == 0.0:
        return 0.0
    ups = upsilon_weights(mesh)
    interior = np.flatnonzero(~mesh.boundary_mask)
    ka = mesh.face_cells[interior, 0]
    kb = mesh.face_cells[interior, 1]
    jumps = p[ka] - p[kb]
    return float((ups[interior] * jumps ** 2).sum() / denom)
