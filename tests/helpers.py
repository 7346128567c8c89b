"""Reference polygons, random polygon/tensor generators and verification
oracles for the tests."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from poromech.solver import BREAKDOWN_TOL, KrylovReport, SolverError

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def random_convex_polygon(rng, n_verts, radius=1.0):
    """Strictly convex CCW polygon: points on a random ellipse, sorted by
    parameter angle (gap bounds avoid slivers and duplicate vertices)."""
    while True:
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_verts))
        gaps = np.diff(np.append(t, t[0] + 2.0 * np.pi))
        if gaps.min() > 0.05 and gaps.max() < 2.5:
            break
    phi = rng.uniform(0.0, np.pi)
    axes = rng.uniform(0.3, 1.0, 2) * radius
    rot = np.array([[np.cos(phi), -np.sin(phi)],
                    [np.sin(phi), np.cos(phi)]])
    circle = np.column_stack([np.cos(t), np.sin(t)])
    center = rng.uniform(-1.0, 1.0, 2)
    return center + circle @ np.diag(axes) @ rot.T


def random_spd_tensor(rng, cond_max=100.0):
    """Random 2x2 SPD tensor with bounded condition number."""
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c, -s], [s, c]])
    lo = rng.uniform(1e-2, 1.0)
    hi = lo * rng.uniform(1.0, cond_max)
    return q @ np.diag([lo, hi]) @ q.T


# ----- per-polygon reference implementations ---------------------------------
#
# The one-polygon-at-a-time code that the batched mesh set-up replaced.
# The tests compare the library against these.

def reference_area_centroid(verts):
    """Shoelace area and area centroid of one polygon."""
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return area, np.array([cx, cy])


def reference_quadrature(verts, centroid):
    """Fan triangulation from the centroid with the three-edge-midpoint
    rule on every triangle: 3 nv points, spoke midpoints stored twice."""
    nxt = np.roll(verts, -1, axis=0)
    pts, wts = [], []
    for a, b in zip(verts, nxt):
        tri = np.array([centroid, a, b])
        da, db = a - centroid, b - centroid
        area = 0.5 * abs(da[0] * db[1] - da[1] * db[0])
        pts.append(0.5 * (tri + np.roll(tri, -1, axis=0)))
        wts.append(np.full(3, area / 3.0))
    return np.vstack(pts), np.concatenate(wts)


def reference_faces(cells):
    """(faces, face_cells, cell_faces) by the dict loop over cell edges."""
    face_of, faces, face_cells, cell_faces = {}, [], [], []
    for k, cell in enumerate(cells):
        loc = []
        for a, b in zip(cell, np.roll(cell, -1)):
            key = (min(a, b), max(a, b))
            fi = face_of.get(key)
            if fi is None:
                fi = len(faces)
                face_of[key] = fi
                faces.append((a, b))
                face_cells.append([k, -1])
            else:
                assert face_cells[fi][1] == -1 and faces[fi] == (b, a)
                face_cells[fi][1] = k
            loc.append(fi)
        cell_faces.append(np.array(loc, dtype=int))
    return (np.array(faces, dtype=int), np.array(face_cells, dtype=int),
            cell_faces)


def reference_geometry(vertices, cells):
    """Per-cell area, centroid, diameter, edge lengths and outward unit
    normals, one polygon at a time."""
    area, centroid, diam, lengths, normals = [], [], [], [], []
    for cell in cells:
        verts = vertices[cell]
        a, c = reference_area_centroid(verts)
        area.append(a)
        centroid.append(c)
        diff = verts[:, None, :] - verts[None, :, :]
        diam.append(np.sqrt((diff ** 2).sum(axis=2)).max())
        tang = np.roll(verts, -1, axis=0) - verts
        length = np.hypot(tang[:, 0], tang[:, 1])
        lengths.append(length)
        normals.append(np.column_stack([tang[:, 1], -tang[:, 0]])
                       / length[:, None])
    return (np.array(area), np.array(centroid), np.array(diam), lengths,
            normals)


def four_edge_mirror(pts):
    """Generators plus their reflections across all four box edges: the
    construction that reflecting only the boundary generators replaced, the
    oracle it is compared with."""
    left = np.column_stack([-pts[:, 0], pts[:, 1]])
    right = np.column_stack([2.0 - pts[:, 0], pts[:, 1]])
    down = np.column_stack([pts[:, 0], -pts[:, 1]])
    up = np.column_stack([pts[:, 0], 2.0 - pts[:, 1]])
    return np.vstack([pts, left, right, down, up])


def reference_voronoi(n_cells, lloyd_iters, seed, points=None, reflect=None):
    """(vertices, cells) of the Lloyd-relaxed Voronoi mesh, with the CCW
    ordering and every Lloyd centroid computed one cell at a time.

    The generators are drawn as `build_voronoi` draws them, or given as
    `points`; `reflect` adds the mirror generators (default: the library's
    boundary-generator reflection)."""
    from scipy.spatial import Voronoi

    from poromech.mesh.generators import _reflected

    reflect = _reflected if reflect is None else reflect

    def regions_of(vor, n):
        out = []
        for i in range(n):
            region = np.asarray(vor.regions[vor.point_region[i]], dtype=int)
            assert region.min() >= 0 and region.size >= 3
            poly = vor.vertices[region]
            center = poly.mean(axis=0)
            ang = np.arctan2(poly[:, 1] - center[1], poly[:, 0] - center[0])
            out.append(region[np.argsort(ang)])
        return out

    pts = np.random.default_rng(seed).random((n_cells, 2)) \
        if points is None else np.asarray(points, dtype=float)
    for _ in range(lloyd_iters):
        vor = Voronoi(reflect(pts))
        pts = np.array([reference_area_centroid(vor.vertices[r])[1]
                        for r in regions_of(vor, len(pts))])
    vor = Voronoi(reflect(pts))
    regions = regions_of(vor, len(pts))
    used = sorted({v for r in regions for v in r})
    coords = vor.vertices[used]
    coords = np.where(np.abs(coords) < 1e-9, 0.0, coords)
    coords = np.where(np.abs(coords - 1.0) < 1e-9, 1.0, coords)
    _, first, inverse = np.unique(np.round(coords, 9), axis=0,
                                  return_index=True, return_inverse=True)
    remap = {old: int(inverse[i]) for i, old in enumerate(used)}
    vertices = coords[first]
    cells = []
    for region in regions:
        cell = []
        for v in region:
            nv = remap[v]
            if not cell or (nv != cell[-1] and nv != cell[0]):
                cell.append(nv)
        area = reference_area_centroid(vertices[cell])[0]
        cells.append(cell if area > 0 else cell[::-1])
    return vertices, cells


# ----- uncondensed four-field blocks -----------------------------------------

@dataclass
class FourFieldBlocks:
    """Uncondensed blocks of a DiscreteSystem, row order (u, w, p, pi):

        [ A_uu    0         -A_up     0     ] [u ]   [ b_u  ]
        [ 0       A_ww      -A_wp    -A_wpi ] [w ]   [ 0    ]
        [ A_up^T  dt A_wp^T  Abar_pp  0     ] [p ] = [ b_p  ]
        [ 0       A_wpi^T    0        0     ] [pi]   [ b_pi ]
    """
    a_uu: sp.csr_matrix
    a_ww: sp.csr_matrix
    a_wp: sp.csr_matrix
    a_wpi: sp.csr_matrix
    a_up: sp.csr_matrix
    abar_pp: sp.csr_matrix
    velocity_offsets: np.ndarray


def four_field_blocks(system) -> FourFieldBlocks:
    """Velocity-explicit blocks of a system, the oracle of its condensed
    matrix: eliminating w from them gives the solved system."""
    mesh = system.mesh
    n_w = system.velocity_offsets[-1]
    rows, cols, vals = [], [], []
    for ops in system.cell_ops:
        for edges, minv in zip(ops.group.edges, ops.minv):
            for i, row in enumerate(np.linalg.inv(minv)):
                rows += [edges[i]] * edges.size
                cols += list(edges)
                vals += list(row)
    a_ww = sp.csr_matrix((vals, (rows, cols)), shape=(n_w, n_w))
    edges = np.arange(n_w)
    fvec = mesh.face_length[mesh.edge_faces]
    a_wp = sp.csr_matrix((fvec, (edges, mesh.edge_cells)),
                         shape=(n_w, system.n_p))
    a_wpi = sp.csr_matrix((-fvec, (edges, mesh.edge_faces)),
                          shape=(n_w, system.n_pi))
    abar_pp = sp.csr_matrix(sp.diags(system.storage_diag))
    if system.j_mat is not None:
        abar_pp = sp.csr_matrix(abar_pp + system.j_mat)
    return FourFieldBlocks(a_uu=system.a_uu, a_ww=a_ww, a_wp=a_wp,
                           a_wpi=a_wpi, a_up=system.a_up, abar_pp=abar_pp,
                           velocity_offsets=system.velocity_offsets)


# ----- modified Gram-Schmidt GMRES -------------------------------------------

def mgs_gmres(matvec, b, rtol=1e-6, maxiter=500, precond=None):
    """The GMRES loop that the CGS2 one replaced, the oracle it is compared
    with: modified Gram-Schmidt with one reorthogonalization pass, one
    vector at a time, and Krylov storage for maxiter vectors."""
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), KrylovReport(True, 0, np.zeros(1))

    maxiter = min(maxiter, n)
    basis = np.zeros((maxiter + 1, n))
    precon = np.zeros((maxiter, n))
    hess = np.zeros((maxiter + 1, maxiter))
    givens = np.zeros((maxiter, 2))
    g = np.zeros(maxiter + 1)

    basis[0] = b / norm_b
    g[0] = norm_b
    residuals = [norm_b]
    k = 0
    converged = False
    for j in range(maxiter):
        z = precond(basis[j]) if precond is not None else basis[j]
        precon[j] = z
        w = np.asarray(matvec(z), dtype=float)
        scale = max(float(np.linalg.norm(w)), 1.0)
        for _ in range(2):
            for i in range(j + 1):
                hij = float(basis[i] @ w)
                hess[i, j] += hij
                w -= hij * basis[i]
        h_next = float(np.linalg.norm(w))
        hess[j + 1, j] = h_next

        for i in range(j):
            c, s = givens[i]
            hi, hi1 = hess[i, j], hess[i + 1, j]
            hess[i, j] = c * hi + s * hi1
            hess[i + 1, j] = -s * hi + c * hi1
        denom = np.hypot(hess[j, j], hess[j + 1, j])
        if denom == 0.0:
            raise SolverError(f"GMRES breakdown at iteration {j + 1} with "
                              f"a singular projected system")
        c, s = hess[j, j] / denom, hess[j + 1, j] / denom
        givens[j] = (c, s)
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]

        k = j + 1
        residuals.append(abs(float(g[j + 1])))
        if residuals[-1] <= rtol * norm_b:
            converged = True
            break
        if h_next <= BREAKDOWN_TOL * scale:
            raise SolverError(f"GMRES breakdown at iteration {k} with "
                              f"relative residual {residuals[-1] / norm_b:.3e}")
        basis[j + 1] = w / h_next

    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - hess[i, i + 1:k] @ y[i + 1:k]) / hess[i, i]
    x = precon[:k].T @ y
    return x, KrylovReport(converged, k, np.asarray(residuals))
