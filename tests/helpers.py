"""Reference polygons, random polygon/tensor generators and verification
oracles for the tests."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from poromech.mesh import PolyMesh, build_cartesian
from poromech.assembly import Material
from poromech.mesh.core import (polygon_area_centroid, polygon_diameter,
                                polygon_edge_geometry)
from poromech.solver import BREAKDOWN_TOL, KrylovReport, SolverError
from poromech.vem import VemCell

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _polygon_angles(rng, n_verts):
    """Sorted random angles; gap bounds avoid slivers and duplicate
    vertices."""
    while True:
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_verts))
        gaps = np.diff(np.append(t, t[0] + 2.0 * np.pi))
        if gaps.min() > 0.05 and gaps.max() < 2.5:
            return t


def random_convex_polygon(rng, n_verts, radius=1.0):
    """Strictly convex CCW polygon: points on a random ellipse, sorted by
    parameter angle."""
    t = _polygon_angles(rng, n_verts)
    phi = rng.uniform(0.0, np.pi)
    axes = rng.uniform(0.3, 1.0, 2) * radius
    rot = np.array([[np.cos(phi), -np.sin(phi)],
                    [np.sin(phi), np.cos(phi)]])
    circle = np.column_stack([np.cos(t), np.sin(t)])
    center = rng.uniform(-1.0, 1.0, 2)
    return center + circle @ np.diag(axes) @ rot.T


def random_star_polygon(rng, n_verts):
    """Simple CCW polygon, star-shaped around a random center: sorted
    angles with random radii in (0.15, 1), mostly non-convex; its centroid
    can lie outside its kernel."""
    t = _polygon_angles(rng, n_verts)
    radii = rng.uniform(0.15, 1.0, n_verts)
    center = rng.uniform(-1.0, 1.0, 2)
    return center + radii[:, None] * np.column_stack([np.cos(t), np.sin(t)])


def random_u_polygon(rng):
    """CCW U-shaped octagon under a random rotation, scaling and shift:
    a deep notch from the top puts its centroid outside the polygon, so
    some fan triangles from the centroid are clockwise."""
    width, height = rng.uniform(0.5, 2.0, 2)
    left, right = rng.uniform(0.08, 0.2, 2) * width
    floor = rng.uniform(0.05, 0.15) * height
    verts = np.array([[0.0, 0.0], [width, 0.0], [width, height],
                      [width - right, height], [width - right, floor],
                      [left, floor], [left, height], [0.0, height]])
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)],
                    [np.sin(phi), np.cos(phi)]])
    return rng.uniform(-1.0, 1.0, 2) + verts @ rot.T


def polygon_moments(verts):
    """Exact integrals of 1, x, y, x^2, x y, y^2 over a simple CCW polygon
    by Green's theorem, summed edge by edge."""
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    return np.array([cross.sum() / 2.0,
                     ((x + xn) * cross).sum() / 6.0,
                     ((y + yn) * cross).sum() / 6.0,
                     ((x * x + x * xn + xn * xn) * cross).sum() / 12.0,
                     ((x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y)
                      * cross).sum() / 24.0,
                     ((y * y + y * yn + yn * yn) * cross).sum() / 12.0])


def dart_mesh(n, amp):
    """build_cartesian(n, n) with every interior vertex (i, j) with i + j
    even moved by amp h along (1, 1).  For amp > 1/2 the cells around a
    moved vertex are darts, quadrilaterals with one reflex vertex; at
    amp = 0.8 the centroid of such a cell no longer sees its whole
    boundary."""
    mesh = build_cartesian(n, n)
    j, i = np.divmod(np.arange(mesh.num_vertices), n + 1)
    moved = ~mesh.boundary_vertex_mask & ((i + j) % 2 == 0)
    vertices = mesh.vertices.copy()
    vertices[moved] += amp / n
    return PolyMesh(vertices, mesh.cells)


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


def ccw_around_mean(region, coords):
    """Vertex indices of one region ordered counterclockwise around the mean
    of its distinct vertices: sorted by angle around the mean of all of
    them, a vertex within VERTEX_MERGE of its predecessor is a repeat."""
    from poromech.mesh.generators import VERTEX_MERGE

    def around(region, mean):
        rel = coords[region] - mean
        return region[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]

    region = around(region, coords[region].mean(axis=0))
    poly = coords[region]
    distinct = [np.abs(poly[j] - poly[j - 1]).max() > VERTEX_MERGE
                for j in range(len(poly))]
    if all(distinct) or not any(distinct):
        return region
    return around(region, poly[distinct].mean(axis=0))


def scipy_voronoi_cells(reflect):
    """Cells from the regions of scipy's Voronoi diagram of reflect(pts);
    the interface of `clipped_cells_by_generator`, with no candidates,
    since reflect picks the mirrors itself."""
    from scipy.spatial import Voronoi

    def cells(pts, candidates):
        vor = Voronoi(reflect(pts))
        regions = []
        for i in range(len(pts)):
            region = np.asarray(vor.regions[vor.point_region[i]], dtype=int)
            assert region.min() >= 0 and region.size >= 3
            regions.append(ccw_around_mean(region, vor.vertices))
        return vor.vertices, regions, np.zeros(len(pts), dtype=bool)
    return cells


def clipped_cells_by_generator(pts, candidates):
    """The library's checked Delaunay pass, one triangle and one generator at
    a time: (Voronoi vertices, CCW regions, next step's candidates)."""
    from scipy.spatial import Delaunay, QhullError

    from poromech.mesh.generators import BOX_MARGIN

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
            assert not candidates.all()
            candidates = np.ones(n, dtype=bool)
            continue
        centres, incident = [], [[] for _ in range(n)]
        for simplex in tri.simplices:
            if simplex.min() >= n:
                continue
            a, b, c = points[simplex]
            b, c = b - a, c - a
            det = 2.0 * (b[0] * c[1] - b[1] * c[0])
            bb, cc = b[0] * b[0] + b[1] * b[1], c[0] * c[0] + c[1] * c[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                centres.append(a + np.array([c[1] * bb - b[1] * cc,
                                             b[0] * cc - c[0] * bb]) / det)
            for v in simplex[simplex < n]:
                incident[v].append(len(centres) - 1)
        centres = np.array(centres)
        hull = set(tri.convex_hull.ravel().tolist())
        reaches = np.array([any(not np.all((centres[t] > BOX_MARGIN)
                                           & (centres[t] < 1.0 - BOX_MARGIN))
                                for t in incident[i])
                            for i in range(n)])
        missed = [i for i in range(n) if not candidates[i]
                  and (reaches[i] or i in hull)]
        if not missed:
            break
        candidates = candidates.copy()
        candidates[missed] = True
    regions = [ccw_around_mean(np.array(incident[i]), centres)
               for i in range(n)]
    return centres, regions, reaches


def reference_voronoi(n_cells, lloyd_iters, seed, points=None, reflect=None):
    """(vertices, cells) of the Lloyd-relaxed Voronoi mesh, with the CCW
    ordering, every Lloyd centroid and the vertex merge computed one cell at
    a time.

    The generators are drawn as `build_voronoi` draws them, or given as
    `points`.  With `reflect` (a function adding mirror generators) the
    cells are the regions of scipy's Voronoi diagram of the mirrored set;
    without it, they come from the library's construction redone generator
    by generator."""
    cells_of = clipped_cells_by_generator if reflect is None \
        else scipy_voronoi_cells(reflect)
    pts = np.random.default_rng(seed).random((n_cells, 2)) \
        if points is None else np.asarray(points, dtype=float)
    candidates = np.zeros(len(pts), dtype=bool)
    for _ in range(lloyd_iters):
        coords, regions, reaches = cells_of(pts, candidates)
        pts = np.array([reference_area_centroid(coords[r])[1]
                        for r in regions])
        near = [min(p.min(), 1.0 - p.max()) < 1.0 / np.sqrt(len(pts))
                for p in pts]
        candidates = reaches | np.array(near)
    coords, regions, _ = cells_of(pts, candidates)
    used = sorted({v for r in regions for v in r})
    coords = coords[used]
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


# ----- vertices-in local operators -------------------------------------------
#
# The per-cell VEM and mimetic kernels as they were when they computed the
# cell geometry from the vertices themselves: the oracles of the kernels
# that read a CellGeometry record.

def reference_vem_cell(verts: np.ndarray, shear: float,
                       lam: float) -> VemCell:
    """All VEM operators of one counterclockwise polygon."""
    verts = np.asarray(verts, dtype=float)
    area, centroid = polygon_area_centroid(verts)
    diam = polygon_diameter(verts)
    lengths, _, normals = polygon_edge_geometry(verts)
    nv = len(verts)
    mono = np.column_stack([np.ones(nv), (verts - centroid) / diam])

    prv = np.arange(-1, nv - 1)
    nxt = np.arange(1, nv + 1) % nv
    b_mono = (lengths[:, None] * (2.0 * mono + mono[nxt])
              + lengths[prv, None] * (2.0 * mono + mono[prv])) / 6.0
    edge_flux = 0.5 * lengths[:, None] * normals
    b_flux = edge_flux + edge_flux[prv]

    perimeter = lengths.sum()
    lhs = np.zeros((3, 3))
    lhs[0, :] = b_mono.sum(axis=0) / perimeter
    lhs[1, 1] = lhs[2, 2] = area / diam ** 2
    rhs = np.vstack([b_mono[:, 0] / perimeter, b_flux.T / diam])
    proj = np.linalg.solve(lhs, rhs)
    grad = b_flux.T / area

    strain = np.zeros((3, 2 * nv))           # (e_xx, e_yy, 2 e_xy)
    strain[0, 0::2] = grad[0]
    strain[1, 1::2] = grad[1]
    strain[2, 0::2] = grad[1]
    strain[2, 1::2] = grad[0]
    dmat = np.array([[2.0 * shear + lam, lam, 0.0],
                     [lam, 2.0 * shear + lam, 0.0],
                     [0.0, 0.0, shear]])
    resid = np.eye(nv) - mono @ proj
    k_stab = 2.0 * shear * (resid.T @ resid)
    stiffness = area * strain.T @ dmat @ strain
    stiffness[0::2, 0::2] += k_stab
    stiffness[1::2, 1::2] += k_stab
    return VemCell(proj=proj, mono=mono, grad=grad, stiffness=stiffness)


def kappa_tensor(kappa) -> np.ndarray:
    """The checked 2x2 permeability tensor that a Material stores."""
    return Material(shear=1.0, lam=1.0, kappa=kappa).kappa


def _reference_face_geometry(verts: np.ndarray):
    verts = np.asarray(verts, dtype=float)
    area, centroid = polygon_area_centroid(verts)
    lengths, midpoints, normals = polygon_edge_geometry(verts)
    cvec = midpoints - centroid
    return area, lengths, normals, cvec


def reference_inner_product(verts: np.ndarray, kappa) -> np.ndarray:
    """Mimetic velocity inner product M_K (m, m)."""
    kt = kappa_tensor(kappa)
    area, lengths, normals, cvec = _reference_face_geometry(verts)
    nmat = normals @ kt
    rmat = lengths[:, None] * cvec
    core = rmat @ np.linalg.solve(kt, rmat.T)
    gamma = np.trace(core) / (len(lengths) * area)
    proj = nmat @ np.linalg.solve(nmat.T @ nmat, nmat.T)
    return core / area + gamma * (np.eye(len(lengths)) - proj)


def reference_inner_product_tpfa(verts: np.ndarray, kappa) -> np.ndarray:
    """Diagonal two-point variant, entries |f| ||c||^2 / (n . kappa c)."""
    kt = kappa_tensor(kappa)
    _, lengths, normals, cvec = _reference_face_geometry(verts)
    denom = np.einsum("fi,ij,fj->f", normals, kt, cvec)
    if np.any(denom <= 0.0):
        raise ValueError("two-point inner product needs n . kappa c > 0 "
                         "(cell not star-shaped around its centroid?)")
    return np.diag(lengths * (cvec ** 2).sum(axis=1) / denom)


def k_orthogonality_defect(mesh: PolyMesh, kappa) -> float:
    """Largest angular defect between kappa * n_{K,f} and c_{K,f}.

    Zero for kappa-orthogonal meshes, where the two-point flux variant of the
    flow inner product is consistent.
    """
    kt = kappa_tensor(kappa)
    geo = [group.geometry for group in mesh.cell_groups]
    kn = np.concatenate([g.normals.reshape(-1, 2) for g in geo]) @ kt.T
    c = np.concatenate([g.face_vectors.reshape(-1, 2) for g in geo])
    cross = np.abs(kn[:, 0] * c[:, 1] - kn[:, 1] * c[:, 0])
    scale = np.hypot(kn[:, 0], kn[:, 1]) * np.hypot(c[:, 0], c[:, 1])
    return float((cross / scale).max())


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
    for group, minv_group in zip(mesh.cell_groups, system.velocity_inverse):
        for edges, minv in zip(group.edges, minv_group):
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

def mgs_gmres(matvec, b, rtol=1e-6, maxiter=500, precond=None,
              storage=None):
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
