"""Reference polygons and random polygon/tensor generators for the tests."""

import numpy as np

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


def reference_voronoi(n_cells, lloyd_iters, seed):
    """(vertices, cells) of the Lloyd-relaxed Voronoi mesh, with the CCW
    ordering and every Lloyd centroid computed one cell at a time."""
    from scipy.spatial import Voronoi

    from poromech.mesh.generators import _mirrored

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

    pts = np.random.default_rng(seed).random((n_cells, 2))
    for _ in range(lloyd_iters):
        vor = Voronoi(_mirrored(pts))
        pts = np.array([reference_area_centroid(vor.vertices[r])[1]
                        for r in regions_of(vor, len(pts))])
    vor = Voronoi(_mirrored(pts))
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
