"""Per-cell virtual element operators: projector, means, stiffness,
divergence, all read from the vem_cell record."""

import numpy as np
import pytest

from poromech import vem
from poromech.mesh import build_cartesian
from poromech.mesh.core import polygon_area_centroid, polygon_diameter, \
    polygon_edge_geometry, polygon_geometry

from helpers import RIGHT_TRIANGLE, UNIT_SQUARE, random_convex_polygon

RNG = np.random.default_rng(20240817)


def cell(verts, shear=1.0, lam=1.0):
    return vem.vem_cell(polygon_geometry(verts), shear, lam)


def reference_projector(verts):
    """Independent dense solve of the defining equations: boundary-mean
    matching plus gradient matching via boundary integrals (trapezoid rule,
    exact for the edge-linear traces involved)."""
    nv = len(verts)
    area, centroid = polygon_area_centroid(verts)
    diam = polygon_diameter(verts)
    lengths, _, normals = polygon_edge_geometry(verts)
    mono = np.column_stack([np.ones(nv),
                            (verts[:, 0] - centroid[0]) / diam,
                            (verts[:, 1] - centroid[1]) / diam])

    lhs = np.zeros((3, 3))
    rhs = np.zeros((3, nv))
    # row 0: int_{dK} p ds = int_{dK} eta ds
    for e in range(nv):
        a, b = e, (e + 1) % nv
        lhs[0] += 0.5 * lengths[e] * (mono[a] + mono[b])
        rhs[0, a] += 0.5 * lengths[e]
        rhs[0, b] += 0.5 * lengths[e]
    # rows 1, 2: (grad p, grad m_j)_K = int_{dK} eta (n . grad m_j) ds
    lhs[1, 1] = lhs[2, 2] = area / diam**2
    for e in range(nv):
        a, b = e, (e + 1) % nv
        for j, comp in ((1, 0), (2, 1)):
            w = 0.5 * lengths[e] * normals[e, comp] / diam
            rhs[j, a] += w
            rhs[j, b] += w
    return np.linalg.solve(lhs, rhs)


# ----- projector ---------------------------------------------------------------

def test_projector_matches_defining_equations():
    for n_verts in (3, 4, 5, 6, 8, 10):
        verts = random_convex_polygon(RNG, n_verts)
        assert cell(verts).proj == pytest.approx(
            reference_projector(verts), abs=1e-12)


def test_projector_reproduces_linears():
    for n_verts in (3, 4, 6, 9):
        verts = random_convex_polygon(RNG, n_verts)
        coef = RNG.uniform(-2.0, 2.0, 3)
        vals = coef[0] + verts @ coef[1:]
        projected = cell(verts).mono @ (
            cell(verts).proj @ vals)
        assert projected == pytest.approx(vals, abs=1e-12)


def test_projector_constant_on_unit_square():
    coeffs = cell(UNIT_SQUARE).proj @ np.ones(4)
    assert coeffs == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_monomial_invariants():
    for n_verts in (3, 5, 8):
        verts = random_convex_polygon(RNG, n_verts)
        mono = cell(verts).mono
        _, centroid = polygon_area_centroid(verts)
        diam = polygon_diameter(verts)
        assert mono[:, 0] == pytest.approx(np.ones(n_verts))
        assert mono[:, 1] == pytest.approx(
            (verts[:, 0] - centroid[0]) / diam)
        assert np.abs(mono[:, 1:]).max() <= 1.0 + 1e-12


# ----- cell means ----------------------------------------------------------------

def test_mean_operators_on_unit_square():
    x_vals = UNIT_SQUARE[:, 0]
    assert cell(UNIT_SQUARE).mean_row @ x_vals == \
        pytest.approx(0.5, abs=1e-14)
    assert cell(UNIT_SQUARE).grad @ x_vals == \
        pytest.approx([1.0, 0.0], abs=1e-14)
    # vertex values (0, 1, 1, 0) interpolate x on the square
    assert cell(UNIT_SQUARE).grad @ np.array([0, 1, 1, 0.0]) == \
        pytest.approx([1.0, 0.0], abs=1e-14)
    const = 3.25 * np.ones(4)
    assert cell(UNIT_SQUARE).mean_row @ const == \
        pytest.approx(3.25, abs=1e-14)
    assert cell(UNIT_SQUARE).grad @ const == \
        pytest.approx([0.0, 0.0], abs=1e-14)


def test_mean_row_partition_of_unity():
    for n_verts in (3, 4, 7, 10):
        verts = random_convex_polygon(RNG, n_verts)
        assert cell(verts).mean_row.sum() == pytest.approx(1.0,
                                                                abs=1e-12)
        # exactness on linears: mean of x is the centroid abscissa
        _, centroid = polygon_area_centroid(verts)
        assert cell(verts).mean_row @ verts[:, 0] == \
            pytest.approx(centroid[0], abs=1e-12)


def test_mean_row_of_unit_square_is_uniform():
    assert cell(UNIT_SQUARE).mean_row == pytest.approx(
        np.full(4, 0.25), abs=1e-14)


def test_triangle_mean_row_sums_to_one():
    row = cell(RIGHT_TRIANGLE).mean_row
    assert row.sum() == pytest.approx(1.0, abs=1e-14)


# ----- stiffness -------------------------------------------------------------------

def interleave(ux, uy):
    dofs = np.empty(2 * len(ux))
    dofs[0::2] = ux
    dofs[1::2] = uy
    return dofs


def linear_dofs(verts, amat, shift=(0.0, 0.0)):
    vals = verts @ amat.T + shift
    return interleave(vals[:, 0], vals[:, 1])


def exact_energy(amat, bmat, shear, lam, area):
    eps_a = 0.5 * (amat + amat.T)
    eps_b = 0.5 * (bmat + bmat.T)
    sigma = 2.0 * shear * eps_a + lam * np.trace(eps_a) * np.eye(2)
    return area * np.tensordot(sigma, eps_b)


def test_stiffness_kernel_is_rigid_modes():
    for n_verts in (3, 4, 6, 9):
        verts = random_convex_polygon(RNG, n_verts)
        k_a = cell(verts, shear=1.3, lam=0.7).stiffness
        assert k_a == pytest.approx(k_a.T, abs=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(k_a))
        norm = abs(eigs[-1])
        assert np.all(np.abs(eigs[:3]) < 1e-10 * norm)
        assert eigs[3] > 1e-10 * norm
        # explicit rigid modes: translations and the rotation about x_K
        _, centroid = polygon_area_centroid(verts)
        rot = interleave(-(verts[:, 1] - centroid[1]),
                         verts[:, 0] - centroid[0])
        for mode in (interleave(np.ones(n_verts), np.zeros(n_verts)),
                     interleave(np.zeros(n_verts), np.ones(n_verts)), rot):
            assert k_a @ mode == pytest.approx(np.zeros(2 * n_verts),
                                               abs=1e-10 * norm)


def test_stiffness_exact_on_linear_pairs():
    for n_verts in (3, 4, 5, 8):
        verts = random_convex_polygon(RNG, n_verts)
        area, _ = polygon_area_centroid(verts)
        shear, lam = 2.1, 3.4
        k_a = cell(verts, shear, lam).stiffness
        amat = RNG.uniform(-1.0, 1.0, (2, 2))
        bmat = RNG.uniform(-1.0, 1.0, (2, 2))
        energy = linear_dofs(verts, amat) @ k_a @ linear_dofs(verts, bmat)
        assert energy == pytest.approx(
            exact_energy(amat, bmat, shear, lam, area), rel=1e-12)


def test_hourglass_energy_on_unit_square():
    hg = interleave(np.array([1.0, -1.0, 1.0, -1.0]), np.zeros(4))
    k_a = cell(UNIT_SQUARE, shear=1.0, lam=1.0).stiffness
    # the mean gradient of the hourglass mode vanishes: pure stability
    assert cell(UNIT_SQUARE).grad @ hg[0::2] == \
        pytest.approx([0.0, 0.0], abs=1e-14)
    assert hg @ k_a @ hg == pytest.approx(8.0, rel=1e-12)
    # energy scales with the shear modulus only
    k_b = cell(UNIT_SQUARE, shear=2.5, lam=9.0).stiffness
    assert hg @ k_b @ hg == pytest.approx(20.0, rel=1e-12)


def test_stability_ignores_linear_interpolants():
    for n_verts in (4, 6):
        verts = random_convex_polygon(RNG, n_verts)
        coef = RNG.uniform(-1.0, 1.0, 3)
        vals = coef[0] + verts @ coef[1:]
        resid = vals - cell(verts).mono @ (
            cell(verts).proj @ vals)
        assert resid == pytest.approx(np.zeros(n_verts), abs=1e-12)


# ----- divergence ------------------------------------------------------------------

def test_divergence_examples():
    for n_verts in (3, 4, 6, 8):
        verts = random_convex_polygon(RNG, n_verts)
        div = cell(verts).div_row
        assert div @ linear_dofs(verts, np.eye(2)) == \
            pytest.approx(2.0, rel=1e-12)
        assert div @ linear_dofs(verts, np.zeros((2, 2)), (0.7, -1.2)) == \
            pytest.approx(0.0, abs=1e-12)


def test_divergence_of_quadratic_interpolant():
    dofs = interleave(UNIT_SQUARE[:, 0] ** 2, np.zeros(4))
    assert cell(UNIT_SQUARE).div_row @ dofs == \
        pytest.approx(1.0, rel=1e-13)


# ----- mean strain and stress --------------------------------------------------------

def test_mean_strain_and_stress_on_linear_fields():
    verts = random_convex_polygon(RNG, 6)
    amat = RNG.uniform(-1.0, 1.0, (2, 2))
    shear, lam = 1.9, 4.2
    dofs = linear_dofs(verts, amat, (0.3, 0.4))
    eps = 0.5 * (amat + amat.T)
    grad = cell(verts).grad
    # gmat[i, j] = mean of d u_i / d x_j
    gmat = np.vstack([grad @ dofs[0::2], grad @ dofs[1::2]])
    strain = 0.5 * (gmat + gmat.T)
    assert strain == pytest.approx(eps, abs=1e-12)
    sigma = 2.0 * shear * eps + lam * np.trace(eps) * np.eye(2)
    stress = 2.0 * shear * strain + lam * np.trace(strain) * np.eye(2)
    assert stress == pytest.approx(sigma, abs=1e-12)


# ----- patch test ------------------------------------------------------------------

def test_patch_reproduces_linear_displacement():
    """Mechanics-only solve on a 2x2 grid with linear Dirichlet data."""
    mesh = build_cartesian(2, 2)
    n_u = 2 * mesh.num_vertices
    k_glob = np.zeros((n_u, n_u))
    for k in range(mesh.num_cells):
        cell = mesh.cells[k]
        dofs = np.empty(2 * cell.size, dtype=int)
        dofs[0::2] = 2 * cell
        dofs[1::2] = 2 * cell + 1
        k_glob[np.ix_(dofs, dofs)] += vem.vem_cell(
            polygon_geometry(mesh.cell_polygon(k)), shear=1.0,
            lam=10.0).stiffness
    amat = np.array([[0.3, -0.8], [1.1, 0.5]])
    exact = linear_dofs(mesh.vertices, amat, (0.1, -0.2))
    on_boundary = mesh.boundary_vertex_mask
    fixed = np.sort(np.concatenate([2 * np.flatnonzero(on_boundary),
                                    2 * np.flatnonzero(on_boundary) + 1]))
    free = np.setdiff1d(np.arange(n_u), fixed)
    sol = exact.copy()
    sol[free] = np.linalg.solve(k_glob[np.ix_(free, free)],
                                -k_glob[np.ix_(free, fixed)] @ exact[fixed])
    assert sol == pytest.approx(exact, rel=1e-12, abs=1e-12)
