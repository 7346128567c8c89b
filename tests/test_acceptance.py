"""End-to-end acceptance gate.

Nine numbered criteria cover the whole pipeline: mesh reproduction, both
patch tests, local-operator invariants on random polygons, the condensation
oracle, manufactured-solution convergence in space and time, the Mandel
benchmark, the pressure-jump stabilization study, iterative solver
robustness, and the two-point flux equivalence.  Each test prints a single
CRITERION line with the measured numbers (run with -s to see them all) and
then asserts the stated tolerances.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from poromech import mfd, vem
from poromech.assembly import BoundaryConditions, DiscreteSystem, Material
from poromech.mesh import build_cartesian, build_voronoi, polygon_geometry
from poromech.problems import mandel
from poromech.problems.studies import (convergence_study, family_mesh,
                                       observed_rates, solver_study,
                                       stabilization_study,
                                       time_refinement_study)

from helpers import random_convex_polygon, random_spd_tensor
from test_assembly import dense_four_field_solve, mixed_problem


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ----- 1: mesh and problem sizes ------------------------------------------------

def test_criterion_1_mesh_counts():
    t0 = time.perf_counter()
    got = []
    for n in (10, 20):
        m = build_cartesian(n, n)
        got.append((m.num_vertices, m.num_cells, m.num_faces,
                    m.num_unknowns))
    vor = build_voronoi(100, 20, seed=0)
    elapsed = time.perf_counter() - t0
    exact = got == [(121, 100, 220, 562), (441, 400, 840, 2122)]
    vor_ok = (vor.num_cells == 100
              and abs(vor.num_vertices - 202) <= 0.02 * 202
              and abs(vor.num_faces - 301) <= 0.02 * 301)
    ok = exact and vor_ok and elapsed < 1.0
    assert report(1, ok,
                  f"cartesian {got[0]} {got[1]}, voronoi "
                  f"{vor.num_vertices}/{vor.num_cells}/{vor.num_faces}, "
                  f"{elapsed:.2f}s")


# ----- 2: patch tests -----------------------------------------------------------

def vem_patch_error(mesh, grad, shift, shear, lam):
    """Solve pure elasticity with boundary vertices clamped to a linear
    field; interior vertices must reproduce it to round-off."""
    n_dof = 2 * mesh.num_vertices
    acc = sp.lil_matrix((n_dof, n_dof))
    for k in range(mesh.num_cells):
        ids = mesh.cells[k]
        cell = vem.vem_cell(polygon_geometry(mesh.vertices[ids]), shear, lam)
        dofs = np.column_stack([2 * ids, 2 * ids + 1]).ravel()
        acc[np.ix_(dofs, dofs)] += cell.stiffness
    u_exact = (mesh.vertices @ grad.T + shift).ravel()
    boundary_v = np.unique(mesh.faces[mesh.boundary_mask].ravel())
    fixed = np.column_stack([2 * boundary_v, 2 * boundary_v + 1]).ravel()
    free = np.setdiff1d(np.arange(n_dof), fixed)
    a = sp.csc_matrix(acc)
    u = u_exact.copy()
    u[free] = spla.spsolve(a[free][:, free],
                           -a[free][:, fixed] @ u_exact[fixed])
    return np.abs(u - u_exact).max()


def test_criterion_2_patch_tests():
    grad = np.array([[0.3, -0.2], [0.1, 0.4]])
    shift = np.array([0.05, -0.02])
    worst_vem = 0.0
    for family in ("cartesian", "skewed", "hybrid", "voronoi"):
        mesh = family_mesh(family, 10)
        worst_vem = max(worst_vem,
                        vem_patch_error(mesh, grad, shift, 1.3, 2.7))

    # steady Darcy: linear pressure, constant velocity, orthogonal grid
    kappa = np.diag([2.0, 1.0])
    p_bar = lambda x: 1.5 * x[..., 0] - 0.7 * x[..., 1] + 0.3
    v_bar = -kappa @ np.array([1.5, -0.7])
    mesh = build_cartesian(10, 10)
    mesh.tag_boundary(pressure=lambda x: True)
    material = Material(shear=1.0, lam=1.0, alpha=0.0, storage=0.0,
                        kappa=kappa)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))],
        pressure=lambda x, t: p_bar(x))
    system = DiscreteSystem(mesh, material, bcs, dt=1.0)
    state = system.step(system.initial_state(p0=0.0))
    e_p = np.abs(state.p - p_bar(mesh.cell_centroid)).max()
    e_pi = np.abs(state.pi - p_bar(mesh.face_midpoint)).max()
    w = system.recover_velocity(state)
    e_w = 0.0
    for k in range(mesh.num_cells):
        sl = slice(system.velocity_offsets[k],
                   system.velocity_offsets[k + 1])
        e_w = max(e_w, np.abs(w[sl] - mesh.cell_normals[k] @ v_bar).max())

    ok = worst_vem < 1e-10 and max(e_p, e_pi, e_w) < 1e-10
    assert report(2, ok,
                  f"vem patch {worst_vem:.2e}, darcy p {e_p:.2e} "
                  f"pi {e_pi:.2e} flux {e_w:.2e}")


# ----- 3: local-operator invariants ---------------------------------------------

def test_criterion_3_local_operators():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_cons, min_m_eig, worst_kernel, min_gap = 0.0, np.inf, 0.0, np.inf
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        verts = random_convex_polygon(rng, n) + rng.uniform(-1.0, 1.0, 2)
        kappa = random_spd_tensor(rng)
        geo = polygon_geometry(verts)
        n_mat, r_mat = mfd.consistency_matrices(geo, kappa)
        m = mfd.local_inner_product(geo, kappa)
        worst_cons = max(worst_cons,
                         np.linalg.norm(m @ n_mat - r_mat)
                         / np.linalg.norm(r_mat))
        eigs = np.linalg.eigvalsh(m)
        min_m_eig = min(min_m_eig, eigs[0] / eigs[-1])
        k_a = vem.vem_cell(geo, float(rng.uniform(0.1, 10.0)),
                           float(rng.uniform(0.1, 10.0))).stiffness
        spec = np.linalg.eigvalsh(k_a)
        worst_kernel = max(worst_kernel, abs(spec[0]) / spec[-1],
                           abs(spec[2]) / spec[-1])
        min_gap = min(min_gap, spec[3] / spec[-1])
    elapsed = time.perf_counter() - t0
    ok = (worst_cons <= 1e-12 and min_m_eig > 0.0
          and worst_kernel <= 1e-10 and min_gap > 1e-8 and elapsed < 10.0)
    assert report(3, ok,
                  f"consistency {worst_cons:.2e}, min M eig ratio "
                  f"{min_m_eig:.2e}, kernel {worst_kernel:.2e}, gap "
                  f"{min_gap:.2e}, {elapsed:.1f}s")


# ----- 4: condensation oracle ---------------------------------------------------

def test_criterion_4_condensation_oracle():
    worst = 0.0
    for n, stab in ((1, False), (2, False), (2, True), (3, False),
                    (3, True)):
        system, state = mixed_problem(n, dt=0.25, stabilize=stab)
        new = system.step(state)
        u_ref, w_ref, p_ref, pi_ref = dense_four_field_solve(
            system, state, new.time)
        scale = max(np.abs(u_ref).max(), np.abs(p_ref).max(),
                    np.abs(pi_ref).max())
        err = max(np.abs(new.u - u_ref).max(),
                  np.abs(new.p - p_ref).max(),
                  np.abs(new.pi - pi_ref).max(),
                  np.abs(system.recover_velocity(new) - w_ref).max())
        worst = max(worst, err / scale)
    ok = worst < 1e-10
    assert report(4, ok, f"condensed vs dense four-field {worst:.2e}")


# ----- 5: manufactured-solution convergence -------------------------------------

@pytest.mark.slow
def test_criterion_5_convergence():
    t0 = time.perf_counter()
    cart = observed_rates(convergence_study("cartesian", 5, base=5,
                                            dt0=0.1),
                          keys=("e_p", "e_u", "e_s"))
    vor = observed_rates(convergence_study("voronoi", 3, base=20, dt0=0.1),
                         keys=("e_p", "e_u", "e_s"))

    rows = time_refinement_study("cartesian", n=80,
                                 dts=[0.5 / 2**k for k in range(10)])
    dts = np.array([r["dt"] for r in rows])
    es = {k: np.array([r[k] for r in rows]) for k in ("e_p", "e_u", "e_s")}
    slope = {k: np.log(es[k][0] / es[k][2]) / np.log(dts[0] / dts[2])
             for k in ("e_p", "e_u")}
    tail = np.log(es["e_s"][-2] / es["e_s"][-1]) / np.log(dts[-2] / dts[-1])
    plateau = tail <= 0.4 and es["e_s"][-1] >= 0.5 * es["e_s"][-3]
    elapsed = time.perf_counter() - t0

    ok = (all(r >= 0.85 for r in cart.values())
          and all(r >= 0.85 for r in vor.values())
          and all(s >= 0.85 for s in slope.values())
          and plateau)
    assert report(
        5, ok,
        "h-rates cartesian "
        + "/".join(f"{cart[k]:.2f}" for k in ("e_p", "e_u", "e_s"))
        + " voronoi "
        + "/".join(f"{vor[k]:.2f}" for k in ("e_p", "e_u", "e_s"))
        + f", dt-slopes {slope['e_p']:.2f}/{slope['e_u']:.2f}, "
        f"stress tail slope {tail:.2f}, {elapsed:.0f}s")


# ----- 6: Mandel benchmark ------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_mandel():
    t0 = time.perf_counter()
    mesh = build_cartesian(20, 20)
    dt = 1e-4 * mandel.MandelSolution(mandel.default_material()).t_char
    system, solution, state0 = mandel.setup(mesh, dt)
    fractions = (0.05, 0.1, 0.2, 0.5, 1.0)
    out = mandel.run_profiles(system, solution, state0,
                              [f * solution.t_char for f in fractions])
    p0 = out["p_undrained"]
    errs = [np.abs(p["p"] - p["p_exact"]).max() / p0
            for p in out["profiles"]]
    overshoot = out["history_p"].max()
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-3 and overshoot > 1.05
    assert report(6, ok,
                  "profile errors "
                  + " ".join(f"{e:.1e}" for e in errs)
                  + f" at t/Tc {fractions}, overshoot {overshoot:.4f}, "
                  f"{elapsed:.0f}s")


# ----- 7: stabilization ---------------------------------------------------------

def test_criterion_7_stabilization():
    t0 = time.perf_counter()
    rows = {r["family"]: r
            for r in stabilization_study(("cartesian", "skewed", "hybrid",
                                          "voronoi"), n=10, dt=1e-5)}
    ratios = {f: rows[f]["stabilized"] / rows[f]["unstabilized"]
              for f in ("cartesian", "skewed", "hybrid")}
    voronoi_ok = (rows["voronoi"]["unstabilized"]
                  <= 3.0 * rows["cartesian"]["stabilized"])
    elapsed = time.perf_counter() - t0
    ok = (all(r <= 0.1 for r in ratios.values()) and voronoi_ok
          and elapsed < 60.0)
    assert report(
        7, ok,
        "stabilized/unstabilized "
        + " ".join(f"{f} {r:.3f}" for f, r in ratios.items())
        + f" (need <= 0.1), voronoi unstabilized "
        f"{rows['voronoi']['unstabilized']:.3f} vs 3x stabilized cartesian "
        f"{3 * rows['cartesian']['stabilized']:.3f}, {elapsed:.0f}s")


# ----- 8: solver robustness -----------------------------------------------------

def test_criterion_8_solver():
    t0 = time.perf_counter()
    levels = solver_study(levels=(0, 1, 2), base=10, dt=1e-5,
                          stabilize=True)
    iters = [r["iterations"] for r in levels]
    stab = solver_study(levels=(0,), base=10, dt=0.1,
                        stabilize=True)[0]["iterations"]
    unstab = solver_study(levels=(0,), base=10, dt=0.1,
                          stabilize=False)[0]["iterations"]
    elapsed = time.perf_counter() - t0
    ok = (iters[2] <= 2 * iters[0] and abs(stab - unstab) <= 5
          and elapsed < 120.0)
    assert report(8, ok,
                  f"iterations per level {iters}, dt=0.1 stabilized {stab} "
                  f"vs unstabilized {unstab}, {elapsed:.0f}s")


# ----- 9: two-point flux equivalence --------------------------------------------

def test_criterion_9_tpfa_equivalence():
    mesh = build_cartesian(5, 5)
    mesh.tag_boundary(pressure=lambda x: True)
    kappa = np.diag([2.0, 1.0])
    material = Material(shear=1.0, lam=1.0, alpha=0.0, storage=1.0,
                        kappa=kappa)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))],
        pressure=lambda x, t: 0.0)
    dt = 0.7
    system = DiscreteSystem(mesh, material, bcs, dt, tpfa=True)

    free = system.free_pi
    a_pp = system.a_pp.toarray()
    a_ppi = system.a_ppi[:, free].toarray()
    a_pipi = system.a_pipi[free][:, free].toarray()
    flow = a_pp - dt * a_ppi @ np.linalg.solve(a_pipi, a_ppi.T)

    # independent two-point stencil from raw geometry
    n_c = mesh.num_cells
    half = np.zeros((n_c, mesh.num_faces))
    for k in range(n_c):
        for i, f in enumerate(mesh.cell_faces[k]):
            n_hat = mesh.cell_normals[k][i]
            d = abs((mesh.face_midpoint[f] - mesh.cell_centroid[k])
                    @ n_hat)
            half[k, f] = mesh.face_length[f] * (n_hat @ kappa @ n_hat) / d
    stencil = np.diag(material.storage * mesh.cell_area)
    for f in range(mesh.num_faces):
        if mesh.boundary_mask[f]:
            k = mesh.face_cells[f][0]
            stencil[k, k] += dt * half[k, f]
        else:
            ka, kb = mesh.face_cells[f]
            t_f = (half[ka, f] * half[kb, f]
                   / (half[ka, f] + half[kb, f]))
            stencil[ka, ka] += dt * t_f
            stencil[kb, kb] += dt * t_f
            stencil[ka, kb] -= dt * t_f
            stencil[kb, ka] -= dt * t_f

    rel = np.abs(flow - stencil).max() / np.abs(stencil).max()
    ok = rel <= 1e-12
    assert report(9, ok, f"condensed flow vs two-point stencil {rel:.2e}")
