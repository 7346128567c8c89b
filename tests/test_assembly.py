"""Global assembly, static condensation, boundary conditions and time
stepping, verified against dense solves of the uncondensed four-field
system."""

import numpy as np
import pytest
import scipy.sparse as sp

from poromech import vem
from poromech.assembly import (BoundaryConditions, DiscreteSystem, Material,
                               State)
from poromech.mesh import (PolyMesh, build_cartesian, build_voronoi,
                           polygon_geometry)
from poromech.problems import mandel, manufactured
from poromech.problems.studies import FAMILIES, family_mesh

from helpers import dart_mesh, four_field_blocks, polygon_moments


def mixed_problem(n, dt, stabilize=False):
    """Small driven problem exercising every assembly path: mixed
    displacement masks, traction, pressure and flux boundaries, body force
    and fluid source, anisotropic permeability, nonzero previous state."""
    mesh = build_cartesian(n, n)
    material = Material(shear=2.0, lam=3.0, alpha=0.9, storage=0.3,
                        kappa=np.diag([2.0, 1.0]))
    bcs = BoundaryConditions(
        displacement=[
            (lambda x: x[0] < 1e-9, (True, True),
             lambda x, t: (0.1 * t * x[1], -0.05 * t)),
            (lambda x: x[1] < 1e-9, (False, True),
             lambda x, t: (0.0, 0.02 * t * x[0])),
        ],
        traction=[(lambda x: x[1] > 1.0 - 1e-9,
                   lambda x, t: (0.3 * x[0], -1.0 - 0.2 * t))],
        pressure_where=lambda x: x[0] > 1.0 - 1e-9,
        pressure=lambda x, t: 5.0 * t * x[1],
        flux=lambda x, t: 0.4 * t * (1.0 + x[0]))

    def body(pts, t):
        return np.column_stack([np.sin(pts[:, 0]) * t, pts[:, 1] - 0.5])

    def source(pts, t):
        return 2.0 * t * pts[:, 0] * pts[:, 1]

    system = DiscreteSystem(mesh, material, bcs, dt, stabilize=stabilize,
                            body_force=body, mass_source=source)
    rng = np.random.default_rng(7)
    state = State(time=0.0, u=1e-3 * rng.standard_normal(system.n_u),
                  p=rng.standard_normal(system.n_p),
                  pi=np.zeros(system.n_pi))
    return system, state


def dense_four_field_solve(system, state, t):
    """Dense solve of the uncondensed (u, w, p, pi) block system with the
    same Dirichlet elimination; the condensation oracle."""
    blocks = four_field_blocks(system)
    n_u, n_p, n_pi = system.n_u, system.n_p, system.n_pi
    n_w = blocks.velocity_offsets[-1]
    o_w, o_p, o_pi = n_u, n_u + n_w, n_u + n_w + n_p
    n = o_pi + n_pi

    a = np.zeros((n, n))
    a[:n_u, :n_u] = blocks.a_uu.toarray()
    a[:n_u, o_p:o_pi] = -blocks.a_up.toarray()
    a[o_w:o_p, o_w:o_p] = blocks.a_ww.toarray()
    a[o_w:o_p, o_p:o_pi] = -blocks.a_wp.toarray()
    a[o_w:o_p, o_pi:] = -blocks.a_wpi.toarray()
    a[o_p:o_pi, :n_u] = blocks.a_up.T.toarray()
    a[o_p:o_pi, o_w:o_p] = system.dt * blocks.a_wp.T.toarray()
    a[o_p:o_pi, o_p:o_pi] = blocks.abar_pp.toarray()
    a[o_pi:, o_w:o_p] = blocks.a_wpi.T.toarray()

    b = np.zeros(n)
    b[:n_u] = system.mech_rhs(t)
    b[o_p:o_pi] = system.mass_rhs(state, t)
    b[o_pi:] = system.trace_rhs(t)

    fixed = np.concatenate([system.fixed_u, o_pi + system.fixed_pi])
    values = system.dirichlet_values(t)
    free = np.setdiff1d(np.arange(n), fixed)
    x = np.empty(n)
    x[fixed] = values
    x[free] = np.linalg.solve(a[np.ix_(free, free)],
                              b[free] - a[np.ix_(free, fixed)] @ values)
    return (x[:n_u], x[o_w:o_p], x[o_p:o_pi], x[o_pi:])


# ----- condensation oracle -----------------------------------------------------

@pytest.mark.parametrize("n,stabilize", [(1, False), (2, False),
                                         (2, True), (3, False), (3, True)])
def test_condensed_matches_dense_four_field(n, stabilize):
    if n < 2 and stabilize:
        pytest.skip("stabilization needs an internal vertex")
    system, state = mixed_problem(n, dt=0.25, stabilize=stabilize)
    new = system.step(state)
    u_ref, w_ref, p_ref, pi_ref = dense_four_field_solve(
        system, state, new.time)
    scale = max(np.abs(u_ref).max(), np.abs(p_ref).max(),
                np.abs(pi_ref).max())
    assert new.u == pytest.approx(u_ref, abs=1e-10 * scale)
    assert new.p == pytest.approx(p_ref, abs=1e-10 * scale)
    assert new.pi == pytest.approx(pi_ref, abs=1e-10 * scale)
    assert system.recover_velocity(new) == pytest.approx(
        w_ref, abs=1e-10 * max(np.abs(w_ref).max(), 1e-30))


def test_solved_residual_below_tolerance():
    system, state = mixed_problem(3, dt=0.1)
    new = system.step(state)
    rhs = np.concatenate([system.mech_rhs(new.time),
                          system.mass_rhs(state, new.time),
                          system.trace_rhs(new.time)])
    x_d = system.dirichlet_values(new.time)
    b_f = rhs[system.free] - system._a_fd @ x_d
    x_f = np.concatenate([new.u, new.p, new.pi])[system.free]
    residual = np.linalg.norm(system.condensed_matrix() @ x_f - b_f)
    assert residual <= 1e-6 * np.linalg.norm(b_f)


# ----- block structure -----------------------------------------------------------

def one_cell_system(storage=1.0):
    mesh = build_cartesian(1, 1)
    material = Material(shear=1.0, lam=1.0, alpha=1.0, storage=storage)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    return DiscreteSystem(mesh, material, bcs, dt=0.5)


def test_storage_block_single_cell():
    blocks = four_field_blocks(one_cell_system())
    assert blocks.abar_pp.toarray() == pytest.approx(np.array([[1.0]]))


def test_velocity_trace_block_nonzeros():
    system, _ = mixed_problem(2, dt=0.1)
    a_wpi = four_field_blocks(system).a_wpi.tocsc()
    mesh = system.mesh
    counts = np.diff(a_wpi.indptr)
    interior = mesh.face_cells[:, 1] >= 0
    assert np.array_equal(counts, np.where(interior, 2, 1))
    # entries are -|f| in the velocity weak form
    for f in range(mesh.num_faces):
        col = a_wpi[:, f].toarray().ravel()
        vals = col[col != 0.0]
        assert vals == pytest.approx(
            np.full(vals.size, -mesh.face_length[f]))


def test_coupling_block_kills_translations():
    system, _ = mixed_problem(2, dt=0.1)
    trans = np.zeros(system.n_u)
    trans[0::2] = 1.0
    assert system.a_up.T @ trans == pytest.approx(np.zeros(system.n_p),
                                                  abs=1e-12)
    trans = np.zeros(system.n_u)
    trans[1::2] = 1.0
    assert system.a_up.T @ trans == pytest.approx(np.zeros(system.n_p),
                                                  abs=1e-12)


def test_condensation_addition_is_diagonal():
    system, _ = mixed_problem(3, dt=0.1, stabilize=True)
    added = (system.a_pp - four_field_blocks(system).abar_pp).toarray()
    assert added == pytest.approx(np.diag(np.diag(added)))
    assert np.all(np.diag(added) > 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_cell_mean_and_strain_operators(family):
    """cell_mean and cell_strain apply each cell's VEM mean row and mean
    gradient; the coupling block is alpha |K| times the strain trace."""
    mesh = family_mesh(family, 6)
    material = Material(shear=1.3, lam=2.1, alpha=0.7)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    system = DiscreteSystem(mesh, material, bcs, dt=0.1)
    u = np.random.default_rng(6).standard_normal(system.n_u)
    means = (system.cell_mean @ u).reshape(-1, 2)
    strains = (system.cell_strain @ u).reshape(-1, 3)
    for k, ids in enumerate(mesh.cells):
        cell = vem.vem_cell(polygon_geometry(mesh.vertices[ids]),
                            material.shear, material.lam)
        ux, uy = u[2 * ids], u[2 * ids + 1]
        assert means[k] == pytest.approx(
            [cell.mean_row @ ux, cell.mean_row @ uy], rel=1e-12, abs=1e-12)
        (dxx, dxy), (dyx, dyy) = cell.grad @ ux, cell.grad @ uy
        assert strains[k] == pytest.approx([dxx, dyy, dxy + dyx],
                                           rel=1e-12, abs=1e-12)
    trace = system.cell_strain[0::3] + system.cell_strain[1::3]
    coupling = (sp.diags(material.alpha * mesh.cell_area) @ trace).T
    assert (system.a_up != coupling).nnz == 0


def test_unknown_layout_matches_mesh_counts():
    system, _ = mixed_problem(3, dt=0.1)
    mesh = system.mesh
    assert system.n_u + system.n_p + system.n_pi == mesh.num_unknowns
    n_free = (system.free_u.size + system.n_p + system.free_pi.size)
    assert system.condensed_matrix().shape == (n_free, n_free)


# ----- stepping ---------------------------------------------------------------------

def test_zero_loads_keep_zero_state():
    mesh = build_cartesian(3, 3)
    material = Material(shear=1.0, lam=1.0, alpha=1.0, storage=0.1)
    bcs = BoundaryConditions(
        displacement=[(lambda x: x[0] < 1e-9, (True, True),
                       lambda x, t: (0.0, 0.0))],
        pressure_where=lambda x: x[0] > 1.0 - 1e-9,
        pressure=lambda x, t: 0.0)
    system = DiscreteSystem(mesh, material, bcs, dt=0.5)
    state = State(time=0.0, u=np.zeros(system.n_u),
                  p=np.zeros(system.n_p), pi=np.zeros(system.n_pi))
    for _ in range(3):
        state = system.step(state)
        assert np.abs(state.u).max() == 0.0
        assert np.abs(state.p).max() == 0.0
        assert np.abs(state.pi).max() == 0.0


def test_interior_velocity_continuity():
    system, state = mixed_problem(3, dt=0.2)
    new = system.step(state)
    w = system.recover_velocity(new)
    mesh = system.mesh
    scale = np.abs(w).max()
    for f in np.flatnonzero(mesh.face_cells[:, 1] >= 0):
        k, l = mesh.face_cells[f]
        w_k = w[system.velocity_offsets[k]:system.velocity_offsets[k + 1]]
        w_l = w[system.velocity_offsets[l]:system.velocity_offsets[l + 1]]
        i_k = np.flatnonzero(mesh.cell_faces[k] == f)[0]
        i_l = np.flatnonzero(mesh.cell_faces[l] == f)[0]
        assert abs(w_k[i_k] + w_l[i_l]) <= 1e-9 * scale


def test_per_cell_mass_balance_sealed_incompressible():
    """With zero storage, no source and no-flow boundaries, each cell
    balances coupled volume change against its face fluxes."""
    mesh = build_cartesian(4, 4)
    material = Material(shear=1.0, lam=10.0, alpha=1.0, storage=0.0)
    bcs = BoundaryConditions(
        displacement=[(lambda x: x[0] < 1e-9, (True, True),
                       lambda x, t: (0.0, 0.0))],
        traction=[(lambda x: x[1] > 1.0 - 1e-9,
                   lambda x, t: (0.0, -1.0))])
    system = DiscreteSystem(mesh, material, bcs, dt=1e-3)
    state = State(time=0.0, u=np.zeros(system.n_u),
                  p=np.zeros(system.n_p), pi=np.zeros(system.n_pi))
    new = system.step(state)
    w = system.recover_velocity(new)
    blocks = four_field_blocks(system)
    residual = (system.a_up.T @ (new.u - state.u)
                + system.dt * (blocks.a_wp.T @ w))
    scale = np.abs(system.a_up.T @ new.u).max()
    assert np.abs(residual).max() <= 1e-9 * scale


def test_dirichlet_values_held_exactly():
    system, state = mixed_problem(3, dt=0.2)
    new = system.step(state)
    assert new.u[system.fixed_u] == pytest.approx(
        system.dirichlet_values(new.time)[:system.fixed_u.size])
    for f in system.fixed_pi:
        assert new.pi[f] == pytest.approx(
            system.bcs.pressure(system.mesh.face_midpoint[f], new.time))


def test_boundary_callables_run_once_per_item():
    """Per step: displacement data once per fixed dof, pressure once per
    fixed face, traction and flux once per matching face; the `where`
    selectors run only at set-up."""
    mesh = build_cartesian(4, 4)
    calls = {}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    top = lambda x: x[1] > 1.0 - 1e-9
    bcs = BoundaryConditions(
        displacement=[(counted("where_u", lambda x: x[0] < 1e-9),
                       (True, True),
                       counted("u", lambda x, t: (0.0, t)))],
        traction=[(counted("where_t", top),
                   counted("t", lambda x, t: (x[0], -1.0))),
                  (counted("where_t", lambda x: x[1] > 0.5),
                   counted("t", lambda x, t: (0.0, t)))],
        pressure_where=lambda x: x[0] > 1.0 - 1e-9,
        pressure=counted("p", lambda x, t: t),
        flux=counted("q", lambda x, t: 0.1 * t))
    system = DiscreteSystem(mesh, Material(shear=1.0, lam=1.0), bcs, dt=0.1)
    n_boundary = int(mesh.boundary_mask.sum())
    assert calls == {"where_u": n_boundary, "where_t": 2 * n_boundary}
    calls.clear()
    state = State(time=0.0, u=np.zeros(system.n_u), p=np.zeros(system.n_p),
                  pi=np.zeros(system.n_pi))
    system.step(state)
    # the four top faces match both tractions, two faces each of the left
    # and right edges the second one; the 12 faces off the right edge are
    # flux faces
    assert calls == {"u": system.fixed_u.size, "p": 4, "t": 4 + 4 + 2 + 2,
                     "q": 12}


# ----- initial state -------------------------------------------------------------------

def test_initial_state_zero_pressure_zero_loads():
    system = one_cell_system()
    state = system.initial_state(p0=0.0)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.pi).max() == 0.0
    assert np.abs(system.recover_velocity(state)).max() == 0.0


def test_initial_state_balances_momentum():
    system, _ = mixed_problem(3, dt=0.1)
    state = system.initial_state(p0=lambda pts: pts[:, 0])
    b_u = system.mech_rhs(0.0) + system.a_up @ state.p
    residual = (system.a_uu @ state.u - b_u)[system.free_u]
    assert np.abs(residual).max() <= 1e-9 * np.abs(b_u).max()


@pytest.mark.parametrize("name", FAMILIES + ("mandel",))
def test_initial_state_blocks_are_condensed_slices(name):
    """initial_state reads its displacement and trace blocks as contiguous
    slices of the condensed matrices: free dofs ordered (u, p, pi), fixed
    ones (u, pi).  Those slices must be the free/fixed blocks of a_uu and
    a_pipi, so that a reordering of either dof list fails here."""
    if name == "mandel":
        system = mandel.setup(build_cartesian(10, 10), 1.0)[0]
    else:
        system = manufactured.setup(family_mesh(name, 6), 0.1)[0]
    free_u, fixed_u = system.free_u, system.fixed_u
    free_pi, fixed_pi = system.free_pi, system.fixed_pi
    n_fu, n_du = free_u.size, fixed_u.size
    trace = slice(n_fu + system.n_p, None)
    a_ff, a_fd = system.condensed_matrix(), system._a_fd
    assert fixed_pi.size and a_fd.shape[1] == n_du + fixed_pi.size
    for got, want in [
            (a_ff[:n_fu, :n_fu], system.a_uu[free_u][:, free_u]),
            (a_fd[:n_fu, :n_du], system.a_uu[free_u][:, fixed_u]),
            (a_ff[trace, trace], system.a_pipi[free_pi][:, free_pi]),
            (a_fd[trace, n_du:], system.a_pipi[free_pi][:, fixed_pi])]:
        assert np.array_equal(got.toarray(), want.toarray())
    # no displacement row couples to a fixed trace, nor a trace row to a
    # fixed displacement
    assert a_fd[:n_fu, n_du:].nnz == 0 and a_fd[trace, :n_du].nnz == 0


@pytest.mark.parametrize("name", ["body_force", "mass_source", "p0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_volume_data_is_named(name, bad):
    """A volume callable that is not finite on cell 5 is named, with the
    cell, before its values reach a solve."""
    shape = (2,) if name == "body_force" else ()

    def data(pts, t=0.0):
        values = np.ones((len(pts),) + shape)
        values[system.quad_cells == 5] = bad
        return values

    system = clamped_system(build_cartesian(4, 4),
                            **({} if name == "p0" else {name: data}))
    state = State(time=0.0, u=np.zeros(system.n_u), p=np.zeros(system.n_p),
                  pi=np.zeros(system.n_pi))
    with pytest.raises(ValueError, match=f"{name} .*cell 5"):
        if name == "p0":
            system.initial_state(p0=data)
        else:
            system.step(state)


@pytest.mark.parametrize("kwargs, error", [
    ({"p0": np.nan}, "p0 is not finite at cell 0"),
    ({"p0": np.where(np.arange(16) == 7, np.inf, 1.0)},
     "p0 is not finite at cell 7"),
    ({"p0": np.ones(15)}, r"p0 has shape \(15,\), .*n_p = 16"),
    ({"u0": np.zeros(3)}, r"u0 has shape \(3,\), .*n_u = 50"),
    ({"u0": np.zeros((25, 2))}, r"u0 has shape \(25, 2\), .*n_u = 50"),
    ({"u0": np.where(np.arange(50) == 9, np.nan, 0.0)},
     "u0 is not finite at dof 9"),
], ids=["p0-nan", "p0-cell-inf", "p0-length", "u0-length", "u0-shape",
        "u0-nan"])
def test_initial_state_rejects_bad_start(kwargs, error):
    """A scalar or per-cell p0 and a given u0 are checked like a callable
    p0: a wrong shape or a non-finite value is a ValueError naming it."""
    system = clamped_system(build_cartesian(4, 4))
    with pytest.raises(ValueError, match=error):
        system.initial_state(**kwargs)


def test_all_neumann_mechanics_raises():
    """Displacement data that leave a rigid mode free are rejected: none at
    all, u_x on the left edge only (y-translation free), u_y on the bottom
    edge only (x-translation free), and u_x on the bottom edge with u_y on
    the left edge (rotation about their corner free)."""
    mesh = build_cartesian(4, 4)
    material = Material(shear=1.0, lam=1.0)
    zero = lambda x, t: (0.0, 0.0)
    left = lambda x: x[0] <= 0.0
    bottom = lambda x: x[1] <= 0.0
    for displacement in ([],
                         [(left, (True, False), zero)],
                         [(bottom, (False, True), zero)],
                         [(bottom, (True, False), zero),
                          (left, (False, True), zero)]):
        bcs = BoundaryConditions(
            displacement=displacement,
            traction=[(lambda x: True, zero)])
        with pytest.raises(ValueError, match="rigid body modes"):
            DiscreteSystem(mesh, material, bcs, dt=1.0)


# ----- validation --------------------------------------------------------------------

def test_constructor_validation():
    mesh = build_cartesian(2, 2)
    material = Material(shear=1.0, lam=1.0)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    with pytest.raises(ValueError, match="time step"):
        DiscreteSystem(mesh, material, bcs, dt=0.0)
    with pytest.raises(ValueError, match="solver"):
        DiscreteSystem(mesh, material, bcs, dt=1.0, linear_solver="cg")
    bcs.pressure_where = lambda x: True
    with pytest.raises(ValueError, match="pressure"):
        DiscreteSystem(mesh, material, bcs, dt=1.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, -1.0])
def test_bad_time_step_raises(dt):
    """A sign test alone lets nan and inf through to the LU, which then
    reports a singular factor instead of naming dt."""
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        clamped_system(build_cartesian(2, 2), dt=dt)


@pytest.mark.parametrize("rtol", [np.nan, np.inf, 0.0, -1e-6])
def test_bad_rtol_raises(rtol):
    with pytest.raises(ValueError, match="rtol must be finite and positive"):
        clamped_system(build_cartesian(2, 2), linear_solver="gmres",
                       rtol=rtol)


@pytest.mark.parametrize("maxiter", [0, -5])
def test_bad_maxiter_raises(maxiter):
    with pytest.raises(ValueError, match="maxiter must be at least 1"):
        clamped_system(build_cartesian(2, 2), linear_solver="gmres",
                       maxiter=maxiter)


def test_pressure_where_splits_the_flow_boundary():
    """pressure_where runs once per boundary face and picks the pressure
    faces, ascending; every other boundary face is a flux face."""
    mesh = build_cartesian(3, 3)
    calls = []

    def right(x):
        calls.append(x)
        return x[0] > 1.0 - 1e-9

    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))],
        pressure_where=right, pressure=lambda x, t: 0.0,
        flux=lambda x, t: 1.0)
    system = DiscreteSystem(mesh, Material(shear=1.0, lam=1.0), bcs, dt=1.0)
    boundary = np.flatnonzero(mesh.boundary_mask)
    assert len(calls) == boundary.size
    assert system.fixed_pi.size == 3
    assert np.all(np.diff(system.fixed_pi) > 0)
    assert np.all(mesh.face_midpoint[system.fixed_pi, 0] > 1.0 - 1e-9)
    assert np.array_equal(system.free_pi, np.setdiff1d(
        np.arange(mesh.num_faces), system.fixed_pi))
    flux_faces = np.flatnonzero(system.trace_rhs(0.0))
    assert np.array_equal(flux_faces,
                          np.setdiff1d(boundary, system.fixed_pi))


def test_selector_that_selects_nothing_is_named():
    mesh = build_cartesian(3, 3)
    clamp = (lambda x: True, (True, True), lambda x, t: (0.0, 0.0))
    nowhere = lambda x: x[0] > 2.0
    zero = lambda x, t: 0.0
    for bcs, name in [
            (BoundaryConditions(displacement=[clamp, (nowhere, (True, False),
                                                      zero)]),
             r"displacement\[1\]"),
            (BoundaryConditions(displacement=[clamp],
                                traction=[(lambda x: True, zero),
                                          (nowhere, zero)]),
             r"traction\[1\]"),
            (BoundaryConditions(displacement=[clamp], pressure_where=nowhere,
                                pressure=zero), "pressure_where"),
            (BoundaryConditions(displacement=[clamp], pressure=zero),
             "pressure_where")]:
        with pytest.raises(ValueError, match=name + " selects no boundary"):
            DiscreteSystem(mesh, Material(shear=1.0, lam=1.0), bcs, dt=1.0)


@pytest.mark.parametrize("kwargs, name", [
    (dict(shear=0.0), "shear"),
    (dict(shear=-1.0), "shear"),
    (dict(shear=np.inf), "shear"),
    (dict(lam=-1.0), "lam"),
    (dict(lam=np.nan), "lam"),
    (dict(alpha=np.nan), "alpha"),
    (dict(storage=-5.0), "storage"),
    (dict(storage=np.inf), "storage"),
])
def test_material_rejects_non_physical_values(kwargs, name):
    with pytest.raises(ValueError, match=rf"Material\.{name} "):
        Material(**{"shear": 1.0, "lam": 1.0, **kwargs})


def test_material_admits_negative_lam_above_minus_shear():
    mesh = build_cartesian(4, 4)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    system = DiscreteSystem(mesh, Material(shear=1.0, lam=-0.9), bcs,
                            dt=1.0, body_force=lambda pts, t: (1.0, -1.0))
    state = system.step(State(time=0.0, u=np.zeros(system.n_u),
                              p=np.zeros(system.n_p),
                              pi=np.zeros(system.n_pi)))
    assert np.abs(state.u).max() > 0.0
    assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.p))


def clamped_system(mesh, dt=1.0, **kwargs):
    """Unit-modulus system clamped on the whole boundary."""
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    return DiscreteSystem(mesh, Material(shear=1.0, lam=1.0), bcs, dt,
                          **kwargs)


def test_quadrature_is_cellwise_exact():
    mesh = build_voronoi(25, 20, seed=1)
    system = clamped_system(mesh)
    integral, pts = system.cell_integral, system.quad_points
    assert integral.shape == (mesh.num_cells, len(pts))
    areas = integral @ np.ones(len(pts))
    assert areas == pytest.approx(mesh.cell_area, rel=1e-12)
    first = integral @ pts[:, 0]
    assert first == pytest.approx(mesh.cell_area * mesh.cell_centroid[:, 0],
                                  rel=1e-12)


@pytest.mark.parametrize("name", FAMILIES + ("dart",))
def test_cell_integral_exact_for_quadratics(name):
    mesh = dart_mesh(10, 0.8) if name == "dart" else family_mesh(name, 6)
    system = clamped_system(mesh)
    x, y = system.quad_points.T
    # every point belongs to one cell, recorded in quad_cells
    assert np.array_equal(system.cell_integral.getnnz(axis=0),
                          np.ones(x.size))
    owners = system.cell_integral.tocsc().indices
    assert np.array_equal(system.quad_cells, owners)
    got = np.column_stack([system.cell_integral @ q
                           for q in (x * x, x * y, y * y)])
    want = np.array([polygon_moments(mesh.cell_polygon(k))[3:]
                     for k in range(mesh.num_cells)])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_scalar_mass_source_broadcasts():
    mesh = build_cartesian(4, 4)
    system = clamped_system(mesh, mass_source=lambda pts, t: 1.0)
    state = State(time=0.0, u=np.zeros(system.n_u), p=np.zeros(system.n_p),
                  pi=np.zeros(system.n_pi))
    assert np.array_equal(system.mass_rhs(state, 0.0), np.full(16, 1 / 16))


def test_constant_body_force_broadcasts():
    mesh = build_cartesian(4, 4)
    constant = clamped_system(mesh, body_force=lambda pts, t: (0.0, -1.0))
    per_point = clamped_system(
        mesh, body_force=lambda pts, t: np.tile([0.0, -1.0], (len(pts), 1)))
    assert np.array_equal(constant.mech_rhs(0.0), per_point.mech_rhs(0.0))
    assert constant.mech_rhs(0.0).sum() == pytest.approx(-1.0, rel=1e-14)


def test_volume_callable_of_wrong_shape_is_named():
    mesh = build_cartesian(4, 4)
    system = clamped_system(mesh, body_force=lambda pts, t: pts[:, 0],
                            mass_source=lambda pts, t: pts)
    with pytest.raises(ValueError, match=r"body_force .*\(\d+, 2\)"):
        system.mech_rhs(0.0)
    state = State(time=0.0, u=np.zeros(system.n_u), p=np.zeros(system.n_p),
                  pi=np.zeros(system.n_pi))
    with pytest.raises(ValueError, match="mass_source"):
        system.mass_rhs(state, 0.0)
    with pytest.raises(ValueError, match="p0"):
        system.initial_state(p0=lambda pts: pts)


def test_tpfa_variant_yields_diagonal_velocity_block():
    mesh = build_cartesian(3, 3)
    material = Material(shear=1.0, lam=1.0)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    system = DiscreteSystem(mesh, material, bcs, dt=1.0, tpfa=True)
    a_ww = four_field_blocks(system).a_ww.toarray()
    assert a_ww == pytest.approx(np.diag(np.diag(a_ww)))


def test_tpfa_rejects_cell_not_star_shaped_by_id():
    # a unit square (cell 0) and a notched pentagon (cell 1) on its right;
    # the notch edge faces away from the pentagon's centroid
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [3.0, 0.0],
                [1.2, 0.5], [3.0, 1.0]]
    mesh = PolyMesh(vertices, [[0, 1, 2, 3], [1, 4, 5, 6, 2]])
    c = mesh.face_midpoint[mesh.cell_faces[1]] - mesh.cell_centroid[1]
    behind = (mesh.cell_normals[1] * c).sum(axis=1)
    assert behind.min() < 0.0 < mesh.cell_area[1]
    material = Material(shear=1.0, lam=1.0)
    bcs = BoundaryConditions(
        displacement=[(lambda x: True, (True, True),
                       lambda x, t: (0.0, 0.0))])
    # no division by a non-positive denominator runs before the error
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match="cell 1: two-point"):
        DiscreteSystem(mesh, material, bcs, dt=1.0, tpfa=True)
    # the full mimetic inner product serves the same mesh, NaN-free
    system = DiscreteSystem(mesh, material, bcs, dt=1.0)
    assert np.isfinite(system.condensed_matrix().data).all()
