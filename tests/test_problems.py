"""Benchmark problems: consolidation series solution against frozen
reference values, smooth reference fields against finite-difference PDE
residuals, error norms, and study protocols."""

import gc
import os
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from helpers import dart_mesh
from poromech.assembly import Material
from poromech.mesh import (PolyMesh, build_cartesian, build_hybrid,
                           build_voronoi)
from poromech.problems import cantilever, mandel, manufactured, studies
from poromech.problems.norms import ErrorNorms

# First five roots of tan(x) = (8/3) x, the root equation of the benchmark
# material below (nu = 0.2, undrained nu = 0.5), solved independently to
# machine precision with mpmath.
ROOTS_8_3 = np.array([1.2873421538900565, 4.6315996618239435,
                      7.8059784374006638, 10.961376593495558,
                      14.110597424487525])

# Normalized center pressures p(0, t)/p0 of the same material, frozen from
# an independent mpmath evaluation of the series.
CENTER_PRESSURE = {1e-4: 1.0042455241452888,
                   0.01: 1.0437611498994,
                   0.05: 1.0988832914089,
                   0.1: 1.0954137423071,
                   0.5: 0.59278538295739}

# (t/t_char, u_y at y=1) from the same evaluation.
DISPLACEMENTS = [(0.01, -0.00012524131868280082),
                 (0.1, -0.00013789682350162525),
                 (0.5, -0.00016436771676278973)]


@pytest.fixture(scope="module")
def solution():
    return mandel.MandelSolution(mandel.default_material())


# ----- consolidation series ---------------------------------------------------

def test_series_roots_frozen_values(solution):
    assert solution.nu == pytest.approx(0.2, rel=1e-12)
    assert solution.roots[:5] == pytest.approx(ROOTS_8_3, rel=1e-14)


def test_series_roots_satisfy_equation():
    ratio = 8.0 / 3.0
    roots = mandel.series_roots(ratio, 10)
    for k, r in enumerate(roots):
        assert k * np.pi < r < (k + 0.5) * np.pi
        assert np.tan(r) - ratio * r == pytest.approx(0.0, abs=1e-8)


def test_series_roots_reject_small_ratio():
    with pytest.raises(ValueError, match="ratio"):
        mandel.series_roots(1.0, 3)


def test_characteristic_time(solution):
    assert solution.t_char == pytest.approx(899928005.7595392, rel=1e-12)


def test_undrained_pressure(solution):
    assert solution.undrained_pressure() == pytest.approx(100.0, rel=1e-12)


def test_center_pressure_frozen_values(solution):
    p0 = solution.undrained_pressure()
    for frac, expected in CENTER_PRESSURE.items():
        p = solution.pressure(0.0, frac * solution.t_char)
        assert p / p0 == pytest.approx(expected, rel=1e-10)


def test_drained_edge_pressure_vanishes(solution):
    for frac in (1e-4, 0.01, 0.1, 1.0):
        p = solution.pressure(solution.width, frac * solution.t_char)
        assert abs(p) <= 1e-10 * solution.undrained_pressure()


def test_center_pressure_overshoot(solution):
    """Early times squeeze extra load onto the fluid before drainage wins;
    the center pressure rises above its undrained start."""
    p0 = solution.undrained_pressure()
    t_peak = 0.07275668609557183 * solution.t_char
    peak = solution.pressure(0.0, t_peak) / p0
    assert peak == pytest.approx(1.10687661633, rel=1e-9)
    for frac in (0.03, 0.05, 0.11, 0.2):
        assert solution.pressure(0.0, frac * solution.t_char) / p0 < peak


def test_displacement_frozen_values(solution):
    for frac, uy_ref in DISPLACEMENTS:
        u_y = solution.vertical_displacement(1.0, frac * solution.t_char)
        assert u_y == pytest.approx(uy_ref, rel=1e-10)


def test_series_limits_match_closed_forms(solution):
    ux0, uy0 = solution.undrained_displacement(0.7, 1.0)
    assert ux0 == pytest.approx(8.39932805376e-5, rel=1e-9)
    assert uy0 == pytest.approx(-0.000119990400768, rel=1e-9)
    u_y = solution.vertical_displacement(1.0, 1e-7 * solution.t_char)
    assert u_y == pytest.approx(uy0, rel=1e-3)

    # drained: -F (1 - nu) / (2 G a) y at y = 1
    u_y = solution.vertical_displacement(1.0, 20.0 * solution.t_char)
    assert u_y == pytest.approx(-0.0001919846412287017, rel=1e-9)
    assert solution.pressure(0.0, 20.0 * solution.t_char) == pytest.approx(
        0.0, abs=1e-10 * solution.undrained_pressure())


def test_series_truncation_converged(solution):
    fine = mandel.MandelSolution(mandel.default_material(), n_terms=10_000)
    p0 = solution.undrained_pressure()
    t = 1e-4 * solution.t_char
    x = np.array([0.0, 0.3, 0.7, 0.95])
    assert np.abs(solution.pressure(x, t)
                  - fine.pressure(x, t)).max() <= 1e-8 * p0


@pytest.mark.parametrize("n_terms", [0, -3])
def test_series_needs_a_term(n_terms):
    with pytest.raises(ValueError, match=f"n_terms .*got {n_terms}"):
        mandel.MandelSolution(mandel.default_material(), n_terms=n_terms)


def test_series_rejects_compressible_material():
    with pytest.raises(ValueError, match="storage"):
        mandel.MandelSolution(Material(shear=1.0, lam=1.0, alpha=1.0,
                                       storage=0.1))
    with pytest.raises(ValueError, match="coupling"):
        mandel.MandelSolution(Material(shear=1.0, lam=1.0, alpha=0.9,
                                       storage=0.0))


@pytest.mark.parametrize("kappa", [-1.0, np.nan])
def test_series_needs_an_admissible_kappa(kappa):
    """A negative or NaN permeability never reaches the series (it gave a
    negative characteristic time or NaN pressures): Material rejects it
    before a MandelSolution can be built on it."""
    with pytest.raises(ValueError, match="kappa must be"):
        mandel.MandelSolution(Material(shear=4.167e5, lam=2.778e5,
                                       kappa=kappa))


# ----- set-ups -----------------------------------------------------------------------

@pytest.mark.parametrize("problem", [manufactured, mandel, cantilever],
                         ids=["manufactured", "mandel", "cantilever"])
def test_setup_leaves_the_mesh_unchanged(problem):
    mesh = build_cartesian(4, 4)

    def arrays():
        return {name: value.copy() for name, value in vars(mesh).items()
                if isinstance(value, np.ndarray)}

    before = arrays()
    problem.setup(mesh, 0.1)
    after = arrays()
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[name], before[name]) for name in before)


# ----- discrete consolidation setup -----------------------------------------------

def test_setup_rejects_offset_mesh():
    verts = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    mesh = PolyMesh(verts, [np.array([0, 1, 2, 3])])
    with pytest.raises(ValueError, match="origin"):
        mandel.setup(mesh, dt=1.0)


def test_top_edge_displacement_follows_series():
    mesh = build_cartesian(5, 5)
    system, solution, _ = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    top = np.flatnonzero(mesh.vertices[:, 1] > 1.0 - 1e-9)
    rows = np.searchsorted(system.fixed, 2 * top + 1)
    assert np.array_equal(system.fixed[rows], 2 * top + 1)
    x = mesh.vertices[top, 0]
    assert system.dirichlet_values(0.0)[rows] == pytest.approx(
        solution.undrained_displacement(x, 1.0)[1], rel=1e-15)
    for frac in (1e-4, 0.01, 0.1, 0.5, 2.0):
        t = frac * solution.t_char
        assert system.dirichlet_values(t)[rows] == pytest.approx(
            solution.vertical_displacement(1.0, t), rel=1e-15)


def test_profile_cells_pick_midline():
    mesh = build_cartesian(5, 5)
    cells = mandel.profile_cells(mesh, 1.0)
    assert cells.size == 5
    assert mesh.cell_centroid[cells, 1] == pytest.approx(
        np.full(5, 0.5), rel=1e-12)


@pytest.mark.parametrize("n", [10, 11, 20, 21])
def test_profile_cells_on_grids_are_the_rows_nearest_the_midline(n):
    """On a Cartesian grid the cells whose extent contains the midline are
    the row (odd n) or the two rows (even n) whose centroids lie nearest
    it."""
    mesh = build_cartesian(n, n)
    dist = np.abs(mesh.cell_centroid[:, 1] - 0.5)
    nearest = np.flatnonzero(dist <= dist.min() + 1e-12)
    assert np.array_equal(mandel.profile_cells(mesh, 1.0), nearest)


@pytest.mark.parametrize("n", [10, 20])
@pytest.mark.parametrize("family", studies.FAMILIES)
def test_profile_cells_span_the_sample(family, n):
    """On every family the profile crosses the sample: its cells cover the
    midline, and their centroids reach within h of both vertical edges."""
    mesh = studies.family_mesh(family, n)
    cells = mandel.profile_cells(mesh, 1.0)
    h = mesh.cell_diam.max()
    x = mesh.cell_centroid[cells, 0]
    assert x.min() < h and x.max() > 1.0 - h
    for k in cells:
        y = mesh.cell_polygon(k)[:, 1]
        assert y.min() <= 0.5 <= y.max()


def test_run_profiles_structure():
    mesh = build_cartesian(5, 5)
    system, solution, state0 = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    times = [0.02 * solution.t_char, 0.04 * solution.t_char]
    result = mandel.run_profiles(system, solution, state0, times)
    assert result["p_undrained"] == pytest.approx(100.0)
    assert len(result["profiles"]) == 2
    assert result["history_t"].size == 5
    assert result["history_p"][0] == pytest.approx(1.0)
    for profile, t_ref in zip(result["profiles"], times):
        assert profile["time"] == pytest.approx(t_ref, rel=1e-12)
        assert np.all(np.diff(profile["x"]) > 0)
        assert profile["p"].shape == profile["p_exact"].shape
        # midline pressure decays monotonically toward the drained edge
        assert np.all(np.diff(profile["p_point"]) < 0)


MANDEL_MESHES = {
    "cart20": lambda: build_cartesian(20, 20),
    "hybrid20": lambda: build_hybrid(20, 20),
    "voronoi-seed2": lambda: build_voronoi(400, lloyd_iters=10, seed=2),
}


@pytest.mark.parametrize("name", sorted(MANDEL_MESHES))
def test_exact_cell_means_evaluate_only_the_profile_cells(name,
                                                          monkeypatch):
    """The series is evaluated at the quadrature points of the requested
    cells only, and the means are the bits of evaluating it at every
    quadrature point of the mesh."""
    mesh = MANDEL_MESHES[name]()
    system, solution, _ = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    cells = mandel.profile_cells(mesh, mesh.vertices[:, 1].max())
    cells = cells[np.argsort(mesh.cell_centroid[cells, 0])]
    x_all = system.quad_points[:, 0]
    x_cells = x_all[np.isin(system.quad_cells, cells)]
    pressure, seen = solution.pressure, []
    monkeypatch.setattr(solution, "pressure",
                        lambda x, t: seen.append(x) or pressure(x, t))
    for frac in (0.01, 0.05, 0.1, 1.0):
        t = frac * solution.t_char
        want = (system.cell_integral[cells] @ pressure(x_all, t)
                / mesh.cell_area[cells])
        assert np.array_equal(
            mandel.exact_cell_means(solution, system, cells, t), want)
        assert np.array_equal(np.sort(seen.pop()), np.sort(x_cells))
    assert seen == []


@pytest.mark.slow
@pytest.mark.parametrize("family", studies.FAMILIES)
def test_mandel_profile_converges_on_every_family(family):
    """The midline profile error at t = 0.05 T_c (max over the profile
    cells, normalized by the undrained pressure, dt = 1e-4 T_c) falls with
    each refinement n = 10, 20, 40, and by at least 4x from n = 10 to 40:
    first order in h.  Measured: cartesian 2.97e-3, 8.47e-4, 3.88e-4;
    skewed 6.36e-3, 2.31e-3, 6.91e-4; hybrid 3.24e-3, 8.80e-4, 3.92e-4;
    voronoi 3.66e-3, 6.89e-4, 3.86e-4."""
    t_char = mandel.MandelSolution(mandel.default_material()).t_char
    errors = []
    for n in (10, 20, 40):
        mesh = studies.family_mesh(family, n)
        system, solution, state0 = mandel.setup(mesh, 1e-4 * t_char)
        result = mandel.run_profiles(system, solution, state0,
                                     [0.05 * t_char])
        profile = result["profiles"][0]
        errors.append(np.abs(profile["p"] - profile["p_exact"]).max()
                      / result["p_undrained"])
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] <= errors[0] / 4, errors


def test_run_profiles_rejects_unaligned_times():
    mesh = build_cartesian(3, 3)
    system, solution, state0 = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    with pytest.raises(ValueError, match="multiples"):
        mandel.run_profiles(system, solution, state0,
                            [0.025 * solution.t_char])


def test_run_profiles_rejects_times_without_a_series():
    """The series holds only for t > 0, so a time 0 (or earlier, or not
    finite) sample has no profile; it is refused, not dropped."""
    mesh = build_cartesian(3, 3)
    system, solution, state0 = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    early = float(-0.01 * solution.t_char)
    for times, bad in (([0.0, 0.02 * solution.t_char], [0.0]),
                       ([early, 0.02 * solution.t_char], [early]),
                       ([float("nan")], [float("nan")]),
                       ([float("inf")], [float("inf")])):
        with pytest.raises(ValueError) as info:
            mandel.run_profiles(system, solution, state0, times)
        assert str(info.value).endswith(f"t > 0; got {bad}")


# ----- smooth reference problem ---------------------------------------------------

H = 1e-3


def u_at(pt, t):
    return manufactured.displacement(pt[None, :], t)[0]


def p_at(pt, t):
    return float(manufactured.pressure(pt[None, :], t)[0])


def fd1(f, pt, t, axis, h=H):
    e = np.zeros(2)
    e[axis] = h
    return (np.asarray(f(pt - 2 * e, t)) - 8.0 * np.asarray(f(pt - e, t))
            + 8.0 * np.asarray(f(pt + e, t))
            - np.asarray(f(pt + 2 * e, t))) / (12.0 * h)


def fd2(f, pt, t, axis, h=H):
    e = np.zeros(2)
    e[axis] = h
    return (-np.asarray(f(pt + 2 * e, t)) + 16.0 * np.asarray(f(pt + e, t))
            - 30.0 * np.asarray(f(pt, t)) + 16.0 * np.asarray(f(pt - e, t))
            - np.asarray(f(pt - 2 * e, t))) / (12.0 * h * h)


def div_u(pt, t):
    return fd1(u_at, pt, t, 0)[0] + fd1(u_at, pt, t, 1)[1]


def test_exact_fields_start_consistently():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, (50, 2))
    assert np.abs(manufactured.displacement(pts, 0.0)).max() == 0.0
    center = np.array([[0.5, 0.5]])
    assert manufactured.pressure(center, 0.0)[0] == pytest.approx(-1.0)


def test_boundary_callables_match_vectorized_fields():
    """The math-on-floats boundary data agree with the numpy fields."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 1.5, (200, 2))
    for t in rng.uniform(0.0, 2.0, 5):
        u = manufactured.displacement(pts, t)
        p = manufactured.pressure(pts, t)
        for i, pt in enumerate(pts):
            assert np.abs(np.subtract(manufactured.boundary_displacement(
                pt, t), u[i])).max() <= 4e-16
            assert abs(manufactured.boundary_pressure(pt, t) - p[i]) \
                <= 4e-16


def test_manufactured_dirichlet_values_match_fields():
    mesh = build_cartesian(6, 6)
    system, _ = manufactured.setup(mesh, dt=0.1)
    vert, comp = np.divmod(system.fixed_u, 2)
    for t in (0.0, 0.15, 0.7):
        vals = system.dirichlet_values(t)
        want_u = manufactured.displacement(mesh.vertices[vert], t)
        want_p = manufactured.pressure(
            mesh.face_midpoint[system.fixed_pi], t)
        assert vals.shape == system.fixed.shape
        assert np.abs(vals[:vert.size]
                      - want_u[np.arange(vert.size), comp]).max() <= 4e-16
        assert np.abs(vals[vert.size:] - want_p).max() <= 4e-16


def test_body_force_closes_momentum_balance():
    """Finite-difference residual of -div(2G eps + lam tr I) + alpha grad p
    against the hand-derived body force."""
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, (100, 2))
    times = rng.uniform(0.05, 0.95, 100)
    shear, lam = 1.0, 1.0
    for pt, t in zip(pts, times):
        lap = fd2(u_at, pt, t, 0) + fd2(u_at, pt, t, 1)
        grad_div = np.array([fd1(div_u, pt, t, 0), fd1(div_u, pt, t, 1)])
        grad_p = np.array([fd1(p_at, pt, t, 0), fd1(p_at, pt, t, 1)])
        b = manufactured.body_force(pt[None, :], t)[0]
        residual = -(shear * lap + (shear + lam) * grad_div) + grad_p - b
        assert np.abs(residual).max() <= 1e-6 * (1.0 + np.abs(b).max())


def test_fluid_source_closes_mass_balance():
    """Finite-difference residual of d/dt(div u) - lap p against the
    hand-derived source (zero storage, unit coupling and permeability)."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, 0.95, (100, 2))
    times = rng.uniform(0.05, 0.95, 100)
    for pt, t in zip(pts, times):
        ht = 1e-3
        ddt_div = (div_u(pt, t - 2 * ht) - 8.0 * div_u(pt, t - ht)
                   + 8.0 * div_u(pt, t + ht)
                   - div_u(pt, t + 2 * ht)) / (12.0 * ht)
        lap_p = fd2(p_at, pt, t, 0) + fd2(p_at, pt, t, 1)
        g = float(manufactured.mass_source(pt[None, :], t)[0])
        assert ddt_div - lap_p - g == pytest.approx(0.0, abs=1e-6 * (1 + abs(g)))


# ----- cached spatial factors of the exact fields ---------------------------------

FIELDS = ("pressure", "displacement", "body_force", "mass_source")


def exact_fields(points, t):
    return [getattr(manufactured, name)(points, t) for name in FIELDS]


@pytest.mark.parametrize("family", studies.FAMILIES + ("dart",))
def test_cached_fields_match_fresh_points(family):
    """On a system's read-only quad_points the fields reuse their spatial
    factors and give the bits of the same call on a writable copy."""
    mesh = (dart_mesh(10, 0.8) if family == "dart"
            else studies.family_mesh(family, 6))
    system, _ = manufactured.setup(mesh, dt=0.1)
    points = system.quad_points
    assert manufactured._trig(points) is manufactured._trig(points)
    fresh = points.copy()
    for t in (0.0, 0.1, 0.37, 1.0):
        for got, want in zip(exact_fields(points, t),
                             exact_fields(fresh, t)):
            assert np.array_equal(got, want)


def test_fields_follow_points_changed_in_place():
    """Neither a writable array nor a read-only view of one keeps factors
    that a change in place would leave stale."""
    points = np.random.default_rng(5).uniform(0.0, 1.0, (40, 2))
    view = points[:]
    view.flags.writeable = False
    for pts in (points, view):
        before = exact_fields(pts, 0.3)
        points += 0.25
        for got, want, old in zip(exact_fields(pts, 0.3),
                                  exact_fields(points.copy(), 0.3), before):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


def test_cached_factors_freed_with_the_system():
    system, _ = manufactured.setup(build_cartesian(4, 4), dt=0.1)
    manufactured.body_force(system.quad_points, 0.2)
    factor = weakref.ref(manufactured._trig(system.quad_points)[0])
    assert factor() is not None
    del system
    gc.collect()
    assert factor() is None


def test_system_quad_points_are_read_only():
    system, _ = manufactured.setup(build_cartesian(3, 3), dt=0.1)
    with pytest.raises(ValueError, match="read-only"):
        system.quad_points[0, 0] = 0.5


# ----- error norms ----------------------------------------------------------------

def piecewise_exact_system():
    mesh = build_cartesian(3, 3)
    system, _ = manufactured.setup(mesh, dt=0.5)
    return system


def test_norms_vanish_on_reproducible_fields():
    """A constant pressure and a linear displacement are reproduced
    exactly by cell means and mean gradients, so all norms vanish."""
    system = piecewise_exact_system()

    def pressure(pts, t):
        return np.full(np.asarray(pts).reshape(-1, 2).shape[0], 3.0)

    grad = np.array([[0.4, -0.3], [0.2, 0.1]])

    def displacement(pts, t):
        return np.asarray(pts).reshape(-1, 2) @ grad.T + [0.5, -1.0]

    norms = ErrorNorms(system, pressure, displacement)
    from poromech.assembly import State
    state = State(time=0.7, u=displacement(system.mesh.vertices, 0.7).ravel(),
                  p=np.full(system.n_p, 3.0), pi=np.zeros(system.n_pi))
    e_p, e_u, e_s = norms.instantaneous(state)
    assert e_p <= 1e-13
    assert e_u <= 1e-13
    assert e_s <= 1e-12


def test_norms_reuse_one_read_only_vertex_array():
    """Every step passes the displacement field the same read-only copy
    of the vertices, one that owns its data, so the manufactured factors
    of the vertices are computed once."""
    system, state = manufactured.setup(build_cartesian(4, 4), dt=0.1)
    seen = []
    norms = ErrorNorms(system, manufactured.pressure,
                       lambda pts, t: seen.append(pts)
                       or manufactured.displacement(pts, t))
    norms.instantaneous(state)
    norms.instantaneous(state)
    vertices = [pts for pts in seen if pts is not system.quad_points]
    assert len(vertices) == 2 and vertices[0] is vertices[1]
    assert vertices[0] is not system.mesh.vertices
    assert np.array_equal(vertices[0], system.mesh.vertices)
    assert vertices[0].flags.owndata and not vertices[0].flags.writeable
    assert manufactured._trig(vertices[0]) is manufactured._trig(vertices[0])


def test_pressure_norm_measures_constant_offset():
    system = piecewise_exact_system()
    zero_p = lambda pts, t: np.zeros(np.asarray(pts).reshape(-1, 2).shape[0])
    zero_u = lambda pts, t: np.zeros((np.asarray(pts).reshape(-1, 2).shape[0], 2))
    norms = ErrorNorms(system, zero_p, zero_u)
    from poromech.assembly import State
    delta = 0.25
    state = State(time=0.0, u=np.zeros(system.n_u),
                  p=np.full(system.n_p, delta), pi=np.zeros(system.n_pi))
    e_p, e_u, e_s = norms.instantaneous(state)
    # unit domain: the integral of delta^2 is delta^2
    assert e_p == pytest.approx(delta, rel=1e-12)
    assert e_u == 0.0 and e_s == 0.0
    for _ in range(4):
        norms.accumulate(state)
    totals = norms.totals()
    assert set(totals) == {"e_p", "e_u", "e_s"}
    assert totals["e_p"] == pytest.approx(delta * np.sqrt(4 * system.dt),
                                          rel=1e-12)
    assert norms.steps == 4


# ----- studies -------------------------------------------------------------------------

def test_family_mesh_validation():
    with pytest.raises(ValueError, match="family"):
        studies.family_mesh("triangular", 4)


@pytest.mark.parametrize("study, args", [
    (studies.convergence_study, ("voronoi", 1)),
    (studies.time_refinement_study, ("voronoi", 2)),
    (studies.stabilization_study, (("voronoi",),)),
    (studies.solver_study, ((0,),)),
], ids=["convergence", "time-refinement", "stabilization", "solver"])
def test_studies_take_only_the_mesh_settings(monkeypatch, study, args):
    """The Voronoi settings pass through to family_mesh, which rejects any
    other keyword."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    with pytest.raises(TypeError, match="lloyd_iter"):
        study(*args, lloyd_iter=2)


def test_solver_study_levels_double_resolution():
    rows = studies.solver_study((0, 1), base=5)
    assert [row["level"] for row in rows] == [0, 1]
    assert [row["cells"] for row in rows] == [25, 100]


def test_manufactured_case_row():
    row = studies.manufactured_case(build_cartesian(3, 3), dt=0.25,
                                    t_end=0.5)
    assert row["cells"] == 9 and row["steps"] == 2
    assert row["h"] == pytest.approx(np.sqrt(2.0) / 3.0, rel=1e-12)
    assert row["e_p"] > 0 and row["e_u"] > 0 and row["e_s"] > 0


def test_observed_rates_on_synthetic_ladder():
    rows = [{"h": h, "e_p": h**2, "e_u": 3 * h**2, "e_s": h} for h in
            (0.4, 0.2, 0.1)]
    rates = studies.observed_rates(rows)
    assert rates["e_p"] == pytest.approx(2.0, rel=1e-12)
    assert rates["e_u"] == pytest.approx(2.0, rel=1e-12)
    assert rates["e_s"] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="two cases"):
        studies.observed_rates(rows[:1])
    rows = [{"dt": 0.1, "e_p": 0.1, "e_u": 0.4, "e_s": 0.2},
            {"dt": 0.05, "e_p": 0.05, "e_u": 0.1, "e_s": 0.2}]
    rates = studies.observed_rates(rows, x_key="dt")
    assert rates["e_p"] == pytest.approx(1.0, rel=1e-12)
    assert rates["e_u"] == pytest.approx(2.0, rel=1e-12)
    assert rates["e_s"] == 0.0


@pytest.mark.parametrize("study, options", [
    (studies.convergence_study,
     {"family": "voronoi", "levels": 3, "base": 3, "dt0": 0.5}),
    (studies.time_refinement_study, {"family": "skewed", "n": 3}),
], ids=["convergence", "time-refinement"])
def test_worker_count_does_not_change_rows(monkeypatch, study, options):
    """A ladder gives the same rows run here (one usable CPU) as in a pool
    of two worker processes (two usable CPUs)."""
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(studies, "ProcessPoolExecutor", Pool)
    rows = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        rows[cpus] = study(**options)
    assert pools == [2]
    assert rows[1] == rows[2]


def test_stabilization_study_reduces_indicator():
    rows = studies.stabilization_study(families=("cartesian",), n=4,
                                       dt=1e-5)
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "cartesian" and row["cells"] == 16
    assert row["stabilized"] < row["unstabilized"]


@pytest.mark.parametrize("family", studies.FAMILIES)
def test_solver_study_iterations_scale_on_every_family(family):
    """Criterion 8's rule on each family: with stabilization the GMRES
    count of one cantilever step at level 2 (n = 40) is at most twice the
    count at level 0 (n = 10)."""
    rows = studies.solver_study((0, 1, 2), family=family)
    iters = [row["iterations"] for row in rows]
    assert all(row["stabilized"] for row in rows)
    assert iters[2] <= 2 * iters[0], iters


# ----- cantilever -----------------------------------------------------------------------

def test_cantilever_bends_downward():
    mesh = build_cartesian(4, 4)
    system, state0 = cantilever.setup(mesh, dt=1e-5, stabilize=True)
    assert np.abs(state0.u).max() == 0.0
    state = system.step(state0)
    tip = np.flatnonzero(np.all(np.isclose(mesh.vertices, [1.0, 1.0]),
                                axis=1))[0]
    assert state.u[2 * tip + 1] < 0.0
    clamped = np.flatnonzero(mesh.vertices[:, 0] < 1e-9)
    for v in clamped:
        assert state.u[2 * v] == 0.0 and state.u[2 * v + 1] == 0.0
