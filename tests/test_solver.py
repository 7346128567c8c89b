"""Sparse LU and refined direct solve, checked against the default-ordering
partial-pivoting LU with the norm-based refinement loop; Krylov solver and
block preconditioner, checked against a textbook Arnoldi least-squares
implementation, the modified Gram-Schmidt GMRES it replaced, dense factor
products and the direct solve."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import poromech.assembly
from poromech.assembly import BoundaryConditions, DiscreteSystem, Material
from poromech.mesh import build_cartesian, build_hybrid
from poromech.problems import cantilever, mandel, manufactured
from poromech.problems.studies import FAMILIES, family_mesh
from poromech.solver import (KRYLOV_CHUNK, BlockPreconditioner, KrylovReport,
                             KrylovStorage, SolverError, factorize, gmres,
                             separate_components)

from helpers import CountingFactor, mgs_gmres


def reference_gmres(a, b, rtol, maxiter):
    """Plain Arnoldi plus dense least squares on the Hessenberg, the
    textbook formulation; no Givens recurrence, no preconditioning."""
    norm_b = np.linalg.norm(b)
    q = [b / norm_b]
    h = np.zeros((maxiter + 1, maxiter))
    y = np.zeros(0)
    for j in range(maxiter):
        w = a @ q[j]
        for i in range(j + 1):
            h[i, j] = q[i] @ w
            w = w - h[i, j] * q[i]
        h[j + 1, j] = np.linalg.norm(w)
        e1 = np.zeros(j + 2)
        e1[0] = norm_b
        y = np.linalg.lstsq(h[:j + 2, :j + 1], e1, rcond=None)[0]
        if np.linalg.norm(h[:j + 2, :j + 1] @ y - e1) <= rtol * norm_b:
            return np.stack(q[:j + 1], axis=1) @ y, j + 1
        q.append(w / h[j + 1, j])
    return np.stack(q[:maxiter], axis=1) @ y, maxiter


def random_system(n=30, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a, rng.standard_normal(n)


# ----- gmres ------------------------------------------------------------------

def test_identity_converges_in_one_iteration():
    b = np.linspace(1.0, 2.0, 8)
    x, report = gmres(lambda v: v, b)
    assert report.converged and report.iterations == 1
    assert x == pytest.approx(b)


def test_exact_inverse_preconditioner_converges_in_one_iteration():
    a, b = random_system()
    x, report = gmres(lambda v: a @ v, b, rtol=1e-10,
                      precond=lambda y, out: np.copyto(
                          out, np.linalg.solve(a, y)))
    assert report.converged and report.iterations == 1
    assert a @ x == pytest.approx(b, abs=1e-8 * np.linalg.norm(b))


def test_matches_textbook_arnoldi_least_squares():
    a, b = random_system(40, seed=3)
    x, report = gmres(lambda v: a @ v, b, rtol=1e-8)
    x_ref, iters_ref = reference_gmres(a, b, rtol=1e-8, maxiter=40)
    assert abs(report.iterations - iters_ref) <= 1
    assert x == pytest.approx(x_ref, abs=1e-6 * np.linalg.norm(x_ref))


def nonnormal_system(seed=0):
    """Upper bidiagonal matrix of order 300: 200 eigenvalues spread over
    [1, 10], 100 outliers up to 1e6 and a superdiagonal of 0.5.  As the
    outliers converge the new Arnoldi vectors lie almost in the span of the
    basis, where one Gram-Schmidt pass loses orthogonality."""
    d = np.concatenate([np.linspace(1.0, 10.0, 200),
                        np.logspace(1.5, 6.0, 100)])
    a = np.diag(d) + np.diag(np.full(d.size - 1, 0.5), 1)
    return a, np.random.default_rng(seed).standard_normal(d.size)


def test_long_nonnormal_solve_matches_textbook_and_stays_orthogonal():
    """About 150 iterations grow the Krylov storage three times past its
    first chunk.  The answer matches the textbook formulation and the last
    recurrence residual equals the true residual; with a single
    Gram-Schmidt pass the same solve stagnates short of rtol."""
    a, b = nonnormal_system()
    x, report = gmres(lambda v: a @ v, b, rtol=1e-10, maxiter=300)
    x_ref, iters_ref = reference_gmres(a, b, rtol=1e-10, maxiter=300)
    assert report.converged and report.iterations > 100 > 2 * KRYLOV_CHUNK
    assert abs(report.iterations - iters_ref) <= 1
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    assert report.residuals[-1] == pytest.approx(
        np.linalg.norm(b - a @ x), abs=1e-8 * np.linalg.norm(b))


def test_residual_history_is_monotone_and_true():
    a, b = random_system(25, seed=5)
    x, report = gmres(lambda v: a @ v, b, rtol=1e-9,
                      precond=lambda y, out: np.divide(y, np.diag(a),
                                                       out=out))
    assert report.residuals.size == report.iterations + 1
    assert np.all(np.diff(report.residuals) <= 1e-12 * report.residuals[0])
    # right preconditioning keeps the recurrence residual equal to the
    # true residual of the original system
    true_res = np.linalg.norm(b - a @ x)
    assert report.residuals[-1] == pytest.approx(
        true_res, abs=1e-8 * np.linalg.norm(b))
    assert report.reduction <= 1e-9


def test_unconverged_at_small_maxiter():
    a, b = random_system(30, seed=1)
    _, report = gmres(lambda v: a @ v, b, rtol=1e-12, maxiter=3)
    assert not report.converged
    assert report.iterations == 3


def test_iterations_capped_by_dimension():
    a, b = random_system(10, seed=2)
    _, report = gmres(lambda v: a @ v, b, rtol=1e-14, maxiter=1000)
    assert report.iterations <= 10


def test_zero_rhs_shortcut():
    x, report = gmres(lambda v: v, np.zeros(5))
    assert np.array_equal(x, np.zeros(5))
    assert report.converged and report.iterations == 0


def test_deterministic_histories():
    a, b = random_system(20, seed=9)
    x1, r1 = gmres(lambda v: a @ v, b, rtol=1e-10)
    x2, r2 = gmres(lambda v: a @ v, b, rtol=1e-10)
    assert np.array_equal(x1, x2)
    assert np.array_equal(r1.residuals, r2.residuals)


def truncated_shift(v):
    """e_1 -> e_2 -> ... -> e_9 -> 0: from e_1, GMRES keeps the residual
    at 1 and breaks down with a singular projected system at iteration 9."""
    w = np.zeros_like(v)
    w[1:9] = v[:8]
    return w


def test_solves_in_one_storage_match_fresh_storage():
    """One KrylovStorage goes through an unconverged solve, a breakdown, a
    solve that grows it past KRYLOV_CHUNK and a short preconditioned solve
    that writes in place; each gives the bits, or the error, of the same
    solve in fresh storage."""
    a, b = nonnormal_system()
    diag = np.diag(a).copy()
    e_1 = np.eye(b.size)[0]
    solves = [(a, b, 1e-12, 3, None), (truncated_shift, e_1, 1e-6, 500, None),
              (a, b, 1e-10, 300, None), (a, b[::-1].copy(), 1e-8, 500, diag)]

    def outcome(op, rhs, rtol, maxiter, scale, storage):
        matvec = op if callable(op) else lambda v: op @ v
        options = {} if scale is None else {
            "precond": lambda v, out: np.divide(v, scale, out=out)}
        try:
            x, report = gmres(matvec, rhs, rtol=rtol, maxiter=maxiter,
                              storage=storage, **options)
        except SolverError as exc:
            return str(exc)
        return x, report.residuals

    storage = KrylovStorage(b.size)
    results = [(outcome(*solve, storage), outcome(*solve, None))
               for solve in solves]
    for used, fresh in results:
        if isinstance(fresh, str):
            assert used == fresh
        else:
            assert all(np.array_equal(u, f) for u, f in zip(used, fresh))
    assert results[0][1][1].size == 4
    assert "breakdown at iteration 9" in results[1][1]
    assert results[2][1][1].size - 1 > 4 * KRYLOV_CHUNK
    assert len(storage.precon) == 8 * KRYLOV_CHUNK


def test_storage_of_another_length_is_rejected():
    with pytest.raises(ValueError, match="length 4"):
        gmres(lambda v: v, np.ones(3), storage=KrylovStorage(4))


def test_breakdown_on_annihilating_operator():
    with pytest.raises(SolverError, match="breakdown"):
        gmres(lambda v: np.zeros_like(v), np.ones(4))


def test_near_breakdown_short_of_rtol_raises():
    """A new Arnoldi vector of relative length 1e-16 is a breakdown when
    the residual it leaves misses rtol; the error gives that residual."""
    with pytest.raises(SolverError, match=r"breakdown at iteration 1 with "
                                          r"relative residual 1\.000e-16"):
        gmres(lambda v: v + 1e-16 * v[::-1], np.array([1.0, 0.0]),
              rtol=1e-20)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_raises(bad):
    with pytest.raises(SolverError, match="right-hand side has a "
                                          "non-finite 2-norm"):
        gmres(lambda v: 2 * v, np.array([1.0, bad, 0.0]))


# ----- separate-component splitting ------------------------------------------------

def test_separate_components_drops_cross_couplings():
    a = sp.csr_matrix(np.arange(1.0, 17.0).reshape(4, 4))
    comps = np.array([0, 1, 0, 1])
    tilde = separate_components(a, comps).toarray()
    full = a.toarray()
    same = comps[:, None] == comps[None, :]
    assert np.array_equal(tilde[same], full[same])
    assert np.all(tilde[~same] == 0.0)


# ----- block preconditioner ----------------------------------------------------------

def named_blocks(a_uu, a_up, a_pp, a_ppi, a_pipi, dt, u_components):
    """Free-dof blocks of the condensed system

        [ A_uu    -A_up      0     ] (u)
        [ A_up^T   A_pp   dt A_ppi ] (p)
        [ 0      A_ppi^T    A_pipi ] (pi)
    """
    return SimpleNamespace(a_uu=a_uu, a_up=a_up, a_pp=a_pp, a_ppi=a_ppi,
                           a_pipi=a_pipi, dt=dt, u_components=u_components)


def condensed(blocks):
    return sp.bmat(
        [[blocks.a_uu, -blocks.a_up, None],
         [blocks.a_up.T, blocks.a_pp, blocks.dt * blocks.a_ppi],
         [None, blocks.a_ppi.T, blocks.a_pipi]], format="csr")


def block_preconditioner(blocks):
    return BlockPreconditioner(condensed(blocks), blocks.u_components,
                               blocks.a_pp.shape[0])


def random_blocks(seed=0, nu=8, npp=5, npi=4, dt=0.3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((nu, nu))
    a_uu = sp.csr_matrix(m @ m.T + nu * np.eye(nu))
    a_up = sp.csr_matrix(rng.standard_normal((nu, npp)))
    m = rng.standard_normal((npp, npp))
    a_pp = sp.csr_matrix(m @ m.T + npp * np.eye(npp))
    a_ppi = sp.csr_matrix(rng.standard_normal((npp, npi)))
    a_pipi = sp.csr_matrix(
        np.diag(rng.uniform(5.0, 6.0, npi)) + 0.1 * np.eye(npi))
    return named_blocks(a_uu, a_up, a_pp, a_ppi, a_pipi, dt,
                        u_components=np.arange(nu) % 2)


def upper_triangular_reference(blocks):
    """Dense assembly of the approximate block factor from its defining
    formulas; the preconditioner must act as its exact inverse."""
    a_uu = blocks.a_uu.toarray()
    a_up = blocks.a_up.toarray()
    a_pp = blocks.a_pp.toarray()
    a_ppi = blocks.a_ppi.toarray()
    a_pipi = blocks.a_pipi.toarray()
    comps = blocks.u_components
    tilde = np.where(comps[:, None] == comps[None, :], a_uu, 0.0)
    fixed_stress = a_pp + np.diag(np.diag(
        a_up.T @ np.diag(1.0 / np.diag(a_uu)) @ a_up))
    d = (np.diag(fixed_stress) + np.abs(fixed_stress).sum(axis=1)
         - np.abs(np.diag(fixed_stress)))
    schur = a_pipi - blocks.dt * (a_ppi.T @ np.diag(1.0 / d) @ a_ppi)
    nu, npp = a_uu.shape[0], a_pp.shape[0]
    n = nu + npp + a_pipi.shape[0]
    u = np.zeros((n, n))
    u[:nu, :nu] = tilde
    u[:nu, nu:nu + npp] = -a_up
    u[nu:nu + npp, nu:nu + npp] = np.diag(d)
    u[nu:nu + npp, nu + npp:] = blocks.dt * a_ppi
    u[nu + npp:, nu + npp:] = schur
    return u


def test_preconditioner_inverts_block_factor():
    blocks = random_blocks(seed=4)
    precond = block_preconditioner(blocks)
    u_ref = upper_triangular_reference(blocks)
    rng = np.random.default_rng(11)
    for _ in range(5):
        y = rng.standard_normal(u_ref.shape[0])
        assert precond(y) == pytest.approx(
            np.linalg.solve(u_ref, y), rel=1e-12, abs=1e-12)
        out = np.full(y.size, np.nan)
        assert precond(y, out) is out
        assert np.array_equal(out, precond(y))


def test_preconditioner_on_assembled_system_blocks():
    mesh = build_cartesian(4, 4)
    material = Material(shear=1.0, lam=4.0, alpha=1.0, storage=1e-3)
    bcs = BoundaryConditions(
        displacement=[(lambda x: x[0] < 1e-9, (True, True),
                       lambda x, t: (0.0, 0.0))],
        pressure_where=lambda x: x[0] > 1.0 - 1e-9,
        pressure=lambda x, t: 0.0)
    system = DiscreteSystem(mesh, material, bcs, dt=1e-4,
                            stabilize=True, linear_solver="gmres")
    free_u, free_pi = system.free_u, system.free_pi
    blocks = named_blocks(
        a_uu=system.a_uu[free_u][:, free_u], a_up=system.a_up[free_u],
        a_pp=system.a_pp, a_ppi=system.a_ppi[:, free_pi],
        a_pipi=system.a_pipi[free_pi][:, free_pi], dt=system.dt,
        u_components=free_u % 2)
    u_ref = upper_triangular_reference(blocks)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(u_ref.shape[0])
    assert system._precond(y) == pytest.approx(np.linalg.solve(u_ref, y),
                                               rel=1e-11, abs=1e-11)


def test_exact_approximations_converge_immediately():
    """When every approximation in the factor is exact (diagonal blocks,
    no displacement-pressure coupling) the preconditioned operator is
    identity plus a nilpotent update."""
    rng = np.random.default_rng(3)
    nu, npp, npi = 6, 4, 3
    blocks = named_blocks(
        a_uu=sp.csr_matrix(np.diag(rng.uniform(1.0, 2.0, nu))),
        a_up=sp.csr_matrix((nu, npp)),
        a_pp=sp.csr_matrix(np.diag(rng.uniform(0.5, 1.5, npp))),
        a_ppi=sp.csr_matrix(0.1 * rng.standard_normal((npp, npi))),
        a_pipi=sp.csr_matrix(np.diag(rng.uniform(2.0, 3.0, npi))),
        dt=0.3, u_components=np.arange(nu) % 2)
    a = condensed(blocks)
    precond = block_preconditioner(blocks)
    b = rng.standard_normal(nu + npp + npi)
    x, report = gmres(lambda v: a @ v, b, rtol=1e-10, precond=precond)
    assert report.converged and report.iterations <= 3
    assert a @ x == pytest.approx(b, abs=1e-9 * np.linalg.norm(b))


def test_preconditioned_solve_matches_direct():
    blocks = random_blocks(seed=8)
    a = condensed(blocks)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(a.shape[0])
    x, report = gmres(lambda v: a @ v, b, rtol=1e-12,
                      precond=block_preconditioner(blocks))
    assert report.converged
    assert x == pytest.approx(np.linalg.solve(a.toarray(), b),
                              abs=1e-9 * np.linalg.norm(b))


def test_preconditioner_rejects_nonpositive_pressure_sweep():
    """One displacement, two pressure and one trace row; the second
    pressure row's l1 sweep entry is its diagonal, -1, as no displacement
    or pressure entry couples to it."""
    matrix = sp.csr_matrix(np.array([[1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, -1.0, 0.5],
                                     [0.0, 0.0, 0.5, 1.0]]))
    with pytest.raises(SolverError, match="sweep is not positive at "
                                          "pressure row 1$"):
        BlockPreconditioner(matrix, np.array([0]), 2)


def test_preconditioner_rejects_nonpositive_displacement_diagonal():
    blocks = random_blocks(seed=4)
    bad = blocks.a_uu.tolil()
    bad[0, 0] = 0.0
    blocks.a_uu = bad.tocsr()
    with pytest.raises(SolverError, match="diagonal"):
        block_preconditioner(blocks)


# ----- sparse LU and refined direct solve -------------------------------------------

def reference_direct_solve(system, b_f):
    """Default-ordering partial-pivoting LU and up to four refinement
    sweeps until the correction is below 1e-13 of the solution."""
    a = system.condensed_matrix()
    lu = spla.splu(sp.csc_matrix(a))
    x_f = lu.solve(b_f)
    for _ in range(4):
        dx = lu.solve(b_f - a @ x_f)
        x_f = x_f + dx
        if np.linalg.norm(dx) <= 1e-13 * np.linalg.norm(x_f):
            break
    return x_f


def free_rhs(system, state, t):
    """Free-dof right-hand side of the step from state to time t."""
    rhs = np.concatenate([system.mech_rhs(t), system.mass_rhs(state, t),
                          system.trace_rhs(t)])
    b_f = rhs[system.free]
    if system.fixed.size:
        b_f = b_f - system._a_fd @ system.dirichlet_values(t)
    return b_f


DIRECT_CASES = FAMILIES + ("mandel",)


def direct_case(case):
    """Manufactured problem of a mesh family at n = 6, or Mandel 6 x 6 at
    dt = 1e-4 Tc: (system, initial state)."""
    if case == "mandel":
        tc = mandel.MandelSolution(mandel.default_material()).t_char
        system, _, state = mandel.setup(build_cartesian(6, 6), 1e-4 * tc)
        return system, state
    return manufactured.setup(family_mesh(case, 6), 0.05)


def test_factorize_singular_matrix_raises():
    with pytest.raises(SolverError, match="factorization"):
        factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]])))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_solves_with_the_matrix_not_its_transpose(seed):
    """The factor of A^T solved transposed returns A^-1 b.  The condensed
    matrix is nonsymmetric, so A^-T b is far from it, which the symmetric
    preconditioner blocks could not show."""
    a = condensed(random_blocks(seed))
    b = np.random.default_rng(seed).standard_normal(a.shape[0])
    x_ref = np.linalg.solve(a.toarray(), b)
    tol = 1e-12 * np.linalg.norm(x_ref)
    assert np.linalg.norm(factorize(a).solve(b) - x_ref) <= tol
    assert np.linalg.norm(np.linalg.solve(a.toarray().T, b) - x_ref) \
        > 1e6 * tol


@pytest.mark.parametrize("case", DIRECT_CASES)
def test_direct_step_matches_reference_in_two_solves(case):
    system, state = direct_case(case)
    t = state.time + system.dt
    x_ref = reference_direct_solve(system, free_rhs(system, state, t))
    counter = CountingFactor(system._lu)
    system._lu = counter
    new = system.step(state)
    assert counter.solves == 2
    x = np.concatenate([new.u, new.p, new.pi])[system.free]
    assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


def test_refinement_that_cannot_converge_raises():
    system, state = direct_case("cartesian")
    counter = CountingFactor(system._lu, scale=0.5)
    system._lu = counter
    with pytest.raises(SolverError, match="refinement"):
        system.step(state)
    assert counter.solves == 5


def test_non_finite_rhs_stops_refinement_after_one_sweep():
    """A NaN in the stepped pressure never reaches the right-hand side:
    the step names the field and its cell before the first LU solve."""
    system, state = direct_case("cartesian")
    state.p[3] = np.nan
    counter = CountingFactor(system._lu)
    system._lu = counter
    with pytest.raises(ValueError, match=r"^state\.p is not finite at "
                                         r"cell 3$"):
        system.step(state)
    assert counter.solves == 0


def test_non_finite_solve_ends_refinement_at_the_check_of_the_result():
    """A factor that returns NaN makes the backward error NaN after the
    first sweep: the sweeps stop there, and the non-finite solution is a
    SolverError, not a refinement stall."""
    system, state = direct_case("cartesian")
    counter = CountingFactor(system._lu, scale=np.nan)
    system._lu = counter
    with pytest.raises(SolverError, match="^linear solve produced "
                                          "non-finite values$"):
        system.step(state)
    assert counter.solves == 2


# ----- GMRES against the direct solve -------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_gmres_cantilever_matches_direct(family):
    """Five stabilized cantilever steps with GMRES at rtol 1e-6 stay within
    1e-4 of the largest entry of each direct-solve field."""
    states = {}
    for solver in ("direct", "gmres"):
        system, state = cantilever.setup(family_mesh(family, 6), 1e-5,
                                         stabilize=True,
                                         linear_solver=solver, rtol=1e-6)
        for _ in range(5):
            state = system.step(state)
        states[solver] = state
    for field in ("u", "p", "pi"):
        ref = getattr(states["direct"], field)
        got = getattr(states["gmres"], field)
        assert np.abs(got - ref).max() <= 1e-4 * np.abs(ref).max(), field


def test_gmres_cantilever_step_raises_when_not_converged():
    """The SolverError that a failed GMRES cantilever step raises."""
    system, state = cantilever.setup(build_cartesian(6, 6), 1e-5,
                                     stabilize=True, linear_solver="gmres",
                                     maxiter=2)
    with pytest.raises(SolverError, match="did not converge in 2 iterations"):
        system.step(state)


def test_gmres_step_failure_reports_the_iterations_run(monkeypatch):
    """An unconverged step reports the iterations GMRES ran, which is
    fewer than maxiter on a system with fewer free dofs."""
    def capped(matvec, b, rtol, maxiter, precond, storage):
        return np.zeros_like(b), KrylovReport(False, 7, np.array([1.0, 0.5]))

    monkeypatch.setattr(poromech.assembly, "gmres", capped)
    system, state = cantilever.setup(build_cartesian(2, 2), 1e-5,
                                     linear_solver="gmres")
    with pytest.raises(SolverError, match=r"did not converge in 7 "
                                          r"iterations \(relative residual "
                                          r"5\.000e-01\)"):
        system.step(state)


def fresh_gmres(matvec, b, rtol, maxiter, precond, storage):
    """gmres as it ran before the Krylov storage was kept: fresh storage
    for every solve, and every preconditioned vector made in a new array,
    then copied into the storage."""
    return gmres(matvec, b, rtol=rtol, maxiter=maxiter,
                 precond=lambda v, out: np.copyto(out, precond(v)))


def cantilever_run(mesh, steps, krylov, monkeypatch):
    """(iterations of each step, last state) of stabilized GMRES cantilever
    steps at dt = 1e-5, solved by krylov."""
    monkeypatch.setattr(poromech.assembly, "gmres", krylov)
    system, state = cantilever.setup(mesh, 1e-5, stabilize=True,
                                     linear_solver="gmres")
    iterations = []
    for _ in range(steps):
        state = system.step(state)
        iterations.append(system.last_report.iterations)
    return iterations, state


def assert_same_bits(state, ref):
    for field in ("u", "p", "pi"):
        assert np.array_equal(getattr(state, field), getattr(ref, field)), \
            field


@pytest.mark.parametrize("family", FAMILIES)
def test_gmres_cantilever_matches_modified_gram_schmidt(family, monkeypatch):
    """Ten stabilized cantilever steps at n = 10 take the same iterations
    with the CGS2 loop as with the modified Gram-Schmidt loop it replaced,
    and the states agree to 1e-10 of the largest entry of each field.  The
    system's reused Krylov storage and in-place preconditioner give the
    states of fresh storage bit for bit."""
    runs = {name: cantilever_run(family_mesh(family, 10), 10, krylov,
                                 monkeypatch)
            for name, krylov in (("mgs", mgs_gmres), ("fresh", fresh_gmres),
                                 ("cgs2", gmres))}
    assert runs["cgs2"][0] == runs["mgs"][0] == runs["fresh"][0]
    for field in ("u", "p", "pi"):
        ref = getattr(runs["mgs"][1], field)
        got = getattr(runs["cgs2"][1], field)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), field
    assert_same_bits(runs["cgs2"][1], runs["fresh"][1])


def test_benchmarked_cantilever_keeps_its_bits_in_reused_storage(
        monkeypatch):
    """The 60 stabilized steps of the 40 x 40 hybrid cantilever take 26
    iterations each and end in the same state, bit for bit, whether every
    solve has fresh Krylov storage or all reuse the system's."""
    mesh = build_hybrid(40, 40)
    fresh = cantilever_run(mesh, 60, fresh_gmres, monkeypatch)
    reused = cantilever_run(mesh, 60, gmres, monkeypatch)
    assert reused[0] == fresh[0] == [26] * 60
    assert_same_bits(reused[1], fresh[1])


def test_steps_of_one_system_share_its_krylov_storage(monkeypatch):
    """Every step of a GMRES system solves in one KrylovStorage, whose
    arrays its first step allocates and later steps reuse; a system with
    another number of free dofs has its own storage."""
    seen = []

    def spy(matvec, b, rtol, maxiter, precond, storage):
        x, report = gmres(matvec, b, rtol=rtol, maxiter=maxiter,
                          precond=precond, storage=storage)
        seen.append((storage, storage.basis))
        return x, report

    monkeypatch.setattr(poromech.assembly, "gmres", spy)
    free = []
    for n in (4, 6):
        system, state = cantilever.setup(build_cartesian(n, n), 1e-5,
                                         linear_solver="gmres")
        for _ in range(3):
            state = system.step(state)
        free.append(system.free.size)
    for runs, n_free in ((seen[:3], free[0]), (seen[3:], free[1])):
        storage, basis = runs[0]
        assert storage.n == n_free
        assert all(s is storage and v is basis for s, v in runs)
    assert seen[0][0] is not seen[3][0]
