"""Sparse LU and refined direct solve, checked against the default-ordering
partial-pivoting LU with the norm-based refinement loop; Krylov solver and
block preconditioner, checked against a textbook Arnoldi least-squares
implementation, dense factor products and the direct solve."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from poromech.assembly import BoundaryConditions, DiscreteSystem, Material
from poromech.mesh import build_cartesian
from poromech.problems import cantilever, mandel, manufactured
from poromech.problems.studies import FAMILIES, family_mesh
from poromech.solver import (BlockPreconditioner, SolverError, factorize,
                             gmres, separate_components)


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
                      precond=lambda y: np.linalg.solve(a, y))
    assert report.converged and report.iterations == 1
    assert a @ x == pytest.approx(b, abs=1e-8 * np.linalg.norm(b))


def test_matches_textbook_arnoldi_least_squares():
    a, b = random_system(40, seed=3)
    x, report = gmres(lambda v: a @ v, b, rtol=1e-8)
    x_ref, iters_ref = reference_gmres(a, b, rtol=1e-8, maxiter=40)
    assert abs(report.iterations - iters_ref) <= 1
    assert x == pytest.approx(x_ref, abs=1e-6 * np.linalg.norm(x_ref))


def test_residual_history_is_monotone_and_true():
    a, b = random_system(25, seed=5)
    x, report = gmres(lambda v: a @ v, b, rtol=1e-9,
                      precond=lambda y: y / np.diag(a))
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


def test_breakdown_on_annihilating_operator():
    with pytest.raises(SolverError, match="breakdown"):
        gmres(lambda v: np.zeros_like(v), np.ones(4))


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


def test_preconditioner_on_assembled_system_blocks():
    mesh = build_cartesian(4, 4)
    mesh.tag_boundary(pressure=lambda x: x[0] > 1.0 - 1e-9)
    material = Material(shear=1.0, lam=4.0, alpha=1.0, storage=1e-3)
    bcs = BoundaryConditions(
        displacement=[(lambda x: x[0] < 1e-9, (True, True),
                       lambda x, t: (0.0, 0.0))],
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


def test_preconditioner_rejects_nonpositive_displacement_diagonal():
    blocks = random_blocks(seed=4)
    bad = blocks.a_uu.tolil()
    bad[0, 0] = 0.0
    blocks.a_uu = bad.tocsr()
    with pytest.raises(SolverError, match="diagonal"):
        block_preconditioner(blocks)


# ----- sparse LU and refined direct solve -------------------------------------------

class CountingFactor:
    """Factor stand-in that counts solves and scales each result."""

    def __init__(self, factor, scale=1.0):
        self.factor, self.scale, self.solves = factor, scale, 0

    def solve(self, b):
        self.solves += 1
        return self.scale * self.factor.solve(b)


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
