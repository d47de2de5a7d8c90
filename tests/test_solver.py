import numpy as np
import pytest
import scipy.sparse as sp

from ncstokes import solver
from ncstokes.assembly import apply_constraints, assemble_stiffness, build_saddle_system
from ncstokes.errors import (
    EigenNonConvergenceError,
    IterationDivergenceError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from ncstokes.femspace import SpaceKind, build_dofmap
from ncstokes.mesh import build_structured_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import ProblemSpec, cavity_problem, mms_problem
from ncstokes.solver import (
    Factorization,
    _projected_cg,
    divergence_residual,
    solve_saddle,
    solve_spd,
)


def zero_vec(x, y):
    return np.stack([np.zeros(np.broadcast(x, y).shape), np.zeros(np.broadcast(x, y).shape)])


def zero_problem(nu=1.0):
    return ProblemSpec(name="zero", nu=nu, f=zero_vec, g=zero_vec)


def reduced_system(n, pair, problem):
    mesh = build_structured_mesh(n)
    system, bc = build_saddle_system(mesh, pair, problem)
    return mesh, system, apply_constraints(system, bc)


def test_solve_spd_identity():
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(solve_spd(sp.identity(3, format="csr"), b), b)


def test_solve_spd_recovers_random_solution(rng):
    mesh = build_structured_mesh(4)
    dm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    A = assemble_stiffness(mesh, dm, nu=1.0).tocsr()
    interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dofs)
    A_II = A[interior][:, interior]
    x = rng.standard_normal(len(interior))
    recovered = solve_spd(A_II, A_II @ x)
    assert np.linalg.norm(recovered - x) <= 1e-10 * np.linalg.norm(x)


def test_solve_spd_rejects_singular_stiffness(reference_triangle_mesh):
    # the unreduced 3x3 block has the constant vector in its kernel
    dm = build_dofmap(reference_triangle_mesh, SpaceKind.NCP1_VECTOR)
    A = assemble_stiffness(reference_triangle_mesh, dm, nu=1.0).toarray()
    block = sp.csr_matrix(A[0::2, 0::2])
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(block, np.array([1.0, 0.0, -1.0]))


def test_solve_spd_rejects_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(A, np.array([0.0, 1.0]))


def test_factorization_reports_exactly_singular():
    K = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        Factorization(K)


@pytest.mark.parametrize("pair", [PairId.NCP1_P0, PairId.NCP1_P1, PairId.P1_P1_STAB])
def test_zero_body_force_gives_zero_solution(pair):
    _, _, reduced = reduced_system(6, pair, zero_problem())
    solution = solve_saddle(reduced)
    assert np.abs(solution.u.values).max() <= 1e-12
    assert np.abs(solution.p.values).max() <= 1e-12
    assert abs(solution.multiplier) <= 1e-12


def test_solution_scales_linearly_with_rhs():
    mesh, system, reduced = reduced_system(6, PairId.NCP1_P0, mms_problem())
    base = solve_saddle(reduced)
    scaled = type(reduced)(**{**reduced.__dict__, "rhs": 3.0 * reduced.rhs})
    tripled = solve_saddle(scaled)
    ref = np.linalg.norm(base.u.values)
    assert np.linalg.norm(tripled.u.values - 3.0 * base.u.values) <= 1e-10 * ref
    assert np.linalg.norm(tripled.p.values - 3.0 * base.p.values) <= 1e-10 * max(
        1.0, np.linalg.norm(base.p.values)
    )
    # velocity linearity for the continuous-pressure pair
    _, _, red_p1 = reduced_system(6, PairId.NCP1_P1, mms_problem())
    base_p1 = solve_saddle(red_p1)
    tripled_p1 = solve_saddle(type(red_p1)(**{**red_p1.__dict__, "rhs": 3.0 * red_p1.rhs}))
    assert np.linalg.norm(
        tripled_p1.u.values - 3.0 * base_p1.u.values
    ) <= 1e-10 * np.linalg.norm(base_p1.u.values)


def test_viscosity_scaling_halves_velocity():
    # same body force, doubled viscosity: u halves, p unchanged
    problem1 = mms_problem(nu=1.0)
    problem2 = ProblemSpec(name="nu2", nu=2.0, f=problem1.f, g=problem1.g)
    _, _, red1 = reduced_system(8, PairId.NCP1_P0, problem1)
    _, _, red2 = reduced_system(8, PairId.NCP1_P0, problem2)
    sol1 = solve_saddle(red1)
    sol2 = solve_saddle(red2)
    scale_u = np.linalg.norm(sol1.u.values)
    scale_p = np.linalg.norm(sol1.p.values)
    assert np.linalg.norm(sol2.u.values - 0.5 * sol1.u.values) <= 1e-9 * scale_u
    assert np.linalg.norm(sol2.p.values - sol1.p.values) <= 1e-9 * max(1.0, scale_p)
    # the continuous-pressure pair's velocity is unconditionally unique too
    _, _, red3 = reduced_system(8, PairId.NCP1_P1, problem1)
    _, _, red4 = reduced_system(8, PairId.NCP1_P1, problem2)
    u1 = solve_saddle(red3).u.values
    u2 = solve_saddle(red4).u.values
    assert np.linalg.norm(u2 - 0.5 * u1) <= 1e-9 * np.linalg.norm(u1)


@pytest.mark.parametrize(
    "pair, problem_factory",
    [
        (PairId.NCP1_P0, mms_problem),
        (PairId.NCP1_P1, mms_problem),
        (PairId.NCP1_P1_STAB, mms_problem),
        (PairId.P1_P1_STAB, mms_problem),
        (PairId.NCP1_P0, cavity_problem),
        (PairId.NCP1_P1, cavity_problem),
    ],
)
def test_discrete_incompressibility(pair, problem_factory):
    mesh, system, reduced = reduced_system(8, pair, problem_factory())
    solution = solve_saddle(reduced)
    assert divergence_residual(system, solution) <= 1e-9


def test_energy_identity_homogeneous_bc():
    mesh, system, reduced = reduced_system(8, PairId.NCP1_P1, mms_problem())
    solution = solve_saddle(reduced)
    u = solution.u.values
    energy = u @ (system.A @ u)
    work = system.rhs_u @ u
    assert energy == pytest.approx(work, rel=1e-9)


def test_pressure_mean_is_zero():
    for pair in (PairId.NCP1_P0, PairId.NCP1_P1):
        mesh, system, reduced = reduced_system(8, pair, cavity_problem())
        solution = solve_saddle(reduced)
        assert abs(system.c @ solution.p.values) <= 1e-10


def test_boundary_values_reinjected_exactly():
    mesh, system, reduced = reduced_system(8, PairId.NCP1_P1, cavity_problem())
    solution = solve_saddle(reduced)
    lid = [d for d, v in zip(reduced.boundary, reduced.boundary_values) if v == 1.0]
    assert len(lid) == 8
    assert (solution.u.values[reduced.boundary] == reduced.boundary_values).all()


def test_repeated_solves_bitwise_identical():
    mesh, system, reduced = reduced_system(8, PairId.NCP1_P1, mms_problem())
    a = solve_saddle(reduced)
    b = solve_saddle(reduced)
    assert (a.u.values == b.u.values).all()
    assert (a.p.values == b.p.values).all()
    assert a.multiplier == b.multiplier


@pytest.mark.parametrize("pair", [PairId.NCP1_P0, PairId.NCP1_P1_STAB])
def test_uzawa_matches_direct_on_nonsingular_pairs(pair):
    mesh, system, reduced = reduced_system(8, pair, mms_problem())
    direct = solve_saddle(reduced, method="direct")
    uzawa = solve_saddle(reduced, method="uzawa")
    scale_u = np.linalg.norm(direct.u.values)
    scale_p = max(1.0, np.linalg.norm(direct.p.values))
    assert np.linalg.norm(direct.u.values - uzawa.u.values) <= 1e-8 * scale_u
    assert np.linalg.norm(direct.p.values - uzawa.p.values) <= 1e-7 * scale_p


@pytest.mark.parametrize("pair, n", [(PairId.NCP1_P1, 6), (PairId.NCP1_P1_STAB, 15)])
def test_uzawa_corrects_to_the_full_system_residual(pair, n):
    # sizes where a single Schur CG solve ends just above tol * ||rhs||
    mesh, system, reduced = reduced_system(n, pair, mms_problem(nu=0.01))
    direct = solve_saddle(reduced, method="direct")
    uzawa = solve_saddle(reduced, method="uzawa")
    assert divergence_residual(system, uzawa) <= 1e-9
    scale_u = np.linalg.norm(direct.u.values)
    scale_p = max(1.0, np.linalg.norm(direct.p.values))
    assert np.linalg.norm(direct.u.values - uzawa.u.values) <= 1e-8 * scale_u
    assert np.linalg.norm(direct.p.values - uzawa.p.values) <= 1e-7 * scale_p


def test_uzawa_failure_names_residual_tolerance_and_corrections(monkeypatch):
    _, _, reduced = reduced_system(4, PairId.NCP1_P0, mms_problem())
    # a Schur solve that never moves the pressure cannot meet the contract
    monkeypatch.setattr(solver, "_projected_cg", lambda apply_op, b, **kw: np.zeros_like(b))
    with pytest.raises(
        IterationDivergenceError,
        match=r"residual \S+ above tolerance \S+ after 3 corrections",
    ):
        solve_saddle(reduced, method="uzawa")


def test_refinement_failure_names_residual_tolerance_and_refinements():
    hilbert = 1.0 / (np.arange(10)[:, None] + np.arange(10)[None, :] + 1.0)
    with pytest.raises(
        SingularSystemError,
        match=r"residual \S+ above tolerance \S+ after 3 refinements",
    ):
        Factorization(hilbert).solve(np.ones(10), tol=1e-30)


def weighted_graph_laplacian(rng, n=12):
    """A connected weighted graph's Laplacian: symmetric, kernel the constants."""
    W = np.zeros((n, n))
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (3, 9), (2, 7)]
    for i, j in edges:
        W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
    return np.diag(W.sum(axis=1)) - W


def mean_free_jacobi(L):
    d = np.diag(L)

    def precondition(r):
        z = r / d
        return z - z.mean()

    return precondition


@pytest.mark.parametrize("preconditioned", [False, True])
def test_projected_cg_solves_singular_laplacian(rng, preconditioned):
    L = weighted_graph_laplacian(rng)
    b = rng.standard_normal(len(L))
    precondition = mean_free_jacobi(L) if preconditioned else None
    x = _projected_cg(lambda v: L @ v, b, tol=1e-12, maxiter=100, precondition=precondition)
    expected = np.linalg.pinv(L) @ b
    assert abs(x.mean()) <= 1e-14 * np.linalg.norm(x)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("error", [IterationDivergenceError, EigenNonConvergenceError])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_projected_cg_raises_the_callers_error(rng, error, preconditioned):
    L = weighted_graph_laplacian(rng)
    precondition = mean_free_jacobi(L) if preconditioned else None
    with pytest.raises(
        error, match=r"CG residual \S+ \(relative\) above tolerance 1\.0e-12 after 1 iterations"
    ):
        _projected_cg(
            lambda v: L @ v, rng.standard_normal(len(L)), tol=1e-12, maxiter=1,
            precondition=precondition, error=error,
        )


def test_unknown_method_rejected():
    _, _, reduced = reduced_system(2, PairId.NCP1_P0, zero_problem())
    with pytest.raises(ValueError):
        solve_saddle(reduced, method="sor")
