import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ncstokes import analysis, solver
from ncstokes.assembly import (
    apply_constraints,
    assemble_operator,
    assemble_stiffness,
    build_saddle_system,
    restrict_to_interior,
)
from ncstokes.errors import IterationDivergenceError, SingularSystemError
from ncstokes.femspace import SpaceKind, build_dofmap
from ncstokes.mesh import build_structured_mesh, read_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import ProblemSpec, cavity_problem, mms_problem
from ncstokes.solver import (
    Factorization,
    _cg,
    divergence_residual,
    solve_saddle,
)

DATA = Path(__file__).parent / "data"


def zero_vec(x, y):
    return np.stack([np.zeros(np.broadcast(x, y).shape), np.zeros(np.broadcast(x, y).shape)])


def zero_problem(nu=1.0):
    return ProblemSpec(name="zero", nu=nu, f=zero_vec, g=zero_vec)


def reduced_system(n, pair, problem):
    mesh = build_structured_mesh(n)
    system, bc = build_saddle_system(mesh, pair, problem)
    return mesh, system, apply_constraints(system, bc)


def test_factorization_recovers_random_solution(rng):
    mesh = build_structured_mesh(4)
    dm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    A = assemble_stiffness(mesh, dm, nu=1.0).tocsr()
    interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dofs)
    A_II = A[interior][:, interior]
    x = rng.standard_normal(len(interior))
    recovered = Factorization(A_II).solve(A_II @ x)
    assert np.linalg.norm(recovered - x) <= 1e-10 * np.linalg.norm(x)


def test_factorization_rejects_singular_stiffness(reference_triangle_mesh):
    # the unreduced 3x3 block has the constant vector in its kernel
    dm = build_dofmap(reference_triangle_mesh, SpaceKind.NCP1_VECTOR)
    A = assemble_stiffness(reference_triangle_mesh, dm, nu=1.0).toarray()
    block = sp.csr_matrix(A[0::2, 0::2])
    with pytest.raises(SingularSystemError, match="exactly singular"):
        Factorization(block).solve(np.array([1.0, 0.0, -1.0]))


def test_factorization_reports_exactly_singular():
    K = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        Factorization(K)


def test_factorization_without_saddle_solves_a_nonsymmetric_matrix(rng):
    n = 30
    matrix = (sp.random(n, n, density=0.2, random_state=np.random.default_rng(7), format="csc")
              + sp.diags(np.full(n, 4.0))).tocsc()
    assert abs(matrix - matrix.T).max() > 0.1
    b = rng.standard_normal(n)
    x = Factorization(matrix).solve(b)
    assert np.linalg.norm(b - matrix @ x) <= 1e-10 * np.linalg.norm(b)
    # a residual check that read the CSC arrays as CSR would test the transpose
    assert np.linalg.norm(b - matrix.T @ x) > 1e-3 * np.linalg.norm(b)


@pytest.mark.parametrize("pair", list(PairId))
def test_saddle_factorization_checks_residuals_on_the_reduced_arrays(pair):
    _, _, reduced = reduced_system(6, pair, mms_problem(nu=0.01))
    factorization = Factorization(reduced.matrix, saddle=reduced)
    checked = factorization._matrix
    assert checked.format == "csr"
    for arrays in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(checked, arrays), getattr(reduced.matrix, arrays))
    x = factorization.solve(reduced.rhs)
    assert np.linalg.norm(reduced.rhs - reduced.matrix @ x) <= 1e-10 * np.linalg.norm(reduced.rhs)


ZERO_DATA_CASES = [(pair, method) for method in ("direct", "uzawa")
                   for pair in (PairId.NCP1_P0, PairId.NCP1_P1, PairId.P1_P1_STAB)]


# a direct case's id is the bare pair, as it was before the method became a parameter
@pytest.mark.parametrize("pair, method", ZERO_DATA_CASES, ids=[
    str(pair) if method == "direct" else f"{pair}-{method}" for pair, method in ZERO_DATA_CASES
])
def test_zero_body_force_gives_zero_solution(pair, method):
    # a zero right-hand side must not divide by zero in either solver
    _, _, reduced = reduced_system(6, pair, zero_problem())
    solution = solve_saddle(reduced, method=method)
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


@pytest.mark.parametrize("pair", list(PairId))
def test_uzawa_meets_constraint_row_data(pair):
    # every other test leaves the mean constraint's right-hand side at 0
    _, _, reduced = reduced_system(8, pair, mms_problem())
    rhs = reduced.rhs.copy()
    rhs[-1] = 0.3
    reduced = dataclasses.replace(reduced, rhs=rhs)
    direct = solve_saddle(reduced, method="direct")
    uzawa = solve_saddle(reduced, method="uzawa")
    assert abs(reduced.c @ uzawa.p.values - 0.3) <= 1e-14
    scale_u = np.linalg.norm(direct.u.values)
    scale_p = max(1.0, np.linalg.norm(direct.p.values))
    assert np.linalg.norm(direct.u.values - uzawa.u.values) <= 1e-8 * scale_u
    assert np.linalg.norm(direct.p.values - uzawa.p.values) <= 1e-7 * scale_p


@pytest.mark.parametrize(
    "pair, n", [(PairId.NCP1_P1, 6), (PairId.NCP1_P1_STAB, 12), (PairId.NCP1_P1_STAB, 15)]
)
def test_uzawa_corrects_to_the_full_system_residual(pair, n):
    # the Schur CG stops at tol * ||rhs||, so one CG run meets the contract here; the
    # correction path itself is exercised by
    # test_uzawa_failure_names_residual_tolerance_and_corrections
    mesh, system, reduced = reduced_system(n, pair, mms_problem(nu=0.01))
    direct = solve_saddle(reduced, method="direct")
    uzawa = solve_saddle(reduced, method="uzawa")
    assert divergence_residual(system, uzawa) <= 1e-9
    scale_u = np.linalg.norm(direct.u.values)
    scale_p = max(1.0, np.linalg.norm(direct.p.values))
    assert np.linalg.norm(direct.u.values - uzawa.u.values) <= 1e-8 * scale_u
    assert np.linalg.norm(direct.p.values - uzawa.p.values) <= 1e-7 * scale_p


def assert_diagnosed(error, iterations):
    """``error`` carries the residual its message prints, above its tolerance,
    and the ``iterations`` it ran."""
    assert f"residual {error.residual:.3e}" in str(error)
    assert error.residual > error.tolerance
    assert error.iterations == iterations


def test_uzawa_failure_names_residual_tolerance_and_corrections(monkeypatch):
    _, _, reduced = reduced_system(4, PairId.NCP1_P0, mms_problem())
    # a Schur solve that never moves the pressure cannot meet the contract
    monkeypatch.setattr(solver, "_cg", lambda apply_op, b, **kw: np.zeros_like(b))
    with pytest.raises(
        IterationDivergenceError,
        match=r"residual \S+ above tolerance \S+ after 3 corrections "
        r"\(A_II: MMD_AT_PLUS_A, static pivots\)",
    ) as failure:
        solve_saddle(reduced, method="uzawa")
    assert_diagnosed(failure.value, iterations=3)
    assert failure.value.tolerance == pytest.approx(1e-10 * np.linalg.norm(reduced.rhs))


def test_refinement_failure_names_residual_tolerance_and_refinements(monkeypatch):
    hilbert = 1.0 / (np.arange(10)[:, None] + np.arange(10)[None, :] + 1.0)
    # no refinement reaches a residual of 1e-30 on the Hilbert matrix
    monkeypatch.setattr(solver, "_SOLVE_TOL", 1e-30)
    with pytest.raises(
        SingularSystemError,
        match=r"residual \S+ above tolerance \S+ after 3 refinements "
        r"\(MMD_AT_PLUS_A, static pivots\)",
    ) as failure:
        Factorization(hilbert).solve(np.ones(10))
    assert_diagnosed(failure.value, iterations=3)
    assert failure.value.tolerance == 1e-30 * np.linalg.norm(np.ones(10))


def shifted_laplacian(rng, n=12):
    """``L + c c'/c.1`` for a connected weighted graph's Laplacian ``L`` (kernel the
    constants) and a non-uniform positive ``c``: SPD, like Uzawa's Schur operator."""
    W = np.zeros((n, n))
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (3, 9), (2, 7)]
    for i, j in edges:
        W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
    L = np.diag(W.sum(axis=1)) - W
    c = rng.uniform(0.5, 2.0, n)
    return L, c, L + np.outer(c, c) / c.sum()


def test_cg_solves_the_shifted_laplacian(rng):
    L, c, op = shifted_laplacian(rng)
    b = rng.standard_normal(len(L))
    b -= b.mean()
    x = _cg(lambda v: op @ v, b, tol=1e-12, maxiter=100, precondition=lambda r: r)
    expected = np.linalg.solve(op, b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    # on a right-hand side that sums to zero, the shift drops out: c'x = 0 and L x = b
    assert abs(c @ x) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(x)
    assert np.linalg.norm(b - L @ x) <= 1e-12 * np.linalg.norm(b)


def test_cg_failure_names_residual_tolerance_and_iterations(rng):
    _, _, op = shifted_laplacian(rng)
    with pytest.raises(
        IterationDivergenceError,
        match=r"CG residual \S+ \(relative\) above tolerance 1\.0e-12 after 1 iterations",
    ) as failure:
        _cg(lambda v: op @ v, rng.standard_normal(len(op)), tol=1e-12, maxiter=1,
            precondition=lambda r: r)
    assert_diagnosed(failure.value, iterations=1)
    assert failure.value.tolerance == 1e-12


def test_cg_preconditioned_solves_the_shifted_laplacian(rng):
    # an SPD, non-diagonal preconditioner
    _, _, op = shifted_laplacian(rng)
    R = rng.standard_normal(op.shape)
    Q = R @ R.T + np.eye(len(op))
    b = rng.standard_normal(len(op))
    x = _cg(lambda v: op @ v, b, tol=1e-12, maxiter=100, precondition=lambda r: Q @ r)
    assert np.linalg.norm(b - op @ x) <= 1e-12 * np.linalg.norm(b)
    expected = np.linalg.solve(op, b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cg_preconditioned_failure_names_residual_tolerance_and_iterations(rng):
    _, _, op = shifted_laplacian(rng)
    weights = rng.uniform(0.5, 2.0, len(op))
    with pytest.raises(
        IterationDivergenceError,
        match=r"^CG residual \S+ \(relative\) above tolerance 1\.0e-12 after 2 iterations$",
    ):
        _cg(lambda v: op @ v, rng.standard_normal(len(op)), tol=1e-12, maxiter=2,
            precondition=lambda r: r / weights)


def test_pressure_inverse_divides_a_diagonal_mass_bit_for_bit(rng):
    mesh = build_structured_mesh(8)
    M = assemble_operator(mesh, PairId.NCP1_P0, 1.0).M
    b = rng.standard_normal(M.shape[0])
    lu, _ = solver._factorize(M)
    np.testing.assert_array_equal(solver._pressure_inverse(M)(b), lu.solve(b))


def schur_applications(reduced, monkeypatch):
    """Schur operator applications of one Uzawa solve, over all its CG runs."""
    count = 0
    cg = solver._cg

    def counting_cg(apply_op, b, **kwargs):
        def counted(q):
            nonlocal count
            count += 1
            return apply_op(q)

        return cg(counted, b, **kwargs)

    monkeypatch.setattr(solver, "_cg", counting_cg)
    solve_saddle(reduced, method="uzawa")
    return count


def test_uzawa_stops_its_schur_cg_at_the_contract_bound(monkeypatch):
    # ||b|| is about 11 x ||rhs|| here, so a CG stopped at tol relative to ||b|| would end
    # above tol * ||rhs|| and need a second run
    _, _, reduced = reduced_system(12, PairId.NCP1_P1_STAB, mms_problem(nu=0.01))
    runs = 0
    cg = solver._cg

    def counting_cg(*args, **kwargs):
        nonlocal runs
        runs += 1
        return cg(*args, **kwargs)

    monkeypatch.setattr(solver, "_cg", counting_cg)
    solution = solve_saddle(reduced, method="uzawa")
    assert runs == 1
    x = np.concatenate([solution.u.values[reduced.interior], solution.p.values,
                        [solution.multiplier]])
    assert np.linalg.norm(reduced.rhs - reduced.matrix @ x) <= 1e-10 * np.linalg.norm(reduced.rhs)


@pytest.mark.parametrize("mesh_source, pair, bound", [
    ("n24", PairId.NCP1_P1, 80),
    ("jittered_flipped_n6.mesh", PairId.NCP1_P0, 26),
])
def test_uzawa_mass_preconditioner_bounds_the_schur_applications(mesh_source, pair, bound,
                                                                  monkeypatch):
    mesh = (read_mesh(DATA / mesh_source) if mesh_source.endswith(".mesh")
            else build_structured_mesh(int(mesh_source[1:])))
    reduced = reduced_on(mesh, pair)
    assert schur_applications(reduced, monkeypatch) <= bound
    # the bound is one the unpreconditioned CG does not meet
    monkeypatch.setattr(solver, "_pressure_inverse", lambda P: lambda r: r)
    assert schur_applications(reduced, monkeypatch) > bound


def test_unknown_method_rejected():
    _, _, reduced = reduced_system(2, PairId.NCP1_P0, zero_problem())
    with pytest.raises(ValueError):
        solve_saddle(reduced, method="sor")


@pytest.mark.parametrize("pair", [PairId.NCP1_P0, PairId.NCP1_P1_STAB, PairId.P1_P1_STAB])
def test_uzawa_recovers_a_nonzero_multiplier(pair):
    # the multiplier absorbs the net sum of the pressure-row data (sum(c) = 1)
    _, _, reduced = reduced_system(6, pair, mms_problem(nu=0.01))
    reduced.rhs[reduced.n_interior] += 1.0
    direct = solve_saddle(reduced, method="direct")
    uzawa = solve_saddle(reduced, method="uzawa")
    assert direct.multiplier == pytest.approx(1.0, rel=1e-12)
    assert uzawa.multiplier == pytest.approx(direct.multiplier, rel=1e-10)
    scale_u = np.linalg.norm(direct.u.values)
    scale_p = max(1.0, np.linalg.norm(direct.p.values))
    assert np.linalg.norm(direct.u.values - uzawa.u.values) <= 1e-8 * scale_u
    assert np.linalg.norm(direct.p.values - uzawa.p.values) <= 1e-7 * scale_p


def lu_fill(lu, matrix):
    return (lu.L.nnz + lu.U.nnz) / matrix.nnz


@pytest.mark.parametrize("pair", [PairId.NCP1_P1, PairId.NCP1_P1_STAB, PairId.P1_P1_STAB])
def test_nonzero_pressure_block_takes_symmetric_ordering_with_static_pivots(pair):
    fills = []
    for nu in (1.0, 0.01):
        _, _, reduced = reduced_system(20, pair, mms_problem(nu=nu))
        lu, strategy = solver._factorize(reduced.matrix)
        assert strategy == "MMD_AT_PLUS_A, static pivots"
        assert (lu.perm_r == lu.perm_c).all()
        fills.append(lu_fill(lu, reduced.matrix))
    # threshold pivoting moved this fill with nu (10.0 to 11.1 at n = 20)
    assert max(fills) <= 4.0
    assert fills[1] == pytest.approx(fills[0], rel=1e-3)


def test_zero_p0_pressure_block_takes_saddle_order_with_static_pivots():
    fills = []
    for nu in (1.0, 0.01):
        _, _, reduced = reduced_system(20, PairId.NCP1_P0, mms_problem(nu=nu))
        factor = Factorization(reduced.matrix, saddle=reduced)
        assert factor.strategy == "P0 saddle order, static pivots"
        colamd = Factorization(reduced.matrix)
        assert colamd.strategy == "COLAMD, threshold pivots"
        # COLAMD's fill moved with nu (15.2 at nu = 1, 5.6 at nu = 0.01)
        assert factor.fill < colamd.fill
        fills.append(factor.fill)
    assert fills[1] == pytest.approx(fills[0], rel=1e-3)


def test_saddle_order_puts_each_pressure_after_its_last_coupled_velocity():
    _, _, reduced = reduced_system(8, PairId.NCP1_P0, mms_problem())
    order = solver._zero_p0_block_order(reduced)
    n_i, n_p = reduced.n_interior, reduced.n_pressure
    assert np.array_equal(np.sort(order), np.arange(n_i + n_p + 1))
    assert order[-1] == n_i + n_p
    position = np.argsort(order)
    coupling = sp.coo_matrix(reduced.B_I)
    coupled = coupling.data != 0
    rows, cols = coupling.row[coupled], coupling.col[coupled]
    last = np.full(n_p, -1)
    np.maximum.at(last, rows, position[cols])
    assert (position[n_i : n_i + n_p] > last).all()
    # velocities keep the scalar order on both components, pressures fill no gap
    velocity = order[order < n_i]
    assert np.array_equal(velocity[1::2], velocity[0::2] + 1)
    for q in range(n_p):
        between = order[last[q] + 1 : position[n_i + q]]
        assert (between >= n_i).all()


ORDER_MESHES = [f"n{n}" for n in (1, 2, 5, 12, 33, 60)] + [
    "jittered_flipped_n6.mesh", "jittered n9 seed 1", "jittered n17 seed 2", "jittered n24 seed 3",
]


@pytest.mark.parametrize("nu", [1.0, 0.0123])
@pytest.mark.parametrize("mesh_source", ORDER_MESHES)
def test_saddle_order_is_the_full_scalar_factors_order(mesh_source, nu, jittered_flipped_mesh,
                                                       monkeypatch):
    if mesh_source.startswith("jittered "):
        _, n, _, seed = mesh_source.split()
        mesh = jittered_flipped_mesh(int(n[1:]), seed=int(seed))
    elif mesh_source.endswith(".mesh"):
        mesh = read_mesh(DATA / mesh_source)
    else:
        mesh = build_structured_mesh(int(mesh_source[1:]))
    system, bc = build_saddle_system(mesh, PairId.NCP1_P0, mms_problem(nu=nu))
    reduced = apply_constraints(system, bc)
    order = solver._zero_p0_block_order(reduced)
    # the reference: the order read from a full LU of the scalar block instead
    K = reduced.A_II.tocsr()[0::2, 0::2]
    full = solver.spla.splu(K.T.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
    velocity = order[order < reduced.n_interior]
    assert np.array_equal(velocity[0::2] // 2, np.argsort(full.perm_c))
    monkeypatch.setattr(solver.spla, "spilu",
                        lambda A, drop_tol, **options: solver.spla.splu(A, **options))
    np.testing.assert_array_equal(order, solver._zero_p0_block_order(reduced))


@pytest.mark.parametrize("pair", [PairId.NCP1_P1, PairId.NCP1_P1_STAB, PairId.P1_P1_STAB])
def test_saddle_order_is_for_p0_pressures_only(pair):
    _, _, reduced = reduced_system(6, pair, mms_problem())
    assert solver._zero_p0_block_order(reduced) is None
    assert Factorization(reduced.matrix, saddle=reduced).strategy == "MMD_AT_PLUS_A, static pivots"


@pytest.mark.parametrize("nu", [1.0, 0.01])
@pytest.mark.parametrize("make_problem", [mms_problem, cavity_problem])
def test_saddle_order_agrees_with_colamd_on_a_generic_mesh(jittered_flipped_mesh, make_problem, nu):
    mesh = jittered_flipped_mesh(10)
    system, bc = build_saddle_system(mesh, PairId.NCP1_P0, make_problem(nu=nu))
    reduced = apply_constraints(system, bc)
    factor = Factorization(reduced.matrix, saddle=reduced)
    assert factor.strategy == "P0 saddle order, static pivots"
    x = factor.solve(reduced.rhs)
    reference = Factorization(reduced.matrix).solve(reduced.rhs)
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


def test_saddle_order_keeps_a_pressure_without_interior_velocity(reference_triangle_mesh):
    # all three edges are on the boundary: the one pressure couples to no unknown
    system, bc = build_saddle_system(reference_triangle_mesh, PairId.NCP1_P0, mms_problem())
    reduced = apply_constraints(system, bc)
    assert reduced.n_interior == 0
    assert Factorization(reduced.matrix, saddle=reduced).strategy == "P0 saddle order, static pivots"
    assert solve_saddle(reduced).p.values == pytest.approx([0.0])


def test_saddle_order_failure_names_the_strategy():
    _, _, reduced = reduced_system(4, PairId.NCP1_P0, mms_problem())
    singular = reduced.matrix.tolil()
    first_pressure = reduced.n_interior
    singular[first_pressure, :] = 0.0
    singular[:, first_pressure] = 0.0
    with pytest.raises(SingularSystemError,
                       match=r"factorization failed \(P0 saddle order, static pivots\)"):
        Factorization(singular, saddle=reduced)


def test_explicit_zeros_keep_ncp1_p0_fill_low():
    # the zeros that assembly stores give COLAMD the coupled pattern; with
    # eliminate_zeros() this factor holds 3.2e6 entries (1.28e6 with them)
    _, _, reduced = reduced_system(40, PairId.NCP1_P0, mms_problem(nu=0.01))
    lu, _ = solver._factorize(reduced.matrix)
    assert lu.L.nnz + lu.U.nnz < 2.0e6


def test_raw_ncp1_p1_keeps_threshold_pivoting():
    mesh = build_structured_mesh(8)
    system, bc = build_saddle_system(mesh, PairId.NCP1_P1, mms_problem())
    raw = dataclasses.replace(system, G=None, regularization=0.0)
    _, strategy = solver._factorize(apply_constraints(raw, bc).matrix)
    assert strategy == "COLAMD, threshold pivots"


def test_spd_interior_stiffness_takes_symmetric_ordering():
    _, _, reduced = reduced_system(20, PairId.NCP1_P1, mms_problem())
    lu, strategy = solver._factorize(reduced.A_II)
    assert strategy == "MMD_AT_PLUS_A, static pivots"
    assert (lu.perm_r == lu.perm_c).all()


@pytest.mark.parametrize(
    "matrix, strategy",
    [
        ([[1.0, 1.0], [1.0, 1.0]], r"MMD_AT_PLUS_A, static pivots"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], r"COLAMD, threshold pivots"),
    ],
)
def test_factorization_failure_names_the_strategy(matrix, strategy):
    with pytest.raises(SingularSystemError, match=rf"factorization failed \({strategy}\)"):
        Factorization(np.array(matrix))


@pytest.mark.parametrize("n", range(3, 25))
def test_kernel_regularization_keeps_incompressibility(n):
    # README "Known behavior": under 1e-9 from n = 3 on (n = 2 gives 1.46e-9)
    _, system, reduced = reduced_system(n, PairId.NCP1_P1, mms_problem(nu=0.01))
    for method in ("direct", "uzawa"):
        assert divergence_residual(system, solve_saddle(reduced, method=method)) <= 1e-9


def reduced_on(mesh, pair):
    system, bc = build_saddle_system(mesh, pair, mms_problem(nu=0.01))
    return apply_constraints(system, bc)


@pytest.mark.parametrize("pair", list(PairId))
@pytest.mark.parametrize("mesh_source", ["n4", "n13", "jittered_flipped_n6.mesh"])
def test_interior_stiffness_is_two_copies_of_one_scalar_block(pair, mesh_source, rng):
    mesh = (read_mesh(DATA / mesh_source) if mesh_source.endswith(".mesh")
            else build_structured_mesh(int(mesh_source[1:])))
    reduced = reduced_on(mesh, pair)
    A_II = reduced.A_II.tocsr()
    K = A_II[0::2, 0::2]
    assert np.count_nonzero(A_II[0::2, 1::2].data) == 0
    assert np.count_nonzero(A_II[1::2, 0::2].data) == 0
    assert abs(A_II[1::2, 1::2] - K).max() <= 1e-12 * abs(K).max()
    lu, strategy, solve = solver._component_factor(A_II)
    assert strategy == "MMD_AT_PLUS_A, static pivots"
    assert lu.shape == K.shape
    # one vector and one block of right-hand sides against the vector factor
    vector_lu, _ = solver._factorize(A_II)
    for y in (rng.standard_normal(reduced.n_interior), rng.standard_normal((reduced.n_interior, 3))):
        expected = vector_lu.solve(y)
        assert solve(y).shape == y.shape
        assert np.linalg.norm(solve(y) - expected) <= 1e-12 * np.linalg.norm(expected)


def second_component_doubled(A_II):
    return sp.diags(np.tile([1.0, 2.0], A_II.shape[0] // 2)) @ A_II


def one_coupling_entry(A_II):
    coupled = A_II.tolil()
    coupled[0, 1] = 1e-3
    return coupled.tocsr()


def stored_in_the_second_block(A_II, value):
    """``A_II`` with ``value`` stored at a symmetric pair of positions of the
    second component block where ``K`` stores nothing (kept if zero)."""
    coo = A_II.tocoo()
    K = A_II.tocsr()[0::2, 0::2]
    j = np.setdiff1d(np.arange(K.shape[0]), K.indices[K.indptr[0] : K.indptr[1]])[0]
    return sp.coo_matrix((np.r_[coo.data, value, value],
                          (np.r_[coo.row, 1, 2 * j + 1], np.r_[coo.col, 2 * j + 1, 1])),
                         shape=A_II.shape).tocsr()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (functools.partial(stored_in_the_second_block, value=1e-3),
         r"A_II is not two copies of one scalar block: largest mismatch 1\.000e-03 "
         r"in the second component block \(tolerance \S+\)"),
        (second_component_doubled,
         r"A_II is not two copies of one scalar block: largest mismatch \S+ "
         r"in the second component block \(tolerance \S+\)"),
        (one_coupling_entry,
         r"A_II is not two copies of one scalar block: largest mismatch 1\.000e-03 "
         r"in the coupling blocks \(tolerance 0\.000e\+00\)"),
    ],
)
def test_component_factor_rejects_a_stiffness_that_is_not_two_copies(corrupt, message):
    _, _, reduced = reduced_system(6, PairId.NCP1_P0, mms_problem())
    corrupted = type(reduced)(**{**reduced.__dict__, "A_II": corrupt(reduced.A_II)})
    with pytest.raises(ValueError, match=message):
        solver._component_factor(corrupted.A_II)
    # every path that treats A_II as two components checks it
    with pytest.raises(ValueError, match=message):
        solve_saddle(corrupted, method="uzawa")
    with pytest.raises(ValueError, match=message):
        solver._zero_p0_block_order(corrupted)


def test_component_factor_accepts_an_explicit_zero_in_one_block(rng):
    _, _, reduced = reduced_system(6, PairId.NCP1_P0, mms_problem())
    padded = stored_in_the_second_block(reduced.A_II, 0.0)
    # the two blocks' patterns differ, so the check compares them entry by entry
    assert padded.nnz == reduced.A_II.nnz + 2
    y = rng.standard_normal((reduced.n_interior, 3))
    _, _, solve = solver._component_factor(reduced.A_II)
    _, _, padded_solve = solver._component_factor(padded)
    np.testing.assert_array_equal(padded_solve(y), solve(y))


@pytest.mark.parametrize("pair", list(PairId))
@pytest.mark.parametrize("mesh_source", ["n6", "jittered_flipped_n6.mesh"])
def test_shifted_schur_matches_its_dense_form(pair, mesh_source, rng):
    mesh = (read_mesh(DATA / mesh_source) if mesh_source.endswith(".mesh")
            else build_structured_mesh(int(mesh_source[1:])))
    reduced = reduced_on(mesh, pair)
    B_I, G, c = reduced.B_I, reduced.G, reduced.c
    apply, schur, _, strategy = solver._shifted_schur(reduced.A_II, B_I, G, c)
    assert strategy == "MMD_AT_PLUS_A, static pivots"
    # B_I' and G vanish on the constant pressure, which the shift maps to c
    ones = np.ones(reduced.n_pressure)
    assert np.linalg.norm(apply(ones) - c) <= 1e-12 * np.linalg.norm(c)
    lu, _ = solver._factorize(reduced.A_II)
    S = B_I @ lu.solve(B_I.T.toarray())
    dense = S + np.outer(c, c) / c.sum()
    if G is not None:
        dense += G.toarray()
    for q in rng.standard_normal((3, reduced.n_pressure)):
        for operator, matrix in ((apply, dense), (schur, S)):
            expected = matrix @ q
            assert np.linalg.norm(operator(q) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.fixture()
def splu_shapes(monkeypatch):
    """Shapes of the matrices handed to ``scipy.sparse.linalg.splu``."""
    shapes = []
    splu = solver.spla.splu

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", recording_splu)
    return shapes


@pytest.mark.parametrize("pair", list(PairId))
def test_uzawa_factors_the_half_size_scalar_block(pair, splu_shapes):
    _, _, reduced = reduced_system(6, pair, mms_problem(nu=0.01))
    half = reduced.n_interior // 2
    solve_saddle(reduced, method="uzawa")
    # the preconditioner of a P1 pressure is one factor of pressure size; P0 divides
    n_p = reduced.n_pressure
    pressure = [] if pair is PairId.NCP1_P0 else [(n_p, n_p)]
    assert splu_shapes == [(half, half)] + pressure


def test_infsup_iterative_factors_the_half_size_scalar_block(splu_shapes):
    mesh = build_structured_mesh(8)
    operator = assemble_operator(mesh, PairId.NCP1_P0, 1.0)
    _, A_II, _ = restrict_to_interior(operator.vel_dofmap, operator.A)
    half = A_II.shape[0] // 2
    analysis.estimate_infsup(mesh, PairId.NCP1_P0, method="iterative")
    # the diagonal P0 mass is inverted by division, without a factor
    assert splu_shapes == [(half, half)]
    # the dense oracle stays on the vector factor, as an independent check
    splu_shapes.clear()
    analysis.estimate_infsup(mesh, PairId.NCP1_P0, method="dense")
    assert splu_shapes == [A_II.shape]


@pytest.fixture()
def singular_splu(monkeypatch):
    """Every SuperLU factorization breaks down."""
    def breakdown(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.spla, "splu", breakdown)
    # the ncp1-p0 saddle order is read from an incomplete factor
    monkeypatch.setattr(solver.spla, "spilu", breakdown)


BREAKDOWN = r"^factorization failed \(MMD_AT_PLUS_A, static pivots\): Factor is exactly singular$"


@pytest.mark.parametrize("pair", list(PairId))
def test_every_factor_breakdown_is_a_singular_system(pair, singular_splu):
    mesh, _, reduced = reduced_system(4, pair, mms_problem(nu=0.01))
    for method in ("direct", "uzawa"):
        with pytest.raises(SingularSystemError, match=BREAKDOWN):
            solve_saddle(reduced, method=method)
    for method in ("dense", "iterative"):
        with pytest.raises(SingularSystemError, match=BREAKDOWN):
            analysis.estimate_infsup(mesh, pair, method=method)
    with pytest.raises(SingularSystemError, match=BREAKDOWN):
        analysis.consistency_error(mesh, mms_problem(nu=0.01))
