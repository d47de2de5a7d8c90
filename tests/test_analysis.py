import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ncstokes.analysis import (
    ConvergenceRecord,
    ErrorReport,
    consistency_error,
    convergence_rates,
    error_norms,
    estimate_infsup,
    ih_projection,
)
from ncstokes.assembly import assemble_divergence, build_saddle_system, apply_constraints
from ncstokes.cli import solve_on_mesh
from ncstokes.errors import EigenNonConvergenceError
from ncstokes.femspace import FieldCoefficients, SpaceKind, build_dofmap, interpolate
from ncstokes.mesh import build_structured_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import ProblemSpec, mms_problem
from ncstokes.solver import SolutionField, solve_saddle

# dense-oracle values for the classic stable pair on the diagonal family,
# frozen from scipy.linalg.eigh on the projected Schur pencil
CRP0_BETA = {4: 0.6698374784586067, 8: 0.5855438083169888}


def linear_problem():
    def u(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.stack([2 * x + 3 * y, x - 2 * y])

    def gu(x, y):
        shape = np.broadcast(x, y).shape
        return np.stack(
            [
                np.stack([np.full(shape, 2.0), np.full(shape, 3.0)]),
                np.stack([np.full(shape, 1.0), np.full(shape, -2.0)]),
            ]
        )

    def p(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return x - 0.5

    zero = lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape)
    return ProblemSpec(name="linear", nu=1.0, f=zero, g=u, exact_u=u, exact_grad_u=gu, exact_p=p)


def test_error_norms_vanish_for_reproduced_linear_fields(mesh_n4):
    problem = linear_problem()
    solution = SolutionField(
        u=interpolate(problem.exact_u, mesh_n4, SpaceKind.NCP1_VECTOR),
        p=interpolate(problem.exact_p, mesh_n4, SpaceKind.P1_SCALAR),
        multiplier=0.0,
    )
    report = error_norms(mesh_n4, solution, problem)
    assert report.l2_u <= 1e-12
    assert report.h1h_u <= 1e-12
    assert report.l2_p <= 1e-12


def test_error_norms_require_exact_solution(mesh_n2):
    from ncstokes.problems import cavity_problem

    problem = cavity_problem()
    vdm = build_dofmap(mesh_n2, SpaceKind.NCP1_VECTOR)
    solution = SolutionField(
        u=FieldCoefficients(vdm, np.zeros(vdm.n_dofs)),
        p=FieldCoefficients(build_dofmap(mesh_n2, SpaceKind.P1_SCALAR), np.zeros(9)),
        multiplier=0.0,
    )
    with pytest.raises(ValueError):
        error_norms(mesh_n2, solution, problem)


def synthetic_records(errors, hs):
    out = []
    for (e1, e2, e3), h, n in zip(errors, hs, range(1, len(hs) + 1)):
        report = ErrorReport(e1, e2, e3, e1, e2, e3)
        out.append(ConvergenceRecord(n=n, h=h, errors=report))
    return out


def test_convergence_rates_synthetic_orders():
    records = synthetic_records([(0.1, 0.2, 0.3), (0.025, 0.1, 0.075)], [0.2, 0.1])
    rated = convergence_rates(records)
    assert rated[0].rate_l2 is None
    assert rated[1].rate_l2 == pytest.approx(2.0, abs=1e-14)
    assert rated[1].rate_h1 == pytest.approx(1.0, abs=1e-14)
    assert rated[1].rate_p == pytest.approx(2.0, abs=1e-14)


def test_convergence_rates_constant_errors_give_zero():
    records = synthetic_records([(0.1, 0.1, 0.1), (0.1, 0.1, 0.1)], [0.2, 0.1])
    assert convergence_rates(records)[1].rate_l2 == pytest.approx(0.0, abs=1e-14)


def test_convergence_rates_validations():
    with pytest.raises(ValueError):
        convergence_rates([])
    records = synthetic_records([(1, 1, 1), (1, 1, 1)], [0.1, 0.2])
    with pytest.raises(ValueError):
        convergence_rates(records)
    single = convergence_rates(synthetic_records([(1, 1, 1)], [0.1]))
    assert len(single) == 1 and single[0].rate_l2 is None


def test_ih_projection_of_constant(mesh_n4):
    q = interpolate(lambda x, y: np.ones(np.broadcast(x, y).shape), mesh_n4, SpaceKind.P1_SCALAR)
    proj = ih_projection(q, mesh_n4)
    assert proj.space is SpaceKind.P0_SCALAR
    np.testing.assert_allclose(proj.values, 3.0, atol=1e-15)


def test_ih_projection_of_linear_on_reference(reference_triangle_mesh):
    q = interpolate(
        lambda x, y: np.broadcast_arrays(x, y)[0], reference_triangle_mesh, SpaceKind.P1_SCALAR
    )
    proj = ih_projection(q, reference_triangle_mesh)
    assert proj.values[0] == pytest.approx(1.0, abs=1e-15)
    # equals (d+1) times the centroid value in 2D
    assert proj.values[0] == pytest.approx(3.0 * (1.0 / 3.0), abs=1e-15)


def test_ih_projection_requires_linear_pressure(mesh_n2):
    q = FieldCoefficients(build_dofmap(mesh_n2, SpaceKind.P0_SCALAR), np.zeros(8))
    with pytest.raises(ValueError):
        ih_projection(q, mesh_n2)


def test_divergence_identity_for_vertex_patch_projection(mesh_n4, rng):
    # d(v, q) = (1/3) d(v, projection of q) for all coefficient vectors
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    p1 = build_dofmap(mesh_n4, SpaceKind.P1_SCALAR)
    p0 = build_dofmap(mesh_n4, SpaceKind.P0_SCALAR)
    B1 = assemble_divergence(mesh_n4, vdm, p1)
    B0 = assemble_divergence(mesh_n4, vdm, p0)
    for _ in range(50):
        v = rng.standard_normal(vdm.n_dofs)
        q = rng.standard_normal(p1.n_dofs)
        proj = ih_projection(FieldCoefficients(p1, q), mesh_n4)
        left = q @ (B1 @ v)
        right = proj.values @ (B0 @ v) / 3.0
        assert abs(left - right) <= 1e-13 * max(1.0, abs(left), abs(right))


def test_infsup_crp0_matches_frozen_dense_oracle():
    for n, frozen in CRP0_BETA.items():
        est = estimate_infsup(build_structured_mesh(n), PairId.NCP1_P0, n=n, method="dense")
        assert est.beta_h == pytest.approx(frozen, abs=1e-9)
        assert est.n == n
        assert est.h == pytest.approx(np.sqrt(2.0) / n)


def test_infsup_iterative_agrees_with_dense():
    for n in (4, 8):
        dense = estimate_infsup(build_structured_mesh(n), PairId.NCP1_P0, method="dense")
        iterative = estimate_infsup(build_structured_mesh(n), PairId.NCP1_P0, method="iterative")
        assert abs(dense.beta_h - iterative.beta_h) <= 1e-8


@pytest.mark.parametrize("pair", list(PairId))
@pytest.mark.parametrize("n", [2, 4, 8, "jittered"])
def test_infsup_iterative_agrees_with_dense_on_every_pair(pair, n, jittered_flipped_mesh):
    # at n = 2, ncp1-p0 has 8 pressure unknowns, fewer than ARPACK's 20 Arnoldi vectors
    mesh = jittered_flipped_mesh(6) if n == "jittered" else build_structured_mesh(n)
    dense = estimate_infsup(mesh, pair, method="dense").beta_h
    iterative = estimate_infsup(mesh, pair, method="iterative").beta_h
    assert abs(dense - iterative) <= 1e-8


def test_infsup_iterative_failure_names_residual_tolerance_and_iterations(monkeypatch):
    # ARPACK reports no residual for a Ritz pair that did not converge
    def no_convergence(op, k, which, v0, **kwargs):
        assert "maxiter" not in kwargs  # ARPACK's own restart limit
        op.matvec(op.matvec(v0))
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((len(v0), 0)))

    monkeypatch.setattr(spla, "eigs", no_convergence)
    # ncp1-p0 at n = 16 has 512 pressure unknowns: ten restarts each
    with pytest.raises(
        EigenNonConvergenceError,
        match=r"^Arnoldi did not converge to tolerance 0 \(machine precision\) after "
        r"5120 restarts and \d+ operator applications$",
    ):
        estimate_infsup(build_structured_mesh(16), PairId.NCP1_P0, method="iterative")


@pytest.mark.parametrize("pair", list(PairId))
def test_infsup_residual_check_rejects_the_constant_pressure(monkeypatch, pair):
    # the shift c c'/c.1 gives the constant eigenvalue 1 exactly, so the check
    # must use the unshifted S, which has the constant in its kernel: residual 1
    def constant_pressure(op, k, which, v0, **kwargs):
        return np.ones(1), np.ones((len(v0), 1))

    monkeypatch.setattr(spla, "eigs", constant_pressure)
    with pytest.raises(
        EigenNonConvergenceError,
        match=r"^Arnoldi residual 1\.000e\+00 above tolerance 1\.0e-06 "
        r"after 0 operator applications$",
    ):
        estimate_infsup(build_structured_mesh(8), pair, method="iterative")


def test_infsup_iterative_is_singular_where_dense_is():
    # the spurious pressure modes of the structured grid give beta = 0; the
    # default restart limit lets the iteration settle there
    mesh = build_structured_mesh(48)
    assert estimate_infsup(mesh, PairId.P1_P1_STAB, method="iterative").beta_h <= 1e-6
    mesh = build_structured_mesh(32)
    for seed in range(3):
        beta = estimate_infsup(mesh, PairId.NCP1_P1, method="iterative", seed=seed).beta_h
        assert beta <= 1e-6


def test_infsup_iterative_matches_dense_on_every_start_vector():
    # guards against convergence to another eigenvalue of the paper's pair
    mesh = build_structured_mesh(16)
    dense = estimate_infsup(mesh, PairId.NCP1_P0, method="dense").beta_h
    for seed in range(5):
        iterative = estimate_infsup(mesh, PairId.NCP1_P0, method="iterative", seed=seed).beta_h
        assert iterative == pytest.approx(dense, rel=1e-12, abs=0)


def test_infsup_estimator_is_deterministic(mesh_n4):
    a = estimate_infsup(mesh_n4, PairId.NCP1_P0, method="iterative").beta_h
    b = estimate_infsup(mesh_n4, PairId.NCP1_P0, method="iterative").beta_h
    assert a == b


def test_infsup_continuous_pressure_pair_is_singular_on_grid_topology():
    # pressures whose vertex values sum identically over every triangle are
    # invisible to the divergence coupling on this connectivity; the pencil
    # therefore has zero eigenvalues beyond the constant mode
    for n in (4, 8):
        est = estimate_infsup(build_structured_mesh(n), PairId.NCP1_P1, method="dense")
        assert est.beta_h <= 1e-6


@pytest.mark.parametrize("method", ["qr", "auto"])
def test_infsup_rejects_unknown_method(mesh_n2, method):
    with pytest.raises(ValueError):
        estimate_infsup(mesh_n2, PairId.NCP1_P0, method=method)


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_infsup_needs_a_mean_free_pressure(reference_triangle_mesh, method):
    # one triangle carries a single P0 pressure unknown: only the constant
    with pytest.raises(ValueError, match="ncp1-p0 has a single pressure unknown"):
        estimate_infsup(reference_triangle_mesh, PairId.NCP1_P0, method=method)
    # three P1 pressure unknowns leave two mean-free pressures, and with every velocity
    # dof on the boundary no velocity sees them
    assert estimate_infsup(reference_triangle_mesh, PairId.NCP1_P1, method=method).beta_h == 0.0


def test_consistency_error_vanishes_for_conforming_polynomial_data(mesh_n8):
    problem = linear_problem()
    zero_f = problem.f
    conforming = ProblemSpec(
        name="linear",
        nu=1.0,
        f=zero_f,
        g=problem.g,
        exact_u=problem.exact_u,
        exact_grad_u=problem.exact_grad_u,
        exact_p=lambda x, y: np.full(np.broadcast(x, y).shape, 0.7),
    )
    # f = -nu lap(u) + grad(p) = 0 for linear u and constant p
    assert consistency_error(mesh_n8, conforming) <= 1e-10


def test_consistency_error_regression_anchor():
    # frozen from the first run; guards the residual assembly and dual norm
    value = consistency_error(build_structured_mesh(10), mms_problem())
    assert value == pytest.approx(1.764948749460, rel=1e-8)


def test_consistency_error_halves_under_refinement():
    problem = mms_problem()
    e10 = consistency_error(build_structured_mesh(10), problem)
    e20 = consistency_error(build_structured_mesh(20), problem)
    assert 0.45 <= e20 / e10 <= 0.55


def test_mms_reference_errors_level10():
    # reference magnitudes for the continuous-pressure pair at n=10 with the
    # effective table viscosity 0.01 (see decisions ledger)
    mesh = build_structured_mesh(10)
    problem = mms_problem(nu=0.01)
    _, solution = solve_on_mesh(mesh, PairId.NCP1_P1, problem)
    report = error_norms(mesh, solution, problem)
    assert report.rel_l2_u == pytest.approx(0.152528, rel=0.25)
    assert report.rel_h1_u == pytest.approx(0.474482, rel=0.25)
    assert report.rel_l2_p == pytest.approx(0.0761601, rel=0.25)
