"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

The convergence tables are reproduced at viscosity 0.01, which is the value
the reference tables were computed with (at 0.01 this implementation matches
all four tables to six significant digits; see the decisions ledger). Tests
marked xfail(strict=True) assert criteria exactly as originally stated and
document where they are unattainable: the continuous-pressure pair is
singular on structured grid topologies, and the stable pair's inf-sup ratio
converges slightly below the stated gate at the stated levels.
"""

import time
from math import factorial

import numpy as np
import pytest
import sympy

from ncstokes.analysis import (
    consistency_error,
    error_norms,
    estimate_infsup,
    ih_projection,
)
from ncstokes.assembly import (
    apply_constraints,
    assemble_divergence,
    assemble_pressure_mass,
    assemble_stabilization,
    assemble_stiffness,
    build_saddle_system,
)
from ncstokes.cli import run_convergence_study, solve_on_mesh, write_vtk
from ncstokes.femspace import FieldCoefficients, SpaceKind, build_dofmap, quadrature
from ncstokes.mesh import build_structured_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import ProblemSpec, cavity_problem, mms_problem
from ncstokes.solver import divergence_residual, solve_saddle

LEVELS = (10, 20, 30, 40, 50, 60)
TABLE_NU = 0.01  # effective viscosity of the reference tables

# reference tables: n -> (rel_l2_u, rel_h1_u, rel_l2_p)
TABLE_1 = {
    10: (0.151784, 0.470627, 0.129512),
    20: (0.0426512, 0.248179, 0.0571999),
    30: (0.0194144, 0.167253, 0.0366254),
    40: (0.0110149, 0.125928, 0.0270155),
    50: (0.00707796, 0.100926, 0.0214341),
    60: (0.00492609, 0.0841883, 0.0177783),
}
TABLE_2 = {
    10: (0.152528, 0.474482, 0.0761601),
    20: (0.0428488, 0.250109, 0.0224344),
    30: (0.0195085, 0.168554, 0.010413),
    40: (0.0110695, 0.126911, 0.00597363),
    50: (0.00711356, 0.101716, 0.00386744),
    60: (0.00495107, 0.0848496, 0.00270709),
}


def note(message):
    print(f"\n{message}", flush=True)


@pytest.fixture(scope="module")
def studies():
    cache = {}

    def get(pair, nu=TABLE_NU):
        key = (pair, nu)
        if key not in cache:
            start = time.perf_counter()
            records = run_convergence_study(pair, mms_problem(nu=nu), list(LEVELS))
            cache[key] = (records, time.perf_counter() - start)
        return cache[key]

    return get


def test_criterion_1_table2_reproduction(studies):
    records, seconds = studies(PairId.NCP1_P1)
    final = records[-1]
    assert final.rate_l2 >= 1.95
    assert 0.97 <= final.rate_h1 <= 1.03
    assert final.rate_p >= 1.90
    for record in records:
        ref = TABLE_2[record.n]
        assert record.errors.rel_l2_u == pytest.approx(ref[0], rel=0.25)
        assert record.errors.rel_h1_u == pytest.approx(ref[1], rel=0.25)
        assert record.errors.rel_l2_p == pytest.approx(ref[2], rel=0.25)
    assert seconds <= 60.0
    note(
        f"[PASS] criterion 1: table-2 sweep rates {final.rate_l2:.4f}/"
        f"{final.rate_h1:.4f}/{final.rate_p:.4f}, magnitudes within 25% "
        f"(max dev {max(abs(r.errors.rel_l2_u / TABLE_2[r.n][0] - 1) for r in records):.2e}), "
        f"{seconds:.1f}s"
    )


@pytest.mark.xfail(
    strict=True,
    reason="criterion stated with viscosity 1, but the reference tables were "
    "computed at 0.01; at viscosity 1 the pressure error is dominated by the "
    "velocity consistency term (first order, different magnitudes)",
)
def test_criterion_1_literal_viscosity_one(studies):
    records, _ = studies(PairId.NCP1_P1, nu=1.0)
    final = records[-1]
    note(
        "[FAIL documented] criterion 1 at viscosity 1: final rates "
        f"{final.rate_l2:.4f}/{final.rate_h1:.4f}/{final.rate_p:.4f}, "
        f"n=10 magnitudes {records[0].errors.rel_l2_u:.4g}/"
        f"{records[0].errors.rel_h1_u:.4g}/{records[0].errors.rel_l2_p:.4g} "
        f"vs table {TABLE_2[10]}"
    )
    assert final.rate_p >= 1.90
    for record in records:
        ref = TABLE_2[record.n]
        assert record.errors.rel_l2_u == pytest.approx(ref[0], rel=0.25)
        assert record.errors.rel_l2_p == pytest.approx(ref[2], rel=0.25)


def test_criterion_2_table1_baseline(studies):
    records, _ = studies(PairId.NCP1_P0)
    final = records[-1]
    assert 0.95 <= final.rate_p <= 1.15
    assert final.rate_l2 >= 1.95
    assert 0.97 <= final.rate_h1 <= 1.03
    for record in records:
        ref = TABLE_1[record.n]
        assert record.errors.rel_l2_u == pytest.approx(ref[0], rel=0.25)
        assert record.errors.rel_l2_p == pytest.approx(ref[2], rel=0.25)
    # headline claim: continuous pressure upgrades the pressure order
    p1_records, _ = studies(PairId.NCP1_P1)
    assert p1_records[-1].rate_p >= 1.90 > final.rate_p
    note(
        f"[PASS] criterion 2: baseline pressure rate {final.rate_p:.4f} "
        f"(first order) vs upgraded {p1_records[-1].rate_p:.4f}"
    )


def test_criterion_3_stabilized_variants(studies):
    unstab, _ = studies(PairId.NCP1_P1)
    stab, _ = studies(PairId.NCP1_P1_STAB)
    worst = 0.0
    for a, b in zip(unstab, stab):
        for attr in ("rel_l2_u", "rel_h1_u", "rel_l2_p"):
            ea, eb = getattr(a.errors, attr), getattr(b.errors, attr)
            worst = max(worst, abs(eb - ea) / ea)
            assert eb == pytest.approx(ea, rel=0.02)
    p1p1, _ = studies(PairId.P1_P1_STAB)
    assert 1.95 <= p1p1[-1].rate_l2 <= 2.15
    note(
        f"[PASS] criterion 3: stabilization changes errors by at most "
        f"{100 * worst:.2f}%; equal-order velocity rate {p1p1[-1].rate_l2:.4f}"
    )


def test_criterion_4_projection_identity():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        vdm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
        p1 = build_dofmap(mesh, SpaceKind.P1_SCALAR)
        p0 = build_dofmap(mesh, SpaceKind.P0_SCALAR)
        B1 = assemble_divergence(mesh, vdm, p1)
        B0 = assemble_divergence(mesh, vdm, p0)
        for _ in range(100):
            v = rng.standard_normal(vdm.n_dofs)
            q = rng.standard_normal(p1.n_dofs)
            left = q @ (B1 @ v)
            right = ih_projection(FieldCoefficients(p1, q), mesh).values @ (B0 @ v) / 3.0
            scale = max(1.0, abs(left), abs(right))
            worst = max(worst, abs(left - right) / scale)
            assert abs(left - right) <= 1e-13 * scale
    seconds = time.perf_counter() - start
    assert seconds < 1.0
    note(f"[PASS] criterion 4: identity holds to {worst:.2e} on 300 random pairs, {seconds:.2f}s")


@pytest.fixture(scope="module")
def crp0_betas():
    return {
        n: estimate_infsup(build_structured_mesh(n), PairId.NCP1_P0, n=n).beta_h
        for n in (4, 8, 16, 32)
    }


def test_criterion_5_stable_pair_witness(crp0_betas):
    assert all(beta > 1e-6 for beta in crp0_betas.values())
    for n in (4, 8):
        dense = estimate_infsup(build_structured_mesh(n), PairId.NCP1_P0, method="dense").beta_h
        iterative = estimate_infsup(
            build_structured_mesh(n), PairId.NCP1_P0, method="iterative"
        ).beta_h
        assert abs(dense - iterative) <= 1e-8
    betas = [crp0_betas[n] for n in (4, 8, 16, 32)]
    note(
        "[PASS] criterion 5 (stable pair): beta = "
        + ", ".join(f"{b:.4f}" for b in betas)
        + f"; dense/iterative agree to 1e-8; final ratio {betas[-1] / betas[-2]:.4f}"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the continuous-pressure pair is singular on the structured grid "
    "topology: pressures whose vertex sums are constant per triangle (two "
    "modes beyond the constant) are invisible to the divergence form, so "
    "beta is zero at machine precision",
)
def test_criterion_5_continuous_pressure_positivity():
    betas = {
        n: estimate_infsup(build_structured_mesh(n), PairId.NCP1_P1, n=n).beta_h
        for n in (4, 8, 16, 32)
    }
    note(
        "[FAIL documented] criterion 5 (continuous pressure): beta = "
        + ", ".join(f"{n}:{b:.2e}" for n, b in betas.items())
    )
    assert all(beta > 1e-6 for beta in betas.values())


@pytest.mark.xfail(
    strict=True,
    reason="the stable pair's inf-sup constant converges to a positive limit "
    "but its 16->32 ratio is 0.943, below the stated 0.95 gate",
)
def test_criterion_5_stable_pair_final_ratio(crp0_betas):
    ratio = crp0_betas[32] / crp0_betas[16]
    note(f"[FAIL documented] criterion 5 ratio gate: beta(32)/beta(16) = {ratio:.4f} < 0.95")
    assert ratio >= 0.95


def test_criterion_6_consistency_rate():
    problem = mms_problem()
    errors = {n: consistency_error(build_structured_mesh(n), problem) for n in (10, 20, 40)}
    r1 = errors[20] / errors[10]
    r2 = errors[40] / errors[20]
    assert 0.45 <= r1 <= 0.55
    assert 0.45 <= r2 <= 0.55
    note(f"[PASS] criterion 6: consistency ratios {r1:.4f}, {r2:.4f}")


def test_criterion_7_solver_contracts():
    zero = lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape)
    quiet = ProblemSpec(name="quiet", nu=1.0, f=zero, g=zero)
    for pair in PairId:
        system, bc = build_saddle_system(build_structured_mesh(6), pair, quiet)
        solution = solve_saddle(apply_constraints(system, bc))
        assert np.abs(solution.u.values).max() <= 1e-12
        assert np.abs(solution.p.values).max() <= 1e-12

    problem = mms_problem()
    mesh = build_structured_mesh(8)
    system, bc = build_saddle_system(mesh, PairId.NCP1_P1, problem)
    reduced = apply_constraints(system, bc)
    base = solve_saddle(reduced)
    scaled = type(reduced)(**{**reduced.__dict__, "rhs": 3.0 * reduced.rhs})
    tripled = solve_saddle(scaled)
    assert np.linalg.norm(tripled.u.values - 3.0 * base.u.values) <= 1e-9 * np.linalg.norm(
        base.u.values
    )

    doubled_nu = ProblemSpec(name="nu2", nu=2.0, f=problem.f, g=problem.g)
    system2, bc2 = build_saddle_system(mesh, PairId.NCP1_P1, doubled_nu)
    halved = solve_saddle(apply_constraints(system2, bc2))
    assert np.linalg.norm(halved.u.values - 0.5 * base.u.values) <= 1e-9 * np.linalg.norm(
        base.u.values
    )
    # the pressure of this pair is defined modulo the topological kernel of
    # the divergence coupling; compare the representatives on its complement
    # (B_I does not depend on the kernel regularization, which sits in the G block)
    import scipy.linalg

    kernel = scipy.linalg.null_space(reduced.B_I.T.toarray(), rcond=1e-10)
    assert kernel.shape[1] == 3  # constants plus the two grid-topology modes
    dp = halved.p.values - base.p.values
    dp_filtered = dp - kernel @ (kernel.T @ dp)
    assert np.linalg.norm(dp_filtered) <= 1e-9 * max(1.0, np.linalg.norm(base.p.values))

    # the stable pair carries the full pressure contract
    sys_p0_1, bc_p0_1 = build_saddle_system(mesh, PairId.NCP1_P0, problem)
    sys_p0_2, bc_p0_2 = build_saddle_system(mesh, PairId.NCP1_P0, doubled_nu)
    sol_p0_1 = solve_saddle(apply_constraints(sys_p0_1, bc_p0_1))
    sol_p0_2 = solve_saddle(apply_constraints(sys_p0_2, bc_p0_2))
    assert np.linalg.norm(sol_p0_2.p.values - sol_p0_1.p.values) <= 1e-9 * max(
        1.0, np.linalg.norm(sol_p0_1.p.values)
    )

    worst = 0.0
    solves = [
        (PairId.NCP1_P0, mms_problem(), 16),
        (PairId.NCP1_P1, mms_problem(), 16),
        (PairId.NCP1_P1_STAB, mms_problem(TABLE_NU), 16),
        (PairId.P1_P1_STAB, mms_problem(TABLE_NU), 16),
        (PairId.NCP1_P1, cavity_problem(), 32),
        (PairId.NCP1_P0, cavity_problem(), 32),
    ]
    for pair, prob, n in solves:
        sys_n, sol_n = solve_on_mesh(build_structured_mesh(n), pair, prob)
        worst = max(worst, divergence_residual(sys_n, sol_n))
        assert divergence_residual(sys_n, sol_n) <= 1e-9
    note(
        "[PASS] criterion 7: zero data -> zero solution; linearity and "
        f"viscosity scaling at 1e-9; worst incompressibility residual {worst:.2e}"
    )


def test_criterion_8_property_suites(tmp_path):
    # quadrature exactness at declared degrees
    for degree in (1, 2, 6):
        rule = quadrature(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert 0.5 * (rule.weights @ (x**a * y**b)) == pytest.approx(exact, abs=1e-13)

    # matrix symmetry and the compatibility kernel
    mesh = build_structured_mesh(6)
    vdm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    p1 = build_dofmap(mesh, SpaceKind.P1_SCALAR)
    A = assemble_stiffness(mesh, vdm, nu=1.0)
    M = assemble_pressure_mass(mesh, p1)
    G = assemble_stabilization(mesh, p1)
    assert abs(A - A.T).max() <= 1e-13
    assert abs(M - M.T).max() <= 1e-13
    assert abs(G - G.T).max() <= 1e-13
    B = assemble_divergence(mesh, vdm, p1)
    rng = np.random.default_rng(11)
    ones = np.ones(p1.n_dofs)
    for _ in range(20):
        v = rng.standard_normal(vdm.n_dofs)
        v[vdm.boundary_dofs] = 0.0
        assert abs(ones @ (B @ v)) <= 1e-12 * max(1.0, np.abs(v).max())

    # reference-element stiffness and mass against symbolic integration
    xs, ys = sympy.symbols("x y")
    lam = [1 - xs - ys, xs, ys]
    psi = [1 - 2 * l for l in lam]
    from ncstokes.mesh import Mesh

    ref = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    ref_vdm = build_dofmap(ref, SpaceKind.NCP1_VECTOR)
    A_ref = assemble_stiffness(ref, ref_vdm, nu=1.0).toarray()[0::2, 0::2]
    perm = ref.tri_edges[0]
    for i in range(3):
        for j in range(3):
            integrand = sympy.diff(psi[i], xs) * sympy.diff(psi[j], xs) + sympy.diff(
                psi[i], ys
            ) * sympy.diff(psi[j], ys)
            expected = float(sympy.integrate(sympy.integrate(integrand, (ys, 0, 1 - xs)), (xs, 0, 1)))
            assert A_ref[perm[i], perm[j]] == pytest.approx(expected, abs=1e-14)
    M_ref = assemble_pressure_mass(ref, build_dofmap(ref, SpaceKind.P1_SCALAR)).toarray()
    for i in range(3):
        for j in range(3):
            expected = float(
                sympy.integrate(sympy.integrate(lam[i] * lam[j], (ys, 0, 1 - xs)), (xs, 0, 1))
            )
            assert M_ref[i, j] == pytest.approx(expected, abs=1e-15)

    # Euler relation across the structured family
    for n in range(1, 9):
        m = build_structured_mesh(n)
        assert m.n_vertices - m.n_edges + m.n_triangles == 1

    # driven cavity covered by invariants and a valid VTK export
    sys_c, sol_c = solve_on_mesh(build_structured_mesh(8), PairId.NCP1_P1, cavity_problem())
    assert divergence_residual(sys_c, sol_c) <= 1e-9
    out = tmp_path / "cavity.vtk"
    write_vtk(out, build_structured_mesh(8), sol_c)
    text = out.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert "CELL_DATA 128" in text and "POINT_DATA 81" in text
    note("[PASS] criterion 8: quadrature, symmetry, kernel, reference oracles, Euler, VTK")
