import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from ncstokes.assembly import (
    KERNEL_REGULARIZATION,
    apply_constraints,
    assemble_divergence,
    assemble_load,
    assemble_operator,
    assemble_pressure_mass,
    assemble_stabilization,
    assemble_stiffness,
    build_saddle_system,
    dirichlet_from_field,
    restrict_to_interior,
)
from ncstokes.errors import DegenerateElementError, InconsistentBCError
from ncstokes.femspace import SpaceKind, basis_values, build_dofmap, interpolate, quadrature
from ncstokes.mesh import Mesh, build_structured_mesh, read_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import cavity_problem, mms_problem

DATA = Path(__file__).parent / "data"

REFERENCE_CR_STIFFNESS = np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])


def local_scalar_block(matrix, mesh, dofmap, t=0):
    """Extract the first-component local block in element-local ordering."""
    dofs = dofmap.cell_dofs[t][0::2] if dofmap.space.is_vector else dofmap.cell_dofs[t]
    return matrix.toarray()[np.ix_(dofs, dofs)]


def test_reference_stiffness_block(reference_triangle_mesh):
    dm = build_dofmap(reference_triangle_mesh, SpaceKind.NCP1_VECTOR)
    A = assemble_stiffness(reference_triangle_mesh, dm, nu=1.0)
    np.testing.assert_allclose(
        local_scalar_block(A, reference_triangle_mesh, dm), REFERENCE_CR_STIFFNESS, atol=1e-14
    )
    # both components carry the same block, no cross coupling
    full = A.toarray()
    np.testing.assert_allclose(full[0::2, 1::2], 0.0, atol=1e-15)


def test_stiffness_linear_in_viscosity(reference_triangle_mesh):
    dm = build_dofmap(reference_triangle_mesh, SpaceKind.NCP1_VECTOR)
    A1 = assemble_stiffness(reference_triangle_mesh, dm, nu=1.0)
    A2 = assemble_stiffness(reference_triangle_mesh, dm, nu=2.0)
    assert abs(A2 - 2.0 * A1).max() == 0.0


@pytest.mark.parametrize("space", [SpaceKind.NCP1_VECTOR, SpaceKind.P1_VECTOR])
def test_stiffness_symmetric(mesh_n4, space):
    dm = build_dofmap(mesh_n4, space)
    A = assemble_stiffness(mesh_n4, dm, nu=1.0)
    assert abs(A - A.T).max() <= 1e-13


def test_stiffness_rejects_p0(mesh_n2):
    dm = build_dofmap(mesh_n2, SpaceKind.P0_SCALAR)
    with pytest.raises(ValueError):
        assemble_stiffness(mesh_n2, dm)


def test_divergence_of_linear_expansion_field(mesh_n4):
    # div (x, y) = 2, so B v must equal twice the pressure-mean functional
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    for pressure_space in (SpaceKind.P1_SCALAR, SpaceKind.P0_SCALAR):
        pdm = build_dofmap(mesh_n4, pressure_space)
        B = assemble_divergence(mesh_n4, vdm, pdm)
        M = assemble_pressure_mass(mesh_n4, pdm)
        c = np.asarray(M @ np.ones(pdm.n_dofs))
        v = interpolate(lambda x, y: np.stack([x, y]), mesh_n4, SpaceKind.NCP1_VECTOR)
        np.testing.assert_allclose(B @ v.values, 2.0 * c, atol=1e-13)


def test_divergence_annihilates_rigid_rotation(mesh_n4):
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    pdm = build_dofmap(mesh_n4, SpaceKind.P1_SCALAR)
    B = assemble_divergence(mesh_n4, vdm, pdm)
    v = interpolate(lambda x, y: np.stack([-y, x]), mesh_n4, SpaceKind.NCP1_VECTOR)
    assert np.abs(B @ v.values).max() <= 1e-13


def test_compatibility_kernel_constant_pressure(mesh_n8, rng):
    # d(v, 1) = 0 for every velocity vanishing at boundary midpoints
    vdm = build_dofmap(mesh_n8, SpaceKind.NCP1_VECTOR)
    pdm = build_dofmap(mesh_n8, SpaceKind.P1_SCALAR)
    B = assemble_divergence(mesh_n8, vdm, pdm)
    ones = np.ones(pdm.n_dofs)
    for _ in range(10):
        v = rng.standard_normal(vdm.n_dofs)
        v[vdm.boundary_dofs] = 0.0
        assert abs(ones @ (B @ v)) <= 1e-12 * max(1.0, np.abs(v).max())


def test_p1_local_mass_matches_symbolic_oracle(reference_triangle_mesh):
    x, y = sympy.symbols("x y")
    lam = [1 - x - y, x, y]
    expected = np.array(
        [
            [
                float(sympy.integrate(sympy.integrate(lam[i] * lam[j], (y, 0, 1 - x)), (x, 0, 1)))
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    area = reference_triangle_mesh.areas[0]
    np.testing.assert_allclose(
        expected, area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]), atol=1e-15
    )
    pdm = build_dofmap(reference_triangle_mesh, SpaceKind.P1_SCALAR)
    M = assemble_pressure_mass(reference_triangle_mesh, pdm)
    np.testing.assert_allclose(M.toarray(), expected, atol=1e-15)


def test_pressure_mass_total_measure():
    for n in (1, 4):
        mesh = build_structured_mesh(n)
        for space in (SpaceKind.P1_SCALAR, SpaceKind.P0_SCALAR):
            pdm = build_dofmap(mesh, space)
            M = assemble_pressure_mass(mesh, pdm)
            ones = np.ones(pdm.n_dofs)
            assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-14)
            assert abs(M - M.T).max() <= 1e-13


def test_p0_mass_is_diagonal_of_areas(mesh_n4):
    pdm = build_dofmap(mesh_n4, SpaceKind.P0_SCALAR)
    M = assemble_pressure_mass(mesh_n4, pdm)
    np.testing.assert_allclose(M.toarray(), np.diag(mesh_n4.areas), atol=1e-15)


def test_stabilization_kernel_and_symmetry(mesh_n4, rng):
    pdm = build_dofmap(mesh_n4, SpaceKind.P1_SCALAR)
    G = assemble_stabilization(mesh_n4, pdm)
    assert abs(G - G.T).max() <= 1e-13
    ones = np.ones(pdm.n_dofs)
    assert np.abs(G @ ones).max() <= 1e-14
    for _ in range(5):
        q = rng.standard_normal(pdm.n_dofs)
        assert q @ (G @ q) >= -1e-13


def test_stabilization_local_value_for_linear_pressure(reference_triangle_mesh):
    # brute-force quadrature oracle for int_K (x - mean x)^2 on the reference triangle
    rule = quadrature(6)
    x = rule.points[:, 1]
    area = reference_triangle_mesh.areas[0]
    mean_x = rule.weights @ x
    oracle = area * (rule.weights @ (x - mean_x) ** 2)
    pdm = build_dofmap(reference_triangle_mesh, SpaceKind.P1_SCALAR)
    G = assemble_stabilization(reference_triangle_mesh, pdm)
    q = reference_triangle_mesh.vertices[:, 0]
    assert q @ (G @ q) == pytest.approx(oracle, abs=1e-15)
    assert oracle == pytest.approx(1.0 / 36.0, abs=1e-14)


def test_stabilization_requires_linear_pressure(mesh_n2):
    pdm = build_dofmap(mesh_n2, SpaceKind.P0_SCALAR)
    with pytest.raises(ValueError):
        assemble_stabilization(mesh_n2, pdm)


def test_load_zero_field(mesh_n4):
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    zero = lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape)
    assert np.abs(assemble_load(mesh_n4, vdm, zero)).max() == 0.0


@pytest.mark.parametrize("space", [SpaceKind.NCP1_VECTOR, SpaceKind.P1_VECTOR])
def test_load_constant_field_partition_of_unity(mesh_n4, space):
    vdm = build_dofmap(mesh_n4, space)
    f = lambda x, y: np.stack([np.ones(np.broadcast(x, y).shape), np.zeros(np.broadcast(x, y).shape)])
    load = assemble_load(mesh_n4, vdm, f)
    assert load[0::2].sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(load[1::2].sum()) <= 1e-13


def test_degenerate_element_rejected():
    # counterclockwise but with area far below the degeneracy floor
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-20]], [[0, 1, 2]])
    dm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    with pytest.raises(DegenerateElementError):
        assemble_stiffness(mesh, dm)


def test_apply_constraints_homogeneous_keeps_rhs(mesh_n4):
    system, bc = build_saddle_system(mesh_n4, PairId.NCP1_P0, mms_problem())
    reduced = apply_constraints(system, bc)
    np.testing.assert_array_equal(reduced.rhs[: reduced.n_interior], system.rhs_u[reduced.interior])
    np.testing.assert_allclose(reduced.rhs[reduced.n_interior : -1], 0.0, atol=1e-15)


def test_apply_constraints_lid_lifts_into_rhs(mesh_n4):
    system, bc = build_saddle_system(mesh_n4, PairId.NCP1_P0, cavity_problem())
    reduced = apply_constraints(system, bc)
    A = system.A.tocsr()
    lifted = system.rhs_u[reduced.interior] - A[reduced.interior][:, reduced.boundary] @ reduced.boundary_values
    np.testing.assert_allclose(reduced.rhs[: reduced.n_interior], lifted, atol=1e-14)
    assert np.abs(reduced.boundary_values).max() == 1.0


def test_apply_constraints_rejects_inconsistent_bc(mesh_n4):
    system, bc = build_saddle_system(mesh_n4, PairId.NCP1_P0, mms_problem())
    extra_dof = int(np.setdiff1d(np.arange(system.vel_dofmap.n_dofs), bc.dofs)[0])
    first, second = (int(d) for d in bc.dofs[:2])
    cases = {
        "extra": (np.append(bc.dofs, extra_dof), np.append(bc.values, 0.0),
                  rf"extra: \[{extra_dof}\], missing: \[\], duplicated: \[\]"),
        "missing": (bc.dofs[1:], bc.values[1:],
                    rf"extra: \[\], missing: \[{first}\], duplicated: \[\]"),
        "duplicated": (np.append(bc.dofs[1:], second), np.append(bc.values[1:], 0.0),
                       rf"extra: \[\], missing: \[{first}\], duplicated: \[{second}\]"),
        "values": (bc.dofs, bc.values[1:], rf"{len(bc.dofs)} Dirichlet dofs but "),
    }
    for dofs, values, message in cases.values():
        with pytest.raises(InconsistentBCError, match=message):
            apply_constraints(system, type(bc)(dofs=dofs, values=values))


def test_apply_constraints_accepts_boundary_dofs_in_any_order(mesh_n4, rng):
    system, bc = build_saddle_system(mesh_n4, PairId.NCP1_P1, cavity_problem())
    shuffle = rng.permutation(len(bc.dofs))
    expected = apply_constraints(system, bc)
    shuffled = apply_constraints(system, type(bc)(dofs=bc.dofs[shuffle], values=bc.values[shuffle]))
    assert_same_arrays(shuffled.matrix, expected.matrix)
    np.testing.assert_array_equal(shuffled.rhs, expected.rhs)
    np.testing.assert_array_equal(shuffled.boundary_values, expected.boundary_values)


def test_reduced_stiffness_positive_definite(mesh_n4, rng):
    system, bc = build_saddle_system(mesh_n4, PairId.NCP1_P1, mms_problem())
    reduced = apply_constraints(system, bc)
    for _ in range(100):
        x = rng.standard_normal(reduced.n_interior)
        assert x @ (reduced.A_II @ x) > 0.0


def test_build_saddle_system_block_roles(mesh_n4):
    problem = mms_problem()
    stab, _ = build_saddle_system(mesh_n4, PairId.NCP1_P1_STAB, problem)
    assert stab.G is not None and stab.regularization == 0.0
    raw, _ = build_saddle_system(mesh_n4, PairId.NCP1_P0, problem)
    assert raw.G is None
    regularized, _ = build_saddle_system(mesh_n4, PairId.NCP1_P1, problem)
    assert regularized.G is not None
    assert regularized.regularization == pytest.approx(1e-8)


def test_dirichlet_sites_are_edge_midpoints(mesh_n4):
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    bc = dirichlet_from_field(mesh_n4, vdm, lambda x, y: np.stack([x, 10.0 * y]))
    np.testing.assert_array_equal(bc.dofs, vdm.boundary_dofs)
    values = dict(zip(bc.dofs.tolist(), bc.values.tolist()))
    for e in mesh_n4.boundary_edges:
        mx, my = mesh_n4.edge_midpoints[e]
        assert values[2 * int(e)] == pytest.approx(mx, abs=1e-15)
        assert values[2 * int(e) + 1] == pytest.approx(10.0 * my, abs=1e-15)


def mesh_from(source):
    """A structured mesh ``n<k>`` or a mesh file under ``tests/data``."""
    if source.endswith(".mesh"):
        return read_mesh(DATA / source)
    return build_structured_mesh(int(source[1:]))


def reference_reduced(system, bc):
    """The construction ``apply_constraints`` replaced: the blocks split by fancy
    indexing, the boundary blocks' products moved to the right-hand side, and the
    bordered matrix stacked by ``sp.bmat``. Returns ``(matrix, A_II, B_I, rhs)``."""
    boundary = system.vel_dofmap.boundary_dofs
    interior = np.setdiff1d(np.arange(system.vel_dofmap.n_dofs), boundary)
    A_I = system.A.tocsr()[interior]
    A_II, A_IB = A_I[:, interior], A_I[:, boundary]
    B = system.B.tocsr()
    B_I, B_B = B[:, interior], B[:, boundary]
    values = dict(zip(bc.dofs.tolist(), bc.values.tolist()))
    g = np.array([values[int(d)] for d in boundary])
    rhs = np.concatenate([system.rhs_u[interior] - A_IB @ g, B_B @ g, [0.0]])
    c_col = sp.csr_matrix(system.c.reshape(-1, 1))
    G_block = None if system.G is None else -system.G
    matrix = sp.bmat(
        [[A_II, -B_I.T, None], [-B_I, G_block, c_col], [None, c_col.T, None]], format="csc"
    )
    return matrix, A_II, B_I, rhs


def assert_same_arrays(actual, expected):
    """Same shape, index arrays and data bits: explicit zeros and their signs count."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_array_equal(actual.data.view(np.int64), expected.data.view(np.int64))


def saddle_system(mesh, pair, problem, regularization):
    """``build_saddle_system``, made the raw singular system when ``regularization`` is 0."""
    system, bc = build_saddle_system(mesh, pair, problem)
    if regularization == 0.0:
        system = dataclasses.replace(system, G=None, regularization=0.0)
    return system, bc


REDUCED_CASES = pytest.mark.parametrize(
    "mesh_source, pair, regularization, nu",
    [
        (source, pair, regularization, nu)
        for source in ("n1", "n2", "n5", "n12", "jittered_flipped_n6.mesh")
        for pair, regularization in [(p, KERNEL_REGULARIZATION) for p in PairId]
        + [(PairId.NCP1_P1, 0.0)]
        for nu in (1.0, 0.01)
    ],
)


@REDUCED_CASES
def test_reduced_system_matches_the_bmat_construction_bit_for_bit(mesh_source, pair,
                                                                  regularization, nu):
    mesh = mesh_from(mesh_source)
    for problem in (mms_problem(nu), cavity_problem(nu)):
        system, bc = saddle_system(mesh, pair, problem, regularization)
        reduced = apply_constraints(system, bc)
        matrix, A_II, B_I, rhs = reference_reduced(system, bc)
        if reduced.n_interior:
            # the stored zeros between the two velocity components must survive
            assert np.count_nonzero(matrix.data == 0) > 0
        assert reduced.matrix.format == "csc"
        assert_same_arrays(reduced.matrix, matrix)
        assert reduced.A_II.format == reduced.B_I.format == "csr"
        assert_same_arrays(reduced.A_II, A_II)
        assert_same_arrays(reduced.B_I, B_I)
        np.testing.assert_array_equal(reduced.rhs.view(np.int64), rhs.view(np.int64))


@REDUCED_CASES
def test_operator_gives_the_solve_and_estimator_blocks_bit_for_bit(mesh_source, pair,
                                                                   regularization, nu):
    mesh = mesh_from(mesh_source)
    system, _ = build_saddle_system(mesh, pair, mms_problem(nu))
    operator = assemble_operator(mesh, pair, nu)
    assert (operator.nu, operator.regularization) == (system.nu, system.regularization)
    for block in ("A", "B", "G", "M"):
        if getattr(system, block) is None:
            assert getattr(operator, block) is None
        else:
            assert_same_arrays(getattr(operator, block), getattr(system, block))
    np.testing.assert_array_equal(operator.c.view(np.int64), system.c.view(np.int64))
    assert not operator.rhs_u.any()
    # the inf-sup estimator's blocks are those of a solve at unit viscosity
    unit = assemble_operator(mesh, pair, 1.0)
    _, A_II, B_I = restrict_to_interior(unit.vel_dofmap, unit.A, unit.B)
    reduced = apply_constraints(*build_saddle_system(mesh, pair, mms_problem(1.0)))
    assert_same_arrays(A_II, reduced.A_II)
    assert_same_arrays(B_I, reduced.B_I)


@REDUCED_CASES
def test_reduced_matrix_csc_arrays_are_its_csr_arrays(mesh_source, pair, regularization, nu):
    # Factorization reuses the CSC arrays as the CSR form of the residual check
    system, bc = saddle_system(mesh_from(mesh_source), pair, mms_problem(nu), regularization)
    matrix = apply_constraints(system, bc).matrix
    assert_same_arrays(matrix, matrix.tocsr())


@pytest.mark.parametrize("space", [SpaceKind.NCP1_VECTOR, SpaceKind.P1_VECTOR])
@pytest.mark.parametrize("mesh_source", ["n5", "jittered_flipped_n6.mesh"])
def test_load_matches_the_add_at_accumulation_bit_for_bit(mesh_source, space):
    mesh = mesh_from(mesh_source)
    vdm = build_dofmap(mesh, space)

    def f(x, y):
        # the second component is -0.0 everywhere, so the load has zeros whose sign counts
        return np.stack([np.sin(3.0 * x) * np.cos(2.0 * y), np.full(np.shape(x), -0.0)])

    rule = quadrature(6)
    points = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    fvals = f(points[:, :, 0], points[:, :, 1])
    local = np.einsum(
        "q,ctq,qj->tjc", rule.weights, fvals, basis_values(space, rule.points)
    ) * mesh.areas[:, None, None]
    expected = np.zeros(vdm.n_dofs)
    np.add.at(expected, vdm.cell_dofs, local.reshape(mesh.n_triangles, 6))
    load = assemble_load(mesh, vdm, f)
    assert np.count_nonzero(expected == 0) > 0
    np.testing.assert_array_equal(load.view(np.int64), expected.view(np.int64))
