from pathlib import Path

import numpy as np
import pytest
import sympy

from ncstokes.femspace import (
    SpaceKind,
    basis_values,
    build_dofmap,
    dof_sites,
    interpolate,
    physical_gradients,
    quadrature,
    quadrature_points,
)
from ncstokes.mesh import Mesh, build_structured_mesh, read_mesh
from ncstokes.problems import mms_problem


def exact_monomial_integral(a, b):
    """Integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 6])
def test_quadrature_exact_for_declared_degree(degree):
    rule = quadrature(degree)
    assert rule.degree >= degree
    assert (rule.weights > 0).all()
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    area = 0.5
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            approx = area * (rule.weights @ (x**a * y**b))
            assert approx == pytest.approx(exact_monomial_integral(a, b), abs=1e-13)


def test_quadrature_unavailable_degree():
    with pytest.raises(ValueError):
        quadrature(7)


def test_dof_counts_n2(mesh_n2):
    ncp1 = build_dofmap(mesh_n2, SpaceKind.NCP1_VECTOR)
    assert ncp1.n_dofs == 2 * 16 == 32
    assert len(ncp1.boundary_dofs) == 2 * 8 == 16
    p1s = build_dofmap(mesh_n2, SpaceKind.P1_SCALAR)
    assert p1s.n_dofs == 9
    p1v = build_dofmap(mesh_n2, SpaceKind.P1_VECTOR)
    assert p1v.n_dofs == 18
    assert len(p1v.boundary_dofs) == 16


def test_p0_dofmap_has_no_boundary():
    mesh = build_structured_mesh(1)
    p0 = build_dofmap(mesh, SpaceKind.P0_SCALAR)
    assert p0.n_dofs == 2
    assert len(p0.boundary_dofs) == 0


def test_dofmap_rejects_meshes_without_triangles_and_unused_vertices():
    empty = Mesh(np.zeros((3, 2)), np.zeros((0, 3), dtype=np.int64))
    square = build_structured_mesh(1)
    # the centre of the square is in no triangle
    extra = Mesh(np.vstack([square.vertices, [0.5, 0.5]]), square.triangles)
    for space in SpaceKind:
        with pytest.raises(ValueError, match=r"^mesh has no triangles$"):
            build_dofmap(empty, space)
        if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
            with pytest.raises(ValueError, match=r"^vertex 4 is in no triangle$"):
                build_dofmap(extra, space)
        else:
            assert build_dofmap(extra, space).n_dofs == build_dofmap(square, space).n_dofs


def test_cell_dofs_cover_all_dofs(mesh_n4):
    for space in SpaceKind:
        dm = build_dofmap(mesh_n4, space)
        assert set(dm.cell_dofs.ravel()) == set(range(dm.n_dofs))


def test_ncp1_basis_kronecker_at_midpoints():
    # midpoint of the edge opposite local vertex i has barycentric lambda_i = 0
    midpoints = [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    for i, point in enumerate(midpoints):
        values = basis_values(SpaceKind.NCP1_VECTOR, [point])[0]
        expected = np.zeros(3)
        expected[i] = 1.0
        np.testing.assert_allclose(values, expected, atol=1e-15)


def test_partition_of_unity_at_random_points(rng):
    for _ in range(50):
        lam = rng.dirichlet([1.0, 1.0, 1.0])
        for space in (SpaceKind.NCP1_VECTOR, SpaceKind.P1_SCALAR, SpaceKind.P0_SCALAR):
            values = basis_values(space, [lam])[0]
            assert values.sum() == pytest.approx(1.0, abs=1e-12)


def test_reference_stiffness_matches_symbolic_oracle(reference_triangle_mesh):
    # independent oracle: symbolic integration of grad(psi_i) . grad(psi_j)
    x, y = sympy.symbols("x y")
    lam = [1 - x - y, x, y]
    psi = [1 - 2 * l for l in lam]
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            integrand = (
                sympy.diff(psi[i], x) * sympy.diff(psi[j], x)
                + sympy.diff(psi[i], y) * sympy.diff(psi[j], y)
            )
            expected[i, j] = float(
                sympy.integrate(sympy.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1))
            )
    np.testing.assert_allclose(
        expected, np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])
    )
    grads = physical_gradients(reference_triangle_mesh, SpaceKind.NCP1_VECTOR)[0]
    area = reference_triangle_mesh.areas[0]
    local = area * grads @ grads.T
    np.testing.assert_allclose(local, expected, atol=1e-14)


def test_gradients_sum_to_zero_on_random_triangles(rng):
    for _ in range(20):
        verts = rng.uniform(-2, 2, (3, 2))
        d1 = verts[1] - verts[0]
        d2 = verts[2] - verts[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0.05:
            continue
        mesh = Mesh(verts, [[0, 1, 2]])
        for space in (SpaceKind.P1_SCALAR, SpaceKind.NCP1_VECTOR):
            grads = physical_gradients(mesh, space)[0]
            np.testing.assert_allclose(grads.sum(axis=0), [0.0, 0.0], atol=1e-12)


def test_p1_gradient_reproduces_linear_function(rng):
    verts = np.array([[0.1, -0.3], [1.4, 0.2], [0.3, 1.1]])
    mesh = Mesh(verts, [[0, 1, 2]])
    coeffs = 2.0 * verts[:, 0] - 3.0 * verts[:, 1] + 0.5
    grads = physical_gradients(mesh, SpaceKind.P1_SCALAR)[0]
    np.testing.assert_allclose(coeffs @ grads, [2.0, -3.0], atol=1e-12)


def test_interpolate_linear_field_into_ncp1(mesh_n4):
    field = interpolate(lambda x, y: np.stack([x, y]), mesh_n4, SpaceKind.NCP1_VECTOR)
    midpoints = dof_sites(mesh_n4, SpaceKind.NCP1_VECTOR)
    np.testing.assert_allclose(field.values[0::2], midpoints[:, 0], atol=1e-15)
    np.testing.assert_allclose(field.values[1::2], midpoints[:, 1], atol=1e-15)


def test_interpolate_constant_into_p0(mesh_n4):
    field = interpolate(lambda x, y: np.ones(np.broadcast(x, y).shape), mesh_n4, SpaceKind.P0_SCALAR)
    np.testing.assert_allclose(field.values, 1.0)


def test_ncp1_interpolant_of_continuous_p1_is_single_valued(mesh_n4, rng):
    # jump at every interior edge midpoint must vanish when the source field
    # is globally continuous and piecewise linear
    nodal = rng.standard_normal(mesh_n4.n_vertices)

    def field(x, y):
        vals = np.zeros((2,) + np.broadcast(x, y).shape)
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        out = np.empty(len(pts))
        for k, p in enumerate(pts):
            for tri in mesh_n4.triangles:
                a, b, c = mesh_n4.vertices[tri]
                T = np.column_stack([b - a, c - a])
                lam12 = np.linalg.solve(T, p - a)
                lam = np.array([1 - lam12.sum(), *lam12])
                if lam.min() >= -1e-12:
                    out[k] = nodal[tri] @ lam
                    break
        vals[0] = out.reshape(np.shape(x))
        return vals

    interp = interpolate(field, mesh_n4, SpaceKind.NCP1_VECTOR)
    values = basis_values(SpaceKind.NCP1_VECTOR, np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]))
    for e in np.nonzero(~mesh_n4.boundary_edge_mask)[0]:
        t1, t2 = mesh_n4.edge_tris[e]
        traces = []
        for t in (t1, t2):
            local = list(mesh_n4.tri_edges[t]).index(e)
            coeffs = interp.values[interp.dofmap.cell_dofs[t][0::2]]
            traces.append(values[local] @ coeffs)
        assert traces[0] == pytest.approx(traces[1], abs=1e-13)


def broken_h1_error_of_velocity_interpolant(n):
    problem = mms_problem()
    mesh = build_structured_mesh(n)
    interp = interpolate(problem.exact_u, mesh, SpaceKind.NCP1_VECTOR)
    rule = quadrature(6)
    pts = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    grads = physical_gradients(mesh, SpaceKind.NCP1_VECTOR)
    coeffs = interp.values[interp.dofmap.cell_dofs].reshape(mesh.n_triangles, 3, 2)
    grad_interp = np.einsum("tid,tic->tcd", grads, coeffs)
    exact = np.moveaxis(
        np.asarray(problem.exact_grad_u(pts[:, :, 0], pts[:, :, 1])), (0, 1), (2, 3)
    )
    diff = grad_interp[:, None, :, :] - exact
    return float(np.sqrt(np.einsum("t,q,tqcd->", mesh.areas, rule.weights, diff**2)))


def test_interpolation_error_halves_per_mesh_doubling():
    ratio = broken_h1_error_of_velocity_interpolant(20) / broken_h1_error_of_velocity_interpolant(10)
    assert 0.425 <= ratio <= 0.575


def test_field_coefficients_length_checked(mesh_n2):
    from ncstokes.femspace import FieldCoefficients

    dm = build_dofmap(mesh_n2, SpaceKind.P1_SCALAR)
    with pytest.raises(ValueError):
        FieldCoefficients(dofmap=dm, values=np.zeros(dm.n_dofs + 1))


GEOMETRY_MESHES = pytest.mark.parametrize("mesh", [
    pytest.param(build_structured_mesh(5), id="n5"),  # axis-aligned edges: zero gradients
    pytest.param(read_mesh(Path(__file__).parent / "data" / "jittered_flipped_n6.mesh"),
                 id="jittered"),
])

GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@GEOMETRY_MESHES
@pytest.mark.parametrize("space, reference", [
    (SpaceKind.P1_SCALAR, GRAD_LAMBDA),
    (SpaceKind.P1_VECTOR, GRAD_LAMBDA),
    (SpaceKind.NCP1_VECTOR, -2.0 * GRAD_LAMBDA),
    (SpaceKind.P0_SCALAR, np.zeros((1, 2))),
])
def test_physical_gradients_match_the_per_form_contraction_bit_for_bit(mesh, space, reference):
    # the computation each form ran before the mesh held its barycentric gradients
    tri = mesh.vertices[mesh.triangles]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv_jt = np.stack([np.stack([e2[:, 1], -e1[:, 1]], -1),
                       np.stack([-e2[:, 0], e1[:, 0]], -1)], 1) / det[:, None, None]
    expected = np.einsum("tab,ib->tia", inv_jt, reference)
    grads = physical_gradients(mesh, space)
    assert grads.shape == expected.shape
    np.testing.assert_array_equal(grads.view(np.int64), expected.view(np.int64))


@GEOMETRY_MESHES
def test_barycentric_gradients_are_read_only(mesh):
    with pytest.raises(ValueError):
        mesh.barycentric_gradients[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        physical_gradients(mesh, SpaceKind.P1_SCALAR)[0, 0, 0] = 1.0


@GEOMETRY_MESHES
@pytest.mark.parametrize("degree", [1, 2, 6])
def test_quadrature_points_match_the_einsum_bit_for_bit(mesh, degree):
    rule = quadrature(degree)
    expected = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    points = quadrature_points(mesh, rule)
    assert points.shape == expected.shape
    np.testing.assert_array_equal(points.view(np.int64), expected.view(np.int64))


@GEOMETRY_MESHES
def test_mesh_keeps_its_degree6_points_read_only(mesh):
    expected = quadrature_points(mesh, quadrature(6))
    np.testing.assert_array_equal(mesh.degree6_points.view(np.int64), expected.view(np.int64))
    assert mesh.degree6_points is mesh.degree6_points  # computed once per mesh
    with pytest.raises(ValueError):
        mesh.degree6_points[0, 0, 0] = 1.0
