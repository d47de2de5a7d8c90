import numpy as np
import pytest
import sympy

from ncstokes.assembly import dirichlet_from_field
from ncstokes.femspace import SpaceKind, build_dofmap
from ncstokes.mesh import build_structured_mesh
from ncstokes.problems import ProblemSpec, cavity_problem, make_problem, mms_problem


def sympy_reference_fields(nu_value):
    """Independent symbolic derivation of the manufactured solution."""
    x, y = sympy.symbols("x y")
    psi = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2
    u1 = sympy.diff(psi, y)
    u2 = -sympy.diff(psi, x)
    p = sympy.cos(sympy.pi * x) * sympy.cos(sympy.pi * y)
    f1 = -nu_value * (sympy.diff(u1, x, 2) + sympy.diff(u1, y, 2)) + sympy.diff(p, x)
    f2 = -nu_value * (sympy.diff(u2, x, 2) + sympy.diff(u2, y, 2)) + sympy.diff(p, y)
    lam = lambda e: sympy.lambdify((x, y), e, "numpy")
    grads = [[lam(sympy.diff(u1, x)), lam(sympy.diff(u1, y))],
             [lam(sympy.diff(u2, x)), lam(sympy.diff(u2, y))]]
    return lam(u1), lam(u2), lam(p), lam(f1), lam(f2), grads


@pytest.mark.parametrize("nu", [1.0, 0.7])
def test_body_force_matches_symbolic_derivation(nu, rng):
    problem = mms_problem(nu=nu)
    u1, u2, p, f1, f2, grads = sympy_reference_fields(nu)
    x = rng.uniform(0, 1, 1000)
    y = rng.uniform(0, 1, 1000)
    f = problem.f(x, y)
    np.testing.assert_allclose(f[0], f1(x, y), atol=1e-10)
    np.testing.assert_allclose(f[1], f2(x, y), atol=1e-10)
    u = problem.exact_u(x, y)
    np.testing.assert_allclose(u[0], u1(x, y), atol=1e-12)
    np.testing.assert_allclose(u[1], u2(x, y), atol=1e-12)
    gu = problem.exact_grad_u(x, y)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(gu[i][j], grads[i][j](x, y), atol=1e-10)
    np.testing.assert_allclose(problem.exact_p(x, y), p(x, y), atol=1e-12)


def test_exact_velocity_is_divergence_free(rng):
    problem = mms_problem()
    x = rng.uniform(0, 1, 1000)
    y = rng.uniform(0, 1, 1000)
    gu = problem.exact_grad_u(x, y)
    assert np.abs(gu[0][0] + gu[1][1]).max() <= 1e-12
    assert abs(problem.exact_grad_u(0.3, 0.7)[0][0] + problem.exact_grad_u(0.3, 0.7)[1][1]) <= 1e-12


def test_exact_velocity_vanishes_on_boundary(rng):
    problem = mms_problem()
    t = rng.uniform(0, 1, 25)
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    for x, y in [(t, zeros), (t, ones), (zeros, t), (ones, t)]:
        u = problem.exact_u(x, y)
        assert np.abs(u).max() <= 1e-12


def test_exact_pressure_has_zero_mean():
    problem = mms_problem()
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    X, Y = np.meshgrid(nodes, nodes)
    W = np.outer(weights, weights)
    integral = float((W * problem.exact_p(X, Y)).sum())
    assert abs(integral) <= 1e-12


def test_cavity_boundary_data_on_structured_mesh(mesh_n4):
    problem = cavity_problem()
    vdm = build_dofmap(mesh_n4, SpaceKind.NCP1_VECTOR)
    bc = dirichlet_from_field(mesh_n4, vdm, problem.g)
    values = dict(zip(bc.dofs.tolist(), bc.values.tolist()))
    lid_edges = [e for e in mesh_n4.boundary_edges if mesh_n4.edge_midpoints[e][1] == 1.0]
    assert len(lid_edges) == 4
    for e in mesh_n4.boundary_edges:
        expected = 1.0 if e in lid_edges else 0.0
        assert values[2 * int(e)] == expected
        assert values[2 * int(e) + 1] == 0.0


def test_cavity_flux_is_zero():
    # lid flow is tangential: g.n vanishes pointwise along each side
    problem = cavity_problem()
    t = np.linspace(0.0, 1.0, 101)
    top = problem.g(t, np.ones_like(t))
    assert np.abs(top[1]).max() == 0.0  # outward normal (0, 1)
    assert np.abs(top[0] - 1.0).max() == 0.0
    interior = np.linspace(0.01, 0.99, 99)
    for x, y, normal_component in [
        (np.zeros_like(interior), interior, 0),
        (np.ones_like(interior), interior, 0),
        (interior, np.zeros_like(interior), 1),
    ]:
        g = problem.g(x, y)
        assert np.abs(g[normal_component]).max() == 0.0


def test_cavity_has_no_exact_solution():
    assert not cavity_problem().has_exact_solution
    assert mms_problem().has_exact_solution


def test_make_problem_registry():
    assert make_problem("mms1", nu=2.0).nu == 2.0
    assert make_problem("cavity").name == "cavity"
    with pytest.raises(ValueError):
        make_problem("poiseuille")
    with pytest.raises(ValueError):
        mms_problem(nu=0.0)
    with pytest.raises(ValueError):
        cavity_problem(nu=-1.0)


@pytest.mark.parametrize("factory", [mms_problem, cavity_problem])
@pytest.mark.parametrize(
    "nu, message",
    [
        (0.0, "viscosity must be positive"),
        (-1.0, "viscosity must be positive"),
        (float("nan"), "viscosity must be finite, got nan"),
        (float("inf"), "viscosity must be finite, got inf"),
        (float("-inf"), "viscosity must be finite, got -inf"),
    ],
)
def test_invalid_viscosity_is_rejected(factory, nu, message):
    with pytest.raises(ValueError) as err:
        factory(nu=nu)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "given, missing",
    [
        (("exact_u",), "exact_grad_u, exact_p"),
        (("exact_grad_u",), "exact_u, exact_p"),
        (("exact_u", "exact_p"), "exact_grad_u"),
    ],
)
def test_partial_exact_solution_is_rejected(given, missing):
    mms = mms_problem()
    fields = {name: getattr(mms, name) for name in given}
    with pytest.raises(ValueError) as err:
        ProblemSpec(name="partial", nu=1.0, f=mms.f, g=mms.g, **fields)
    assert str(err.value) == f"exact solution is incomplete: missing {missing}"
