"""Error norms, convergence rates, inf-sup estimation, and consistency error.

The broken H1 seminorm sums element-wise gradients, which is the natural
energy norm for the midpoint-continuous velocity space. The inf-sup constant
is the square root of the smallest generalized eigenvalue of the pressure
Schur complement against the pressure mass matrix on the zero-mean subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .assembly import (
    assemble_divergence,
    assemble_load,
    assemble_pressure_mass,
    assemble_stiffness,
    restrict_to_interior,
)
from .errors import EigenNonConvergenceError, NotPositiveDefiniteError
from .femspace import (
    FieldCoefficients,
    SpaceKind,
    basis_values,
    build_dofmap,
    physical_gradients,
    quadrature,
)
from .solver import _factorize, _projected_cg, solve_spd


@dataclass
class ErrorReport:
    """Absolute and relative errors: velocity L2, broken H1, pressure L2."""

    l2_u: float
    h1h_u: float
    l2_p: float
    rel_l2_u: float
    rel_h1_u: float
    rel_l2_p: float


@dataclass
class ConvergenceRecord:
    """One refinement level of a convergence study."""

    n: int
    h: float
    errors: ErrorReport
    rate_l2: Optional[float] = None
    rate_h1: Optional[float] = None
    rate_p: Optional[float] = None


@dataclass
class InfSupEstimate:
    """Discrete inf-sup constant at one refinement level."""

    n: Optional[int]
    h: float
    beta_h: float


def _quad_points(mesh, rule):
    return np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])


def error_norms(mesh, solution, problem):
    """Measure velocity and pressure errors against the exact solution.

    All integrals use the degree-6 rule so the quadrature error stays far
    below the discretization error for smooth trigonometric solutions.
    """
    if not problem.has_exact_solution:
        raise ValueError(f"problem '{problem.name}' has no exact solution")
    rule = quadrature(6)
    pts = _quad_points(mesh, rule)
    x, y = pts[:, :, 0], pts[:, :, 1]
    w = rule.weights
    areas = mesh.areas

    vel_dm = solution.u.dofmap
    vals = basis_values(vel_dm.space, rule.points)
    grads = physical_gradients(mesh, vel_dm.space)
    cu = solution.u.values[vel_dm.cell_dofs].reshape(mesh.n_triangles, 3, 2)
    uh = np.einsum("qi,tic->tqc", vals, cu)
    grad_uh = np.einsum("tid,tic->tcd", grads, cu)

    exact_u = np.moveaxis(np.asarray(problem.exact_u(x, y)), 0, -1)
    exact_gu = np.moveaxis(np.asarray(problem.exact_grad_u(x, y)), (0, 1), (2, 3))

    du = uh - exact_u
    l2_u_sq = float(np.einsum("t,q,tqc->", areas, w, du**2))
    dg = grad_uh[:, None, :, :] - exact_gu
    h1_sq = float(np.einsum("t,q,tqcd->", areas, w, dg**2))
    norm_u_sq = float(np.einsum("t,q,tqc->", areas, w, exact_u**2))
    norm_gu_sq = float(np.einsum("t,q,tqcd->", areas, w, exact_gu**2))

    pres_dm = solution.p.dofmap
    pvals = basis_values(pres_dm.space, rule.points)
    cp = solution.p.values[pres_dm.cell_dofs]
    ph = np.einsum("qa,ta->tq", pvals, cp)
    exact_p = np.asarray(problem.exact_p(x, y))
    l2_p_sq = float(np.einsum("t,q,tq->", areas, w, (ph - exact_p) ** 2))
    norm_p_sq = float(np.einsum("t,q,tq->", areas, w, exact_p**2))

    l2_u, h1h_u, l2_p = np.sqrt([l2_u_sq, h1_sq, l2_p_sq])
    return ErrorReport(
        l2_u=l2_u,
        h1h_u=h1h_u,
        l2_p=l2_p,
        rel_l2_u=l2_u / np.sqrt(norm_u_sq),
        rel_h1_u=h1h_u / np.sqrt(norm_gu_sq),
        rel_l2_p=l2_p / np.sqrt(norm_p_sq),
    )


def convergence_rates(records):
    """Fill the rate columns: rate = log(e_prev/e_cur) / log(h_prev/h_cur)."""
    if not records:
        raise ValueError("need at least one convergence record")
    hs = [r.h for r in records]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("records must have strictly decreasing h")
    out = [ConvergenceRecord(n=records[0].n, h=records[0].h, errors=records[0].errors)]
    for prev, cur in zip(records, records[1:]):
        ratio = np.log(prev.h / cur.h)

        def rate(a, b):
            return float(np.log(a / b) / ratio)

        out.append(
            ConvergenceRecord(
                n=cur.n,
                h=cur.h,
                errors=cur.errors,
                rate_l2=rate(prev.errors.rel_l2_u, cur.errors.rel_l2_u),
                rate_h1=rate(prev.errors.rel_h1_u, cur.errors.rel_h1_u),
                rate_p=rate(prev.errors.rel_l2_p, cur.errors.rel_l2_p),
            )
        )
    return out


def ih_projection(pressure, mesh):
    """Project a continuous linear pressure onto vertex-patch indicators.

    The result is element-wise constant: on each triangle it equals the sum
    of the three vertex coefficients, i.e. three times the centroid value.
    """
    if pressure.space is not SpaceKind.P1_SCALAR:
        raise ValueError("projection expects a continuous linear pressure")
    values = pressure.values[mesh.triangles].sum(axis=1)
    return FieldCoefficients(
        dofmap=build_dofmap(mesh, SpaceKind.P0_SCALAR), values=values
    )


def _reduced_infsup_blocks(mesh, pair):
    vel_dm = build_dofmap(mesh, pair.velocity_space)
    pres_dm = build_dofmap(mesh, pair.pressure_space)
    A = assemble_stiffness(mesh, vel_dm, nu=1.0)
    B = assemble_divergence(mesh, vel_dm, pres_dm)
    M = assemble_pressure_mass(mesh, pres_dm)
    _, A_II, _, B_I, _ = restrict_to_interior(vel_dm, A, B)
    return A_II, B_I, M, np.asarray(M @ np.ones(pres_dm.n_dofs))


def _infsup_dense(A_II, B_I, M, c):
    lu = _factorize(A_II, NotPositiveDefiniteError)
    S = B_I @ lu.solve(B_I.T.toarray())
    S = 0.5 * (S + S.T)
    Z = scipy.linalg.null_space(c[None, :])
    evals = scipy.linalg.eigh(
        Z.T @ S @ Z, Z.T @ M.toarray() @ Z, eigvals_only=True
    )
    return float(evals[0])


def _infsup_inverse_iteration(A_II, B_I, M, c, max_iterations, seed, block_size=8):
    """Block inverse iteration on the Schur pencil, smallest eigenvalue.

    The bottom of the spectrum clusters under refinement, so a subspace of
    ``block_size`` vectors is iterated and Rayleigh-Ritz extracts the
    smallest value. Every vector stays deflated against the constant
    pressure mode (the spurious zero eigenvalue of the pencil).
    """
    lu_a = _factorize(A_II, NotPositiveDefiniteError)
    lu_m = _factorize(M, NotPositiveDefiniteError)
    n_p = M.shape[0]
    ones = np.ones(n_p)
    c_total = c @ ones
    m = min(block_size, max(2, n_p - 2))

    def apply_schur(q):
        return B_I @ lu_a.solve(B_I.T @ q)

    def deflate(q):
        return q - ((c @ q) / c_total) * ones

    def orthonormalize(X):
        # M-orthonormal basis via the Cholesky factor of the block Gramian
        gram = X.T @ (M @ X)
        return X @ np.linalg.inv(np.linalg.cholesky(gram)).T

    rng = np.random.default_rng(seed)
    X = np.column_stack([deflate(v) for v in rng.standard_normal((m, n_p))])
    X = orthonormalize(X)
    lam_prev = None
    for _ in range(max_iterations):
        Y = np.column_stack(
            [
                deflate(
                    _projected_cg(
                        apply_schur, M @ X[:, j], tol=1e-12, maxiter=max(200, n_p),
                        precondition=lu_m.solve, error=EigenNonConvergenceError,
                    )
                )
                for j in range(m)
            ]
        )
        Y = orthonormalize(Y)
        SY = np.column_stack([apply_schur(Y[:, j]) for j in range(m)])
        ritz_vals, ritz_vecs = np.linalg.eigh(Y.T @ SY)
        X = Y @ ritz_vecs
        lam = float(ritz_vals[0])
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-11 * abs(lam):
            return lam
        lam_prev = lam
    raise EigenNonConvergenceError(
        f"inverse iteration did not converge in {max_iterations} iterations"
    )


_DENSE_PRESSURE_LIMIT = 1200


def estimate_infsup(mesh, pair, n=None, method="auto", max_iterations=200, seed=0):
    """Estimate the discrete inf-sup constant of a velocity/pressure pair.

    The estimator always uses the unit-viscosity stiffness, so the result is
    independent of the problem's viscosity. ``method`` may be ``"dense"``
    (full generalized eigensolve on the mean-zero subspace), ``"iterative"``
    (block inverse iteration with deflation of the constant pressure mode),
    or ``"auto"``.
    """
    A_II, B_I, M, c = _reduced_infsup_blocks(mesh, pair)
    n_p = M.shape[0]
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown inf-sup method '{method}'")
    use_dense = method == "dense" or (method == "auto" and n_p <= _DENSE_PRESSURE_LIMIT)
    if use_dense:
        lam = _infsup_dense(A_II, B_I, M, c)
    else:
        lam = _infsup_inverse_iteration(A_II, B_I, M, c, max_iterations, seed)
    return InfSupEstimate(n=n, h=mesh.h, beta_h=float(np.sqrt(max(lam, 0.0))))


def consistency_error(mesh, problem):
    """Dual norm of the nonconformity residual of the exact solution.

    Assembles r_j = nu*(grad u, grad psi_j) - (p, div psi_j) - (f, psi_j)
    over the midpoint-continuous velocity basis with the degree-6 rule,
    restricts to interior dofs, and returns sqrt(r' A^-1 r) with the
    unit-viscosity stiffness as the Riesz map of the broken H1 norm.
    """
    if not problem.has_exact_solution:
        raise ValueError(f"problem '{problem.name}' has no exact solution")
    dm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    rule = quadrature(6)
    pts = _quad_points(mesh, rule)
    x, y = pts[:, :, 0], pts[:, :, 1]
    w = rule.weights
    areas = mesh.areas

    exact_gu = np.asarray(problem.exact_grad_u(x, y))  # (2, 2, T, nq)
    int_gu = np.einsum("q,cdtq->tcd", w, exact_gu) * areas[:, None, None]
    exact_p = np.asarray(problem.exact_p(x, y))
    int_p = (exact_p @ w) * areas
    grads = physical_gradients(mesh, dm.space)

    local = problem.nu * np.einsum("tcd,tjd->tjc", int_gu, grads) - int_p[:, None, None] * grads
    residual = -assemble_load(mesh, dm, problem.f)
    np.add.at(residual, dm.cell_dofs, local.reshape(mesh.n_triangles, 6))

    interior, A_II, *_ = restrict_to_interior(dm, assemble_stiffness(mesh, dm, nu=1.0))
    r_i = residual[interior]
    return float(np.sqrt(max(r_i @ solve_spd(A_II, r_i), 0.0)))
