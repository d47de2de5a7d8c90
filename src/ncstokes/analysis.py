"""Error norms, convergence rates, inf-sup estimation, and consistency error.

The broken H1 seminorm sums element-wise gradients, which is the natural
energy norm for the midpoint-continuous velocity space. The inf-sup constant
is the square root of the smallest generalized eigenvalue of the pressure
Schur complement against the pressure mass on the zero-mean subspace (Arnoldi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

# assemble_divergence and assemble_pressure_mass are not called here, but the benchmark
# tracer (perfbench/tracing.py) wraps them under this module's name and fails without them
from .assembly import (  # noqa: F401
    assemble_divergence,
    assemble_load,
    assemble_operator,
    assemble_pressure_mass,
    assemble_stiffness,
    restrict_to_interior,
)
from .errors import EigenNonConvergenceError
from .femspace import (
    FieldCoefficients,
    SpaceKind,
    basis_values,
    build_dofmap,
    physical_gradients,
    quadrature,
    quadrature_points,
)
from .solver import _component_factor, _factorize, _pressure_inverse, _shifted_schur


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


def error_norms(mesh, solution, problem):
    """Measure velocity and pressure errors against the exact solution.

    All integrals use the degree-6 rule so the quadrature error stays far
    below the discretization error for smooth trigonometric solutions.
    """
    if not problem.has_exact_solution:
        raise ValueError(f"problem '{problem.name}' has no exact solution")
    rule = quadrature(6)
    pts = quadrature_points(mesh, rule)
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


def _infsup_dense(A_II, B_I, M, c):
    lu, _ = _factorize(A_II)
    S = B_I @ lu.solve(B_I.T.toarray())
    S = 0.5 * (S + S.T)
    Z = scipy.linalg.null_space(c[None, :])
    evals = scipy.linalg.eigh(
        Z.T @ S @ Z, Z.T @ M.toarray() @ Z, eigvals_only=True
    )
    return float(evals[0])


# Acceptance bound on the relative residual ||S x - lam M x|| / ||M x|| of the
# returned Ritz pair. Converged pairs reach about 1e-15 (every pair, n = 4-32);
# the constant pressure, which a beta^2 above 1 would return, has residual 1.
_RESIDUAL_TOL = 1e-6


def _infsup_arnoldi(A_II, B_I, M, c, seed):
    """Smallest eigenvalue of the Schur pencil (S, M) by restarted Arnoldi.

    ARPACK (``eigs``, ``which="SR"``) runs on ``M^-1`` times ``_shifted_schur``'s
    operator, M^-1 by ``_pressure_inverse``. With ``c = M 1``, the shift moves
    the constant pressure, the pencil's spurious zero mode, to eigenvalue 1,
    above every beta^2. The Ritz pair is accepted on its residual against
    the unshifted S.
    """
    apply_shifted, apply_schur, _, _ = _shifted_schur(A_II, B_I, None, c)
    solve_m = _pressure_inverse(M)
    applications = 0

    def apply_op(q):
        nonlocal applications
        applications += 1
        return solve_m(apply_shifted(q))

    op = spla.LinearOperator(M.shape, matvec=apply_op, dtype=np.float64)
    start = np.random.default_rng(seed).standard_normal(M.shape[0])
    try:
        lams, vecs = spla.eigs(op, k=1, which="SR", v0=start, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise EigenNonConvergenceError(
            f"Arnoldi did not converge to tolerance 0 (machine precision) after "
            f"{10 * M.shape[0]} restarts and {applications} operator applications"
        ) from exc
    lam, x = float(lams[0].real), vecs[:, 0].real
    Mx = M @ x
    residual = np.linalg.norm(apply_schur(x) - lam * Mx) / np.linalg.norm(Mx)
    if not residual <= _RESIDUAL_TOL:
        raise EigenNonConvergenceError(
            f"Arnoldi residual {residual:.3e} above tolerance {_RESIDUAL_TOL:.1e} "
            f"after {applications} operator applications"
        )
    return lam


def estimate_infsup(mesh, pair, n=None, method="iterative", seed=0):
    """Estimate the discrete inf-sup constant of a velocity/pressure pair.

    The estimator restricts ``assemble_operator(mesh, pair, 1.0)``, the blocks a
    solve at nu = 1 factors, to the interior velocity dofs and leaves out ``G``:
    the result is ``B``'s alone, whatever the viscosity. ``method`` may be
    ``"dense"`` (full generalized eigensolve on the mean-zero subspace, the
    reference oracle) or ``"iterative"`` (the default: ARPACK's restarted
    Arnoldi on the Schur pencil from a start vector drawn from ``seed``, at most
    ten restarts per pressure unknown). Both use the dense solve below three
    pressure unknowns, where ARPACK has no room. A restart limit reached, or
    a Ritz pair failing its residual check, raises ``EigenNonConvergenceError``.
    A single pressure unknown leaves no mean-free pressure: ``ValueError``.
    """
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown inf-sup method '{method}'")
    operator = assemble_operator(mesh, pair, 1.0)
    M, c = operator.M, operator.c
    if len(c) == 1:
        raise ValueError(f"{pair.value} has a single pressure unknown on this mesh: "
                         "no pressure is mean free")
    _, A_II, B_I = restrict_to_interior(operator.vel_dofmap, operator.A, operator.B)
    del operator  # the unrestricted blocks would only add to the eigensolve's peak memory
    if method == "dense" or M.shape[0] < 3:
        lam = _infsup_dense(A_II, B_I, M, c)
    else:
        lam = _infsup_arnoldi(A_II, B_I, M, c, seed)
    return InfSupEstimate(n=n, h=mesh.h, beta_h=float(np.sqrt(max(lam, 0.0))))


def consistency_error(mesh, problem):
    """Dual norm of the nonconformity residual of the exact solution.

    Assembles r_j = nu*(grad u, grad psi_j) - (p, div psi_j) - (f, psi_j)
    over the midpoint-continuous velocity basis with the degree-6 rule,
    restricts to interior dofs, and returns sqrt(r' A^-1 r) with the
    unit-viscosity stiffness (its scalar block's factor, ``_component_factor``)
    as the Riesz map of the broken H1 norm.
    """
    if not problem.has_exact_solution:
        raise ValueError(f"problem '{problem.name}' has no exact solution")
    dm = build_dofmap(mesh, SpaceKind.NCP1_VECTOR)
    rule = quadrature(6)
    pts = quadrature_points(mesh, rule)
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

    interior, A_II, _ = restrict_to_interior(dm, assemble_stiffness(mesh, dm, nu=1.0))
    _, _, solve_a = _component_factor(A_II)
    r_i = residual[interior]
    return float(np.sqrt(max(r_i @ solve_a(r_i), 0.0)))
