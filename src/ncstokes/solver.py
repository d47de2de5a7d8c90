"""Direct and iterative solution of the constrained saddle-point system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    IterationDivergenceError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .femspace import FieldCoefficients


def _factorize(matrix, error):
    """Sparse LU factor of ``matrix``; a SuperLU breakdown raises ``error``."""
    try:
        return spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise error(f"factorization failed: {exc}") from exc


def _refine(matrix, rhs, solve, tol, max_passes, error, what):
    """``solve(rhs)`` corrected by up to ``max_passes`` defect solves until the
    residual is at most ``tol * ||rhs||`` (absolute when ``rhs`` vanishes)."""
    x = solve(rhs)
    scale = np.linalg.norm(rhs)
    bound = tol * (scale if scale > 0 else 1.0)
    for passes in range(max_passes + 1):
        defect = rhs - matrix @ x
        residual = np.linalg.norm(defect)
        if residual <= bound:
            return x
        if passes < max_passes:
            x = x + solve(defect)
    raise error(f"residual {residual:.3e} above tolerance {bound:.3e} after {max_passes} {what}")


class Factorization:
    """Sparse LU with residual-checked solves and iterative refinement.

    ``solve`` guarantees a relative residual of at most ``tol`` (absolute
    when the right-hand side vanishes), refining up to three times before
    giving up. A factorization is read-only and may be shared across workers
    for repeated right-hand sides.
    """

    def __init__(self, matrix, error=SingularSystemError):
        self._matrix = sp.csr_matrix(matrix)
        self._error = error
        self._lu = _factorize(matrix, error)

    def solve(self, rhs, tol=1e-10, max_refinements=3):
        rhs = np.asarray(rhs, dtype=np.float64)
        return _refine(self._matrix, rhs, self._lu.solve, tol, max_refinements, self._error,
                       "refinements")


def solve_spd(A, b, tol=1e-12):
    """Solve a symmetric positive definite system directly.

    Raises NotPositiveDefiniteError when the factorization breaks down or
    the solution fails the positivity probe b'x = x'Ax > 0.
    """
    x = Factorization(A, error=NotPositiveDefiniteError).solve(b, tol=tol)
    if np.linalg.norm(b) > 0 and float(np.dot(b, x)) <= 0.0:
        raise NotPositiveDefiniteError("matrix is not positive definite (x'Ax <= 0)")
    return x


@dataclass
class SolutionField:
    """Velocity and pressure coefficients plus the mean-constraint multiplier."""

    u: FieldCoefficients
    p: FieldCoefficients
    multiplier: float


def _assemble_solution(reduced, x):
    n_i = reduced.n_interior
    n_p = reduced.n_pressure
    u_full = np.zeros(reduced.vel_dofmap.n_dofs)
    u_full[reduced.interior] = x[:n_i]
    u_full[reduced.boundary] = reduced.boundary_values
    u = FieldCoefficients(dofmap=reduced.vel_dofmap, values=u_full)
    p = FieldCoefficients(dofmap=reduced.pres_dofmap, values=x[n_i : n_i + n_p])
    return SolutionField(u=u, p=p, multiplier=float(x[-1]))


def solve_saddle(reduced, method="direct", tol=1e-10):
    """Solve a constrained saddle system and re-inject the boundary values.

    ``method`` selects the sparse direct factorization of the augmented
    matrix (default) or the Schur-complement conjugate-gradient path
    (``"uzawa"``) kept for cross validation. Both meet the same residual
    contract, ``||rhs - matrix @ x|| <= tol * ||rhs||``: the direct path by
    iterative refinement, Uzawa by up to three defect corrections.
    """
    if method == "direct":
        x = Factorization(reduced.matrix).solve(reduced.rhs, tol=tol)
    elif method == "uzawa":
        x = _solve_uzawa(reduced, tol=tol)
    else:
        raise ValueError(f"unknown solver method '{method}'")
    return _assemble_solution(reduced, x)


def _solve_uzawa(reduced, tol):
    """Conjugate gradients on the pressure Schur complement.

    The operator B A^-1 B' (+G) has the constant pressure in its kernel, so
    residuals are kept mean free and the final pressure is shifted to the
    weighted zero-mean representative. A full-system residual above ``tol``
    is corrected, at most three times, by solving for the defect.
    """
    n_i = reduced.n_interior
    n_p = reduced.n_pressure
    lu = _factorize(reduced.A_II, SingularSystemError)
    B_I = reduced.B_I

    def apply_schur(q):
        y = B_I @ lu.solve(B_I.T @ q)
        return y if reduced.G is None else y + reduced.G @ q

    def schur_solve(rhs):
        F = rhs[:n_i]
        p = _projected_cg(
            apply_schur, -rhs[n_i : n_i + n_p] - B_I @ lu.solve(F),
            tol=min(tol, 1e-11), maxiter=20 * n_p,
        )
        p = p - (reduced.c @ p) / reduced.c.sum()
        return np.concatenate([lu.solve(F + B_I.T @ p), p, [0.0]])

    return _refine(reduced.matrix, reduced.rhs, schur_solve, tol, 3,
                   IterationDivergenceError, "corrections")


def _projected_cg(apply_op, b, tol, maxiter, precondition=None,
                  error=IterationDivergenceError):
    """Preconditioned CG for a positive semidefinite operator with constant kernel.

    Residuals are kept mean free; stops at ``||r|| <= tol * ||b||`` and raises
    ``error`` after ``maxiter`` steps. ``precondition`` defaults to the identity.
    """
    r = b - b.mean()
    x = np.zeros_like(r)
    scale = np.linalg.norm(r)
    if scale == 0.0:
        return x
    z = r if precondition is None else precondition(r)
    p = z.copy()
    rz = r @ z
    for _ in range(maxiter):
        Ap = apply_op(p)
        Ap = Ap - Ap.mean()
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        r -= r.mean()
        residual = np.linalg.norm(r)
        if residual <= tol * scale:
            return x
        z = r if precondition is None else precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise error(
        f"CG residual {residual / scale:.3e} (relative) above tolerance {tol:.1e} "
        f"after {maxiter} iterations"
    )


def divergence_residual(system, solution):
    """Scaled residual of the discrete incompressibility constraint.

    Returns ||B u + G p - multiplier * c|| divided by the energy norm of the
    velocity (stiffness normalized to unit viscosity); the multiplier term
    removes the constant-pressure component absorbed by the mean constraint.
    The G term participates only for genuinely stabilized systems, where the
    method itself couples divergence and pressure; a vanishing kernel
    regularization is excluded so the true incompressibility is reported.
    """
    u = solution.u.values
    r = system.B @ u - solution.multiplier * system.c
    if system.G is not None and system.regularization == 0.0:
        r = r + system.G @ solution.p.values
    energy_sq = float(u @ (system.A @ u)) / system.nu
    energy = np.sqrt(max(energy_sq, 0.0))
    if energy == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r) / energy)
