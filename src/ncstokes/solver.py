"""Direct and iterative solution of the constrained saddle-point system."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationDivergenceError, SingularSystemError
from .femspace import FieldCoefficients, SpaceKind


_STATIC_PIVOTS = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
# every solve meets ||rhs - matrix @ x|| <= _SOLVE_TOL * ||rhs|| (absolute when rhs vanishes)
_SOLVE_TOL = 1e-10


def _factorize(matrix, order=None):
    """Sparse LU factor of ``matrix`` and the name of its ordering and pivoting.

    Three policies, each pivoting statically on the diagonal where it can
    (``_refine`` recovers the accuracy that static pivots give up):

    - ``order`` given (a saddle matrix with a zero P0 pressure block, see
      ``_zero_p0_block_order``): SuperLU factors ``matrix[order][:, order]``
      in that order with static pivots. Its fill does not depend on the
      viscosity.
    - At most one zero on the diagonal (the mean-constraint multiplier of a
      saddle matrix with a nonzero pressure block; none in an SPD block):
      SuperLU orders ``A' + A`` by minimum degree and pivots statically.
    - Any other matrix keeps SuperLU's defaults, COLAMD with threshold
      partial pivoting: one with two or more zeros on its diagonal and no
      ``order``, such as an ``ncp1-p0`` saddle matrix factored without
      ``saddle`` or a raw ``ncp1-p1`` one. Minimum degree with static pivots
      is no substitute there: on the ``ncp1-p0`` matrix at n = 24,
      nu = 0.01, it gives 7.5 M L+U entries against COLAMD's 0.69 M.

    A SuperLU breakdown raises ``SingularSystemError``, naming the strategy.
    """
    matrix = sp.csc_matrix(matrix)
    if order is not None:
        strategy = "P0 saddle order, static pivots"
        matrix = matrix[order][:, order]
        options = dict(permc_spec="NATURAL", **_STATIC_PIVOTS)
    elif np.count_nonzero(matrix.diagonal() == 0) <= 1:
        strategy = "MMD_AT_PLUS_A, static pivots"
        options = dict(permc_spec="MMD_AT_PLUS_A", **_STATIC_PIVOTS)
    else:
        strategy, options = "COLAMD, threshold pivots", {}
    try:
        return spla.splu(matrix, **options), strategy
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed ({strategy}): {exc}") from exc


def _component_factor(A_II):
    """One factor of the scalar block behind a two-component interior stiffness.

    ``A_II`` interleaves the two velocity components of every interior dof
    (``assemble_stiffness`` copies one scalar block onto both and the
    Dirichlet set covers both components of a boundary dof), so it is two
    copies of ``K = A_II[0::2, 0::2]``. That is checked: a nonzero coupling
    between the components, or a second block that differs from ``K`` by more
    than ``1e-12 * max|K|``, raises ``ValueError`` naming the largest
    mismatch. ``K`` is factored once and the solve maps an interior vector
    or block ``y`` to ``A_II^-1 y`` with one SuperLU solve, the components as
    extra right-hand-side columns. Returns the SuperLU factor of ``K``, its
    strategy and the solve.
    """
    A = sp.csr_matrix(A_II)
    n_i = A.shape[0]
    if n_i % 2:
        raise ValueError(f"A_II has odd order {n_i}, not two components")
    K, second = A[0::2, 0::2], A[1::2, 1::2]

    def mismatch(worst, where, tolerance):
        return ValueError(f"A_II is not two copies of one scalar block: largest mismatch "
                          f"{worst:.3e} in the {where} (tolerance {tolerance:.3e})")

    # a nonzero outside the two diagonal blocks couples the components
    if np.count_nonzero(A.data) > np.count_nonzero(K.data) + np.count_nonzero(second.data):
        rows = np.repeat(np.arange(n_i) % 2, np.diff(A.indptr))
        raise mismatch(np.abs(A.data[rows != A.indices % 2]).max(), "coupling blocks", 0.0)
    if np.array_equal(K.indptr, second.indptr) and np.array_equal(K.indices, second.indices):
        difference = np.abs(K.data - second.data).max(initial=0.0)
    else:
        difference = abs(K - second).max()
    bound = 1e-12 * np.abs(K.data).max(initial=0.0)
    if not difference <= bound:
        raise mismatch(difference, "second component block", bound)
    # K is bitwise symmetric, like the A it is cut from: K.T is its CSC form on the same arrays
    lu, strategy = _factorize(K.T)

    def solve(y):
        # the column count is spelled out: reshape cannot infer it when n_i == 0
        columns = 2 * math.prod(y.shape[1:])
        return lu.solve(y.reshape(n_i // 2, columns)).reshape(y.shape)

    return lu, strategy, solve


def _shifted_schur(A_II, B_I, G, c):
    """The SPD pressure operator ``q -> S q + c (c.q)/c.1 (+ G q)``, S = B_I A_II^-1 B_I'.

    ``S`` (+``G``) has the constant pressure in its kernel; the rank-one shift
    maps it to ``c`` and keeps the rest of the spectrum. Returns it (Uzawa's
    CG and the inf-sup Arnoldi iterate on it), the unshifted ``q -> S q``, the
    interior solve ``y -> A_II^-1 y`` and its factor's strategy.
    """
    _, strategy, solve_a = _component_factor(A_II)
    B_T = B_I.T  # one transpose: building it per product costs more than the product

    def schur(q):
        return B_I @ solve_a(B_T @ q)

    def shifted(q):
        y = schur(q) + c * (c @ q) / c.sum()
        return y if G is None else y + G @ q

    return shifted, schur, solve_a, strategy


def _pressure_inverse(P):
    """The solve ``b -> P^-1 b`` for a pressure-size SPD matrix ``P``.

    A diagonal ``P`` (a P0 mass: no nonzero off the diagonal, none zero on
    it) is inverted by division, which gives the same bits as its SuperLU
    solve; any other is factored by ``_factorize``.
    """
    coo = sp.coo_matrix(P)
    diagonal = P.diagonal()
    if not coo.data[coo.row != coo.col].any() and diagonal.all():
        return lambda b: b / diagonal
    lu, _ = _factorize(P)
    return lu.solve


def _zero_p0_block_order(reduced):
    """Elimination order of a saddle matrix with a zero P0 pressure block.

    The velocities follow the minimum degree order of the scalar interior
    stiffness (explicit zeros kept: without them the fill drops by half but
    the factor takes about 40x longer at n = 30), interleaved over the two
    components. Each pressure comes right after the last velocity it couples
    to through a nonzero of ``B_I``, so its pivot has been filled in by then
    (after the first one it would still be zero); the multiplier comes last.
    The scalar order is read from ``_component_factor``'s factor of that
    block, which checks that ``A_II`` is two copies of it. Returns None for
    any other system.
    """
    if reduced.G is not None or reduced.pres_dofmap.space is not SpaceKind.P0_SCALAR:
        return None
    n_i = reduced.n_interior
    scalar_lu, _, _ = _component_factor(reduced.A_II)
    scalar = np.argsort(scalar_lu.perm_c)  # perm_c[j] is the position of column j
    position = np.empty(n_i, dtype=np.int64)
    position[np.column_stack([2 * scalar, 2 * scalar + 1]).ravel()] = np.arange(n_i)
    coupling = reduced.B_I.tocsr(copy=True)
    coupling.eliminate_zeros()
    last = np.full(reduced.n_pressure, -1, dtype=np.int64)
    coupled = np.diff(coupling.indptr) > 0
    last[coupled] = np.maximum.reduceat(position[coupling.indices],
                                        coupling.indptr[:-1][coupled])
    key = np.concatenate([2 * position, 2 * last + 1, [2 * n_i + 1]])
    return np.argsort(key, kind="stable")


def _refine(matrix, rhs, solve, error, what):
    """``solve(rhs)`` corrected by up to three defect solves until the residual
    is at most ``_SOLVE_TOL * ||rhs||`` (absolute when ``rhs`` vanishes)."""
    x = solve(rhs)
    scale = np.linalg.norm(rhs)
    bound = _SOLVE_TOL * (scale if scale > 0 else 1.0)
    for passes in range(4):
        defect = rhs - matrix @ x
        residual = np.linalg.norm(defect)
        if residual <= bound:
            return x
        if passes < 3:
            x = x + solve(defect)
    raise error(f"residual {residual:.3e} above tolerance {bound:.3e} after 3 {what}")


class Factorization:
    """Sparse LU with residual-checked solves and iterative refinement.

    ``saddle``, the ``ReducedSystem`` that ``matrix`` comes from, lets the
    ordering follow its blocks: a zero P0 pressure block is factored in the
    order of ``_zero_p0_block_order`` with static pivots. Otherwise the
    ordering follows the matrix's diagonal: symmetric minimum degree with
    static pivots when at most one diagonal entry is zero, COLAMD with
    threshold pivots otherwise, as for an ``ncp1-p0`` saddle matrix passed
    without ``saddle`` (see ``_factorize``). ``strategy`` names the policy
    taken and ``fill`` is ``(L.nnz + U.nnz) / matrix.nnz``. ``solve``
    guarantees a relative residual of at most ``1e-10`` (absolute when the
    right-hand side vanishes), refining up to three times before raising
    ``SingularSystemError``; the residual is a CSR product, and a reduced
    matrix, being bitwise symmetric, serves as its own CSR form without a
    copy. A factorization is read-only and may be shared across workers for
    repeated right-hand sides.
    """

    def __init__(self, matrix, saddle=None):
        # the transpose of a symmetric CSC matrix is its CSR form on the same arrays
        self._matrix = sp.csr_matrix(matrix) if saddle is None else sp.csc_matrix(matrix).T
        self._order = None if saddle is None else _zero_p0_block_order(saddle)
        self._lu, self._strategy = _factorize(matrix, self._order)

    @property
    def strategy(self):
        return self._strategy

    @property
    def fill(self):
        return (self._lu.L.nnz + self._lu.U.nnz) / self._matrix.nnz

    def _lu_solve(self, rhs):
        if self._order is None:
            return self._lu.solve(rhs)
        x = np.empty_like(rhs)
        x[self._order] = self._lu.solve(rhs[self._order])
        return x

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=np.float64)
        return _refine(self._matrix, rhs, self._lu_solve, SingularSystemError,
                       f"refinements ({self._strategy})")


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


def solve_saddle(reduced, method="direct"):
    """Solve a constrained saddle system and re-inject the boundary values.

    ``method`` selects the sparse direct factorization of the augmented
    matrix (default) or the Schur-complement conjugate-gradient path
    (``"uzawa"``) kept for cross validation. Both meet the same residual
    contract, ``||rhs - matrix @ x|| <= 1e-10 * ||rhs||``: the direct path by
    iterative refinement, Uzawa by up to three defect corrections.
    """
    if method == "direct":
        x = Factorization(reduced.matrix, saddle=reduced).solve(reduced.rhs)
    elif method == "uzawa":
        x = _solve_uzawa(reduced)
    else:
        raise ValueError(f"unknown solver method '{method}'")
    return _assemble_solution(reduced, x)


def _solve_uzawa(reduced):
    """Preconditioned conjugate gradients on the pressure Schur complement.

    The mean-constraint multiplier is the one that makes the Schur
    right-hand side sum to zero. CG solves ``_shifted_schur``'s operator for
    it, which gives ``c'p = 0``, and the final pressure is shifted to meet
    the constraint row ``c'p``. The CG is preconditioned with the inverse of
    the scaled pressure mass ``P = M/nu (+G)`` (Cahouet-Chabard), to which S
    is spectrally equivalent on an inf-sup stable pair (``_pressure_inverse``).
    The Schur residual is the pressure rows' residual (the other rows are met
    exactly), so the CG stops at the contract's own bound ``1e-10 * ||rhs||``;
    a full-system residual still above it is corrected, at most three times,
    by solving for the defect.
    """
    n_i = reduced.n_interior
    n_p = reduced.n_pressure
    B_I, c = reduced.B_I, reduced.c
    apply_schur, _, solve_a, strategy = _shifted_schur(reduced.A_II, B_I, reduced.G, c)
    P = reduced.M / reduced.nu
    solve_p = _pressure_inverse(P if reduced.G is None else P + reduced.G)
    scale = np.linalg.norm(reduced.rhs)
    bound = _SOLVE_TOL * (scale if scale > 0 else 1.0)

    def schur_solve(rhs):
        F = rhs[:n_i]
        b = -rhs[n_i : n_i + n_p] - B_I @ solve_a(F)
        multiplier = -b.sum() / c.sum()
        b = b + multiplier * c
        norm_b = np.linalg.norm(b)
        p = _cg(apply_schur, b, tol=bound / norm_b if norm_b > 0 else 0.0,
                maxiter=20 * n_p, precondition=solve_p)
        p = p + (rhs[-1] - c @ p) / c.sum()
        return np.concatenate([solve_a(F + B_I.T @ p), p, [multiplier]])

    return _refine(reduced.matrix, reduced.rhs, schur_solve, IterationDivergenceError,
                   f"corrections (A_II: {strategy})")


def _cg(apply_op, b, tol, maxiter, precondition):
    """Preconditioned CG for an SPD operator.

    ``precondition`` maps a residual to the solve with an SPD preconditioner.
    Stops at ``||r|| <= tol * ||b||`` (the unpreconditioned residual) and
    raises ``IterationDivergenceError`` after ``maxiter`` steps.
    """
    x = np.zeros_like(b)
    scale = np.linalg.norm(b)
    if scale == 0.0:
        return x
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    for _ in range(maxiter):
        Ap = apply_op(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        residual = np.linalg.norm(r)
        if residual <= tol * scale:
            return x
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterationDivergenceError(
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
