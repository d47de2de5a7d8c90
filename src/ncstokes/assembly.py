"""Sparse assembly of the discrete Stokes blocks and constraint handling.

All element loops are vectorized over triangles and accumulate into COO
triplets in a fixed element order, so single-threaded runs are bit
reproducible. Matrices are returned in CSR form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateElementError, InconsistentBCError
from .femspace import (
    SpaceKind,
    basis_values,
    build_dofmap,
    dof_sites,
    physical_gradients,
    quadrature,
)

_AREA_FLOOR = 1e-14


def _check_areas(mesh):
    if mesh.n_triangles and mesh.areas.min() < _AREA_FLOOR:
        bad = int(np.argmin(mesh.areas))
        raise DegenerateElementError(
            f"triangle {bad} has area {mesh.areas[bad]:.3e} below {_AREA_FLOOR:.0e}"
        )


def _scatter(local, rows, cols, shape):
    """Sum (T, r, c) local blocks into a CSR matrix."""
    n_tri, r, c = local.shape
    rr = np.repeat(rows[:, :, None], c, axis=2)
    cc = np.repeat(cols[:, None, :], r, axis=1)
    mat = sp.coo_matrix(
        (local.ravel(), (rr.ravel(), cc.ravel())), shape=shape
    ).tocsr()
    mat.sum_duplicates()
    return mat


def _expand_vector_diag(scalar_blocks):
    """Interleave a (T, 3, 3) scalar block into its (T, 6, 6) two-component form."""
    n_tri = scalar_blocks.shape[0]
    out = np.zeros((n_tri, 6, 6))
    out[:, 0::2, 0::2] = scalar_blocks
    out[:, 1::2, 1::2] = scalar_blocks
    return out


def assemble_stiffness(mesh, dofmap, nu=1.0):
    """Assemble the (broken) vector Laplacian scaled by the viscosity.

    Entry (i, j) is ``nu * sum_K (grad psi_i, grad psi_j)_K`` with gradients
    taken element by element, which is the natural stiffness form for both
    the conforming and the midpoint-continuous velocity spaces.
    """
    if dofmap.space is SpaceKind.P0_SCALAR:
        raise ValueError("piecewise constants have no stiffness form")
    _check_areas(mesh)
    grads = physical_gradients(mesh, dofmap.space)
    local = np.einsum("tic,tjc->tij", grads, grads) * (nu * mesh.areas)[:, None, None]
    if dofmap.space.is_vector:
        local = _expand_vector_diag(local)
    return _scatter(local, dofmap.cell_dofs, dofmap.cell_dofs, (dofmap.n_dofs, dofmap.n_dofs))


def assemble_divergence(mesh, vel_dofmap, pres_dofmap):
    """Assemble the divergence coupling B with entries (q_i, div psi_j).

    Rows follow the pressure dof map, columns the velocity dof map. The
    three-midpoint rule integrates the (at most quadratic) integrand exactly.
    """
    if not vel_dofmap.space.is_vector:
        raise ValueError("velocity space must be vector valued")
    _check_areas(mesh)
    rule = quadrature(2)
    pvals = basis_values(pres_dofmap.space, rule.points)
    pres_integrals = mesh.areas[:, None] * (rule.weights @ pvals)[None, :]
    grads = physical_gradients(mesh, vel_dofmap.space)
    n_tri = mesh.n_triangles
    local = np.einsum("ta,tjc->tajc", pres_integrals, grads).reshape(
        n_tri, pvals.shape[1], 6
    )
    return _scatter(
        local,
        pres_dofmap.cell_dofs,
        vel_dofmap.cell_dofs,
        (pres_dofmap.n_dofs, vel_dofmap.n_dofs),
    )


def assemble_pressure_mass(mesh, pres_dofmap):
    """Assemble the pressure mass matrix; 1'M1 equals the domain area."""
    _check_areas(mesh)
    rule = quadrature(2)
    pvals = basis_values(pres_dofmap.space, rule.points)
    unit_mass = np.einsum("q,qa,qb->ab", rule.weights, pvals, pvals)
    local = mesh.areas[:, None, None] * unit_mass[None, :, :]
    return _scatter(
        local,
        pres_dofmap.cell_dofs,
        pres_dofmap.cell_dofs,
        (pres_dofmap.n_dofs, pres_dofmap.n_dofs),
    )


def assemble_stabilization(mesh, pres_dofmap):
    """Assemble the pressure-projection stabilization form.

    Per element this is ``(p - mean_K p, q - mean_K q)_K``; constants lie in
    the kernel, so the matrix is symmetric positive semidefinite. The form is
    parameter free.
    """
    if pres_dofmap.space is not SpaceKind.P1_SCALAR:
        raise ValueError("pressure-projection stabilization expects linear pressure")
    _check_areas(mesh)
    rule = quadrature(2)
    pvals = basis_values(pres_dofmap.space, rule.points)
    unit_mass = np.einsum("q,qa,qb->ab", rule.weights, pvals, pvals)
    unit_mean = rule.weights @ pvals
    local = mesh.areas[:, None, None] * (
        unit_mass - np.outer(unit_mean, unit_mean)
    )[None, :, :]
    return _scatter(
        local,
        pres_dofmap.cell_dofs,
        pres_dofmap.cell_dofs,
        (pres_dofmap.n_dofs, pres_dofmap.n_dofs),
    )


def assemble_load(mesh, vel_dofmap, f):
    """Assemble the body-force vector (f, psi_j) with the degree-6 rule."""
    if not vel_dofmap.space.is_vector:
        raise ValueError("load vector expects a vector velocity space")
    _check_areas(mesh)
    rule = quadrature(6)
    points = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    fvals = np.asarray(f(points[:, :, 0], points[:, :, 1]), dtype=np.float64)
    if fvals.shape != (2,) + points.shape[:2]:
        raise ValueError(f"body force returned shape {fvals.shape}")
    vals = basis_values(vel_dofmap.space, rule.points)
    local = np.einsum("q,ctq,qj->tjc", rule.weights, fvals, vals) * mesh.areas[
        :, None, None
    ]
    load = np.zeros(vel_dofmap.n_dofs)
    np.add.at(load, vel_dofmap.cell_dofs, local.reshape(mesh.n_triangles, 6))
    return load


@dataclass
class DirichletBC:
    """Prescribed values for exactly the boundary dofs of a velocity space."""

    values: dict


def dirichlet_from_field(mesh, dofmap, g):
    """Evaluate boundary data ``g`` at the boundary dof sites of ``dofmap``."""
    if not dofmap.space.is_vector:
        raise ValueError("Dirichlet data applies to the vector velocity space")
    bdofs = dofmap.boundary_dofs
    geometric = bdofs // 2
    comp = bdofs % 2
    sites = dof_sites(mesh, dofmap.space)[geometric]
    gvals = np.asarray(g(sites[:, 0], sites[:, 1]), dtype=np.float64)
    values = gvals[comp, np.arange(len(bdofs))]
    return DirichletBC(values={int(d): float(v) for d, v in zip(bdofs, values)})


@dataclass
class SaddleSystem:
    """Assembled Stokes blocks before boundary and mean constraints.

    ``A`` is the viscosity-scaled stiffness, ``B`` the divergence coupling,
    ``G`` the optional pressure-pressure block (full stabilization, or the
    vanishing kernel regularization recorded in ``regularization``), ``c``
    the pressure-mean functional (c_q = integral of the q-th pressure basis
    function), and ``rhs_u`` the body-force load.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    G: sp.csr_matrix | None
    c: np.ndarray
    rhs_u: np.ndarray
    vel_dofmap: object
    pres_dofmap: object
    nu: float
    regularization: float = 0.0


# The midpoint-continuous velocity paired with an unstabilized continuous
# linear pressure is singular on structured grid topologies: any pressure
# whose three vertex values sum to the same constant on every triangle is
# invisible to the divergence form (two such modes exist on an n-by-n grid
# beyond the constant). A vanishing multiple of the projection form selects
# the representative with no such content while perturbing the solution far
# below discretization error.
KERNEL_REGULARIZATION = 1e-8


def build_saddle_system(mesh, pair, problem, kernel_regularization=None):
    """Assemble all blocks of ``pair`` for ``problem`` on ``mesh``.

    Returns the system together with the Dirichlet data derived from the
    problem's boundary field. ``kernel_regularization`` (default: automatic)
    scales the pressure-projection form added for the unstabilized
    continuous-pressure pair to filter spurious pressure modes; pass 0 to
    assemble the raw singular system.
    """
    vel_dm = build_dofmap(mesh, pair.velocity_space)
    pres_dm = build_dofmap(mesh, pair.pressure_space)
    A = assemble_stiffness(mesh, vel_dm, nu=problem.nu)
    B = assemble_divergence(mesh, vel_dm, pres_dm)
    regularization = 0.0
    if pair.stabilized:
        G = assemble_stabilization(mesh, pres_dm)
    elif pres_dm.space is SpaceKind.P1_SCALAR:
        if kernel_regularization is None:
            kernel_regularization = KERNEL_REGULARIZATION
        if kernel_regularization != 0.0:
            # dividing by the viscosity keeps the perturbation on the scale
            # of the pressure Schur complement, so the selected pressure
            # representative is invariant under viscosity scaling
            regularization = float(kernel_regularization) / problem.nu
            G = assemble_stabilization(mesh, pres_dm) * regularization
        else:
            G = None
    else:
        G = None
    mass = assemble_pressure_mass(mesh, pres_dm)
    c = np.asarray(mass @ np.ones(pres_dm.n_dofs))
    rhs_u = assemble_load(mesh, vel_dm, problem.f)
    bc = dirichlet_from_field(mesh, vel_dm, problem.g)
    system = SaddleSystem(
        A=A, B=B, G=G, c=c, rhs_u=rhs_u, vel_dofmap=vel_dm, pres_dofmap=pres_dm,
        nu=problem.nu, regularization=regularization,
    )
    return system, bc


@dataclass
class ReducedSystem:
    """Constrained saddle system ready for factorization.

    Unknown ordering: interior velocity dofs, all pressure dofs, then the
    single mean-constraint multiplier. ``matrix`` is symmetric; the A block
    stays positive definite after the symmetric boundary elimination.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    A_II: sp.csr_matrix
    B_I: sp.csr_matrix
    G: sp.csr_matrix | None
    c: np.ndarray
    vel_dofmap: object
    pres_dofmap: object

    @property
    def n_interior(self):
        return len(self.interior)

    @property
    def n_pressure(self):
        return len(self.c)


def restrict_to_interior(dofmap, A, B=None):
    """Split velocity blocks between the unknowns and the Dirichlet dofs.

    The unknowns are the dofs of ``dofmap`` off the boundary, in increasing
    order. Returns ``(interior, A_II, A_IB, B_I, B_B)`` as CSR blocks: ``A``
    split by rows and columns, ``B`` by columns (None when not given).
    """
    boundary = dofmap.boundary_dofs
    interior = np.setdiff1d(np.arange(dofmap.n_dofs), boundary)
    A_I = A.tocsr()[interior]
    B = None if B is None else B.tocsr()
    B_I, B_B = (None, None) if B is None else (B[:, interior], B[:, boundary])
    return interior, A_I[:, interior], A_I[:, boundary], B_I, B_B


def apply_constraints(system, bc):
    """Eliminate Dirichlet dofs symmetrically and append the mean constraint.

    Known boundary values move to the right-hand side of both the momentum
    and the divergence rows; the zero-mean pressure condition is enforced by
    one Lagrange multiplier row/column, keeping the matrix symmetric.
    """
    vel_dm = system.vel_dofmap
    boundary = vel_dm.boundary_dofs
    given = np.array(sorted(bc.values), dtype=np.int64)
    if given.shape != boundary.shape or (given != boundary).any():
        extra = set(bc.values) - set(boundary.tolist())
        missing = set(boundary.tolist()) - set(bc.values)
        raise InconsistentBCError(
            f"Dirichlet data must cover exactly the boundary dofs "
            f"(extra: {sorted(extra)[:5]}, missing: {sorted(missing)[:5]})"
        )
    boundary_values = np.array([bc.values[int(d)] for d in boundary])

    interior, A_II, A_IB, B_I, B_B = restrict_to_interior(vel_dm, system.A, system.B)

    rhs_u = system.rhs_u[interior] - A_IB @ boundary_values
    rhs_p = B_B @ boundary_values
    c_col = sp.csr_matrix(system.c.reshape(-1, 1))
    G_block = None if system.G is None else -system.G
    matrix = sp.bmat(
        [
            [A_II, -B_I.T, None],
            [-B_I, G_block, c_col],
            [None, c_col.T, None],
        ],
        format="csc",
    )
    rhs = np.concatenate([rhs_u, rhs_p, [0.0]])
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        interior=interior,
        boundary=boundary,
        boundary_values=boundary_values,
        A_II=A_II,
        B_I=B_I,
        G=system.G,
        c=system.c,
        vel_dofmap=vel_dm,
        pres_dofmap=system.pres_dofmap,
    )


def dump_matrix(matrix, path):
    """Write a sparse matrix as 0-based ``row col value`` triplets."""
    coo = sp.coo_matrix(matrix)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v)!r}\n")
