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
    # scipy stores these indices as int32 when they fit; passing them so saves a copy
    if max(shape) <= np.iinfo(np.int32).max:
        rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    rr = np.repeat(rows[:, :, None], c, axis=2)
    cc = np.repeat(cols[:, None, :], r, axis=1)
    mat = sp.coo_matrix(
        (local.ravel(), (rr.ravel(), cc.ravel())), shape=shape
    ).tocsr()
    mat.sum_duplicates()
    # stored zeros stay: the orderings of ncp1-p0's saddle matrix (minimum degree of the
    # scalar stiffness, or COLAMD) need this pattern to keep its LU fill and factor time low
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


def _pressure_form(mesh, pres_dofmap, centered):
    """Scatter ``area_K`` times the reference pressure mass, less the outer product of
    the reference basis means when ``centered``."""
    _check_areas(mesh)
    rule = quadrature(2)
    pvals = basis_values(pres_dofmap.space, rule.points)
    unit_mass = np.einsum("q,qa,qb->ab", rule.weights, pvals, pvals)
    if centered:
        unit_mean = rule.weights @ pvals
        unit_mass = unit_mass - np.outer(unit_mean, unit_mean)
    local = mesh.areas[:, None, None] * unit_mass[None, :, :]
    dofs, n = pres_dofmap.cell_dofs, pres_dofmap.n_dofs
    return _scatter(local, dofs, dofs, (n, n))


def assemble_pressure_mass(mesh, pres_dofmap):
    """Assemble the pressure mass matrix; 1'M1 equals the domain area."""
    return _pressure_form(mesh, pres_dofmap, centered=False)


def assemble_stabilization(mesh, pres_dofmap):
    """Assemble the pressure-projection stabilization form.

    Per element this is ``(p - mean_K p, q - mean_K q)_K``; constants lie in
    the kernel, so the matrix is symmetric positive semidefinite. The form is
    parameter free.
    """
    if pres_dofmap.space is not SpaceKind.P1_SCALAR:
        raise ValueError("pressure-projection stabilization expects linear pressure")
    return _pressure_form(mesh, pres_dofmap, centered=True)


def assemble_load(mesh, vel_dofmap, f):
    """Assemble the body-force vector (f, psi_j) with the degree-6 rule."""
    if not vel_dofmap.space.is_vector:
        raise ValueError("load vector expects a vector velocity space")
    _check_areas(mesh)
    rule = quadrature(6)
    points = mesh.degree6_points
    fvals = np.asarray(f(points[:, :, 0], points[:, :, 1]), dtype=np.float64)
    if fvals.shape != (2,) + points.shape[:2]:
        raise ValueError(f"body force returned shape {fvals.shape}")
    vals = basis_values(vel_dofmap.space, rule.points)
    local = np.einsum("q,ctq,qj->tjc", rule.weights, fvals, vals) * mesh.areas[
        :, None, None
    ]
    # bincount adds in the same order as np.add.at, from zero, so the bits are the same
    return np.bincount(vel_dofmap.cell_dofs.ravel(), weights=local.ravel(),
                       minlength=vel_dofmap.n_dofs)


@dataclass
class DirichletBC:
    """Prescribed ``values`` at ``dofs``: the boundary dofs of a velocity space, any order."""

    dofs: np.ndarray
    values: np.ndarray


def dirichlet_from_field(mesh, dofmap, g):
    """Evaluate boundary data ``g`` at the (sorted) boundary dofs of ``dofmap``."""
    if not dofmap.space.is_vector:
        raise ValueError("Dirichlet data applies to the vector velocity space")
    bdofs = dofmap.boundary_dofs
    geometric = bdofs // 2
    comp = bdofs % 2
    sites = dof_sites(mesh, dofmap.space)[geometric]
    gvals = np.asarray(g(sites[:, 0], sites[:, 1]), dtype=np.float64)
    values = gvals[comp, np.arange(len(bdofs))]
    return DirichletBC(dofs=bdofs, values=values)


@dataclass
class SaddleSystem:
    """Assembled Stokes blocks before boundary and mean constraints.

    ``A`` is the viscosity-scaled stiffness, ``B`` the divergence coupling,
    ``G`` the optional pressure-pressure block (full stabilization, or the
    vanishing kernel regularization recorded in ``regularization``), ``M``
    the pressure mass, ``c`` the pressure-mean functional (c_q = integral of
    the q-th pressure basis function, ``M @ 1``), and ``rhs_u`` the
    body-force load. ``A`` and ``G`` are symmetric bit for bit, as
    ``apply_constraints`` requires.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    G: sp.csr_matrix | None
    M: sp.csr_matrix
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


def assemble_operator(mesh, pair, nu):
    """The ``SaddleSystem`` of ``pair`` on ``mesh`` at viscosity ``nu`` for zero data.

    The one place that builds a pair's dof maps, ``A``, ``B``, ``G``, ``M`` and ``c``.
    ``ncp1-p1`` gets ``G``, the projection form times ``KERNEL_REGULARIZATION / nu``;
    its raw singular system is ``dataclasses.replace(system, G=None, regularization=0.0)``.
    """
    vel_dm = build_dofmap(mesh, pair.velocity_space)
    pres_dm = build_dofmap(mesh, pair.pressure_space)
    A = assemble_stiffness(mesh, vel_dm, nu=nu)
    B = assemble_divergence(mesh, vel_dm, pres_dm)
    regularization = 0.0
    G = None
    if pair.stabilized:
        G = assemble_stabilization(mesh, pres_dm)
    elif pres_dm.space is SpaceKind.P1_SCALAR:
        # dividing by the viscosity keeps the perturbation on the scale
        # of the pressure Schur complement, so the selected pressure
        # representative is invariant under viscosity scaling
        regularization = KERNEL_REGULARIZATION / nu
        G = assemble_stabilization(mesh, pres_dm) * regularization
    mass = assemble_pressure_mass(mesh, pres_dm)
    c = np.asarray(mass @ np.ones(pres_dm.n_dofs))
    return SaddleSystem(
        A=A, B=B, G=G, M=mass, c=c, rhs_u=np.zeros(vel_dm.n_dofs), vel_dofmap=vel_dm,
        pres_dofmap=pres_dm, nu=nu, regularization=regularization,
    )


def build_saddle_system(mesh, pair, problem):
    """``assemble_operator`` at ``problem.nu`` with the problem's body-force load,
    and the Dirichlet data of its boundary field."""
    system = assemble_operator(mesh, pair, problem.nu)
    system.rhs_u = assemble_load(mesh, system.vel_dofmap, problem.f)
    return system, dirichlet_from_field(mesh, system.vel_dofmap, problem.g)


@dataclass
class ReducedSystem:
    """Constrained saddle system ready for factorization.

    Unknown ordering: interior velocity dofs, all pressure dofs, then the
    single mean-constraint multiplier. ``matrix`` is symmetric bit for bit
    (see ``apply_constraints``); the A block stays positive definite after
    the symmetric boundary elimination.
    ``M`` and ``nu`` (the pressure mass and the viscosity of the
    ``SaddleSystem``) are carried for Uzawa's preconditioner.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    A_II: sp.csr_matrix
    B_I: sp.csr_matrix
    G: sp.csr_matrix | None
    M: sp.csr_matrix
    c: np.ndarray
    nu: float
    vel_dofmap: object
    pres_dofmap: object

    @property
    def n_interior(self):
        return len(self.interior)

    @property
    def n_pressure(self):
        return len(self.c)


def _keep_columns(matrix, position, n_columns, row_starts, in_rows=True):
    """The entries of the CSR ``matrix`` in its columns with ``position >= 0``,
    renumbered to those positions, as a CSR block with ``n_columns`` columns.

    The block's rows are the rows whose entries start at ``row_starts[:-1]``
    (``row_starts[-1]`` ends the last of them); when these are not all rows,
    ``in_rows`` masks out the entries of the others.
    """
    columns = position[matrix.indices]
    kept = np.flatnonzero((columns >= 0) & in_rows)
    return sp.csr_matrix(
        (matrix.data[kept], columns[kept], np.searchsorted(kept, row_starts)),
        shape=(len(row_starts) - 1, n_columns),
    )


def restrict_to_interior(dofmap, A, B=None):
    """Split velocity blocks between the unknowns and the Dirichlet dofs.

    The unknowns are the dofs of ``dofmap`` off the boundary, in increasing
    order. Returns ``(interior, A_II, B_I)``: ``A`` restricted to them in rows
    and columns and ``B`` (None when not given) in columns, as CSR blocks.
    The blocks are cut from the CSR arrays by index arithmetic; every stored
    entry, explicit zeros included, keeps its value and its place.
    """
    A = A.tocsr()
    position = np.zeros(dofmap.n_dofs, dtype=A.indices.dtype)
    position[dofmap.boundary_dofs] = -1
    interior = np.flatnonzero(position == 0)
    position[interior] = np.arange(len(interior))
    n_i = len(interior)
    A_II = _keep_columns(A, position, n_i, A.indptr[np.append(interior, dofmap.n_dofs)],
                         np.repeat(position >= 0, np.diff(A.indptr)))
    if B is None:
        return interior, A_II, None
    B = B.tocsr()
    return interior, A_II, _keep_columns(B, position, n_i, B.indptr)


def _block_arrays(block_rows):
    """CSR arrays of a matrix given as rows of blocks.

    Each block is ``(indptr, indices, data)`` in CSR form with its column
    offset already added; the blocks of one block row share its rows and are
    placed left to right, so sorted blocks give sorted rows.
    """
    counts = [[np.diff(indptr) for indptr, _, _ in blocks] for blocks in block_rows]
    indptr = np.zeros(sum(len(c[0]) for c in counts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([sum(c) for c in counts]), out=indptr[1:])
    index_dtype = np.int32 if max(len(indptr), indptr[-1]) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(indptr[-1], dtype=index_dtype)
    data = np.empty(indptr[-1])
    first = 0
    for blocks, block_counts in zip(block_rows, counts):
        n_rows = len(block_counts[0])
        start = indptr[first : first + n_rows]
        for (block_indptr, block_indices, block_data), count in zip(blocks, block_counts):
            # an entry's place in its block, moved from the block's row start to the row's
            target = np.repeat(start - block_indptr[:-1], count)
            target += np.arange(len(block_data))
            indices[target] = block_indices
            data[target] = block_data
            start = start + count
        first += n_rows
    return indptr.astype(index_dtype), indices, data


def apply_constraints(system, bc):
    """Eliminate Dirichlet dofs symmetrically and append the mean constraint.

    Known boundary values move to the right-hand side of both the momentum
    and the divergence rows; the zero-mean pressure condition is enforced by
    one Lagrange multiplier row/column, keeping the matrix symmetric.

    The matrix ``[[A_II, -B_I', 0], [-B_I, -G, c], [0, c', 0]]`` is placed
    entry by entry from the CSR arrays of the blocks, explicit zeros included,
    without an intermediate sparse format. ``A`` and ``G`` are assembled
    bitwise symmetric: an off-diagonal entry sums at most two element
    contributions, since two dofs share at most two triangles. So the matrix
    is bitwise symmetric, and its CSR arrays are its CSC arrays.
    """
    vel_dm = system.vel_dofmap
    boundary = vel_dm.boundary_dofs
    given = np.asarray(bc.dofs)
    if len(bc.values) != len(given):
        raise InconsistentBCError(f"{len(given)} Dirichlet dofs but {len(bc.values)} values")
    order = np.argsort(given)
    if not np.array_equal(given[order], boundary):
        given, counts = np.unique(given, return_counts=True)
        extra, missing = np.setdiff1d(given, boundary), np.setdiff1d(boundary, given)
        raise InconsistentBCError(
            f"Dirichlet data must cover exactly the boundary dofs (extra: {extra[:5].tolist()}, "
            f"missing: {missing[:5].tolist()}, duplicated: {given[counts > 1][:5].tolist()})"
        )
    boundary_values = np.asarray(bc.values, dtype=np.float64)[order]

    interior, A_II, B_I = restrict_to_interior(vel_dm, system.A, system.B)
    n_i, n_p = len(interior), len(system.c)
    # interior columns meet zeros and add exact zeros to each row's sum (A and B
    # are finite), so these are A_IB @ g and B_B @ g to the bit
    lifted = np.zeros(vel_dm.n_dofs)
    lifted[boundary] = boundary_values
    rhs = np.concatenate([system.rhs_u[interior] - (system.A @ lifted)[interior],
                          system.B @ lifted, [0.0]])

    B_T = B_I.tocsc()  # the CSC arrays of B_I are the CSR arrays of B_I'
    constrained = np.flatnonzero(system.c)
    c_indptr = np.concatenate([[0], np.cumsum(system.c != 0)])
    c_values = system.c[constrained]
    pressure_blocks = [(B_I.indptr, B_I.indices, -B_I.data)]
    if system.G is not None:
        G = system.G.tocsr()
        pressure_blocks.append((G.indptr, n_i + G.indices, -G.data))
    pressure_blocks.append((c_indptr, np.full(len(constrained), n_i + n_p), c_values))
    indptr, indices, data = _block_arrays([
        [(A_II.indptr, A_II.indices, A_II.data),
         (B_T.indptr, n_i + B_T.indices, -B_T.data)],
        pressure_blocks,
        [(np.array([0, len(constrained)]), n_i + constrained, c_values)],
    ])
    size = n_i + n_p + 1
    matrix = sp.csc_matrix((data, indices, indptr), shape=(size, size))
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        interior=interior,
        boundary=boundary,
        boundary_values=boundary_values,
        A_II=A_II,
        B_I=B_I,
        G=system.G,
        M=system.M,
        c=system.c,
        nu=system.nu,
        vel_dofmap=vel_dm,
        pres_dofmap=system.pres_dofmap,
    )
