"""Reference elements, quadrature, dof maps, and nodal interpolation.

Four spaces are supported: the nonconforming linear velocity space with
degrees of freedom at edge midpoints (scalar basis ``1 - 2*lambda_i`` on each
triangle, continuous only at midpoints), the conforming linear space with
vertex dofs, and piecewise constants. Vector-valued variants interleave the
two components as ``(u1, u2)`` per geometric dof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import _REFERENCE_BARYCENTRIC_GRADIENTS


class SpaceKind(Enum):
    NCP1_VECTOR = "ncp1_vector"
    P1_VECTOR = "p1_vector"
    P1_SCALAR = "p1_scalar"
    P0_SCALAR = "p0_scalar"

    @property
    def is_vector(self):
        return self in (SpaceKind.NCP1_VECTOR, SpaceKind.P1_VECTOR)


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points with weights summing to one (scale by |K| to apply)."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


_CENTROID = QuadratureRule(
    points=np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]]),
    weights=np.array([1.0]),
    degree=1,
)

_MIDPOINT = QuadratureRule(
    points=np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    weights=np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
    degree=2,
)


def _dunavant6():
    # 12-point rule, exact for polynomials of total degree 6
    groups = [
        (0.873821971016996, 0.063089014491502, 0.050844906370207),
        (0.501426509658179, 0.249286745170910, 0.116786275726379),
    ]
    points = []
    weights = []
    for a, b, w in groups:
        points += [(a, b, b), (b, a, b), (b, b, a)]
        weights += [w, w, w]
    a, b, c = 0.636502499121399, 0.310352451033785, 0.053145049844816
    w = 0.082851075618374
    for perm in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        points.append(perm)
        weights.append(w)
    return QuadratureRule(points=np.array(points), weights=np.array(weights), degree=6)


_DUNAVANT6 = _dunavant6()
_RULES = (_CENTROID, _MIDPOINT, _DUNAVANT6)


def quadrature(degree):
    """Return the smallest built-in rule exact for the requested degree."""
    for rule in _RULES:
        if rule.degree >= degree:
            return rule
    raise ValueError(f"no quadrature rule of degree {degree} available (max 6)")


def reference_gradients(space):
    """Constant gradients of the scalar basis on the reference triangle."""
    if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
        return _REFERENCE_BARYCENTRIC_GRADIENTS.copy()
    if space is SpaceKind.NCP1_VECTOR:
        return -2.0 * _REFERENCE_BARYCENTRIC_GRADIENTS
    return np.zeros((1, 2))


def basis_values(space, points):
    """Scalar basis values at barycentric ``points`` of shape (nq, 3)."""
    lam = np.asarray(points, dtype=np.float64)
    if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
        return lam.copy()
    if space is SpaceKind.NCP1_VECTOR:
        return 1.0 - 2.0 * lam
    return np.ones((lam.shape[0], 1))


def eval_basis(space, point):
    """Evaluate the scalar basis and its reference gradients at one point.

    ``point`` is a barycentric triple (nonnegative, summing to one). Vector
    spaces share the scalar basis of their geometric dofs.
    """
    lam = np.asarray(point, dtype=np.float64)
    if lam.shape != (3,) or lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError(f"not a barycentric point: {point}")
    return basis_values(space, lam[None, :])[0], reference_gradients(space)


def quadrature_points(mesh, rule):
    """Physical coordinates of ``rule``'s points on every triangle, shape (T, nq, 2)."""
    corners = mesh.vertices[mesh.triangles]
    lam = rule.points
    # the explicit three-term sum gives the bits of einsum("qk,tkd->tqd") at less cost
    return (lam[:, 0, None] * corners[:, None, 0] + lam[:, 1, None] * corners[:, None, 1]
            + lam[:, 2, None] * corners[:, None, 2])


def physical_gradients(mesh, space):
    """Per-element physical gradients of the scalar basis, shape (T, nloc, 2).

    Gradients are constant on each triangle for every supported space: the
    mesh's (read-only) barycentric gradients for the linear spaces, -2 times
    them for the midpoint-continuous basis ``1 - 2*lambda_i``, zero for P0.
    """
    if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
        return mesh.barycentric_gradients
    if space is SpaceKind.NCP1_VECTOR:
        # + 0.0 turns the -0.0 of a zero gradient into the +0.0 that a sum of
        # products over the reference gradients gives
        return -2.0 * mesh.barycentric_gradients + 0.0
    return np.zeros((mesh.n_triangles, 1, 2))


def dof_sites(mesh, space):
    """Coordinates of the geometric dofs (edge midpoints, vertices, centroids)."""
    if space is SpaceKind.NCP1_VECTOR:
        return mesh.edge_midpoints
    if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
        return mesh.vertices
    return mesh.centroids


@dataclass
class DofMap:
    """Mapping from (triangle, local dof) to global dof for one space.

    ``cell_dofs`` has one row per triangle; vector spaces interleave the two
    components, so column ``2*i + c`` is component ``c`` of geometric dof
    ``i``. ``boundary_dofs`` is a sorted array of the dofs sitting on the
    domain boundary.
    """

    space: SpaceKind
    n_dofs: int
    cell_dofs: np.ndarray
    boundary_dofs: np.ndarray

    def __post_init__(self):
        self.cell_dofs.setflags(write=False)
        self.boundary_dofs.setflags(write=False)


def _interleave(geometric):
    out = np.empty((geometric.shape[0], 2 * geometric.shape[1]), dtype=np.int64)
    out[:, 0::2] = 2 * geometric
    out[:, 1::2] = 2 * geometric + 1
    return out


def _vector_dofs(geometric_ids):
    return np.sort(np.concatenate([2 * geometric_ids, 2 * geometric_ids + 1]))


def build_dofmap(mesh, space):
    """Build the dof map of ``space`` on ``mesh``.

    Raises ``ValueError`` for a mesh without triangles, and for a linear space
    on a mesh with a vertex in no triangle (its dof would have no basis
    function).
    """
    if mesh.n_triangles == 0:
        raise ValueError("mesh has no triangles")
    if space in (SpaceKind.P1_VECTOR, SpaceKind.P1_SCALAR):
        uses = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
        if not uses.all():
            raise ValueError(f"vertex {np.argmin(uses)} is in no triangle")
    if space is SpaceKind.NCP1_VECTOR:
        return DofMap(
            space=space,
            n_dofs=2 * mesh.n_edges,
            cell_dofs=_interleave(mesh.tri_edges),
            boundary_dofs=_vector_dofs(mesh.boundary_edges),
        )
    if space is SpaceKind.P1_VECTOR:
        return DofMap(
            space=space,
            n_dofs=2 * mesh.n_vertices,
            cell_dofs=_interleave(mesh.triangles),
            boundary_dofs=_vector_dofs(mesh.boundary_vertices),
        )
    if space is SpaceKind.P1_SCALAR:
        return DofMap(
            space=space,
            n_dofs=mesh.n_vertices,
            cell_dofs=mesh.triangles.copy(),
            boundary_dofs=mesh.boundary_vertices.copy(),
        )
    return DofMap(
        space=space,
        n_dofs=mesh.n_triangles,
        cell_dofs=np.arange(mesh.n_triangles, dtype=np.int64)[:, None],
        boundary_dofs=np.empty(0, dtype=np.int64),
    )


@dataclass
class FieldCoefficients:
    """Coefficient vector of a finite element field plus its dof map."""

    dofmap: DofMap
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.dofmap.n_dofs,):
            raise ValueError(
                f"expected {self.dofmap.n_dofs} coefficients, got {self.values.shape}"
            )

    @property
    def space(self):
        return self.dofmap.space


def interpolate(field, mesh, space):
    """Nodal interpolation of an analytic field.

    ``field(x, y)`` must accept arrays and return values of shape
    ``x.shape`` for scalar spaces or ``(2,) + x.shape`` for vector spaces.
    Reproduces component-wise linear fields exactly in the linear spaces.
    """
    dofmap = build_dofmap(mesh, space)
    sites = dof_sites(mesh, space)
    raw = np.asarray(field(sites[:, 0], sites[:, 1]), dtype=np.float64)
    if space.is_vector:
        if raw.shape != (2, len(sites)):
            raise ValueError(f"vector field returned shape {raw.shape}")
        values = np.empty(2 * len(sites))
        values[0::2] = raw[0]
        values[1::2] = raw[1]
    else:
        values = np.broadcast_to(raw, (len(sites),)).copy()
    return FieldCoefficients(dofmap=dofmap, values=values)
