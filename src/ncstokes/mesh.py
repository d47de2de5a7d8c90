"""Conforming triangulations: structured unit-square meshes, edge tables, text I/O.

The mesh file format is plain text. The first data line holds the vertex and
triangle counts ``V T``, followed by ``V`` lines ``x y`` (full-precision
decimal) and ``T`` lines ``i j k`` of 0-based counterclockwise vertex indices.
Lines may carry ``#`` comments.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import MeshParseError, NonConformingMeshError
from .femspace import quadrature, quadrature_points


def build_edge_table(vertices, triangles):
    """Build the undirected edge table of a conforming triangulation.

    An edge shared by more than two triangles, or by two that run along it in
    the same direction (so lie on the same side of it: a folded or a repeated
    triangle), raises NonConformingMeshError.

    Parameters
    ----------
        vertices : (V, 2) array
        triangles : (T, 3) array of vertex indices

    Returns
    -------
        edges : (E, 2) array
            Sorted endpoint pairs, ordered lexicographically.
        edge_tris : (E, 2) array
            Adjacent triangle indices in ascending order; second entry is -1
            for boundary edges.
        tri_edges : (T, 3) array
            Global edge index opposite each local vertex.
    """
    triangles = np.asarray(triangles, dtype=np.int64)
    n_tri = triangles.shape[0]
    # local edge i sits opposite local vertex i
    directed = triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    pairs = np.sort(directed, axis=1)
    # one int64 key per pair sorts exactly as the pairs do lexicographically
    n_vert = len(vertices)
    keys, inverse = np.unique(pairs[:, 0] * n_vert + pairs[:, 1], return_inverse=True)
    edges = np.column_stack(np.divmod(keys, n_vert))
    counts = np.bincount(inverse, minlength=len(edges))
    if counts.max(initial=0) > 2:
        bad = int(np.argmax(counts))
        raise NonConformingMeshError(
            f"edge {tuple(edges[bad].tolist())} is shared by {counts[bad]} triangles"
        )
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    interior = counts == 2
    first, second = order[starts[:-1]], order[starts[:-1][interior] + 1]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = first // 3
    edge_tris[interior, 1] = second // 3
    # triangles of one orientation on the two sides of an edge run along it both ways
    ascending = directed[:, 0] < directed[:, 1]
    same_side = np.flatnonzero(ascending[first[interior]] == ascending[second])
    if len(same_side):
        bad = np.flatnonzero(interior)[same_side[0]]
        raise NonConformingMeshError(
            f"edge {tuple(edges[bad].tolist())} has triangles {edge_tris[bad, 0]} and "
            f"{edge_tris[bad, 1]} on the same side"
        )
    tri_edges = inverse.reshape(n_tri, 3)
    return edges, edge_tris, tri_edges


class Mesh:
    """Immutable 2D triangulation with a precomputed edge table.

    Triangles are stored counterclockwise. Edges appear once per undirected
    vertex pair, ordered lexicographically by sorted endpoints; an edge is a
    boundary edge iff it has exactly one adjacent triangle.
    ``barycentric_gradients`` (T, 3, 2) holds the constant gradients of each
    triangle's barycentric coordinates, which every form reads.
    ``degree6_points`` (T, 12, 2) holds the physical points of the degree-6
    rule, which the load and the error norms integrate with; it is computed on
    first use. All arrays are write-protected, so a mesh may be shared freely
    across workers.
    """

    def __init__(self, vertices, triangles):
        vertices = np.array(vertices, dtype=np.float64)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError(f"vertices must be (V, 2), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (T, 3), got {triangles.shape}")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle vertex index out of range")
        for k in range(3):
            if (triangles[:, k] == triangles[:, (k + 1) % 3]).any():
                raise ValueError("triangle with repeated vertex index")

        self.vertices = vertices
        self.triangles = triangles
        corners = vertices[triangles]
        e1 = corners[:, 1] - corners[:, 0]
        e2 = corners[:, 2] - corners[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        areas = 0.5 * det
        if triangles.size and areas.min() <= 0.0:
            bad = int(np.argmin(areas))
            raise ValueError(
                f"triangle {bad} is not counterclockwise (signed area {areas[bad]:.3e})"
            )
        self.areas = areas
        self.barycentric_gradients = _barycentric_gradients(e1, e2, det)
        self.edges, self.edge_tris, self.tri_edges = build_edge_table(vertices, triangles)
        self.boundary_edge_mask = self.edge_tris[:, 1] < 0
        self.edge_midpoints = 0.5 * (vertices[self.edges[:, 0]] + vertices[self.edges[:, 1]])
        self.centroids = vertices[triangles].mean(axis=1)
        lengths = np.linalg.norm(
            vertices[self.edges[:, 1]] - vertices[self.edges[:, 0]], axis=1
        )
        self.h = float(lengths.max()) if len(lengths) else 0.0
        for arr in (
            self.vertices,
            self.triangles,
            self.areas,
            self.barycentric_gradients,
            self.edges,
            self.edge_tris,
            self.tri_edges,
            self.boundary_edge_mask,
            self.edge_midpoints,
            self.centroids,
        ):
            arr.setflags(write=False)

    @cached_property
    def degree6_points(self):
        points = quadrature_points(self, quadrature(6))
        points.setflags(write=False)
        return points

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def boundary_edges(self):
        return np.nonzero(self.boundary_edge_mask)[0]

    @property
    def boundary_vertices(self):
        """Sorted indices of vertices lying on boundary edges."""
        return np.unique(self.edges[self.boundary_edge_mask])

    @property
    def total_area(self):
        return float(self.areas.sum())

    def __repr__(self):
        return (
            f"Mesh(V={self.n_vertices}, T={self.n_triangles}, "
            f"E={self.n_edges}, h={self.h:.4g})"
        )


# gradients of the three barycentric coordinates on the reference triangle
_REFERENCE_BARYCENTRIC_GRADIENTS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_REFERENCE_BARYCENTRIC_GRADIENTS.setflags(write=False)


def _barycentric_gradients(e1, e2, det):
    """Physical gradients of the barycentric coordinates, shape (T, 3, 2), from
    the edge vectors ``e1 = p1 - p0``, ``e2 = p2 - p0`` and ``det = e1 x e2``."""
    inv_jt = np.empty((len(det), 2, 2))
    inv_jt[:, 0, 0] = e2[:, 1]
    inv_jt[:, 0, 1] = -e1[:, 1]
    inv_jt[:, 1, 0] = -e2[:, 0]
    inv_jt[:, 1, 1] = e1[:, 0]
    inv_jt /= det[:, None, None]
    return np.einsum("tab,ib->tia", inv_jt, _REFERENCE_BARYCENTRIC_GRADIENTS)


def build_structured_mesh(n):
    """Triangulate the unit square into ``2 n^2`` congruent triangles.

    Each of the n-by-n cells is cut by its lower-left to upper-right
    diagonal. The resulting mesh has (n+1)^2 vertices and h = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(side, side)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # lower-left corner of each cell, row by row; its two triangles follow each other
    v00 = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    triangles = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return Mesh(vertices, triangles)


def _format_rows(fmt, *columns):
    """Apply ``fmt`` to every row of ``columns`` placed side by side, in one ``%``.

    The values reach ``%`` as Python ints and floats, which format as
    f-strings do; ``'%r' % np.float64(x)`` is not ``repr(x)`` on numpy 2.
    """
    table = np.column_stack([np.asarray(c, dtype=object) for c in columns])
    return fmt * len(table) % tuple(table.ravel().tolist())


def write_mesh(mesh, path):
    """Write a mesh in the text format; coordinates round-trip bitwise."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        fh.write(_format_rows("%r %r\n", mesh.vertices))
        fh.write(_format_rows("%d %d %d\n", mesh.triangles))


def _parse_block(linenos, rows, dtype, width, shape_msg, value_msg):
    """Convert the token rows of one block of data lines with one ``np.array`` call.

    Returns the ``(k, width)`` array of the rows before the first bad one and
    the MeshParseError for that row, or all rows and None. The rows are
    checked one by one only when the conversion of the whole block fails.
    """
    try:
        return np.array(rows, dtype=dtype).reshape(len(rows), width), None
    except (ValueError, OverflowError):
        pass
    for k, (lineno, tokens) in enumerate(zip(linenos, rows)):
        if len(tokens) != width:
            error = MeshParseError(shape_msg, line=lineno)
        else:
            try:
                np.array(tokens, dtype=dtype)
                continue
            except ValueError:
                error = MeshParseError(value_msg, line=lineno)
            except OverflowError:
                error = MeshParseError(f"number does not fit in {np.dtype(dtype)}", line=lineno)
        return np.array(rows[:k], dtype=dtype).reshape(k, width), error


def read_mesh(path):
    """Read a mesh from the text format.

    Raises MeshParseError (with the 1-based line number, comment and blank
    lines counted) on malformed content, a non-ASCII byte anywhere (comments
    too) included; I/O failures propagate as OSError.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            bodies = [line.split("#", 1)[0].split() for line in fh]
    except UnicodeDecodeError:
        # the same reader, with each undecodable byte escaped, finds its line
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                escaped = [ch for ch in line if ch >= "\udc80"]
                if escaped:
                    byte = ord(escaped[0]) - 0xDC00
                    raise MeshParseError(f"byte {byte:#04x} is not ASCII", line=lineno) from None
        raise

    linenos = [lineno for lineno, body in enumerate(bodies, start=1) if body]
    rows = [body for body in bodies if body]
    if not rows:
        raise MeshParseError("empty mesh file", line=len(bodies) or 1)

    lineno, header = linenos[0], rows[0]
    if len(header) != 2:
        raise MeshParseError("header must be 'V T'", line=lineno)
    try:
        n_vert, n_tri = int(header[0]), int(header[1])
    except ValueError:
        raise MeshParseError("header counts must be integers", line=lineno) from None
    if n_vert < 0 or n_tri < 0:
        raise MeshParseError("counts must be nonnegative", line=lineno)
    if len(rows) != 1 + n_vert + n_tri:
        raise MeshParseError(
            f"expected {1 + n_vert + n_tri} data lines, found {len(rows)}",
            line=linenos[-1],
        )

    vertices, error = _parse_block(
        linenos[1 : 1 + n_vert], rows[1 : 1 + n_vert], np.float64, 2,
        "vertex line must be 'x y'", "vertex coordinates must be numbers",
    )
    # a coordinate that parses but is not finite (1e999, nan) is reported the same way
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        raise MeshParseError("vertex coordinates must be finite", line=linenos[1 + bad[0]])
    if error is not None:
        raise error
    triangles, error = _parse_block(
        linenos[1 + n_vert :], rows[1 + n_vert :], np.int64, 3,
        "triangle line must be 'i j k'", "triangle indices must be integers",
    )
    # an index out of range is reported if it comes before the first malformed line
    bad = np.flatnonzero(((triangles < 0) | (triangles >= n_vert)).any(axis=1))
    if len(bad):
        raise MeshParseError(
            f"triangle vertex index out of range [0, {n_vert})",
            line=linenos[1 + n_vert + bad[0]],
        )
    if error is not None:
        raise error
    return Mesh(vertices, triangles)
