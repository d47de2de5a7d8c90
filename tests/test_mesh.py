from pathlib import Path

import numpy as np
import pytest

from ncstokes.errors import MeshParseError, NonConformingMeshError
from ncstokes.mesh import (
    Mesh,
    build_edge_table,
    build_structured_mesh,
    read_mesh,
    write_mesh,
)

DATA = Path(__file__).parent / "data"


def test_smallest_structured_mesh_counts():
    mesh = build_structured_mesh(1)
    assert mesh.n_triangles == 2
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 5
    assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_n2_counts_follow_euler_relation():
    mesh = build_structured_mesh(2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    # V - E + T = 1 for the simply connected square
    assert mesh.n_edges == mesh.n_vertices + mesh.n_triangles - 1 == 16
    assert mesh.total_area == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_structured_mesh_invariants(n):
    mesh = build_structured_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_triangles == 2 * n * n
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    assert len(mesh.boundary_edges) == 4 * n
    assert mesh.total_area == pytest.approx(1.0, abs=1e-12)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / n, abs=1e-12)
    assert mesh.areas.min() > 0.0


def test_edge_table_is_lexicographic_and_consistent(mesh_n4):
    edges = mesh_n4.edges
    assert (edges[:, 0] < edges[:, 1]).all()
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    assert (order == np.arange(len(edges))).all()
    # boundary <=> exactly one adjacent triangle
    assert ((mesh_n4.edge_tris >= 0).sum(axis=1) == np.where(mesh_n4.boundary_edge_mask, 1, 2)).all()
    # tri_edges inverts the adjacency
    for t, tri_edge_row in enumerate(mesh_n4.tri_edges):
        for e in tri_edge_row:
            assert t in mesh_n4.edge_tris[e]


def test_edge_table_matches_unique_over_pairs(jittered_flipped_mesh):
    mesh = jittered_flipped_mesh(7)
    pairs = np.sort(mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    np.testing.assert_array_equal(mesh.edges, edges)
    np.testing.assert_array_equal(mesh.tri_edges, inverse.reshape(-1, 3))


def test_structured_triangles_in_cell_order():
    n = 3
    expected = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            expected += [(v00, v00 + 1, v00 + n + 2), (v00, v00 + n + 2, v00 + n + 1)]
    np.testing.assert_array_equal(build_structured_mesh(n).triangles, expected)


def test_interior_edges_traversed_with_opposite_orientation(mesh_n4):
    directed = {}
    for t, (a, b, c) in enumerate(mesh_n4.triangles):
        for u, v in ((b, c), (c, a), (a, b)):
            directed.setdefault((min(u, v), max(u, v)), []).append((u, v))
    for edge, occurrences in directed.items():
        if len(occurrences) == 2:
            assert occurrences[0] == occurrences[1][::-1]


def test_edge_midpoints_are_unique(mesh_n8):
    rounded = {tuple(np.round(m, 12)) for m in mesh_n8.edge_midpoints}
    assert len(rounded) == mesh_n8.n_edges


def test_repeated_triangle_is_nonconforming():
    mesh = build_structured_mesh(1)
    triangles = np.vstack([mesh.triangles, mesh.triangles[:1]])
    with pytest.raises(NonConformingMeshError):
        build_edge_table(mesh.vertices, triangles)


@pytest.mark.parametrize("vertices, triangles", [
    # the fourth vertex lies inside the first triangle, on the same side of edge (0, 1)
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.3]], [[0, 1, 2], [0, 1, 3]]),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2]]),
], ids=["folded", "doubled"])
def test_triangles_on_one_side_of_an_edge_are_nonconforming(vertices, triangles):
    with pytest.raises(NonConformingMeshError) as err:
        build_edge_table(np.array(vertices, dtype=float), triangles)
    assert str(err.value) == "edge (0, 1) has triangles 0 and 1 on the same side"


def test_nonconforming_edge_is_named_with_python_ints():
    with pytest.raises(NonConformingMeshError) as err:
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]] * 3)
    assert str(err.value) == "edge (0, 1) is shared by 3 triangles"


def test_clockwise_triangle_rejected():
    with pytest.raises(ValueError, match="counterclockwise"):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


def test_vertex_index_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])


def test_write_read_round_trip_is_bitwise(tmp_path):
    mesh = build_structured_mesh(2)
    path = tmp_path / "square.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.n_vertices == mesh.n_vertices
    assert back.n_triangles == mesh.n_triangles
    assert back.n_edges == mesh.n_edges
    assert (back.vertices == mesh.vertices).all()
    assert (back.triangles == mesh.triangles).all()


def test_read_two_triangle_sample_file(tmp_path):
    # the documented smallest mesh: unit square split along its diagonal
    path = tmp_path / "sample.mesh"
    path.write_text(
        "# unit square, two triangles\n"
        "4 2\n"
        "0.0 0.0\n"
        "1.0 0.0\n"
        "0.0 1.0\n"
        "1.0 1.0\n"
        "0 1 3  # lower triangle\n"
        "0 3 2\n"
    )
    mesh = read_mesh(path)
    assert mesh.n_triangles == 2
    assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_read_reports_triangle_index_out_of_range_with_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 7\n")
    with pytest.raises(MeshParseError, match="out of range") as err:
        read_mesh(path)
    assert err.value.line == 5


MALFORMED = [
    ("", "empty", 1),
    ("3\n", "header", 1),
    ("3 one\n0 0\n1 0\n0 1\n", "header counts must be integers", 1),
    ("3 -1\n0 0\n1 0\n0 1\n", "counts must be nonnegative", 1),
    ("3 1\n0 0\n1 0\n0 1\n", "data lines", 4),
    ("3 1\n0 0 0\n1 0\n0 1\n0 1 2\n", "vertex line must be 'x y'", 2),
    ("3 1\n0 zero\n1 0\n0 1\n0 1 2\n", "numbers", 2),
    ("3 1\n0 0\n1 0\n0 1\n0 1\n", "i j k", 5),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2.0\n", "triangle indices must be integers", 5),
    ("3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n", "number does not fit in int64", 5),
    ("3 1\n0 0\n1 0\n0 1\n-99999999999999999999 1 2\n", "number does not fit in int64", 5),
    # a coordinate that parses to inf or nan is named on its line, not by Mesh
    ("3 1\n0 0\n1e999 0\n0 1\n0 1 2\n", "vertex coordinates must be finite", 3),
    ("3 1\n0 0\n1 0\n0 nan\n0 1 2\n", "vertex coordinates must be finite", 4),
    ("3 1\n-inf 0\n1 0\n0 1\n0 1 2\n", "vertex coordinates must be finite", 2),
    # comment and blank lines count towards the reported line
    ("# unit triangle\n\n3 1\n# vertices\n0 0\n1 zero\n\n0 1\n0 1 2\n", "numbers", 6),
    # the first bad line wins, whichever check it fails
    ("3 2\n0 0\n1 0\n0 1\n0 1 7\n0 1\n", "out of range", 5),
    ("3 2\n0 0\n1 0\n0 1\n0 1\n0 1 7\n", "i j k", 5),
    ("3 1\n0 0\ninf 0\n0 x\n0 1 2\n", "vertex coordinates must be finite", 3),
    # a non-ASCII byte, even in a comment, is named on its line (universal newlines)
    ("3 1\r\n0 0\r1 0\n0 1 # maillage généré\n0 1 2\n", "byte 0xc3 is not ASCII", 4),
]


# the ids leave out the line, so each case keeps the test name it had before
@pytest.mark.parametrize(
    "content, match, line", MALFORMED, ids=[f"{c}-{m}" for c, m, _ in MALFORMED]
)
def test_read_rejects_malformed_files(tmp_path, content, match, line):
    path = tmp_path / "bad.mesh"
    path.write_bytes(content.encode("utf-8"))
    with pytest.raises(MeshParseError, match=match) as err:
        read_mesh(path)
    assert err.value.line == line


@pytest.mark.parametrize(
    "content, n_vertices",
    [("0 0\n", 0), ("# no triangles\n3 0\n0 0\n1 0\n0 1\n", 3)],
)
def test_read_accepts_meshes_without_triangles(tmp_path, content, n_vertices):
    path = tmp_path / "empty.mesh"
    path.write_text(content)
    mesh = read_mesh(path)
    assert mesh.vertices.shape == (n_vertices, 2)
    assert mesh.triangles.shape == (0, 3)
    assert mesh.n_edges == 0


def test_committed_mesh_file_is_written_again_byte_for_byte(tmp_path, jittered_flipped_mesh):
    committed = (DATA / "jittered_flipped_n6.mesh").read_bytes()
    path = tmp_path / "jittered.mesh"
    write_mesh(jittered_flipped_mesh(6), path)
    assert path.read_bytes() == committed
    write_mesh(read_mesh(DATA / "jittered_flipped_n6.mesh"), path)
    assert path.read_bytes() == committed


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_mesh(tmp_path / "does_not_exist.mesh")


def test_mesh_arrays_are_write_protected(mesh_n2):
    with pytest.raises(ValueError):
        mesh_n2.vertices[0, 0] = 7.0
