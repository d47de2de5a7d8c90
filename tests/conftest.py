import numpy as np
import pytest

from ncstokes.mesh import Mesh, build_structured_mesh


@pytest.fixture(scope="session")
def reference_triangle_mesh():
    """Single reference triangle (0,0), (1,0), (0,1)."""
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


@pytest.fixture(scope="session")
def mesh_n2():
    return build_structured_mesh(2)


@pytest.fixture(scope="session")
def mesh_n4():
    return build_structured_mesh(4)


@pytest.fixture(scope="session")
def mesh_n8():
    return build_structured_mesh(8)


@pytest.fixture(scope="session")
def jittered_flipped_mesh():
    """Builder of a unit square with interior vertices moved by up to h/5 per
    axis and each cell's diagonal chosen at random: a generic topology with
    convex cells."""

    def build(n, seed=5):
        rng = np.random.default_rng(seed)
        side = np.linspace(0.0, 1.0, n + 1)
        vertices = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
        interior = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
        vertices[interior] += rng.uniform(-0.2, 0.2, (int(interior.sum()), 2)) / n
        triangles = []
        for j in range(n):
            for i in range(n):
                a = j * (n + 1) + i
                b, d = a + 1, a + n + 1
                c = d + 1
                flip = rng.random() < 0.5
                triangles += [(a, b, d), (b, c, d)] if flip else [(a, b, c), (a, c, d)]
        return Mesh(vertices, np.array(triangles))

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
