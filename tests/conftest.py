import numpy as np
import pytest

from kscalc import (
    EuclideanTarget,
    MetricMap,
    TreePoint,
    TreeTarget,
    build_space,
)


@pytest.fixture(scope="session")
def line_space_11():
    xs = np.linspace(0.0, 1.0, 11)
    return build_space({"kind": "euclidean", "points": xs[:, None].tolist()})


@pytest.fixture(scope="session")
def line_space_1001():
    xs = np.linspace(0.0, 1.0, 1001)
    return build_space({"kind": "euclidean", "points": xs[:, None].tolist()})


@pytest.fixture(scope="session")
def grid_space_21():
    g = np.linspace(0.0, 1.0, 21)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return build_space({"kind": "euclidean", "points": pts.tolist()})


@pytest.fixture(scope="session")
def tripod():
    # hub 0, leaves 1 (A), 2 (B), 3 (C), unit legs
    return TreeTarget(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])


@pytest.fixture
def leafA():
    return TreePoint(vertex=1)


@pytest.fixture
def leafB():
    return TreePoint(vertex=2)


@pytest.fixture
def leafC():
    return TreePoint(vertex=3)


def random_map(space, target, seed):
    rng = np.random.default_rng(seed)
    return MetricMap(space, target, [target.random_point(rng) for _ in range(space.n)])


def interior_balls(prob):
    """Each interior point's ball of a Dirichlet problem, sliced from the
    space's CSR ball arrays."""
    ptr, members, _ = prob.space.all_balls(prob.scale, prob.interior)
    return np.split(members, ptr[1:-1])


def grid_points(res, dim):
    g = np.linspace(0.0, 1.0, res)
    if dim == 1:
        return g[:, None]
    mesh = np.meshgrid(*([g] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def interior_mask(pts, margin):
    return np.all((pts >= margin) & (pts <= 1.0 - margin), axis=1)


def linear_map(space, pts, a, m_out=1):
    a = np.asarray(a, dtype=float)
    vals = pts @ a.reshape(-1, m_out) if a.ndim > 1 else (pts @ a)[:, None]
    return MetricMap(space, EuclideanTarget(vals.shape[1]), vals)
