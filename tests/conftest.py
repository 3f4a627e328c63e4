import math

import numpy as np
import pytest
from hypothesis import settings

from kscalc import (
    EuclideanTarget,
    FitError,
    MetricMap,
    Seminorm,
    TreeTarget,
    build_space,
)
from kscalc.charts import FitResult, _direction_dictionary, _quad_monomials

# for CI (``--hypothesis-profile explore``): on CI Hypothesis loads its own
# ``ci`` profile, which derandomizes, so every push would replay the same
# examples and a rare failing draw could never show there.  This profile
# draws fresh examples each run and prints the blob that reproduces a
# failure; no example database is kept between runs.
settings.register_profile(
    "explore", derandomize=False, print_blob=True, database=None, deadline=None
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
    return {"vertex": 1}


@pytest.fixture
def leafB():
    return {"vertex": 2}


@pytest.fixture
def leafC():
    return {"vertex": 3}


def random_map(space, target, seed):
    rng = np.random.default_rng(seed)
    return MetricMap(space, target, target.random_points(rng, space.n))


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


def reference_fit(space, chart, u, target, i, radius=None, family="quadratic"):
    """The per-point metric-differential fit, one point at a time: the
    oracle of the batched pass ``fit_metric_differentials``."""
    if not chart.contains(i):
        raise FitError(f"point {i} is not a chart member", index=i)
    d = chart.chart_dim
    dists = space.dist_subset(int(i), chart.indices)
    if radius is None:
        min_members = 4 * (d + 1)
        held = np.sort(dists[dists > 0])
        if held.shape[0] < min_members:
            raise FitError(f"chart holds only {held.shape[0]} neighbors of point {i}", index=i)
        radius = float(held[min_members - 1] * (1.0 + 1e-9))
    sel = (dists > 0) & (dists < radius)
    members = chart.indices[sel]
    if members.shape[0] < d + 1:
        raise FitError(
            f"insufficient neighbors at point {i}: {members.shape[0]} < {d + 1}", index=i
        )
    v = chart.phi[sel] - chart.phi[chart.position(i)]
    dy = target.dists(u.packed[int(i)], u.packed[members])
    if family == "quadratic":
        design = _quad_monomials(v)
        if np.linalg.matrix_rank(design) < d * (d + 1) // 2:
            raise FitError(f"rank-deficient design at point {i} (collinear neighbors)", index=i)
        coef, *_ = np.linalg.lstsq(design, dy**2, rcond=None)
        q = np.empty((d, d))
        k = 0
        for a in range(d):
            for b in range(a, d):
                q[a, b] = q[b, a] = coef[k]
                k += 1
        vals, vecs = np.linalg.eigh(q)
        vals = np.maximum(vals, 0.0)
        n = Seminorm.quadratic((vecs * vals) @ vecs.T)
    else:
        n = _fit_polyhedral(v, dy)
    pred = n.evaluate(v)
    rms_d = math.sqrt(float(np.mean(dy**2)))
    rms_e = math.sqrt(float(np.mean((dy - pred) ** 2)))
    return FitResult(
        seminorm=n,
        residual=rms_e / rms_d if rms_d > 0 else 0.0,
        n_neighbors=int(members.shape[0]),
        radius=float(radius),
        index=int(i),
    )


def _fit_polyhedral(v, dy, max_covectors=8):
    dirs = _direction_dictionary(v.shape[1])
    proj = np.abs(v @ dirs.T)  # (n, k)
    pred = np.zeros(dy.shape[0])
    chosen = []
    sse = float(np.sum(dy**2))
    for _ in range(max_covectors):
        best = None
        for k in range(dirs.shape[0]):
            q = proj[:, k]
            if not np.any(q > 0):
                continue
            s = float(np.dot(dy, q) / np.dot(q, q))
            for _ in range(10):  # reweight on the active set of the max
                active = s * q >= pred
                if not np.any(active) or np.dot(q[active], q[active]) == 0:
                    break
                s_new = float(
                    np.dot(dy[active], q[active]) / np.dot(q[active], q[active])
                )
                if abs(s_new - s) <= 1e-14 * max(abs(s), 1.0):
                    s = s_new
                    break
                s = s_new
            s = max(s, 0.0)
            trial = np.maximum(pred, s * q)
            err = float(np.sum((dy - trial) ** 2))
            if best is None or err < best[0] - 1e-15:
                best = (err, k, s)
        if best is None or best[0] >= sse - 1e-14 * max(sse, 1.0):
            break
        sse, k, s = best
        chosen.append(s * dirs[k])
        pred = np.maximum(pred, s * proj[:, k])
    if not chosen:
        chosen = [np.zeros(v.shape[1])]
    return Seminorm.polyhedral(np.stack(chosen))


def reference_outcome(*args, **kwargs):
    """``reference_fit``'s result, or the :class:`FitError` it raised."""
    try:
        return reference_fit(*args, **kwargs)
    except FitError as exc:
        return exc


def assert_same_outcome(got, want, rel=1e-12):
    """Batched and per-point fit outcomes agree: the same error message,
    or equal radius and neighbor count with the form and the residual
    within ``rel`` (polyhedral forms: as many covectors, each along the
    same dictionary direction).

    Polyhedral forms are not compared exactly: the per-point oracle sums
    through ``np.dot`` (BLAS ``ddot``), whose rounding neither a
    sequential nor a numpy pairwise sum reproduces."""
    if isinstance(want, FitError):
        assert isinstance(got, FitError) and str(got) == str(want)
        return
    assert not isinstance(got, FitError), str(got)
    assert (got.index, got.radius, got.n_neighbors) == (want.index, want.radius, want.n_neighbors)
    a, b = got.seminorm, want.seminorm
    assert a.family == b.family
    if a.family == "polyhedral":
        assert a.covectors.shape == b.covectors.shape
        dirs = _direction_dictionary(b.dim)
        assert np.array_equal(
            np.argmax(a.covectors @ dirs.T, axis=1), np.argmax(b.covectors @ dirs.T, axis=1)
        )
        ma, mb = a.covectors, b.covectors
    else:
        ma, mb = a.matrix, b.matrix
    scale = max(np.abs(mb).max(), 1e-300)
    assert np.abs(ma - mb).max() <= rel * scale
    assert abs(got.residual - want.residual) <= rel
