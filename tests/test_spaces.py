import math
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kscalc import (
    EuclideanTarget,
    HyperbolicTarget,
    ProductTarget,
    ValidationError,
    ball,
    build_space,
    density_theta,
    doubling_constant,
    hajlasz_gradient,
    maximal_bound,
    maximal_function,
    partition_of_unity,
)
import kscalc.spaces as spaces_module
from kscalc.spaces import CELL_PAIR_BUDGET, PointCloudSpace, _ball_side

from conftest import grid_points, random_map


class TestBuildSpace:
    def test_two_points_on_line(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [1.0]]})
        assert sp.dist(0, 1) == 1.0
        assert np.allclose(sp.weights, 0.5)

    def test_flat_torus_wraparound(self):
        sp = build_space({"kind": "torus", "points": [[0.0], [0.9]], "period": [1.0]})
        assert sp.dist(0, 1) == pytest.approx(0.1)

    def test_triangle_violation_rejected_with_triple(self):
        with pytest.raises(ValidationError) as exc:
            build_space(
                {"kind": "matrix", "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
            )
        assert exc.value.detail == (0, 1, 2)

    def test_sampled_triangle_audit_above_200_points(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, 1.0, (240, 2))
        m = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        build_space({"kind": "matrix", "matrix": m.tolist()})  # passes
        # inflate every distance to one point: many triples now violate
        m[5, :] *= 40.0
        m[:, 5] = m[5, :]
        m[5, 5] = 0.0
        with pytest.raises(ValidationError):
            build_space({"kind": "matrix", "matrix": m.tolist(), "seed": 0})

    def test_non_symmetric_matrix_rejected(self):
        with pytest.raises(ValidationError, match="non-symmetric"):
            build_space({"kind": "matrix", "matrix": [[0, 1], [2, 0]]})

    def test_duplicate_points_rejected_with_pair(self):
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match=r"\(0, 1\)") as exc:
            build_space({"kind": "euclidean", "points": [[0], [0], [0.5], [1]]})
        assert exc.value.detail == (0, 1)
        assert time.perf_counter() - t0 < 1.0

    def test_duplicate_named_by_smallest_index_then_partner(self):
        # 0 and 3 coincide, and so do 1 and 2: the smallest index at
        # distance 0 from another point is 0, its partner 3
        with pytest.raises(ValidationError, match=re.escape("duplicate points (0, 3)")) as exc:
            build_space({"kind": "euclidean", "points": [[1.0], [2.0], [2.0], [1.0]]})
        assert exc.value.detail == (0, 3)

    def test_torus_duplicates_modulo_period_rejected(self):
        spec = {"kind": "torus", "points": [[0.5, 0.0], [0.25, 0.5], [1.25, -0.5]],
                "period": [1.0, 1.0]}
        with pytest.raises(ValidationError) as exc:
            build_space(spec)
        assert exc.value.detail == (1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_entry_named(self, bad):
        m = np.ones((4, 4)) - np.eye(4)
        m[2, 1] = m[1, 2] = bad
        with pytest.raises(ValidationError, match=r"non-finite distance at \(1, 2\)") as exc:
            build_space({"kind": "matrix", "matrix": m.tolist()})
        assert exc.value.detail == (1, 2)
        nan_pair = [[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]]
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            build_space({"kind": "matrix", "matrix": nan_pair})

    @pytest.mark.parametrize(
        "points, index",
        [
            ([[0.0], [1e200], [3e200]], 0),
            ([[-1e308], [1e308]], 0),
            # only 1e154 - (-1e154) overflows when squared
            ([[0.0], [1.0], [2.0], [1e154], [-1e154]], 3),
            ([[0.0, 0.0], [1.0, 2.0], [3e160, 1.0]], 0),
        ],
    )
    def test_overflowing_coordinates_named(self, points, index):
        with pytest.raises(ValidationError, match=f"index {index} ") as exc:
            build_space({"kind": "euclidean", "points": points})
        assert exc.value.detail == index

    def test_overflow_check_is_conservative_in_several_dimensions(self):
        # every pairwise squared distance is finite (the largest, between
        # points 0 and 1, is 1.69e308), but point 0's squared distance to
        # the far corner (1.3e154, 1e154) of the bounding box is 2.69e308:
        # the O(n*d) bound rejects it, as documented
        points = [[0.0, 0.0], [1.3e154, 0.0], [0.65e154, 1e154]]
        x = np.array(points)
        pair_sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert np.isfinite(pair_sq).all()
        with pytest.raises(ValidationError, match="index 0 .*far faces") as exc:
            build_space({"kind": "euclidean", "points": points})
        assert exc.value.detail == 0
        # in one dimension the bound is a pairwise difference, so it is exact
        assert build_space({"kind": "euclidean", "points": [[0.0], [1.3e154]]}).n == 2

    def test_torus_overflow_uses_reduced_differences(self):
        points = [[0.0], [1e200], [3e200]]
        sp = build_space({"kind": "torus", "points": points, "period": [1e150]})
        assert np.isfinite(sp.nn_distances()).all()
        with pytest.raises(ValidationError, match="index 0 ") as exc:
            build_space({"kind": "torus", "points": points, "period": [1e300]})
        assert exc.value.detail == 0
        # half the period bounds every reduced difference; these stay finite
        assert build_space({"kind": "torus", "points": [[0.0], [1e154]], "period": [2e154]}).n == 2

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            build_space(
                {"kind": "euclidean", "points": [[0.0], [1.0]], "weights": [1.0, 0.0]}
            )


class TestBall:
    def test_grid_ball(self, line_space_11):
        b = ball(line_space_11, 5, 0.15)
        assert list(b.indices) == [4, 5, 6]
        assert b.mass == pytest.approx(3 / 11)

    def test_radius_larger_than_diameter(self, line_space_11):
        assert ball(line_space_11, 5, 10.0).indices.shape[0] == 11

    def test_tiny_radius_only_center(self, line_space_11):
        assert list(ball(line_space_11, 5, 1e-12).indices) == [5]

    @given(st.integers(0, 10), st.floats(0.01, 0.5), st.floats(1.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_membership_monotone_in_radius(self, center, r, factor):
        xs = np.linspace(0.0, 1.0, 11)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        small = set(ball(sp, center, r).indices.tolist())
        large = set(ball(sp, center, r * factor).indices.tolist())
        assert small <= large


class TestDoubling:
    def test_matches_brute_force_scan(self, line_space_1001):
        sp = line_space_1001
        value = doubling_constant(sp, 0.1)
        # independent scan over the shared radius policy
        radii = sp.radius_grid(0.1)
        worst = 1.0
        xs = sp.coords[:, 0]
        for i in range(sp.n):
            d = np.abs(xs - xs[i])
            for rr in radii:
                n1 = (d < rr).sum()
                if n1 <= 1:
                    continue
                worst = max(worst, (d < 2 * rr).sum() / n1)
        assert value == pytest.approx(worst, rel=1e-12)
        # lattice small-ball effects push the discrete sup above the
        # continuum value 2; it stays in the same band
        assert 1.8 <= value <= 2.5

    def test_single_point(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0]]})
        assert doubling_constant(sp, 1.0) == 1.0

    def test_2d_grid_interior_centers(self):
        pts = grid_points(41, 2)
        sp = build_space({"kind": "euclidean", "points": pts.tolist()})
        mid = (41 * 41) // 2
        value = doubling_constant(sp, 0.05, centers=[mid, mid + 1, mid + 41])
        # continuum value 4 with the same small-radius lattice inflation
        assert 3.0 <= value <= 5.5

    def test_monotone_in_radius_cap(self, line_space_1001):
        d1 = doubling_constant(line_space_1001, 0.05)
        d2 = doubling_constant(line_space_1001, 0.1)
        assert d2 >= d1 - 1e-12


class TestMaximalFunction:
    def test_constant_function(self, line_space_11):
        M = maximal_function(line_space_11, np.full(11, -3.0), 0.3)
        assert np.allclose(M, 3.0)

    def test_indicator_left_half(self):
        xs = np.linspace(0.0, 1.0, 101)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        f = (xs < 0.5).astype(float)
        M = maximal_function(sp, f, 0.5)
        i = int(np.argmin(np.abs(xs - 0.75)))
        # oracle: same radius grid, independent averaging loop
        radii = sp.radius_grid(0.5)
        best = 0.0
        for r in radii:
            mask = np.abs(xs - xs[i]) < r
            best = max(best, f[mask].mean())
        assert M[i] == pytest.approx(best, rel=1e-12)

    def test_l2_bound_on_seeded_functions(self):
        xs = np.linspace(0.0, 1.0, 500)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        bound = maximal_bound(sp, 0.2)
        rng = np.random.default_rng(11)
        w = sp.weights
        for _ in range(100):
            f = rng.normal(0.0, 1.0, 500)
            M = maximal_function(sp, f, 0.2)
            ratio = math.sqrt(
                float(np.dot(w, M**2)) / float(np.dot(w, f**2))
            )
            assert ratio <= bound

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sublinear_and_homogeneous(self, seed):
        xs = np.linspace(0.0, 1.0, 40)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        rng = np.random.default_rng(seed)
        f = rng.normal(0.0, 1.0, 40)
        g = rng.normal(0.0, 1.0, 40)
        Mf = maximal_function(sp, f, 0.2)
        Mg = maximal_function(sp, g, 0.2)
        Mfg = maximal_function(sp, f + g, 0.2)
        assert np.all(Mfg <= Mf + Mg + 1e-12)
        lam = float(rng.uniform(0.0, 5.0))
        assert np.allclose(maximal_function(sp, lam * f, 0.2), lam * Mf, atol=1e-12)


class TestPartitionOfUnity:
    def test_single_point(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0]]})
        pu = partition_of_unity(sp, 0.1)
        assert pu.values.shape == (1, 1)
        assert pu.values[0, 0] == 1.0

    def test_sums_to_one(self, line_space_11):
        pu = partition_of_unity(line_space_11, 0.1)
        assert np.abs(pu.point_sums() - 1.0).max() <= 1e-12

    def test_overlap_bounded(self, line_space_11):
        pu = partition_of_unity(line_space_11, 0.1)
        assert pu.overlap_counts().max() <= 3

    def test_support_containment(self, line_space_1001):
        pu = partition_of_unity(line_space_1001, 0.05)
        for k, c in enumerate(pu.centers):
            outside = line_space_1001.dist_row(int(c)) >= 2 * 0.05
            assert np.all(pu.values[k, outside] == 0.0)

    def test_lipschitz_reported_constant(self, line_space_11):
        pu = partition_of_unity(line_space_11, 0.1)
        C = pu.reported_constant()
        assert np.all(pu.lipschitz_constants() <= C / pu.radius + 1e-12)

    def test_radius_precondition(self, line_space_11):
        with pytest.raises(ValidationError):
            partition_of_unity(line_space_11, 0.3)


@pytest.fixture(scope="module")
def big_grid():
    pts = grid_points(100, 2)
    return pts, build_space({"kind": "euclidean", "points": pts.tolist()})


class TestDensityTheta:
    def test_interior_near_one(self, big_grid):
        pts, sp = big_grid
        mid = 50 * 100 + 50
        (theta,) = density_theta(sp, mid, 2, [0.1])
        assert theta == pytest.approx(1.0, rel=0.05)

    def test_boundary_near_half(self, big_grid):
        pts, sp = big_grid
        edge = 0 * 100 + 50
        (theta,) = density_theta(sp, edge, 2, [0.1])
        assert theta == pytest.approx(0.5, rel=0.07)

    def test_single_point_formula(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0, 0.0]], "weights": [2.0]})
        (theta,) = density_theta(sp, 0, 2, [0.3])
        assert theta == pytest.approx(2.0 / (math.pi * 0.3**2))

    def test_mesoscale_refinement_converges(self):
        # grid step << r << 1: the interior ratio tightens as the grid refines
        errs = []
        for n in (40, 80):
            pts = grid_points(n, 2)
            sp = build_space({"kind": "euclidean", "points": pts.tolist()})
            mid = (n // 2) * n + n // 2
            (theta,) = density_theta(sp, mid, 2, [0.1])
            errs.append(abs(theta - 1.0))
        assert errs[1] < errs[0]


def _oracle_balls(sp, r):
    """Members and distances of every ball, from full distance rows."""
    out = []
    for i in range(sp.n):
        row = sp.dist_row(i)
        members = np.nonzero(row < r)[0]
        out.append((members, row[members]))
    return out


def _oracle_nn(sp):
    out = np.empty(sp.n)
    for i in range(sp.n):
        row = np.array(sp.dist_row(i))
        row[i] = np.inf
        out[i] = row.min()
    return out


@st.composite
def clouds(draw):
    """Euclidean, torus and matrix clouds: uniform, hugging the seam, or
    lattices; a Euclidean cloud may lie far from the origin, where the
    cells round coarsely.  A matrix cloud holds the Euclidean distances of
    its points.

    Returns the space, radii to probe (some equal to exact distances
    between its points) and the input points.
    """
    kind = draw(st.sampled_from(["euclidean", "torus", "matrix"]))
    dim = draw(st.integers(1, 4))  # 4: the cells read the first three
    n = draw(st.integers(1, 300))
    layout = draw(st.sampled_from(["uniform", "seam", "lattice"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    period = rng.uniform(0.5, 2.0, dim)
    if layout == "uniform":
        pts = rng.uniform(0.0, 1.0, (n, dim)) * period
    elif layout == "seam":
        pts = rng.uniform(-0.02, 0.02, (n, dim)) * period
        pts[:, 0] += period[0] * rng.integers(0, 2, n)
    else:
        side = int(math.ceil(n ** (1.0 / dim))) + 1
        h = float(rng.uniform(0.05, 0.5))
        cells = rng.choice(side**dim, size=min(n, side**dim), replace=False)
        pts = np.stack(np.unravel_index(cells, (side,) * dim), axis=1) * h
        period = np.full(dim, side * h)
    if kind == "euclidean":
        pts = pts + draw(st.sampled_from([0.0, 0.0, 1e6, -3e9]))
    spec = {"kind": kind, "points": pts.tolist()}
    if kind == "torus":
        spec["period"] = period.tolist()
    if kind == "matrix":
        spec = {"kind": kind, "matrix": _euclidean_matrix(pts).tolist()}
    try:
        sp = build_space(spec)
    except ValidationError:  # points that coincide (modulo the period)
        assume(False)
    pairs = rng.integers(0, sp.n, (3, 2))
    exact = [sp.dist(int(i), int(j)) for i, j in pairs if i != j]
    scale = float(np.ptp(pts, axis=0).max()) if sp.n > 1 else 1.0
    radii = exact + [float(f) * scale for f in rng.uniform(0.01, 1.5, 2)]
    return sp, [r for r in radii if r > 0], pts


class TestNeighborEngine:
    """The cell index answers exactly what the brute-force row scan does."""

    @given(clouds())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_brute_force(self, case):
        sp, radii, pts = case
        # the metric itself, from the input points: nearest translate
        delta = np.abs(pts - pts[0])
        if sp.kind == "torus":
            delta = np.abs(delta - sp.period * np.round(delta / sp.period))
        np.testing.assert_allclose(
            sp.dist_row(0), np.sqrt((delta**2).sum(axis=1)), rtol=1e-12, atol=1e-12
        )
        nn = _oracle_nn(sp)
        np.testing.assert_array_equal(sp.nn_distances(), nn)
        assert sp.min_spacing() == float(nn.min())
        assert sp.median_nn_spacing() == float(np.median(nn))
        for r in radii:
            oracle = _oracle_balls(sp, r)
            everyone = np.arange(sp.n)
            for centers in (None, everyone, everyone[::3], everyone[:0]):
                chosen = everyone if centers is None else centers
                ptr, members, dists = sp.all_balls(r, centers)
                sizes = [oracle[c][0].shape[0] for c in chosen]
                np.testing.assert_array_equal(ptr, np.concatenate([[0], np.cumsum(sizes)]))
                for k in (0, 1):  # bit for bit: members, then distances
                    expect = [np.empty(0)] + [oracle[c][k] for c in chosen]
                    np.testing.assert_array_equal((members, dists)[k], np.concatenate(expect))
            np.testing.assert_array_equal(sp.ball_indices(sp.n - 1, r), oracle[-1][0])
            covered = np.zeros(sp.n, dtype=int)
            for pts, cand in sp.cell_partition(r):
                covered[pts] += 1
                assert pts.shape[0] * cand.shape[0] <= max(CELL_PAIR_BUDGET, cand.shape[0])
                for p in pts:
                    assert np.all(np.isin(oracle[p][0], cand))
            assert np.all(covered == 1)

    def test_torus_seam_above_4096_points(self):
        # the former bucket index ignored the period above 4096 points
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.05, 0.95, (5000, 2))
        pts[0] = [1e-4, 0.5]
        pts[1] = [1.0 - 1e-4, 0.5]
        sp = build_space({"kind": "torus", "points": pts.tolist(), "period": [1.0, 1.0]})
        nn = sp.nn_distances()
        assert nn[0] == pytest.approx(2e-4, rel=1e-9)
        row = np.array(sp.dist_row(0))
        row[0] = np.inf
        assert nn[0] == row.min()
        assert 1 in sp.ball_indices(0, 1e-3)

    def test_nn_ring_grows_past_a_far_outlier(self):
        # the first ring is 1.5 mean spacings of the whole bounding box
        # (about 1200 here): the far outlier's scan must double four times
        # before it reaches the cloud, which holds a dense cluster and
        # sparse points whose neighbors lie beyond a cluster-sized ring
        rng = np.random.default_rng(11)
        pts = np.concatenate([
            rng.uniform(0.0, 1.0, (20, 2)), rng.uniform(0.0, 1e-3, (300, 2)), [[1e4, 2e4]]
        ])
        sp = build_space({"kind": "euclidean", "points": pts.tolist()})
        nn = _oracle_nn(sp)
        np.testing.assert_array_equal(sp.nn_distances(), nn)
        assert nn[-1] > 2e4
        sp = build_space({"kind": "euclidean", "points": pts[:-1].tolist()})
        np.testing.assert_array_equal(sp.nn_distances(), _oracle_nn(sp))
        for r in (0.05, 3e4):
            ptr, members, dists = sp.all_balls(r)
            oracle = _oracle_balls(sp, r)
            np.testing.assert_array_equal(members, np.concatenate([m for m, _ in oracle]))
            np.testing.assert_array_equal(dists, np.concatenate([d for _, d in oracle]))

    def test_far_from_origin_reads_nearby_cells(self):
        # the query margin takes a few ulps of the coordinates' magnitude,
        # far below the spacing of this grid: a ball reads about 25
        # candidates and a block about 120, not the whole grid
        h = 1e-4
        axis = np.arange(30) * h
        gx, gy = np.meshgrid(axis + 1e6, axis - 2e6, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        sp = build_space({"kind": "euclidean", "points": pts.tolist()})
        r = 1.6 * h
        _, cand = sp._cell_index(_ball_side(r))._near(sp.coords, np.full(sp.n, r))
        assert cand.size < 40 * sp.n
        oracle = _oracle_balls(sp, r)
        ptr, members, dists = sp.all_balls(r)
        np.testing.assert_array_equal(members, np.concatenate([m for m, _ in oracle]))
        np.testing.assert_array_equal(dists, np.concatenate([d for _, d in oracle]))
        for block, cand in sp.cell_partition(r):
            assert cand.size < sp.n // 2
            for q in block:
                assert np.all(np.isin(oracle[q][0], cand))

    @pytest.mark.parametrize(
        "spec, r",
        [
            ({"kind": "euclidean", "points": (np.arange(70, 105) / 10)[:, None].tolist()}, 0.1),
            (
                {
                    "kind": "torus",
                    "points": (np.delete(np.arange(37), 2) * (1 / 3))[:, None].tolist(),
                    "period": [37 * (1 / 3)],
                },
                2 / 3,
            ),
        ],
        ids=["line", "circle"],
    )
    def test_query_margin_covers_rounding(self, spec, r):
        # lattices whose spacing is no binary fraction, probed at the
        # spacing: without the query margin a block misses a neighbor of
        # one of its points (its center and reach round)
        sp = build_space(spec)
        oracle = _oracle_balls(sp, r)
        for block, cand in sp.cell_partition(r):
            for q in block:
                assert np.all(np.isin(oracle[q][0], cand))
        ptr, members, dists = sp.all_balls(r)
        np.testing.assert_array_equal(members, np.concatenate([m for m, _ in oracle]))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_torus_seam_small_n(self, n):
        # points within a hair of both sides of the seam, in 1-3 dimensions
        rng = np.random.default_rng(n)
        for dim in (1, 2, 3):
            period = rng.uniform(0.5, 2.0, dim)
            pts = rng.uniform(-1e-3, 1e-3, (n, dim)) * period
            pts[:, 0] += period[0] * (np.arange(n) % 2)
            sp = build_space({"kind": "torus", "points": pts.tolist(), "period": period.tolist()})
            nn = _oracle_nn(sp)
            np.testing.assert_array_equal(sp.nn_distances(), nn)
            for r in (float(nn.min()), 1.5 * float(nn.max()), 0.3 * float(period.min())):
                oracle = _oracle_balls(sp, r)
                ptr, members, dists = sp.all_balls(r)
                np.testing.assert_array_equal(members, np.concatenate([m for m, _ in oracle]))
                np.testing.assert_array_equal(dists, np.concatenate([d for _, d in oracle]))
                for block, cand in sp.cell_partition(r):
                    for q in block:
                        assert np.all(np.isin(oracle[q][0], cand))

    def test_torus_coordinates_beyond_one_and_a_half_periods(self):
        sp = build_space({"kind": "torus", "points": [[0.0], [2.2], [0.5]], "period": [1.0]})
        assert sp.dist(0, 1) == pytest.approx(0.2)
        assert sp.dist_row(0)[1] == sp.dist(0, 1)
        assert sp.nn_distances()[0] == sp.dist(0, 1)
        assert list(sp.ball_indices(0, 0.25)) == [0, 1]
        assert np.all((sp.coords >= 0.0) & (sp.coords < 1.0))

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "euclidean", "points": [[0.0], [1e-170], [1.0]]},
            {"kind": "euclidean", "points": [[1.0, 0.0], [1.0, 1e-170], [0.0, 0.0]]},
            {"kind": "torus", "points": [[0.0], [5e-321]], "period": [1e-320]},
        ],
        ids=["line", "plane", "subnormal-torus"],
    )
    def test_distinct_points_at_distance_zero_named(self, spec):
        # the squared difference underflows, so the metric puts them at 0
        says = re.escape("distinct points (0, 1) at distance 0")
        with pytest.raises(ValidationError, match=says) as exc:
            build_space(spec)
        assert exc.value.detail == (0, 1)

    def test_radius_grid_rejects_zero_spacing(self):
        sp = PointCloudSpace("euclidean", coords=[[0.0], [1e-170], [1.0]])
        assert sp.min_spacing() == 0.0
        with pytest.raises(ValidationError, match="smallest spacing is 0"):
            sp.radius_grid(0.5)
        with pytest.raises(ValidationError, match="r_min"):
            sp.radius_grid(0.5, r_min=0.0)
        with pytest.raises(ValidationError, match="too small for a geometric grid"):
            sp.radius_grid(0.5, r_min=5e-324)

    def test_radius_grid_stops_below_overflow(self, line_space_11):
        # R * (1 + 1e-12) is inf here, and so is the grid's last step
        grid = line_space_11.radius_grid(np.finfo(float).max)
        assert np.all(np.isfinite(grid)) and grid.size < 8000

    def test_zero_dimensional_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="d >= 1"):
            build_space({"kind": "euclidean", "points": [[]]})

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="index 1") as exc:
            build_space({"kind": "euclidean", "points": [[0.0, 0.0], [float("nan"), 1.0]]})
        assert exc.value.detail == 1

    @pytest.mark.parametrize("r", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_radius_rejected(self, line_space_11, r):
        for call in (
            lambda: line_space_11.ball_indices(0, r),
            lambda: line_space_11.all_balls(r),
            lambda: list(line_space_11.cell_partition(r)),
            lambda: line_space_11.radius_grid(r),
            lambda: doubling_constant(line_space_11, r),
            lambda: maximal_function(line_space_11, np.ones(11), r),
            lambda: density_theta(line_space_11, 0, 1, [r]),
        ):
            with pytest.raises(ValidationError):
                call()


def _euclidean_matrix(pts):
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


class TestBallCenters:
    """A ball center that is not an index of the space is named, never
    wrapped or truncated."""

    @pytest.mark.parametrize(
        "center, says",
        [
            (-1, "ball center -1 outside the domain [0, 11)"),
            (11, "ball center 11 outside the domain [0, 11)"),
            (2.7, "ball center 2.7 is not an integer"),
            (True, "ball center True is not an integer"),
            (math.nan, "ball center nan is not an integer"),
        ],
    )
    def test_bad_center_named(self, line_space_11, center, says):
        sp = line_space_11
        for call in (
            lambda: sp.ball_indices(center, 0.15),
            lambda: sp.all_balls(0.15, [0, 4, center]),
            lambda: doubling_constant(sp, 0.3, centers=[center]),
            lambda: density_theta(sp, center, 1, [0.2]),
        ):
            with pytest.raises(ValidationError, match=re.escape(says)) as exc:
                call()
            assert exc.value.detail is center or exc.value.detail == center or center != center

    def test_bad_center_in_index_array_named(self, line_space_11):
        with pytest.raises(ValidationError, match="ball center 11 outside") as exc:
            line_space_11.all_balls(0.15, np.array([3, 11, -1]))
        assert exc.value.detail == 11
        with pytest.raises(ValidationError, match="ball center True is not an integer"):
            line_space_11.all_balls(0.15, np.array([True, False]))

    def test_integral_float_center_accepted(self, line_space_11):
        assert line_space_11.ball_indices(2.0, 0.15).tolist() == [1, 2, 3]


class TestMaximalFunctionInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_named(self, line_space_11, bad):
        f = np.ones(11)
        f[4] = bad
        with pytest.raises(ValidationError, match="index 4") as exc:
            maximal_function(line_space_11, f, 0.3)
        assert exc.value.detail == 4

    @pytest.mark.parametrize("n, first", [(10, 10), (12, 11), (0, 0)])
    def test_wrong_length_named(self, line_space_11, n, first):
        with pytest.raises(ValidationError, match=f"index {first}") as exc:
            maximal_function(line_space_11, np.ones(n), 0.3)
        assert exc.value.detail == first


# -- the full-row scans the ball structure replaced, kept as oracles --------


def _doubling_oracle(space, R, centers=None):
    if space.n == 1:
        return 1.0
    radii = space.radius_grid(R)
    best = 1.0
    w = space.weights
    for i in range(space.n) if centers is None else centers:
        d = space.dist_row(i)
        order = np.argsort(d, kind="stable")
        ds = d[order]
        cw = np.cumsum(w[order])
        k1 = np.searchsorted(ds, radii, side="left")
        k2 = np.searchsorted(ds, 2.0 * radii, side="left")
        valid = k1 > 1
        if np.any(valid):
            best = max(best, float((cw[k2[valid] - 1] / cw[k1[valid] - 1]).max()))
    return best


def _maximal_oracle(space, f, R):
    radii = space.radius_grid(R)
    w = space.weights
    wf = w * np.abs(f)
    out = np.empty(space.n)
    for i in range(space.n):
        d = space.dist_row(i)
        order = np.argsort(d, kind="stable")
        ds, cw, cwf = d[order], np.cumsum(w[order]), np.cumsum(wf[order])
        k = np.searchsorted(ds, radii, side="left")
        k = k[k > 0]
        out[i] = float((cwf[k - 1] / cw[k - 1]).max())
    return out


def _partition_oracle(space, r):
    """Greedy r-separated centers, their normalized tents and the overlap
    counts of their 2r-balls."""
    centers = []
    for i in range(space.n):
        d = space.dist_subset(i, np.asarray(centers, dtype=int)) if centers else None
        if d is None or np.all(d >= r):
            centers.append(i)
    tents = np.array([np.maximum(1.5 * r - space.dist_row(c), 0.0) for c in centers])
    counts = sum((space.dist_row(c) < 2.0 * r).astype(int) for c in centers)
    return np.asarray(centers), tents / tents.sum(axis=0)[None, :], counts


def _hajlasz_oracle(u, R):
    sp = u.space
    out = np.zeros(sp.n)
    for i in range(sp.n):
        idx = np.nonzero(sp.dist_row(i) < R)[0]
        idx = idx[idx != i]
        if idx.shape[0]:
            tar = u.target.dists(u.packed[i], u.packed[idx])
            out[i] = float((tar / sp.dist_subset(i, idx)).max())
    return out


@pytest.fixture(scope="module", params=["euclidean", "torus", "matrix"])
def seeded_cloud(request):
    """144 points with uneven seeded weights: a lattice, whose distances tie
    often (Euclidean), uniform points (torus), and the L1 metric of the
    lattice (matrix)."""
    rng = np.random.default_rng(21)
    weights = rng.uniform(0.5, 2.0, 144).tolist()
    lattice = grid_points(12, 2)
    spec = {"kind": "euclidean", "points": lattice.tolist()}
    if request.param == "torus":
        spec = {"kind": "torus", "points": rng.uniform(0.0, 1.0, (144, 2)).tolist(),
                "period": [1.0, 1.3]}
    if request.param == "matrix":
        l1 = np.abs(lattice[:, None, :] - lattice[None, :, :]).sum(axis=-1)
        spec = {"kind": "matrix", "matrix": l1.tolist()}
    return build_space({**spec, "weights": weights})


class TestBallScansMatchFullRows:
    """Every scan over ball slices equals the full-row scan it replaced, bit
    for bit."""

    def test_doubling_constant(self, seeded_cloud):
        sp = seeded_cloud
        for R in (0.2, 0.45):
            assert doubling_constant(sp, R) == _doubling_oracle(sp, R)
        centers = [5, 70, 143]
        assert doubling_constant(sp, 0.3, centers) == _doubling_oracle(sp, 0.3, centers)

    def test_maximal_function(self, seeded_cloud):
        sp = seeded_cloud
        f = np.random.default_rng(3).normal(0.0, 1.0, sp.n)
        for R in (0.2, 0.45):
            np.testing.assert_array_equal(maximal_function(sp, f, R), _maximal_oracle(sp, f, R))

    def test_partition_of_unity(self, seeded_cloud):
        sp = seeded_cloud
        for r in (0.1, 0.2):
            pu = partition_of_unity(sp, r)
            centers, values, counts = _partition_oracle(sp, r)
            np.testing.assert_array_equal(pu.centers, centers)
            np.testing.assert_array_equal(pu.values, values)
            np.testing.assert_array_equal(pu.overlap_counts(), counts)

    def test_density_theta(self, seeded_cloud):
        sp = seeded_cloud
        radii = [0.1, 0.25, 0.4]
        row = sp.dist_row(77)
        expect = [float(sp.weights[row < r].sum()) / (math.pi * r**2) for r in radii]
        assert density_theta(sp, 77, 2, radii) == expect

    @pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product"])
    def test_hajlasz_gradient(self, seeded_cloud, tripod, kind):
        target = {
            "euclidean": EuclideanTarget(2),
            "tree": tripod,
            "hyperbolic": HyperbolicTarget(),
            "product": ProductTarget([EuclideanTarget(1), tripod, HyperbolicTarget()]),
        }[kind]
        u = random_map(seeded_cloud, target, 9)
        for R in (0.1, 0.3):
            np.testing.assert_array_equal(hajlasz_gradient(u, R), _hajlasz_oracle(u, R))


class TestPairBlocks:
    """``pair_blocks`` cuts ``pair_dist_block`` into row parts, bit for bit,
    and each row equals the per-point scan it replaced."""

    @pytest.mark.parametrize("budget", [100, 500])
    @pytest.mark.parametrize("n_cols", [0, 1, 7, 144])
    def test_parts_in_order_within_budget(self, seeded_cloud, monkeypatch, budget, n_cols):
        sp = seeded_cloud
        rng = np.random.default_rng(4)
        rows = rng.integers(0, sp.n, 300)  # repeats allowed
        cols = rng.permutation(sp.n)[:n_cols]
        monkeypatch.setattr(spaces_module, "CELL_PAIR_BUDGET", budget)
        done = 0
        for part, d in sp.pair_blocks(rows, cols):
            assert part.start == done and part.stop > done
            done = min(part.stop, rows.size)
            assert d.shape == (done - part.start, n_cols)
            assert d.size <= budget or d.shape[0] == 1
            np.testing.assert_array_equal(d, sp.pair_dist_block(rows[part], cols))
            for i, row in zip(rows[part], d):
                np.testing.assert_array_equal(row, sp.dist_subset(int(i), cols))
        assert done == rows.size

    def test_no_rows_no_parts(self, seeded_cloud):
        assert list(seeded_cloud.pair_blocks([], np.arange(5))) == []

    @pytest.mark.parametrize("budget", [500, CELL_PAIR_BUDGET])
    def test_lipschitz_constants_match_per_point_scan(self, seeded_cloud, monkeypatch, budget):
        sp = seeded_cloud
        monkeypatch.setattr(spaces_module, "CELL_PAIR_BUDGET", budget)
        for r in (0.1, 0.2):
            pu = partition_of_unity(sp, r)
            # the scan it replaced: one full distance row per point
            expect = np.zeros(len(pu.centers))
            for i in range(sp.n):
                d = sp.dist_row(i)
                mask = d > 0
                ratios = np.abs(pu.values[:, mask] - pu.values[:, i][:, None]) / d[mask]
                expect = np.maximum(expect, ratios.max(axis=1))
            np.testing.assert_array_equal(pu.lipschitz_constants(), expect)
