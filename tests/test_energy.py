import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kscalc.energy as energy_module
from kscalc import (
    Atlas,
    Chart,
    EuclideanTarget,
    FitConfig,
    FitError,
    HyperbolicTarget,
    MetricMap,
    ProductTarget,
    SphereTarget,
    ValidationError,
    build_space,
    contraction_check,
    density_extrapolated,
    density_via_mdiff,
    energy_sweep,
    hajlasz_gradient,
    hs_energy,
    ks_at_scale,
    ks_profile,
    locality_check,
    midpoint_scale_gap,
)
from kscalc.charts import FitResult
from kscalc.energy import _affine_intercept, _fit_points
from kscalc.spaces import CELL_PAIR_BUDGET, _CellIndex

from conftest import assert_same_outcome, grid_points, random_map, reference_outcome


@pytest.fixture(scope="module")
def dense_line():
    xs = np.linspace(-1.0, 1.0, 2001)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    return xs, sp


class TestKsAtScale:
    def test_constant_map_zero(self, line_space_11):
        u = MetricMap(line_space_11, EuclideanTarget(1), np.ones((11, 1)))
        assert np.all(ks_at_scale(u, 2.0, 0.25) == 0.0)

    def test_identity_on_dense_line(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), xs[:, None])
        ks = ks_at_scale(u, 2.0, 0.1)
        mid = len(xs) // 2
        # interior continuum value: mean of (y-x)^2 / r^2 over the ball is 1/3
        assert ks[mid] ** 2 == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_target_dilation_doubles_pointwise(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), np.sin(2 * xs)[:, None])
        u2 = MetricMap(sp, EuclideanTarget(1), 2.0 * np.sin(2 * xs)[:, None])
        k1 = ks_at_scale(u, 2.0, 0.05)
        k2 = ks_at_scale(u2, 2.0, 0.05)
        assert np.allclose(k2, 2.0 * k1, rtol=1e-12, atol=1e-15)

    def test_singleton_ball_zero(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [5.0]]})
        u = MetricMap(sp, EuclideanTarget(1), [[0.0], [1.0]])
        assert np.all(ks_at_scale(u, 2.0, 0.1) == 0.0)

    def test_omega_mask_zeroes_clipped_balls(self, line_space_11):
        xs = np.linspace(0.0, 1.0, 11)
        u = MetricMap(line_space_11, EuclideanTarget(1), xs[:, None])
        omega = list(range(3, 9))
        ks = ks_at_scale(u, 2.0, 0.15, omega=omega)
        # points outside omega and points whose ball leaks out are zero
        for i in (0, 1, 2, 3, 8, 9, 10):
            assert ks[i] == 0.0
        for i in (4, 5, 6, 7):
            assert ks[i] > 0.0

    @pytest.mark.parametrize(
        "index, says",
        [
            (99999, "omega index 99999 outside the domain [0, 11)"),
            (-1, "omega index -1 outside the domain [0, 11)"),
            (2.7, "omega index 2.7 is not an integer"),
            (True, "omega index True is not an integer"),
        ],
    )
    def test_bad_omega_index_named(self, line_space_11, index, says):
        u = MetricMap(line_space_11, EuclideanTarget(1), np.zeros((11, 1)))
        with pytest.raises(ValidationError, match=re.escape(says)) as info:
            ks_profile(u, 2.0, [0.15], omega=[3, 4, index])
        assert info.value.detail is index or info.value.detail == index

    def test_weight_rescaling_invariance(self, dense_line):
        xs, sp = dense_line
        sp2 = build_space(
            {
                "kind": "euclidean",
                "points": xs[:, None].tolist(),
                "weights": (2.0 * sp.weights).tolist(),
            }
        )
        u1 = MetricMap(sp, EuclideanTarget(1), np.sin(xs)[:, None])
        u2 = MetricMap(sp2, EuclideanTarget(1), np.sin(xs)[:, None])
        a = ks_at_scale(u1, 2.0, 0.05)
        b = ks_at_scale(u2, 2.0, 0.05)
        assert np.allclose(a, b, rtol=1e-13)


class TestEnergySweep:
    def test_scale_validation(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), xs[:, None])
        with pytest.raises(ValidationError):
            energy_sweep(u, 2.0, [0.1, 0.2])
        with pytest.raises(ValidationError, match="unreliable"):
            energy_sweep(u, 2.0, [1e-4])

    def test_unreliable_scales_flagged_and_excluded(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), xs[:, None])
        rep = energy_sweep(u, 2.0, [0.05, 0.02, 1e-3])
        assert list(rep.reliable) == [True, True, False]
        assert rep.selected_scale == pytest.approx(0.02)

    def test_totals_bit_consistent_with_density(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), np.sin(3 * xs)[:, None])
        rep = energy_sweep(u, 2.0, [0.05, 0.03])
        recomputed = float(np.dot(sp.weights, rep.per_point_density**2))
        assert recomputed == rep.per_scale_total[1]

    def test_constant_map_zero_totals(self, line_space_11):
        u = MetricMap(line_space_11, EuclideanTarget(2), np.ones((11, 2)))
        rep = energy_sweep(u, 2.0, [0.4, 0.35])
        assert np.all(rep.per_scale_total == 0.0)
        assert rep.extrapolated_total == 0.0

    def test_extrapolated_density_through_three_smallest_reliable_scales(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), np.sin(3 * xs)[:, None])
        rep = energy_sweep(u, 2.0, [0.06, 0.05, 0.04, 0.03, 1e-3])
        use = [0.03, 0.04, 0.05]
        ref = _affine_intercept(use, ks_profile(u, 2.0, use).T)
        assert np.allclose(rep.extrapolated_density, ref, rtol=1e-12, atol=1e-15)
        assert rep.to_json()["extrapolated_density_mean"] == float(
            np.mean(rep.extrapolated_density)
        )

    def test_density_extrapolated_is_the_sweep_intercept(self, dense_line):
        xs, sp = dense_line
        u = MetricMap(sp, EuclideanTarget(1), np.sin(3 * xs)[:, None])
        rep = energy_sweep(u, 2.0, [0.05, 0.04, 0.03])
        shuffled = density_extrapolated(u, 2.0, [0.04, 0.03, 0.05])
        assert np.array_equal(shuffled, rep.extrapolated_density)

    def test_linear_map_extrapolated_density(self):
        xs = np.linspace(0.0, 1.0, 1001)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        h = 1e-3
        u = MetricMap(sp, EuclideanTarget(1), (1.5 * xs)[:, None])
        dens = density_extrapolated(u, 2.0, [30.5 * h, 24.5 * h, 20.5 * h])
        inner = (xs > 0.04) & (xs < 0.96)
        ref = 1.5 / math.sqrt(3.0)
        assert np.abs(dens[inner] / ref - 1.0).max() < 0.02


@pytest.fixture(scope="module")
def smooth_grid():
    pts = grid_points(32, 2)
    sp = build_space({"kind": "euclidean", "points": pts.tolist()})
    chart = Chart(indices=np.arange(sp.n), phi=pts, epsilon=0.0)
    atlas = Atlas(charts=[chart], epsilon=0.0)
    return sp, pts, atlas


class TestDensityViaMdiff:
    def test_linear_map_hs_identity(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        A = np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, 0.0]])
        u = MetricMap(sp, EuclideanTarget(3), pts @ A.T)
        out = density_via_mdiff(u, atlas, 2.0)
        ref = np.linalg.norm(A) / 2.0  # Frobenius over sqrt(d + 2), d = 2
        ok = out.evaluated()
        assert len(out.errors) == 0
        assert np.abs(out.densities[ok] / ref - 1.0).max() < 1e-3

    def test_constant_map(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        u = MetricMap(sp, EuclideanTarget(2), np.zeros_like(pts))
        out = density_via_mdiff(u, atlas, 2.0)
        assert np.all(out.densities[out.evaluated()] == 0.0)

    def test_agreement_with_sweep_on_smooth_map(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        vals = np.stack(
            [np.sin(1.5 * pts[:, 0] + 0.2), 0.5 * pts[:, 1] ** 2 + pts[:, 0]], axis=1
        )
        u = MetricMap(sp, EuclideanTarget(2), vals)
        h = 1.0 / 31
        rep = energy_sweep(u, 2.0, [6.5 * h, 5.5 * h, 4.5 * h])
        md = density_via_mdiff(u, atlas, 2.0)
        inner = np.all((pts >= 7 * h) & (pts <= 1 - 7 * h), axis=1)
        sweep_d = rep.per_point_density[inner]
        md_d = md.densities[inner]
        rel = np.abs(md_d - sweep_d) / np.maximum(np.maximum(md_d, sweep_d), 1e-9)
        assert (rel <= 0.05).mean() >= 0.95

    def test_per_point_errors_continue(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        # a chart too small to fit anywhere except nowhere: force errors on
        # a few points by restricting the atlas
        tiny = Atlas(
            charts=[Chart(indices=np.arange(4), phi=pts[:4], epsilon=0.0)],
            epsilon=0.0,
        )
        u = MetricMap(sp, EuclideanTarget(2), pts)
        out = density_via_mdiff(u, tiny, 2.0, FitConfig(points=[0, 1, 2, 3]))
        assert len(out.errors) == 4  # not enough members anywhere
        assert np.all(np.isnan(out.densities[:4]))


BAD_EXPONENTS = [0.0, -1.0, math.nan, math.inf, 0.5]


class TestExponent:
    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    def test_scale_route_rejects(self, line_space_11, p):
        u = MetricMap(line_space_11, EuclideanTarget(1), np.linspace(0.0, 1.0, 11)[:, None])
        for route in (ks_at_scale, energy_sweep, density_extrapolated):
            scale = 0.35 if route is ks_at_scale else [0.45, 0.35]
            with pytest.raises(ValidationError, match="exponent p"):
                route(u, p, scale)

    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    def test_fit_route_rejects_before_fitting(self, smooth_grid, monkeypatch, p):
        sp, pts, atlas = smooth_grid
        u = MetricMap(sp, EuclideanTarget(2), pts)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the exponent was checked")

        monkeypatch.setattr(energy_module, "fit_metric_differentials", no_fit)
        with pytest.raises(ValidationError, match="exponent p"):
            density_via_mdiff(u, atlas, p)


@pytest.fixture(scope="module")
def partial_atlas():
    """A 10 x 10 grid whose chart leaves the last 20 points uncovered."""
    pts = grid_points(10, 2)
    sp = build_space({"kind": "euclidean", "points": pts.tolist()})
    chart = Chart(indices=np.arange(80), phi=pts[:80], epsilon=0.0)
    atlas = Atlas(charts=[chart], epsilon=0.0, uncovered=np.arange(80, 100))
    return MetricMap(sp, EuclideanTarget(2), np.sin(3.0 * pts)), atlas


class TestFitLoop:
    def test_fits_and_errors_by_index(self, partial_atlas):
        u, atlas = partial_atlas
        fits, errors = _fit_points(u, atlas, FitConfig(points=[45, 90, 45, 12]))
        assert list(fits) == [45, 12]
        assert all(fits[i].index == i for i in fits)
        assert errors == {90: "point not covered by any chart"}

    def test_density_result_carries_the_fits(self, partial_atlas):
        u, atlas = partial_atlas
        out = density_via_mdiff(u, atlas, 2.0, FitConfig(points=[12, 45]))
        assert list(out.fits) == [12, 45]
        assert list(out.evaluated()) == [12, 45]

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_radius_rejected(self, partial_atlas, radius):
        u, atlas = partial_atlas
        with pytest.raises(ValidationError, match="fit radius"):
            _fit_points(u, atlas, FitConfig(radius=radius, points=[45]))

    @pytest.mark.parametrize("i", [-1, 100, 99999])
    def test_index_outside_domain_named(self, partial_atlas, i):
        u, atlas = partial_atlas
        with pytest.raises(ValidationError, match=f"fit point {i} outside") as info:
            _fit_points(u, atlas, FitConfig(points=[45, i]))
        assert info.value.detail == i

    @pytest.mark.parametrize("i", [2.7, True, math.nan])
    def test_non_integral_index_named(self, partial_atlas, i):
        u, atlas = partial_atlas
        with pytest.raises(ValidationError, match=f"fit point {i} is not an integer"):
            _fit_points(u, atlas, FitConfig(points=[45, i]))

    def test_other_exceptions_propagate(self, partial_atlas, monkeypatch):
        u, atlas = partial_atlas

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(energy_module, "fit_metric_differentials", broken)
        with pytest.raises(np.linalg.LinAlgError):
            _fit_points(u, atlas, FitConfig(points=[45]))

    @given(
        points=st.lists(st.integers(-3, 103), max_size=6),
        radius=st.one_of(st.none(), st.floats()),
        family=st.sampled_from(["quadratic", "polyhedral"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fits_fit_errors_or_validation_error(self, partial_atlas, points, radius, family):
        u, atlas = partial_atlas
        config = FitConfig(family=family, radius=radius, points=points)
        bad = any(not 0 <= i < 100 for i in points) or not (
            radius is None or (math.isfinite(radius) and radius > 0)
        )
        try:
            fits, errors = _fit_points(u, atlas, config)
        except ValidationError:
            assert bad
            return
        assert not bad
        assert set(fits) | set(errors) == set(points)
        assert not set(fits) & set(errors)
        assert all(isinstance(f, FitResult) and f.index == i for i, f in fits.items())
        assert all(isinstance(msg, str) and msg for msg in errors.values())

    @given(
        points=st.lists(st.integers(0, 99), max_size=12),
        radius=st.one_of(st.none(), st.floats(0.05, 0.6)),
        family=st.sampled_from(["quadratic", "polyhedral"]),
        threads=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fits_match_the_per_point_oracle(self, partial_atlas, points, radius, family, threads):
        u, atlas = partial_atlas
        config = FitConfig(family=family, radius=radius, points=points)
        fits, errors = _fit_points(u, atlas, config, threads=threads)
        assert set(fits) | set(errors) == set(points) and not set(fits) & set(errors)
        assert list(fits) == [i for i in dict.fromkeys(points) if i in fits]
        for i in dict.fromkeys(points):
            chart = atlas.chart_of(i)
            if chart is None:
                assert errors[i] == "point not covered by any chart"
                continue
            want = reference_outcome(u.space, chart, u, u.target, i, radius, family)
            assert_same_outcome(fits[i] if i in fits else FitError(errors[i]), want)


class TestHsEnergy:
    def test_identity_map(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        u = MetricMap(sp, EuclideanTarget(2), pts)
        out = hs_energy(u, atlas)
        ok = out.evaluated()
        assert np.abs(out.densities[ok] - math.sqrt(2.0) / 2.0).max() < 1e-9

    def test_matches_mdiff_density(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        A = np.array([[1.0, 0.5], [0.2, -1.0]])
        u = MetricMap(sp, EuclideanTarget(2), pts @ A.T)
        hs = hs_energy(u, atlas)
        md = density_via_mdiff(u, atlas, 2.0)
        ok = hs.evaluated()
        assert np.abs(hs.densities[ok] - md.densities[ok]).max() < 1e-3

    def test_each_chart_scaled_by_its_own_dimension(self):
        grid = grid_points(10, 2)
        line = np.stack([np.linspace(3.0, 4.0, 30), np.zeros(30)], axis=1)
        sp = build_space({"kind": "euclidean", "points": np.vstack([grid, line]).tolist()})
        atlas = Atlas(
            charts=[
                Chart(indices=np.arange(100), phi=grid, epsilon=0.0),
                Chart(indices=np.arange(100, 130), phi=line[:, :1], epsilon=0.0),
            ],
            epsilon=0.0,
        )
        u = MetricMap(sp, EuclideanTarget(2), np.vstack([grid, line]))
        cfg = FitConfig(points=[45, 115])
        hs = hs_energy(u, atlas, cfg).densities[[45, 115]]
        md = density_via_mdiff(u, atlas, 2.0, cfg).densities[[45, 115]]
        # identity densities: sqrt(d / (d + 2)) on a chart of dimension d
        assert np.allclose(hs, [math.sqrt(0.5), math.sqrt(1.0 / 3.0)], rtol=1e-9)
        assert np.allclose(hs, md, rtol=1e-3)

    def test_polyhedral_family_rejected(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        u = MetricMap(sp, EuclideanTarget(2), pts)
        with pytest.raises(ValidationError, match="quadratic"):
            hs_energy(u, atlas, FitConfig(family="polyhedral"))

    def test_non_cat0_target_rejected(self, smooth_grid):
        sp, pts, atlas = smooth_grid
        sphere = SphereTarget()
        rng = np.random.default_rng(0)
        u = MetricMap(sp, sphere, [sphere.random_point(rng) for _ in range(sp.n)])
        with pytest.raises(ValidationError, match="CAT"):
            hs_energy(u, atlas)


class TestContraction:
    def test_identity_post_map(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 1)
        assert contraction_check(u, lambda v: v, 2.0, 0.12) == 0.0

    def test_metric_projection_contracts(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 2)
        proj = lambda v: np.array([v[0], 0.0])
        assert contraction_check(u, proj, 2.0, 0.12) <= 1e-12

    def test_dilation_fails_audit(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 3)
        with pytest.raises(ValidationError, match="expands"):
            contraction_check(u, lambda v: 2.0 * v, 2.0, 0.12)

    def test_names_the_first_expanding_sampled_pair(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 4)
        t = u.target

        # stretches the positive half-plane only, so some pairs do not expand
        def post(v):
            return np.array([3.0 * max(v[0], 0.0) + min(v[0], 0.0), v[1]])

        pairs = np.random.default_rng(5).integers(0, grid_space_21.n, size=(64, 2))
        first = next(
            (int(a), int(b)) for a, b in pairs
            if t.dist(post(u.packed[a]), post(u.packed[b])) > t.dist(u.packed[a], u.packed[b])
        )
        assert first != tuple(int(k) for k in pairs[0])
        with pytest.raises(ValidationError, match=re.escape(f"pair {first}:")) as exc:
            contraction_check(u, post, 2.0, 0.12, seed=5, n_pairs=64)
        assert exc.value.detail == first


class TestHajlasz:
    def test_isometric_embedding(self, grid_space_21):
        u = MetricMap(grid_space_21, EuclideanTarget(2), grid_space_21.coords)
        G = hajlasz_gradient(u, 0.2)
        assert np.allclose(G, 1.0)

    def test_two_point_space(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [1.0]]})
        u = MetricMap(sp, EuclideanTarget(1), [[0.0], [5.0]])
        G = hajlasz_gradient(u, 2.0)
        assert np.allclose(G, 5.0)

    def test_pair_bound_holds(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 7)
        R = 0.2
        G = hajlasz_gradient(u, R)
        sp = grid_space_21
        for i in range(0, sp.n, 7):
            idx = sp.ball_indices(i, R)
            idx = idx[idx != i]
            if idx.shape[0] == 0:
                continue
            dd = sp.dist_subset(i, idx)
            dy = u.target.dists(u.packed[i], u.packed[idx])
            assert np.all(dy <= dd * (G[i] + G[idx]) + 1e-12)

    def test_scale_bound_with_constant_four(self, grid_space_21):
        u = random_map(grid_space_21, EuclideanTarget(2), 8)
        R, r = 0.2, 0.1
        G = hajlasz_gradient(u, R)
        ks = ks_at_scale(u, 2.0, r)
        sp = grid_space_21
        w = sp.weights
        for i in range(sp.n):
            idx = sp.ball_indices(i, r)
            avg = float(np.dot(w[idx], G[idx] ** 2) / w[idx].sum())
            assert ks[i] ** 2 <= 4.0 * (G[i] ** 2 + avg) + 1e-12


@pytest.fixture(scope="module")
def pair():
    xs = np.linspace(0.0, 1.0, 64)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    vals = np.sin(3 * xs)[:, None]
    u = MetricMap(sp, EuclideanTarget(1), vals)
    changed = vals.copy()
    changed[xs > 0.5] += 1.0
    v = MetricMap(sp, EuclideanTarget(1), changed)
    return xs, sp, u, v


class TestLocality:
    def test_equal_maps(self, pair):
        xs, sp, u, v = pair
        assert locality_check(u, u, 2.0, r=0.1, source="ks") == 0.0

    def test_deep_left_points_agree(self, pair):
        xs, sp, u, v = pair
        assert locality_check(u, v, 2.0, r=0.1, source="ks") == 0.0
        chart = Chart(indices=np.arange(sp.n), phi=xs[:, None], epsilon=0.0)
        atlas = Atlas(charts=[chart], epsilon=0.0)
        assert (
            locality_check(u, v, 2.0, source="mdiff", atlas=atlas) <= 1e-9
        )

    def test_difference_visible_one_ring_out(self, pair):
        xs, sp, u, v = pair
        r = 0.1
        agree = u.distance_to(v) == 0.0
        ku = ks_at_scale(u, 2.0, r)
        kv = ks_at_scale(v, 2.0, r)
        inside = [
            i
            for i in range(sp.n)
            if agree[i] and np.all(agree[sp.ball_indices(i, r)])
        ]
        boundary_ring = [
            i
            for i in range(sp.n)
            if agree[i] and not np.all(agree[sp.ball_indices(i, r)])
        ]
        assert max(abs(ku[i] - kv[i]) for i in inside) == 0.0
        assert max(abs(ku[i] - kv[i]) for i in boundary_ring) > 0.0

    def test_mdiff_regions_read_no_cell_index(self, monkeypatch):
        # each fit's region is read as the fit reads its neighbors, from the
        # distances to its chart's members: no ball query, so no cell index,
        # and the same members as the chart part of the fit radius's open
        # ball, which the check read before
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 1.0, (400, 2))
        sp = build_space({"kind": "euclidean", "points": xs.tolist()})
        vals = np.sin(3 * xs[:, :1])
        u = MetricMap(sp, EuclideanTarget(1), vals)
        v = MetricMap(sp, EuclideanTarget(1), vals + (xs[:, :1] > 0.5))
        left = xs[:, 1] < 0.5
        charts = [Chart(indices=np.flatnonzero(m), phi=xs[m], epsilon=0.0) for m in (left, ~left)]
        atlas = Atlas(charts=charts, epsilon=0.0)
        fits = density_via_mdiff(u, atlas, 2.0, FitConfig()).fits
        assert len(fits) > 300 and np.unique([f.radius for f in fits.values()]).size > 100
        for i, fit in fits.items():
            chart = atlas.chart_of(i)
            ball_idx = sp.ball_indices(i, fit.radius)
            old = ball_idx[[chart.contains(j) for j in ball_idx]]
            d = sp.pair_dist_block([i], chart.indices)[0]
            np.testing.assert_array_equal(np.sort(chart.indices[d < fit.radius]), old)
        calls = []
        build, near = _CellIndex._build, _CellIndex._near
        monkeypatch.setattr(_CellIndex, "_build", lambda *a: calls.append("build") or build(*a))
        monkeypatch.setattr(_CellIndex, "_near", lambda *a: calls.append("near") or near(*a))
        sp.ball_indices(0, 0.1)  # the spies see a ball query
        assert "near" in calls
        calls.clear()
        assert locality_check(u, v, 2.0, source="mdiff", atlas=atlas) == 0.0
        assert calls == []

    def test_empty_agreement_vacuous(self, pair):
        xs, sp, u, v = pair
        w = MetricMap(sp, EuclideanTarget(1), u.packed + 5.0)
        assert locality_check(u, w, 2.0, r=0.1, source="ks") == 0.0


class TestMidpointInequality:
    def test_pointwise_all_kinds(self, grid_space_21, tripod):
        targets = [
            EuclideanTarget(2),
            tripod,
            HyperbolicTarget(),
            ProductTarget([EuclideanTarget(1), tripod]),
        ]
        for t in targets:
            for s in range(5):
                u = random_map(grid_space_21, t, 50 + s)
                v = random_map(grid_space_21, t, 150 + s)
                assert midpoint_scale_gap(u, v, 0.12) <= 1e-9


class TestLowerSemicontinuityRegression:
    def test_limit_energy_below_perturbed(self):
        n = 256
        xs = np.linspace(0.0, 1.0, n)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        h = 1.0 / (n - 1)
        scales = [20.5 * h, 16.5 * h, 12.5 * h]
        u = MetricMap(sp, EuclideanTarget(1), (2.0 * xs)[:, None])
        base = energy_sweep(u, 2.0, scales).extrapolated_total
        rng = np.random.default_rng(0)
        jiggle = rng.choice([-1.0, 1.0], size=n)
        perturbed = []
        for k in range(5):
            amp = 0.05 * 0.5**k
            un = MetricMap(sp, EuclideanTarget(1), (2.0 * xs + amp * jiggle)[:, None])
            perturbed.append(energy_sweep(un, 2.0, scales).extrapolated_total)
        assert base <= min(perturbed) + 1e-9
        assert perturbed == sorted(perturbed, reverse=True)


def _ks_brute_force(u, p, r):
    """ks at scale r from its definition, one full distance row per point."""
    sp = u.space
    w = sp.weights
    out = np.zeros(sp.n)
    for i in range(sp.n):
        member = sp.dist_row(i) < r
        if member.sum() > 1:
            tar = u.target.dists(u.packed[i], u.packed[member])
            out[i] = (np.dot(w[member], tar**p) / (w[member].sum() * r**p)) ** (1.0 / p)
    return out


class TestStrictBlockBalls:
    """``ks_profile`` keeps ball members by ``d < r``, as ``all_balls`` does,
    even when the scale is itself a computed pair distance."""

    def test_pair_distance_scale_matches_all_balls(self):
        pts = np.random.default_rng(3).random((60, 2))
        sp = build_space({"kind": "euclidean", "points": pts.tolist()})
        d2 = sp.pair_dist_block(np.arange(60), np.arange(60), squared=True)
        d = np.sqrt(d2)
        # a pair whose rounded distance squares above its squared distance:
        # d < r leaves each end out of the other's ball, d^2 < r^2 did not
        i, j = next((i, j) for i in range(60) for j in range(i + 1, 60) if d[i, j] ** 2 > d2[i, j])
        r = sp.dist(i, j)
        u = MetricMap(sp, EuclideanTarget(2), np.stack([np.sin(5 * pts[:, 0]), pts[:, 1]], axis=1))
        ks = ks_at_scale(u, 2.0, r)
        for k, other in ((i, j), (j, i)):
            _, members, _ = sp.all_balls(r, [k])
            assert other not in members
            w = sp.weights[members]
            tar = u.target.dists(u.packed[k], u.packed[members])
            expect = math.sqrt(np.dot(w, tar**2) / (w.sum() * r**2))
            assert ks[k] == pytest.approx(expect, rel=1e-12)


class TestBlockMemoryBound:
    """Large radii relative to the space stay within the block pair budget."""

    @pytest.mark.parametrize(
        "kind, r",
        [("torus", 0.34), ("euclidean", 2.0)],
        ids=["torus-64x64-r0.34", "grid-r-above-diameter"],
    )
    def test_blocks_within_budget_and_ks_exact(self, kind, r):
        pts = grid_points(64, 2) * (63.0 / 64.0) if kind == "torus" else grid_points(40, 2)
        spec = {"kind": kind, "points": pts.tolist()}
        if kind == "torus":
            spec["period"] = [1.0, 1.0]
        sp = build_space(spec)
        blocks = list(sp.cell_partition(r))
        assert max(len(p) * len(c) for p, c in blocks) <= CELL_PAIR_BUDGET
        assert sorted(np.concatenate([p for p, _ in blocks]).tolist()) == list(range(sp.n))
        angle = 2.0 * math.pi * pts
        u = MetricMap(sp, EuclideanTarget(2), np.stack(
            [np.sin(angle[:, 0]) + np.cos(angle[:, 1]), np.cos(angle[:, 0] - angle[:, 1])],
            axis=1,
        ))
        np.testing.assert_allclose(
            ks_at_scale(u, 2.0, r), _ks_brute_force(u, 2.0, r), rtol=1e-12, atol=0.0
        )
