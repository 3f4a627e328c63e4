import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscalc import (
    QuadratureSpec,
    Seminorm,
    ValidationError,
    ball_nodes,
    consistency_constant,
    hs_norm,
    op_norm,
    size_p,
    size_p_report,
    sn_distance,
    sn_distance_report,
)
from kscalc.seminorms import _mesh_gap, _ndtri, _sobol, _sphere_mesh, check_exponent


def random_psd(rng, d):
    a = rng.normal(0.0, 1.0, (d, d))
    return Seminorm.quadratic(a.T @ a)


def random_poly(rng, d, k=4):
    return Seminorm.polyhedral(rng.normal(0.0, 1.0, (k, d)))


class TestEval:
    def test_identity_quadratic(self):
        n = Seminorm.quadratic(np.eye(2))
        assert n([3.0, 4.0]) == pytest.approx(5.0)

    def test_polyhedral_single_covector(self):
        n = Seminorm.polyhedral([[1.0, 0.0]])
        assert n([-2.0, 7.0]) == pytest.approx(2.0)

    def test_zero_form(self):
        assert Seminorm.zero(3)([1.0, -2.0, 0.5]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Seminorm.quadratic(np.eye(2)).evaluate(np.zeros((1, 3)))

    def test_indefinite_rejected(self):
        with pytest.raises(ValidationError):
            Seminorm.quadratic([[1.0, 0.0], [0.0, -0.5]])

    @given(st.integers(0, 1_000_000), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, seed, lam):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = random_psd(rng, d) if rng.random() < 0.5 else random_poly(rng, d)
        v = rng.normal(0.0, 1.0, d)
        assert n(lam * v) == pytest.approx(abs(lam) * n(v), rel=1e-9, abs=1e-12)

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=60, deadline=None)
    def test_subadditive(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = random_psd(rng, d) if rng.random() < 0.5 else random_poly(rng, d)
        v = rng.normal(0.0, 1.0, d)
        w = rng.normal(0.0, 1.0, d)
        assert n(v + w) <= n(v) + n(w) + 1e-10


class TestOpNorm:
    def test_diag(self):
        assert op_norm(Seminorm.quadratic(np.diag([4.0, 1.0]))) == pytest.approx(2.0)

    def test_polyhedral(self):
        assert op_norm(Seminorm.polyhedral([[1, 0], [0, 3]])) == pytest.approx(3.0)

    def test_zero(self):
        assert op_norm(Seminorm.zero(4)) == 0.0

    def test_matches_sphere_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = random_psd(rng, 2)
            ang = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            assert op_norm(n) == pytest.approx(n.evaluate(dirs).max(), rel=1e-5)


class TestSnDistance:
    def test_identical(self):
        n = Seminorm.quadratic([[2.0, 0.3], [0.3, 1.0]])
        assert sn_distance(n, n) == 0.0

    def test_distance_to_zero_is_op_norm(self):
        n = Seminorm.quadratic(np.eye(2))
        assert sn_distance(n, Seminorm.zero(2)) == pytest.approx(1.0, abs=1e-9)

    def test_axis_projections(self):
        n1 = Seminorm.polyhedral([[1.0, 0.0]])
        n2 = Seminorm.polyhedral([[0.0, 1.0]])
        # oracle: dense sphere scan
        ang = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dense = np.abs(n1.evaluate(dirs) - n2.evaluate(dirs)).max()
        assert dense == pytest.approx(1.0, abs=1e-8)
        assert sn_distance(n1, n2) == pytest.approx(1.0, abs=1e-9)

    def test_lower_bound_with_gap(self):
        rng = np.random.default_rng(5)
        n1, n2 = random_psd(rng, 3), random_poly(rng, 3)
        val, gap = sn_distance_report(n1, n2, resolution=512)
        dense, _ = sn_distance_report(n1, n2, resolution=8192)
        assert val <= dense + 1e-12
        assert dense <= val + gap

    def test_symmetric_and_triangle(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            a, b, c = (random_psd(rng, 2) for _ in range(3))
            dab = sn_distance(a, b)
            assert dab == pytest.approx(sn_distance(b, a), abs=1e-9)
            assert dab <= sn_distance(a, c) + sn_distance(c, b) + 1e-9


class TestSizeP:
    def test_euclidean_norm_2d(self):
        n = Seminorm.quadratic(np.eye(2))
        assert size_p(n, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-3)

    def test_zero_form(self):
        assert size_p(Seminorm.zero(2), 3.5) == 0.0

    def test_axis_projection(self):
        n = Seminorm.polyhedral([[1.0, 0.0]])
        assert size_p(n, 2.0) == pytest.approx(0.5, rel=1e-3)

    def test_error_estimate_reported(self):
        n = Seminorm.quadratic(np.eye(3))
        val, err = size_p_report(n, 2.0)
        assert err <= 1e-3

    def test_homogeneous(self):
        rng = np.random.default_rng(7)
        n = random_psd(rng, 3)
        lam = 2.5
        scaled = Seminorm.quadratic(lam**2 * n.matrix)
        assert size_p(scaled, 2.0) == pytest.approx(lam * size_p(n, 2.0), rel=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n1 = random_psd(rng, 2)
            bump = rng.normal(0.0, 1.0, (2, 2))
            n2 = Seminorm.quadratic(n1.matrix + bump.T @ bump)
            # n1 <= n2 pointwise by PSD ordering
            assert size_p(n1, 2.0) <= size_p(n2, 2.0) + 1e-12

    def test_two_sided_op_norm_comparison(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3, 4):
            for _ in range(15):
                n = random_psd(rng, d) if rng.random() < 0.5 else random_poly(rng, d)
                s2 = size_p(n, 2.0)
                op = op_norm(n)
                assert s2 >= op / math.sqrt(d + 2) - 2e-3 * max(op, 1.0)
                assert s2 <= op * math.sqrt(d / (d + 2)) + 2e-3 * max(op, 1.0)

    def test_p_out_of_range(self):
        with pytest.raises(ValidationError):
            size_p(Seminorm.zero(2), 1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf, 0.5])
    def test_bad_exponent_named(self, p):
        with pytest.raises(ValidationError, match=r"exponent p must lie in \(1, inf\)"):
            check_exponent(p)
        with pytest.raises(ValidationError, match="exponent p"):
            size_p_report(random_poly(np.random.default_rng(0), 2), p)

    def test_p3_matches_radial_integral(self):
        # d=1 euclidean norm: average of |w|^3 over [-1, 1] is 1/4
        n = Seminorm.quadratic([[1.0]])
        assert size_p(n, 3.0) == pytest.approx(0.25 ** (1 / 3), rel=1e-3)


class TestHsNorm:
    def test_identity_3d_and_quadrature_identity(self):
        n = Seminorm.quadratic(np.eye(3))
        assert hs_norm(n) == pytest.approx(math.sqrt(3.0))
        assert hs_norm(n) == pytest.approx(
            math.sqrt(5.0) * size_p(n, 2.0), rel=1e-3
        )

    def test_rank_one(self):
        assert hs_norm(Seminorm.quadratic(np.diag([4.0, 0.0]))) == pytest.approx(2.0)

    def test_zero(self):
        assert hs_norm(Seminorm.zero(2)) == 0.0

    def test_polyhedral_rejected(self):
        with pytest.raises(ValidationError):
            hs_norm(Seminorm.polyhedral([[1.0, 0.0]]))

    def test_trace_invariance_under_basis_rotation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = random_psd(rng, 3)
            q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (3, 3)))
            total = sum(n(q[:, k]) ** 2 for k in range(3))
            assert total == pytest.approx(hs_norm(n) ** 2, abs=1e-9)


class TestConsistencyConstant:
    def test_values(self):
        assert consistency_constant(1) == pytest.approx(math.sqrt(3.0))
        assert consistency_constant(2) == pytest.approx(2.0)

    def test_rank_one_identity(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            for _ in range(10):
                a = rng.normal(0.0, 1.0, d)
                n = Seminorm.quadratic(np.outer(a, a))
                ratio = op_norm(n) / size_p(n, 2.0)
                assert ratio == pytest.approx(consistency_constant(d), rel=1e-3)


class TestQuadratureNodes:
    def test_deterministic_per_seed(self):
        a = ball_nodes(3, 1024, 0)
        b = ball_nodes(3, 1024, 0)
        assert np.array_equal(a, b)
        c = ball_nodes(3, 1024, 1)
        assert not np.array_equal(a, c)

    def test_inside_unit_ball(self):
        v = ball_nodes(4, 4096, 0)
        assert np.linalg.norm(v, axis=1).max() <= 1.0 + 1e-12

    def test_custom_spec_threads_through(self):
        n = Seminorm.quadratic(np.eye(2))
        v1 = size_p(n, 2.0, QuadratureSpec(count=2**12, seed=3))
        assert v1 == pytest.approx(math.sqrt(0.5), rel=5e-3)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for n in (random_psd(rng, 3), random_poly(rng, 2)):
            m = Seminorm.from_json(n.to_json())
            v = rng.normal(0.0, 1.0, n.dim)
            assert m(v) == pytest.approx(n(v), abs=1e-12)


@pytest.mark.filterwarnings("ignore:The balance properties")
class TestSobolStream:
    """The numpy Sobol' stream equals ``scipy.stats.qmc.Sobol`` bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 12])
    def test_equals_scipy(self, dim):
        from scipy.stats import qmc

        for seed in (0, 1, 1234):
            for n in (1, 2, 3, 1000, 2**16, 2**17):
                want = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
                got = _sobol(dim, n, seed)
                assert got.shape == want.shape and np.array_equal(got, want), (seed, n)

    @pytest.mark.parametrize("dim,count,seed", [(1, 1024, 0), (2, 2**16, 0), (3, 4096, 3), (4, 1000, 1)])
    def test_ball_nodes_equal_scipy(self, dim, count, seed):
        from scipy.special import ndtri
        from scipy.stats import qmc

        u = np.clip(qmc.Sobol(d=dim + 1, scramble=True, seed=seed).random(count), 1e-12, 1.0 - 1e-12)
        g = ndtri(u[:, :dim])
        want = g / np.linalg.norm(g, axis=1, keepdims=True) * (u[:, dim] ** (1.0 / dim))[:, None]
        assert np.array_equal(ball_nodes(dim, count, seed), want)

    def test_sphere_mesh_equals_scipy(self):
        from scipy.special import ndtri
        from scipy.stats import qmc

        u = np.clip(qmc.Sobol(d=5, scramble=True, seed=1234).random(512), 1e-12, 1.0 - 1e-12)
        g = ndtri(u)
        assert np.array_equal(_sphere_mesh(5, 512), g / np.linalg.norm(g, axis=1, keepdims=True))


class TestNdtri:
    """The numpy normal quantile equals ``scipy.special.ndtri`` bit for bit."""

    def test_equals_scipy(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(16)
        y = np.concatenate([
            rng.random(200_000),  # mostly the central branch
            10.0 ** rng.uniform(-13.9, -0.87, 50_000),  # lower tail, x < 8
            1.0 - 10.0 ** rng.uniform(-15.9, -0.87, 50_000),  # upper tail
            10.0 ** rng.uniform(-320.0, -14.0, 50_000),  # x >= 8
            [0.0, 1.0, 0.5, 5e-324, 1e-12, 1.0 - 1e-12, math.exp(-2.0), 1.0 - math.exp(-2.0),
             math.exp(-32.0), np.nextafter(1.0, 0.0), -0.5, 1.5, np.nan],
        ])
        got, want = _ndtri(y), ndtri(y)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.sqrt(-2.0 * np.log(y[(y > 0) & (y < 1e-14)])).min() >= 8.0  # both tail sets ran
        assert np.array_equal(_ndtri(y.reshape(-1, 1)), want.reshape(-1, 1), equal_nan=True)


class TestMeshGap:
    @staticmethod
    def looped(mesh):
        gaps = np.empty(mesh.shape[0])
        for i in range(mesh.shape[0]):
            d = np.linalg.norm(mesh - mesh[i], axis=1)
            d[i] = np.inf
            gaps[i] = d.min()
        return float(gaps.max())

    @pytest.mark.parametrize("dim,resolution", [(1, 512), (2, 512), (3, 300), (4, 1000), (5, 512), (9, 300), (12, 1000)])
    def test_equals_the_point_loop(self, dim, resolution):
        assert _mesh_gap(dim, resolution) == self.looped(_sphere_mesh(dim, resolution))

    def test_computed_once(self):
        _mesh_gap(3, 256)
        hits = _mesh_gap.cache_info().hits
        n1, n2 = Seminorm.quadratic(np.eye(3)), Seminorm.polyhedral(np.eye(3))
        sn_distance_report(n1, n2, resolution=256)
        assert _mesh_gap.cache_info().hits == hits + 2  # pattern-search step and gap


class TestQuadratureSpec:
    @pytest.mark.parametrize("count", [0, 1, 2.5, -4, True, 2**30 + 1, "8", None])
    def test_bad_count_named(self, count):
        with pytest.raises(ValidationError, match="quadrature count"):
            QuadratureSpec(count=count)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValidationError, match="quadrature seed"):
            QuadratureSpec(seed=seed)

    @pytest.mark.parametrize("count", [2, 3, np.int64(64), 2**30])
    def test_integer_counts_accepted(self, count):
        assert QuadratureSpec(count=count, seed=np.int64(5)).count == count

    def test_smallest_count_is_finite(self):
        val, err = size_p_report(random_poly(np.random.default_rng(1), 2), 3.0, QuadratureSpec(count=2))
        assert math.isfinite(val) and math.isfinite(err)
