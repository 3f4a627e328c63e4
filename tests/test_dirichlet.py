import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kscalc import (
    AuditError,
    ConvergenceError,
    DirichletProblem,
    EuclideanTarget,
    HyperbolicTarget,
    MetricMap,
    ProductTarget,
    SphereTarget,
    ValidationError,
    barycenter,
    build_space,
    discrete_energy,
    midpoint_test,
    poincare_estimate,
    relax_sweep,
    relaxation_energy,
    solve,
)

import kscalc.dirichlet as dirichlet_module
import kscalc.spaces as spaces_module
from kscalc.dirichlet import (
    _cg,
    _component_labels,
    _descended,
    _displacement,
    _error_bound,
    _sweep,
    default_tolerance,
)
from conftest import grid_points, interior_balls, interior_mask


@pytest.fixture(scope="module")
def path_problem():
    xs = np.linspace(0.0, 1.0, 11)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    prob = DirichletProblem(
        sp,
        EuclideanTarget(1),
        interior=list(range(1, 10)),
        boundary_data={0: [0.0], 10: [1.0]},
        scale=0.15,
    )
    return xs, sp, prob


def tripod_path_problem(tripod):
    xs = np.linspace(0.0, 1.0, 11)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    return sp, DirichletProblem(
        sp,
        tripod,
        interior=list(range(1, 10)),
        boundary_data={0: {"vertex": 1}, 10: {"vertex": 2}},
        scale=0.15,
    )


class TestProblemValidation:
    def test_boundary_layer_is_derived(self, path_problem):
        _, _, prob = path_problem
        assert list(prob.boundary_layer) == [0, 10]

    def test_empty_ball_rejected(self):
        sp = build_space(
            {"kind": "euclidean", "points": [[0.0], [1.0], [5.0], [6.0]]}
        )
        with pytest.raises(ValidationError, match="point 2 has an empty ball") as exc:
            DirichletProblem(sp, EuclideanTarget(1), [2], {3: [0.0]}, 0.5)
        assert exc.value.detail == 2

    def test_boundary_value_at_interior_index_named(self, path_problem):
        _, sp, _ = path_problem
        data = {0: [0.0], 10: [1.0], 5: [0.5]}
        with pytest.raises(ValidationError, match="given at interior index 5"):
            DirichletProblem(sp, EuclideanTarget(1), list(range(1, 10)), data, 0.15)

    def test_ball_structure_matches_per_ball_oracle(self):
        rng = np.random.default_rng(5)
        pts = grid_points(15, 2)
        weights = rng.uniform(0.5, 2.0, len(pts)).tolist()
        sp = build_space({"kind": "euclidean", "points": pts.tolist(), "weights": weights})
        inner = np.all((pts > 0.2) & (pts < 0.8), axis=1)
        interior, r = np.flatnonzero(inner), 0.16
        data = {int(k): [0.0] for k in np.flatnonzero(~inner)}
        prob = DirichletProblem(sp, EuclideanTarget(1), interior, data, r)
        w, layer, coef = sp.weights, set(), []
        for x in interior:
            idx = np.flatnonzero(sp.dist_row(x) < r)
            layer.update(int(j) for j in idx if not inner[j])
            coef.append(w[x] / (w[idx].sum() * r**2))
        assert prob.boundary_layer.tolist() == sorted(layer)
        assert prob.referenced.tolist() == sorted(set(interior.tolist()) | layer)
        # ball masses come from np.add.reduceat, which may associate a sum
        # differently from a slice's own sum
        np.testing.assert_allclose(prob._coef, coef, rtol=1e-14, atol=0)

    def test_missing_boundary_value(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [0.1], [0.2]]})
        with pytest.raises(ValidationError, match="missing boundary"):
            DirichletProblem(sp, EuclideanTarget(1), [1], {0: [0.0]}, 0.15)

    def test_full_interior_rejected(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [0.1], [0.2]]})
        with pytest.raises(ValidationError, match="complement"):
            DirichletProblem(sp, EuclideanTarget(1), [0, 1, 2], {}, 0.15)

    def test_non_cat0_target_rejected(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [0.1], [0.2]]})
        with pytest.raises(ValidationError, match="CAT"):
            DirichletProblem(
                sp, SphereTarget(), [1], {0: [1, 0, 0], 2: [0, 1, 0]}, 0.15
            )


    def test_bad_values_name_their_index(self, path_problem, tripod):
        sp, prob = tripod_path_problem(tripod)
        vals = [{"vertex": 0}] * 9
        vals[3] = {"vertex": 7}
        with pytest.raises(ValidationError, match="index 4") as exc:
            prob.assemble(vals)
        assert exc.value.detail == 4
        bad = {0: {"vertex": 1}, 10: {"edge": 5, "t": 0.1}}
        with pytest.raises(ValidationError, match="index 10") as exc:
            DirichletProblem(sp, tripod, list(range(1, 10)), bad, 0.15)
        assert exc.value.detail == 10
        _, _, line = path_problem
        with pytest.raises(ValidationError, match="index 3") as exc:
            line.assemble([[0.5], [0.5], [math.nan]] + [[0.5]] * 6)
        assert exc.value.detail == 3

    @pytest.mark.parametrize(
        "interior, boundary, bad",
        [
            (range(1, 10), {0: [0.0], 10: [1.0], 11: [5.0]}, 11),
            (range(1, 10), {0: [0.0], 10: [1.0], -1: [5.0]}, -1),
            ([*range(1, 10), 11], {0: [0.0], 10: [1.0]}, 11),
        ],
    )
    def test_index_outside_domain_rejected(self, path_problem, interior, boundary, bad):
        _, sp, _ = path_problem
        with pytest.raises(ValidationError, match=f"index {bad} outside") as exc:
            DirichletProblem(sp, EuclideanTarget(1), list(interior), boundary, 0.15)
        assert exc.value.detail == bad

    @pytest.mark.parametrize(
        "interior, boundary, bad",
        [
            ([1.5, *range(2, 10)], {0: [0.0], 10: [1.0]}, "1.5"),
            (range(1, 10), {0.7: [0.0], 10: [1.0]}, "0.7"),
            (range(1, 10), {0: [0.0], 10: [1.0], math.nan: [0.5]}, "nan"),
            ([*range(1, 10), True], {0: [0.0], 10: [1.0]}, "True"),
        ],
    )
    def test_non_integral_index_rejected(self, path_problem, interior, boundary, bad):
        _, sp, _ = path_problem
        with pytest.raises(ValidationError, match=f"index {bad} is not an integer"):
            DirichletProblem(sp, EuclideanTarget(1), list(interior), boundary, 0.15)

    def test_integral_float_indices_load(self, path_problem):
        _, sp, prob = path_problem
        floats = DirichletProblem(
            sp, EuclideanTarget(1), [float(i) for i in range(1, 10)],
            {0.0: [0.0], np.float64(10.0): [1.0]}, 0.15,
        )
        assert floats.interior.tolist() == prob.interior.tolist()
        assert sorted(floats.boundary_data) == [0, 10]


class TestDiscreteEnergy:
    def test_constant_map_zero(self, path_problem):
        _, _, prob = path_problem
        u = prob.assemble([[0.7]] * 9)
        for j in prob.boundary_data:
            u[j] = np.array([0.7])
        assert discrete_energy(prob, u) == 0.0

    def test_path_ramp_closed_form(self, path_problem):
        xs, sp, prob = path_problem
        u = prob.assemble([[x] for x in xs[1:10]])
        # closed form: nearest-neighbor balls of mass 3w, increments 0.1
        w = 1.0 / 11.0
        expected = sum(
            w * (w * 0.1**2 + w * 0.1**2) / (3 * w * 0.15**2) for _ in range(9)
        )
        assert discrete_energy(prob, u) == pytest.approx(expected, rel=1e-12)

    def test_swap_changes_only_local_terms(self, path_problem):
        xs, sp, prob = path_problem
        rng = np.random.default_rng(0)
        vals = rng.normal(0.0, 1.0, (9, 1))
        u = prob.assemble(vals)
        e_full = discrete_energy(prob, u)
        a, b = 3, 7
        swapped = vals.copy()
        swapped[[a - 1, b - 1]] = swapped[[b - 1, a - 1]]
        u2 = prob.assemble(swapped)
        e_swapped = discrete_energy(prob, u2)
        # oracle: recompute only the terms whose ball touches a or b
        w = sp.weights

        def local_terms(values):
            total = 0.0
            for c, x, idx in zip(prob._coef, prob.interior, interior_balls(prob)):
                if not (
                    a in idx or b in idx or int(x) in (a, b)
                ):
                    continue
                dy = np.abs(values[idx, 0] - values[int(x), 0])
                total += c * float(np.dot(w[idx], dy**2))
            return total

        delta_local = local_terms(u2) - local_terms(np.asarray(u))
        assert e_swapped - e_full == pytest.approx(delta_local, abs=1e-14)

    def test_missing_value_rejected(self, path_problem, tripod):
        sp, prob = tripod_path_problem(tripod)
        vals = prob.blank_values()
        with pytest.raises(ValidationError, match="missing value"):
            discrete_energy(prob, vals)


def hyperbolic_grid_problem():
    g = np.linspace(0.0, 1.0, 6)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    sp = build_space({"kind": "euclidean", "points": pts.tolist()})
    inner = np.all((pts > 0.1) & (pts < 0.9), axis=1)
    rng = np.random.default_rng(11)
    data = {
        int(k): HyperbolicTarget.lift(rng.normal(0.0, 0.5, 2))
        for k in np.nonzero(~inner)[0]
    }
    return sp, DirichletProblem(
        sp, HyperbolicTarget(), np.nonzero(inner)[0], data, scale=0.3
    )


def product_grid_problem(tripod):
    """The hyperbolic grid problem's domain, mapped into R x tripod x H^2;
    the tree data lie on the leaf-1 to leaf-2 line."""
    sp, hyp = hyperbolic_grid_problem()
    target = ProductTarget([EuclideanTarget(1), tripod, HyperbolicTarget()])
    rng = np.random.default_rng(12)
    data = {
        k: (rng.normal(0.0, 1.0, 1), {"edge": int(rng.integers(0, 2)), "t": rng.random()}, v)
        for k, v in hyp.boundary_data.items()
    }
    return sp, DirichletProblem(sp, target, hyp.interior, data, hyp.scale)


def sweep_problem(kind, tripod):
    if kind == "tree":
        return tripod_path_problem(tripod)[1]
    if kind == "hyperbolic":
        return hyperbolic_grid_problem()[1]
    return product_grid_problem(tripod)[1]


class TestEnergiesAgainstScalarDist:
    """The vectorized energies against per-pair sums of the scalar dist."""

    @staticmethod
    def oracles(prob, values):
        t, w, r = prob.target, prob.space.weights, prob.scale
        inside = set(int(x) for x in prob.interior)
        scale_sum = 0.0
        pair_sum = 0.0
        for x, idx in zip(prob.interior, interior_balls(prob)):
            x = int(x)
            ball = sum(w[j] * t.dist(values[x], values[int(j)]) ** 2 for j in idx)
            scale_sum += w[x] / (w[idx].sum() * r**2) * ball
            for j in map(int, idx):
                if j != x and not (j in inside and j < x):
                    pair_sum += w[x] * w[j] * t.dist(values[x], values[j]) ** 2 / r**2
        return scale_sum, pair_sum

    @pytest.mark.parametrize("kind", ["tree", "hyperbolic"])
    def test_matches_per_pair_sums(self, kind, tripod):
        if kind == "tree":
            _, prob = tripod_path_problem(tripod)
        else:
            _, prob = hyperbolic_grid_problem()
        rng = np.random.default_rng(5)
        values = prob.assemble(prob.target.random_points(rng, prob.interior.shape[0]))
        scale_sum, pair_sum = self.oracles(prob, values)
        assert scale_sum > 0 and pair_sum > 0
        assert discrete_energy(prob, values) == pytest.approx(scale_sum, rel=1e-12)
        assert relaxation_energy(prob, values) == pytest.approx(pair_sum, rel=1e-12)


class TestRelaxSweep:
    def test_jacobi_matches_matrix_iteration(self, path_problem):
        xs, sp, prob = path_problem
        rng = np.random.default_rng(1)
        vals = prob.assemble(rng.normal(0.0, 1.0, (9, 1)))
        new = relax_sweep(prob, vals, mode="jacobi")
        # oracle: weighted-Jacobi step of the neighbor-averaging system
        w = sp.weights
        expect = vals.copy()
        for x, idx in zip(prob.interior, interior_balls(prob)):
            nbr = idx[idx != x]
            expect[int(x)] = np.dot(w[nbr], vals[nbr, 0]) / w[nbr].sum()
        assert np.allclose(new, expect, atol=1e-14)

    def test_single_interior_point_exact_in_one_sweep(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [0.1], [0.2]]})
        prob = DirichletProblem(
            sp, EuclideanTarget(1), [1], {0: [0.0], 2: [1.0]}, 0.15
        )
        vals = prob.assemble([[0.9]])
        new = relax_sweep(prob, vals)
        assert new[1, 0] == pytest.approx(0.5)
        again = relax_sweep(prob, new)
        assert again[1, 0] == pytest.approx(0.5)

    def test_fixed_point_stays(self, path_problem):
        xs, sp, prob = path_problem
        sol, _ = solve(prob, tol=1e-10, uniqueness_audit=False)
        new = relax_sweep(prob, sol)
        delta = np.abs(np.asarray(new) - np.asarray(sol)).max()
        assert delta <= 1e-9

    def test_gauss_seidel_does_not_increase_energy(self, path_problem):
        from kscalc import relaxation_energy

        xs, sp, prob = path_problem
        rng = np.random.default_rng(2)
        vals = prob.assemble(rng.normal(0.0, 1.0, (9, 1)))
        e0 = relaxation_energy(prob, vals)
        new = relax_sweep(prob, vals, mode="gauss-seidel")
        assert relaxation_energy(prob, new) <= e0 + 1e-12

    def test_unknown_mode(self, path_problem):
        _, _, prob = path_problem
        with pytest.raises(ValidationError, match="mode"):
            relax_sweep(prob, prob.default_init(), mode="sor")

    BARY_TOL = 1e-7

    @staticmethod
    def assert_rows_match(kind, got, expect):
        # the Euclidean component's mean may round differently in a product
        if kind == "product":
            assert np.abs(got - expect).max() <= 1e-15
        else:
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("kind", ["tree", "hyperbolic", "product"])
    def test_jacobi_matches_per_ball_barycenters(self, kind, tripod):
        prob = sweep_problem(kind, tripod)
        t, w = prob.target, prob.space.weights
        values = prob.seeded_init(3)
        new = relax_sweep(prob, values, mode="jacobi", bary_tol=self.BARY_TOL)
        # oracle: one barycenter per ball, all reading the frozen values
        expect = values.copy()
        for x, idx in zip(prob.interior, interior_balls(prob)):
            nbr = idx[idx != x]
            expect[x] = t.pack([barycenter(t, values[nbr], w[nbr], tol=self.BARY_TOL)])[0]
        assert not np.array_equal(new, values)
        self.assert_rows_match(kind, new, expect)

    @pytest.mark.parametrize("kind", ["tree", "hyperbolic", "product"])
    def test_gauss_seidel_matches_sequential_barycenters(self, kind, tripod):
        prob = sweep_problem(kind, tripod)
        t, w = prob.target, prob.space.weights
        values = prob.seeded_init(4)
        new = relax_sweep(prob, values, mode="gauss-seidel", bary_tol=self.BARY_TOL)
        # oracle: point by point in class order, each reading the updates so far
        balls = dict(zip(prob.interior.tolist(), interior_balls(prob)))
        expect = values.copy()
        for x in np.concatenate([points for points, *_ in prob._classes("gauss-seidel")]):
            idx = balls[x]
            nbr = idx[idx != x]
            expect[x] = t.pack([barycenter(t, expect[nbr], w[nbr], tol=self.BARY_TOL)])[0]
        self.assert_rows_match(kind, new, expect)
        jacobi = relax_sweep(prob, values, mode="jacobi", bary_tol=self.BARY_TOL)
        assert not np.array_equal(new, jacobi)


class TestSweepClasses:
    """A sweep moves its classes one after another, one barycenters call each."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        dim=st.integers(1, 3),
        share=st.floats(0.1, 0.9),
        scale=st.floats(0.2, 1.5),
    )
    def test_classes_partition_the_interior_into_independent_sets(
        self, seed, n, dim, share, scale
    ):
        rng = np.random.default_rng(seed)
        sp = build_space({"kind": "euclidean", "points": rng.random((n, dim)).tolist()})
        interior = np.flatnonzero(rng.random(n) < share)
        assume(0 < interior.size < n)
        data = {int(k): [0.0] for k in np.setdiff1d(np.arange(n), interior)}
        try:
            prob = DirichletProblem(sp, EuclideanTarget(1), interior, data, scale)
        except ValidationError:
            assume(False)  # an interior point with an empty ball
        balls = dict(zip(prob.interior.tolist(), interior_balls(prob)))
        classes = prob._classes("gauss-seidel")
        order = np.concatenate([points for points, *_ in classes])
        assert np.array_equal(np.sort(order), prob.interior)
        for points, nbr, ptr, w in classes:
            assert np.all(np.diff(points) > 0)
            for k, x in enumerate(points.tolist()):
                assert np.intersect1d(balls[x], points).tolist() == [x]
                group = nbr[ptr[k] : ptr[k + 1]]
                assert np.array_equal(group, balls[x][balls[x] != x])
                assert np.array_equal(w[ptr[k] : ptr[k + 1]], sp.weights[group])
        (jacobi,) = prob._classes("jacobi")
        assert all(a is b for a, b in zip(
            jacobi, (prob.interior, prob._nbrx, prob._nbrx_ptr, prob._nbrx_w)))

    def test_one_barycenters_call_per_class(self, monkeypatch):
        hyp = HyperbolicTarget()
        prob = grid_problem(21, 1, hyp, lambda p: hyp.lift(2 * p - 1))
        calls = []
        batched = hyp._barycenters

        def counted(*args):
            calls.append(args[1])
            return batched(*args)

        monkeypatch.setattr(hyp, "_barycenters", counted)
        relax_sweep(prob, prob.default_init(), mode="gauss-seidel")
        assert prob.interior.size == sum(len(ptr) - 1 for ptr in calls) == 361
        assert len(calls) <= 5
        assert len(calls) == len(prob._classes("gauss-seidel"))
        # a solve sweep moves both starts, its own and the audit's, in each call
        calls.clear()
        solve(prob, mode="gauss-seidel", max_sweeps=1)
        assert len(calls) == len(prob._classes("gauss-seidel"))
        assert [len(ptr) - 1 for ptr in calls] == [
            2 * len(points) for points, *_ in prob._classes("gauss-seidel")]


class TestSolve:
    def test_path_matches_tridiagonal_oracle(self, path_problem):
        xs, sp, prob = path_problem
        sol, report = solve(prob, tol=1e-9)
        assert report.converged
        # oracle: direct solve of the neighbor-averaging linear system
        w = sp.weights
        A = np.eye(9)
        b = np.zeros(9)
        for row, (x, idx) in enumerate(zip(prob.interior, interior_balls(prob))):
            nbr = idx[idx != x]
            W = w[nbr].sum()
            for j in nbr:
                if 1 <= j <= 9:
                    A[row, j - 1] -= w[j] / W
                else:
                    b[row] += (w[j] / W) * (0.0 if j == 0 else 1.0)
        oracle = np.linalg.solve(A, b)
        assert np.abs(np.asarray(sol)[1:10, 0] - oracle).max() <= 1e-8
        assert np.abs(np.asarray(sol)[1:10, 0] - xs[1:10]).max() <= 1e-8

    def test_energy_trajectory_monotone(self, path_problem):
        _, _, prob = path_problem
        _, report = solve(prob, tol=1e-9, uniqueness_audit=False)
        traj = np.asarray(report.energy_trajectory)
        assert np.all(np.diff(traj) <= 1e-12)

    def test_boundary_bit_identical(self, path_problem):
        _, _, prob = path_problem
        sol, _ = solve(prob, tol=1e-9, uniqueness_audit=False)
        assert sol[0, 0] == 0.0
        assert sol[10, 0] == 1.0

    def test_constant_boundary_gives_constant_zero_energy(self):
        xs = np.linspace(0.0, 1.0, 11)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        prob = DirichletProblem(
            sp, EuclideanTarget(1), list(range(1, 10)),
            {0: [0.3], 10: [0.3]}, 0.15,
        )
        sol, report = solve(prob)
        assert report.converged
        assert report.final_energy == 0.0
        assert np.allclose(np.asarray(sol)[:, 0], 0.3)

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"mode": "sor"}, "mode"),
            ({"tol": math.nan}, "tol"),
            ({"tol": math.inf}, "tol"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1.0}, "tol"),
            ({"tol": "1e-9"}, "tol"),
            ({"max_sweeps": 0}, "max_sweeps"),
            ({"max_sweeps": 2.5}, "max_sweeps"),
            ({"max_sweeps": True}, "max_sweeps"),
        ],
    )
    def test_bad_option_rejected(self, path_problem, options, name):
        _, _, prob = path_problem
        with pytest.raises(ValidationError, match=name):
            solve(prob, uniqueness_audit=False, **options)

    def test_integral_float_max_sweeps(self, tripod):
        _, prob = tripod_path_problem(tripod)
        _, report = solve(prob, tol=1e-12, max_sweeps=3.0, uniqueness_audit=False)
        assert report.iterations == 3

    def test_max_sweeps_exhaustion_not_an_exception(self, tripod):
        _, prob = tripod_path_problem(tripod)
        _, report = solve(prob, tol=1e-12, max_sweeps=3, uniqueness_audit=False)
        assert not report.converged
        assert report.iterations == 3

    def test_uniqueness_audit_reported(self, path_problem):
        _, _, prob = path_problem
        _, report = solve(prob, tol=1e-9, seed=5)
        assert report.uniqueness_gap is not None
        assert report.uniqueness_gap <= 10.0 * 1e-9

    def test_gauss_seidel_same_solution(self, path_problem):
        xs, _, prob = path_problem
        sol_j, _ = solve(prob, tol=1e-9, uniqueness_audit=False)
        sol_g, _ = solve(prob, tol=1e-9, mode="gauss-seidel", uniqueness_audit=False)
        assert np.abs(np.asarray(sol_j) - np.asarray(sol_g)).max() <= 1e-7

    def test_tripod_interval_traces_geodesic(self, tripod):
        sp, prob = tripod_path_problem(tripod)
        sol, report = solve(prob, tol=1e-7)
        assert report.converged
        A = {"vertex": 1}
        for k in range(1, 10):
            assert tripod.dist(sol[k], A) == pytest.approx(2 * k / 10, abs=1e-4)

    def test_tripod_matches_brute_force_search(self, tripod):
        sp, prob = tripod_path_problem(tripod)
        sol, _ = solve(prob, tol=1e-7)

        # oracle: coordinate descent with exhaustive grid search over tree
        # positions, using only leg/offset arithmetic for distances
        def leg_of(p):
            p = tripod.canonical(p)
            if "vertex" in p:
                return (0, 0.0) if p["vertex"] == 0 else (p["vertex"], 1.0)
            return (p["edge"] + 1, p["t"])

        def d_oracle(a, b):
            (la, ta), (lb, tb) = a, b
            if la == lb or ta == 0.0 or tb == 0.0:
                return abs(ta - tb) if la == lb else ta + tb
            return ta + tb

        w = sp.weights
        balls = interior_balls(prob)
        cur = [(1, 1.0)] * 11
        cur[10] = (2, 1.0)

        def descend(candidates_for, step):
            for _ in range(400):
                moved = 0.0
                for x, idx in zip(prob.interior, balls):
                    nbr = [j for j in idx if j != x]
                    best, best_val = None, np.inf
                    for z in candidates_for(cur[int(x)]):
                        val = sum(w[j] * d_oracle(z, cur[j]) ** 2 for j in nbr)
                        if val < best_val:
                            best, best_val = z, val
                    moved = max(moved, d_oracle(cur[int(x)], best))
                    cur[int(x)] = best
                if moved < step / 2:
                    break

        coarse = [(leg, t) for leg in (1, 2, 3) for t in np.linspace(0, 1, 801)]
        descend(lambda _z: coarse, 1.0 / 800)
        # local grid refinement rounds around the coarse optimum
        step = 1.0 / 800
        for _ in range(3):
            window, step = 3.0 * step, step / 100.0

            def local(z, window=window, step=step):
                leg, t = z
                ts = np.arange(max(t - window, 0.0), min(t + window, 1.0) + step, step)
                cands = [(leg, float(tt)) for tt in ts]
                if t < window:  # allow crossing the hub
                    for other in (1, 2, 3):
                        if other != leg:
                            cands += [
                                (other, float(tt))
                                for tt in np.arange(0.0, window, step)
                            ]
                return cands

            descend(local, step)
        for k in range(1, 10):
            assert d_oracle(leg_of(sol[k]), cur[k]) <= 1e-4


def grid_problem(n, margin, target, value):
    """The n x n grid of the unit square with interior idx[margin:n-margin]
    squared, scale 1.6 grid steps and boundary values value(point)."""
    pts = grid_points(n, 2)
    sp = build_space({"kind": "euclidean", "points": pts.tolist()})
    idx = np.arange(n * n).reshape(n, n)
    interior = idx[margin:n - margin, margin:n - margin].ravel()
    outside = np.setdiff1d(np.arange(n * n), interior)
    data = {int(k): value(pts[k]) for k in outside}
    return DirichletProblem(sp, target, interior, data, scale=1.6 / (n - 1))


def on_three_legs(p):
    """Tripod data: the sector of p's angle about the square's center picks
    the leg, and p's distance from the center the offset."""
    phi = math.atan2(p[1] - 0.5, p[0] - 0.5) % (2 * math.pi)
    radius = math.hypot(p[0] - 0.5, p[1] - 0.5)
    return {"edge": int(3 * phi / (2 * math.pi)) % 3, "t": min(0.9, 1.2 * radius)}


class TestExactBarycenters:
    """Problems on which the inductive mean failed: it never settled where
    data pull toward all three legs of a tripod, and its inexact hyperbolic
    barycenters raised the relaxation energy on non-geodesic data."""

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("n", [7, 9])
    def test_tripod_data_on_all_three_legs(self, tripod, n, mode):
        prob = grid_problem(n, 2, tripod, on_three_legs)
        sol, report = solve(prob, mode=mode)
        assert report.converged and report.uniqueness_gap <= 10 * 1e-6
        # the solution reaches the hub region: its values span all three legs
        legs = {tripod.canonical(sol[x]).get("edge") for x in prob.interior}
        assert {0, 1, 2} <= legs

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("kind", ["hyperbolic", "product"])
    def test_non_geodesic_hyperbolic_data(self, tripod, kind, mode):
        hyp = HyperbolicTarget()
        if kind == "hyperbolic":
            target, value = hyp, lambda p: hyp.lift(2 * p - 1)
        else:
            target = ProductTarget([EuclideanTarget(2), hyp, tripod])
            value = lambda p: (2 * p - 1, hyp.lift(2 * p - 1), on_three_legs(p))
        _, report = solve(grid_problem(7, 1, target, value), mode=mode)
        assert report.converged and report.uniqueness_gap <= 10 * 1e-6

    def test_relax_sweep_reaches_its_default_bary_tol(self):
        # relax_sweep's default bary_tol 1e-10 is below what solve passes
        _, prob = hyperbolic_grid_problem()
        values = prob.default_init()
        new = relax_sweep(prob, values)
        assert relaxation_energy(prob, new) < relaxation_energy(prob, values)


class TestDefaultInit:
    @pytest.mark.parametrize("budget", [50, spaces_module.CELL_PAIR_BUDGET])
    def test_first_nearest_layer_point_as_per_point(self, monkeypatch, budget):
        # interior points one grid step from two layer points tie: the
        # blocked scan keeps the first in layer order, as a per-point argmin
        # does, whether its parts hold two rows or all of them
        monkeypatch.setattr(spaces_module, "CELL_PAIR_BUDGET", budget)
        prob = grid_problem(9, 2, EuclideanTarget(2), lambda p: 2 * p - 1)
        layer = prob.boundary_layer
        rows = [prob.space.dist_subset(int(x), layer) for x in prob.interior]
        assert sum(np.count_nonzero(d == d.min()) > 1 for d in rows) >= 4
        nearest = [int(layer[np.argmin(d)]) for d in rows]
        expect = prob.assemble([prob.boundary_data[k] for k in nearest])
        np.testing.assert_array_equal(prob.default_init(), expect)


def ill_posed_problem():
    """Interior points 3 and 4 read only each other: their values are
    arbitrary."""
    sp = build_space(
        {"kind": "euclidean", "points": [[0.0], [0.1], [0.2], [5.0], [5.1]]}
    )
    return DirichletProblem(sp, EuclideanTarget(1), [1, 3, 4], {0: [0.0], 2: [1.0]}, 0.15)


def saddle(p):
    return [p[0] ** 2 - p[1] ** 2, p[0] * p[1]]


def euclidean_reference(prob):
    """The Euclidean relaxation fixed point by one sparse direct solve, from
    the space's own balls: each interior value is the weighted mean of the
    other values of its ball."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    sp, interior = prob.space, prob.interior
    pos = {int(x): k for k, x in enumerate(interior)}
    width = prob.target.width
    rows, cols, vals = [], [], []
    rhs = np.zeros((interior.shape[0], width))
    for k, x in enumerate(interior):
        nbr = [int(j) for j in sp.ball_indices(int(x), prob.scale) if j != x]
        w = sp.weights[nbr] / sp.weights[nbr].sum()
        rows.append(k), cols.append(k), vals.append(1.0)
        for j, wj in zip(nbr, w):
            if j in pos:
                rows.append(k), cols.append(pos[j]), vals.append(-wj)
            else:
                rhs[k] += wj * np.asarray(prob.boundary_data[j])
    n = interior.shape[0]
    A = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    out = prob.blank_values()
    out[interior] = spsolve(A, rhs).reshape(n, width)
    return out


def bound_problem(kind, tripod):
    hyp = HyperbolicTarget()
    if kind == "euclidean":
        return grid_problem(7, 1, EuclideanTarget(2), saddle)
    if kind == "tree":
        return grid_problem(7, 2, tripod, on_three_legs)
    if kind == "hyperbolic":
        return grid_problem(7, 1, hyp, lambda p: hyp.lift(2 * p - 1))
    target = ProductTarget([EuclideanTarget(2), hyp, tripod])
    return grid_problem(
        7, 1, target, lambda p: (2 * p - 1, hyp.lift(2 * p - 1), on_three_legs(p))
    )


class TestCertifiedStop:
    """``solve`` stops on (max h - 1) max displacement + max h residual, a
    bound on the sup distance to the solution for every CAT(0) kind."""

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product"])
    def test_bound_holds_on_every_sweep(self, tripod, kind, mode):
        prob = bound_problem(kind, tripod)
        tol = default_tolerance(prob.target)
        if kind == "euclidean":
            ref, slack = euclidean_reference(prob), 0.0
        else:
            ref, rep = solve(prob, tol=1e-3 * tol, mode=mode, uniqueness_audit=False)
            slack = rep.error_bound
        idx = prob.interior

        def error(values):
            return prob.target.dists(values[idx], ref[idx]).max()

        values = prob.default_init()
        energy = relaxation_energy(prob, values)
        for sweep in range(5000):
            (new,), (residual,) = _sweep(prob, [values], mode, 1e-2 * tol)
            energy = _descended(prob, energy, new)
            bound = _error_bound(prob, _displacement(prob, values, new), residual)
            assert error(new) <= bound + slack, sweep
            values = new
            if bound < tol:
                break
        assert bound < tol
        sol, report = solve(prob, tol=tol, mode=mode, uniqueness_audit=False)
        assert report.converged and report.error_bound < tol
        assert error(sol) <= report.error_bound + slack

    def test_euclidean_grid_within_tol_of_direct_solve(self):
        # on this problem the displacement and energy-decrease stop fired
        # 1.5e-6 from the solution, and the uniqueness audit failed
        prob = grid_problem(41, 1, EuclideanTarget(2), saddle)
        sol, report = solve(prob)
        assert report.converged and report.error_bound < 1e-8
        assert report.uniqueness_gap <= 1e-7
        ref = euclidean_reference(prob)
        idx = prob.interior
        assert prob.target.dists(sol[idx], ref[idx]).max() <= 1e-8

    def test_hyperbolic_grid_certifies_at_default_tol(self):
        # max h is 299 here: with barycenters at tol / 100 alone, the
        # residual term max h r kept the bound near 4e-6 for 2,500 sweeps
        hyp = HyperbolicTarget()
        prob = grid_problem(40, 1, hyp, lambda p: hyp.lift(2 * p - 1))
        _, report = solve(prob, mode="gauss-seidel", max_sweeps=1500, uniqueness_audit=False)
        assert report.converged and report.error_bound < 1e-6

    def test_euclidean_first_step_is_exact(self, path_problem):
        xs, _, prob = path_problem
        for mode in ("jacobi", "gauss-seidel"):
            sol, report = solve(prob, mode=mode)
            # the direct solve and one certifying sweep
            assert report.iterations == len(report.energy_trajectory) - 1 == 2
            assert report.error_bound < 1e-12
            assert np.abs(sol[:, 0] - xs).max() <= 1e-12
            assert report.to_json()["error_bound"] == report.error_bound

    def test_direct_step_alone_is_not_certified(self, path_problem):
        _, _, prob = path_problem
        _, report = solve(prob, max_sweeps=1, uniqueness_audit=False)
        assert not report.converged and report.error_bound is None
        assert report.to_json()["error_bound"] is None

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_ill_posed_problem_rejected(self, mode):
        with pytest.raises(ValidationError, match=r"component \[3, 4\] touches no boundary"):
            solve(ill_posed_problem(), mode=mode)


class TestLockstepAudit:
    """``solve`` steps the uniqueness audit's seeded start alongside its own,
    returns what two single-start solves return, and raises an error of
    either start in the step where it happens."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product"])
    def test_equals_two_single_start_solves(self, tripod, kind, mode, seed):
        prob = bound_problem(kind, tripod)
        sol, report = solve(prob, mode=mode, seed=seed)
        # oracle: the default start alone, then the seeded start alone
        first, first_report = solve(prob, mode=mode, uniqueness_audit=False)
        second, _ = solve(prob, init=prob.seeded_init(seed + 1), mode=mode,
                          uniqueness_audit=False)
        gap = _displacement(prob, first, second)
        assert report.converged
        assert sol.tobytes() == first.tobytes()
        assert report.uniqueness_gap == gap
        assert report.to_json() == {**first_report.to_json(), "uniqueness_gap": gap}

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("kind", ["tree", "hyperbolic", "product"])
    def test_unconverged_solve_reports_its_own_start(self, tripod, kind, mode):
        prob = bound_problem(kind, tripod)
        sol, report = solve(prob, max_sweeps=4, mode=mode)
        alone, alone_report = solve(prob, max_sweeps=4, mode=mode, uniqueness_audit=False)
        assert not report.converged and report.uniqueness_gap is None
        assert sol.tobytes() == alone.tobytes()
        assert report.to_json() == alone_report.to_json()

    @staticmethod
    def sentinel_problem(tripod, monkeypatch):
        """The hyperbolic problem with a barycenters kernel that raises on any
        group reading the sentinel point, and the interior values all at it;
        the list of the groups of each call."""
        prob = bound_problem("hyperbolic", tripod)
        hyp = prob.target
        sentinel = hyp.lift(np.array([5.0, -5.0]))
        batched, calls = hyp._barycenters, []

        def failing(rows, ptr, *args):
            calls.append(len(ptr) - 1)
            if (rows == sentinel).all(axis=1).any():
                raise ConvergenceError("sentinel read")
            return batched(rows, ptr, *args)

        monkeypatch.setattr(hyp, "_barycenters", failing)
        return prob, prob.assemble([sentinel] * prob.interior.size), calls

    def test_seeded_start_error_raises_at_once(self, tripod, monkeypatch):
        prob, at_sentinel, calls = self.sentinel_problem(tripod, monkeypatch)
        monkeypatch.setattr(prob, "seeded_init", lambda seed: at_sentinel)
        # the first sweep's shared call fails, with no sweep of either start
        # alone, whether or not the first start would converge
        for max_sweeps in (3, 20_000):
            calls.clear()
            with pytest.raises(ConvergenceError, match="sentinel read"):
                solve(prob, max_sweeps=max_sweeps)
            assert calls == [2 * prob.interior.size]

    def test_first_start_error_surfaces_at_once(self, tripod, monkeypatch):
        prob, at_sentinel, calls = self.sentinel_problem(tripod, monkeypatch)
        with pytest.raises(ConvergenceError, match="sentinel read"):
            solve(prob, init=at_sentinel)
        assert calls == [2 * prob.interior.size]

    def test_seeded_start_energy_rise_raises_at_once(self, tripod, monkeypatch):
        prob = bound_problem("tree", tripod)
        seeded_energy = relaxation_energy(prob, prob.seeded_init(1))
        assert seeded_energy != relaxation_energy(prob, prob.default_init())
        descended = dirichlet_module._descended

        def rising(prob, energy, values):
            if energy == seeded_energy:
                raise AuditError("energy rose")
            return descended(prob, energy, values)

        monkeypatch.setattr(dirichlet_module, "_descended", rising)
        _, alone = solve(prob, max_sweeps=3, uniqueness_audit=False)
        assert not alone.converged and alone.iterations == 3
        # the seeded start's first step raises, before the first start stops
        with pytest.raises(AuditError, match="energy rose"):
            solve(prob, max_sweeps=3)


class TestComponentLabels:
    """Label propagation finds scipy's connected components, each labelled
    by its lowest node."""

    @given(st.integers(1, 60), st.integers(0, 120), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_connected_components(self, n, edges, seed):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, n, (2, edges))  # directed, as P's rows are
        graph = csr_matrix((np.ones(edges), (a, b)), shape=(n, n))
        label = _component_labels(graph.indptr, graph.indices)
        count, want = connected_components(graph, directed=False)
        lowest = np.array([np.flatnonzero(want == c)[0] for c in range(count)])
        np.testing.assert_array_equal(label, lowest[want])

    def test_long_path_terminates(self):
        # a chain 0 - 1 - ... - 4999 as one-directional edges
        n = 5000
        indptr = np.concatenate([[0], np.arange(1, n), [n - 1]])
        label = _component_labels(indptr, np.arange(1, n))
        assert not label.any()


def dense_averaging(prob):
    """I - P as a dense matrix, from every interior point's distance row:
    row x holds the weights w_j / m_x of its ball's other members j that
    are interior."""
    sp, interior = prob.space, prob.interior
    w = sp.weights
    out = np.eye(interior.shape[0])
    for k, x in enumerate(interior):
        ball = np.flatnonzero(sp.dist_row(int(x)) < prob.scale)
        ball = ball[ball != x]
        share = w[ball] / w[ball].sum()
        inner = np.isin(ball, interior)
        out[k, np.searchsorted(interior, ball[inner])] -= share[inner]
    return out


def solver_case(case):
    """Problems for the averaging solver, Euclidean(1) data 0 on the
    boundary layer."""
    line = [[0.1 * k] for k in range(8)]
    if case == "one-interior":
        spec, interior, scale = {"kind": "euclidean", "points": line[:3]}, [1], 0.15
    elif case == "rows-without-interior":
        # 1 and 3 read only the boundary; 5 and 6 read each other
        spec, interior, scale = {"kind": "euclidean", "points": line}, [1, 3, 5, 6], 0.15
    elif case == "weighted-grid":
        pts = grid_points(9, 2)
        w = np.random.default_rng(4).uniform(0.2, 3.0, len(pts))
        spec = {"kind": "euclidean", "points": pts.tolist(), "weights": w.tolist()}
        interior, scale = np.flatnonzero(interior_mask(pts, 0.2)), 1.6 / 8
    elif case == "torus":
        # a band of the flat torus; the rest of it is the boundary
        pts = grid_points(10, 2) * 0.9
        spec = {"kind": "torus", "points": pts.tolist(), "period": [1.0, 1.0]}
        interior, scale = np.flatnonzero(pts[:, 0] < 0.55), 0.25
    else:
        xs = np.asarray(line)[:, 0]
        spec = {"kind": "matrix", "matrix": (np.abs(xs[:, None] - xs) ** 0.5).tolist()}
        interior, scale = [2, 3, 4], 0.5
    sp = build_space(spec)
    boundary = {int(k): [0.0] for k in np.setdiff1d(np.arange(sp.n), interior)}
    return DirichletProblem(sp, EuclideanTarget(1), interior, boundary, scale)


SOLVER_CASES = ["one-interior", "rows-without-interior", "weighted-grid", "torus", "matrix"]


class TestAveragingSolver:
    """The conjugate-gradient solve of the averaging system and its
    certified max h, against a dense solve of I - P."""

    @pytest.mark.parametrize("case", SOLVER_CASES)
    def test_certified_max_h(self, case):
        prob = solver_case(case)
        dense = dense_averaging(prob)
        h = np.linalg.solve(dense, np.ones(dense.shape[0])).max()
        certified = prob._averaging[1]
        assert h <= certified <= h * (1 + 1e-12)

    @pytest.mark.parametrize("case", SOLVER_CASES)
    def test_solve_matches_dense(self, case):
        prob = solver_case(case)
        form = prob._averaging[0]
        dense = dense_averaging(prob)
        rhs = np.random.default_rng(7).normal(size=(dense.shape[0], 3))
        rhs[:, 2] = 0.0  # a column that starts solved
        x = _cg(form, form.diag * rhs.T).T
        want = np.linalg.solve(dense, rhs)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        assert not x[:, 2].any()

    def test_form_is_diag_w_m_times_i_minus_p(self):
        prob = solver_case("weighted-grid")
        form = prob._averaging[0]
        eye = np.eye(form.diag.shape[0])
        np.testing.assert_allclose(
            (form @ eye).T, form.diag[:, None] * dense_averaging(prob), rtol=1e-15, atol=0
        )

    def test_iteration_cap_raises(self):
        form = solver_case("weighted-grid")._averaging[0]
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations") as info:
            _cg(form, form.diag[None], max_iter=2)
        assert info.value.residual > 1e-14

    def test_residual_of_one_certifies_nothing(self, monkeypatch):
        # a stop at the first iterate leaves h' = 0 and residual 1
        monkeypatch.setattr("kscalc.dirichlet._CG_RTOL", 1.0)
        with pytest.raises(ConvergenceError, match="residual 1.0 of h") as info:
            solver_case("torus")._averaging
        assert info.value.residual == 1.0


class TestMidpointTest:
    def test_same_map_zero_slack(self, path_problem):
        xs, _, prob = path_problem
        u = prob.assemble([[x] for x in xs[1:10]])
        rep = midpoint_test(prob, u, u)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(2.0 * discrete_energy(prob, u), rel=1e-12)

    def test_euclidean_sign_definite_equality(self, path_problem):
        xs, _, prob = path_problem
        u = prob.assemble([[x] for x in xs[1:10]])
        v = prob.assemble(
            [[x + 0.4 * math.sin(math.pi * x)] for x in xs[1:10]]
        )
        rep = midpoint_test(prob, u, v)
        assert abs(rep.slack) <= 1e-12

    def test_tripod_three_leg_strict_slack(self, tripod):
        xs = np.linspace(0.0, 1.0, 11)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        hub = {"vertex": 0}
        prob = DirichletProblem(
            sp, tripod, list(range(1, 10)), {0: hub, 10: hub}, 0.15
        )
        u = prob.assemble(
            [tripod.canonical({"edge": k % 2, "t": 0.5}) for k in range(1, 10)]
        )
        v = prob.assemble(
            [tripod.canonical({"edge": 2, "t": 0.5}) for _ in range(1, 10)]
        )
        rep = midpoint_test(prob, u, v)
        assert rep.slack > 1.0

    def test_opposite_leg_configuration_is_tight(self, tripod):
        # maps living on two legs only see a flat subtree: exact equality
        xs = np.linspace(0.0, 1.0, 11)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        hub = {"vertex": 0}
        prob = DirichletProblem(
            sp, tripod, list(range(1, 10)), {0: hub, 10: hub}, 0.15
        )
        u = prob.assemble(
            [
                tripod.canonical({"edge": 0, "t": 0.6 * math.sin(math.pi * k / 10)})
                for k in range(1, 10)
            ]
        )
        v = prob.assemble(
            [
                tripod.canonical(
                    {"edge": 1, "t": 0.9 * math.sin(math.pi * k / 10) ** 2}
                )
                for k in range(1, 10)
            ]
        )
        rep = midpoint_test(prob, u, v)
        assert abs(rep.slack) <= 1e-9

    def test_convexity_corollary(self, path_problem):
        xs, _, prob = path_problem
        rng = np.random.default_rng(3)
        u = prob.assemble(rng.normal(0.0, 1.0, (9, 1)))
        v = prob.assemble(rng.normal(0.0, 1.0, (9, 1)))
        mid = prob.blank_values()
        for j in prob.referenced:
            mid[j] = prob.target.geodesic_point(u[j], v[j], 0.5)
        e_m = discrete_energy(prob, mid)
        assert e_m <= 0.5 * (
            discrete_energy(prob, u) + discrete_energy(prob, v)
        ) + 1e-9

    def test_mismatched_boundary_rejected(self, path_problem, tripod):
        xs, _, prob = path_problem
        u = prob.assemble([[x] for x in xs[1:10]])
        v = [None if a is None else a.copy() for a in list(u)]
        v = list(np.asarray(u).copy())
        v[0] = np.array([0.5])
        with pytest.raises(ValidationError, match="boundary"):
            midpoint_test(prob, u, np.asarray(v))


class TestPoincare:
    def test_path_matches_dense_eigensolve(self, path_problem):
        xs, sp, prob = path_problem
        C = poincare_estimate(prob)
        # oracle: dense assembly and generalized eigensolve
        import scipy.linalg as sla

        w = sp.weights
        q = np.zeros((9, 9))
        for row, (x, idx) in enumerate(zip(prob.interior, interior_balls(prob))):
            c = w[x] / (w[idx].sum() * 0.15**2)
            for j in idx:
                if j == x:
                    continue
                cw = c * w[j]
                q[x - 1, x - 1] += cw
                if 1 <= j <= 9:
                    q[j - 1, j - 1] += cw
                    q[x - 1, j - 1] -= cw
                    q[j - 1, x - 1] -= cw
        lam = sla.eigh(q, np.diag(w[1:10]), eigvals_only=True)[0]
        assert C == pytest.approx(1.0 / lam, rel=1e-10)

    def test_single_interior_closed_form(self):
        sp = build_space({"kind": "euclidean", "points": [[0.0], [0.1], [0.2]]})
        prob = DirichletProblem(
            sp, EuclideanTarget(1), [1], {0: [0.0], 2: [0.0]}, 0.15
        )
        C = poincare_estimate(prob)
        w = 1.0 / 3.0
        lam = (w / (3 * w * 0.15**2)) * (w + w) / w
        assert C == pytest.approx(1.0 / lam, rel=1e-12)

    def test_refinement_stabilizes(self):
        values = []
        for n in (21, 41, 81, 161):
            x = np.linspace(0.0, 1.0, n)
            sp = build_space({"kind": "euclidean", "points": x[:, None].tolist()})
            interior = [i for i in range(n) if 0.1 < x[i] < 0.9]
            bd = {i: [0.0] for i in range(n) if not (0.1 < x[i] < 0.9)}
            prob = DirichletProblem(sp, EuclideanTarget(1), interior, bd, 0.08)
            values.append(poincare_estimate(prob))
        assert abs(values[3] - values[2]) < abs(values[2] - values[0])
        assert 0.2 <= values[3] <= 0.4  # regression band at this scale

    def test_disconnected_component_named(self):
        with pytest.raises(ValidationError, match=r"component \[3, 4\]"):
            poincare_estimate(ill_posed_problem())
