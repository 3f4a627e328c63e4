import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kscalc import (
    ConvergenceError,
    EuclideanTarget,
    HyperbolicTarget,
    MetricMap,
    ProductTarget,
    SphereTarget,
    TreeTarget,
    ValidationError,
    barycenter,
    build_space,
    build_target,
    cat0_audit,
    kuratowski_embed,
)
from kscalc import targets as targets_module
from kscalc.serialize import canonical_json


class TestDist:
    def test_euclidean(self):
        t = EuclideanTarget(2)
        assert t.dist([0, 0], [3, 4]) == 5.0

    def test_tripod_leaf_to_leaf(self, tripod, leafA, leafB):
        # oracle: path sum through the hub
        assert tripod.dist(leafA, leafB) == pytest.approx(1.0 + 1.0)

    def test_tree_edge_points(self, tripod):
        p = {"edge": 0, "t": 0.25}  # on hub-A leg, 0.25 from hub
        q = {"edge": 1, "t": 0.5}
        assert tripod.dist(p, q) == pytest.approx(0.75)
        same = {"edge": 0, "t": 0.8}
        assert tripod.dist(p, same) == pytest.approx(0.55)

    def test_hyperbolic_closed_form(self):
        t = HyperbolicTarget()
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        assert t.dist(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_product_norm(self, tripod, leafA, leafB):
        t = ProductTarget([EuclideanTarget(1), tripod])
        a = (np.array([0.0]), leafA)
        b = (np.array([3.0]), leafB)
        assert t.dist(a, b) == pytest.approx(math.sqrt(9.0 + 4.0))

    def test_metric_axioms_on_seeded_triples(self, tripod):
        for t in (EuclideanTarget(3), tripod, HyperbolicTarget()):
            rng = np.random.default_rng(4)
            for _ in range(60):
                a, b, c = (t.random_point(rng) for _ in range(3))
                dab, dba = t.dist(a, b), t.dist(b, a)
                assert dab == pytest.approx(dba, abs=1e-12)
                assert dab >= 0
                assert t.dist(a, c) <= dab + t.dist(b, c) + 1e-9

    def test_tree_needs_an_edge(self):
        with pytest.raises(ValidationError, match="at least one edge"):
            build_target({"kind": "tree", "vertices": 1, "edges": []})

    def test_tree_must_be_connected_acyclic(self):
        with pytest.raises(ValidationError):
            TreeTarget(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(ValidationError):
            TreeTarget(4, [(0, 1, 1.0), (2, 3, 1.0), (2, 3, 2.0)])


class TestGeodesicPoint:
    def test_euclidean_interpolation(self):
        t = EuclideanTarget(2)
        assert np.allclose(t.geodesic_point([0, 0], [2, 0], 0.25), [0.5, 0])

    def test_tripod_midpoint_is_hub(self, tripod, leafA, leafB):
        assert tripod.geodesic_point(leafA, leafB, 0.5) == {"vertex": 0}

    def test_endpoint_contract(self, tripod, leafA, leafB):
        for t, a, b in (
            (tripod, leafA, leafB),
            (EuclideanTarget(2), np.array([1.0, 2.0]), np.array([0.0, 1.0])),
            (
                HyperbolicTarget(),
                HyperbolicTarget.lift([0.3, -0.2]),
                HyperbolicTarget.lift([1.0, 0.7]),
            ),
        ):
            assert t.dist(t.geodesic_point(a, b, 0.0), a) <= 1e-12
            assert t.dist(t.geodesic_point(a, b, 1.0), b) <= 1e-12

    def test_constant_speed_identity(self, tripod):
        targets = [
            EuclideanTarget(3),
            tripod,
            HyperbolicTarget(),
            ProductTarget([EuclideanTarget(2), tripod]),
        ]
        rng = np.random.default_rng(9)
        for t in targets:
            for _ in range(25):
                a, b = t.random_point(rng), t.random_point(rng)
                d = t.dist(a, b)
                for s in (0.1, 0.3, 0.5, 0.77, 0.9):
                    g = t.geodesic_point(a, b, s)
                    assert t.dist(a, g) == pytest.approx(s * d, abs=1e-9)
                    assert t.dist(g, b) == pytest.approx((1 - s) * d, abs=1e-9)


class TestCat0Audit:
    def test_euclidean_parallelogram_case(self):
        t = EuclideanTarget(2)
        y = np.array([0.0, 1.0])
        g0, g1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        gs = t.geodesic_point(g0, g1, 0.5)
        lhs = t.dist(y, gs) ** 2
        rhs = 0.5 * t.dist(y, g0) ** 2 + 0.5 * t.dist(y, g1) ** 2 - 0.25
        assert lhs == pytest.approx(1.25)
        assert rhs == pytest.approx(1.25)

    def test_tripod_comparison_slack(self, tripod, leafA, leafB, leafC):
        gs = tripod.geodesic_point(leafA, leafB, 0.5)
        lhs = tripod.dist(leafC, gs) ** 2
        rhs = (
            0.5 * tripod.dist(leafC, leafA) ** 2
            + 0.5 * tripod.dist(leafC, leafB) ** 2
            - 0.25 * tripod.dist(leafA, leafB) ** 2
        )
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(3.0)

    def test_all_cat0_kinds_clean(self, tripod):
        targets = [
            EuclideanTarget(2),
            tripod,
            HyperbolicTarget(),
            ProductTarget([EuclideanTarget(1), tripod]),
        ]
        for t in targets:
            rep = cat0_audit(t, 500, seed=3)
            assert rep.max_violation <= 1e-9

    def test_sphere_double_violates(self):
        rep = cat0_audit(SphereTarget(), 500, seed=3)
        assert rep.max_violation > 1e-3

    def test_sphere_violation_matches_law_of_cosines(self):
        # quarter-circle geodesic with the pole as reference point
        t = SphereTarget()
        g0 = np.array([1.0, 0.0, 0.0])
        g1 = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 1.0])
        gs = t.geodesic_point(g0, g1, 0.5)
        lhs = t.dist(y, gs) ** 2  # pole is pi/2 from every equator point
        rhs = (
            0.5 * (math.pi / 2) ** 2
            + 0.5 * (math.pi / 2) ** 2
            - 0.25 * (math.pi / 2) ** 2
        )
        assert lhs - rhs == pytest.approx(
            (math.pi / 2) ** 2 - 0.75 * (math.pi / 2) ** 2
        )
        assert lhs - rhs > 1e-3


class TestBarycenter:
    def test_euclidean_mean(self):
        t = EuclideanTarget(2)
        b = barycenter(t, [np.array([0.0, 0.0]), np.array([2.0, 0.0])], [1.0, 1.0])
        assert np.allclose(b, [1.0, 0.0])

    def test_single_point(self, tripod, leafC):
        assert barycenter(tripod, [leafC], [7.0]) == leafC

    def test_tripod_leaves_brute_force(self, tripod, leafA, leafB, leafC):
        b = barycenter(
            tripod, [leafA, leafB, leafC], [1.0, 1.0, 1.0], tol=1e-4,
            max_passes=200_000,
        )
        # oracle: exhaustive minimization over a fine grid of tree positions
        zs = [{"edge": e, "t": tt} for e in range(3) for tt in np.linspace(0.0, 1.0, 2001)]
        vals = _objective(tripod, zs, [leafA, leafB, leafC], np.ones(3))
        assert tripod.dist(b, zs[int(np.argmin(vals))]) <= 5e-4

    def test_two_point_barycenter_matches_geodesic(self, tripod):
        rng = np.random.default_rng(2)
        for t in (tripod, HyperbolicTarget()):
            for _ in range(10):
                a, b = t.random_point(rng), t.random_point(rng)
                s = float(rng.uniform(0.1, 0.9))
                bary = barycenter(t, [a, b], [1.0 - s, s], tol=1e-10)
                # hyperbolic arccosh has a ~1e-8 noise floor near equality
                assert t.dist(bary, t.geodesic_point(a, b, s)) <= 1e-7

    def test_variance_inequality(self, tripod):
        rng = np.random.default_rng(8)
        pts = [tripod.random_point(rng) for _ in range(5)]
        w = rng.uniform(0.5, 2.0, 5)
        b = barycenter(tripod, pts, w, tol=1e-6, max_passes=200_000)
        fb = sum(wi * tripod.dist(b, p) ** 2 for wi, p in zip(w, pts))
        for _ in range(30):
            y = tripod.random_point(rng)
            fy = sum(wi * tripod.dist(y, p) ** 2 for wi, p in zip(w, pts))
            assert fy >= fb + w.sum() * tripod.dist(b, y) ** 2 - 1e-9

    def test_nonconvergence_carries_iterate(self):
        # three points off one geodesic: one Newton step does not converge
        t = HyperbolicTarget()
        pts = t.lift(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            barycenter(t, pts, [1, 1, 1], tol=1e-10, max_passes=1)
        last = exc.value.last
        assert last.shape == (3,) and not t._off(last)
        # its last step was not short, and the iterate is not yet optimal
        assert exc.value.residual >= 1e-10
        assert _karcher_residual(last, pts, np.ones(3)) > 1e-10

    def test_tripod_three_legs_meet_at_the_hub(self, tripod):
        # the inductive mean never settled here; the exact minimizer is the hub
        legs = [{"edge": k, "t": 0.5} for k in range(3)]
        assert barycenter(tripod, legs, [1, 1, 1]) == {"vertex": 0}
        rows = tripod.pack([{"vertex": 1}, *legs, {"vertex": 2}])
        got = tripod.barycenters(rows, [0, 1, 4, 5], np.ones(5), tol=1e-9, max_passes=50)
        assert np.array_equal(got, tripod.pack([{"vertex": v} for v in (1, 0, 2)]))

    def test_sphere_has_no_barycenter(self):
        t = SphereTarget()
        pts = np.eye(3)
        with pytest.raises(ValidationError, match="CAT\\(0\\)"):
            barycenter(t, pts, [1, 1, 1])
        with pytest.raises(ValidationError, match="CAT\\(0\\)"):
            barycenter(ProductTarget([EuclideanTarget(1), t]), [(np.zeros(1), pts[0])], [1])
        with pytest.raises(NotImplementedError):
            t.barycenters(pts, [0, 3], np.ones(3))


def _inductive_mean(t, pts, w, tol, max_passes=10_000):
    """Sturm's inductive mean on point objects: the estimate cycles through
    the points, stepping toward each by the running weight fraction, until
    a full pass moves it less than ``tol``.  Its passes shrink like 1/k, so
    it is an oracle only where it settles (points on one geodesic)."""
    pts = [t.canonical(p) for p in pts]
    z, running = pts[0], 0.0
    for _ in range(max_passes if len(pts) > 1 else 0):
        start = z
        for q, wq in zip(pts, w):
            running += wq
            z = t.geodesic_point(z, q, wq / running)
        if t.dist(start, z) < tol:
            break
    return z


def _objective(t, zs, pts, w):
    """The weighted squared-distance sums at the points zs."""
    return t.dists(t.pack(zs)[:, None], t.pack(pts)[None, :], squared=True) @ w


def _tree_brute_force(t, pts, w):
    """The least objective over the tree and a point attaining it: on each
    edge a grid of offsets, narrowed to the two cells around its least
    value until it is below rounding (the objective is convex along an
    edge, so the minimizer stays inside)."""
    best = (math.inf, None)
    for e, (_u, _v, length) in enumerate(t.edges):
        lo, hi = 0.0, length
        # each pass narrows the bracket twentyfold
        for _ in range(14):
            grid = np.linspace(lo, hi, 41)
            f = _objective(t, [{"edge": e, "t": s} for s in grid], pts, w)
            k = int(np.argmin(f))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 40)]
        z = t.canonical({"edge": e, "t": grid[k]})
        best = min(best, (float(f[k]), z), key=lambda b: b[0])
    return best


def _karcher_residual(x, pts, w):
    """First-order optimality of x for the hyperbolic objective:
    |sum w log_x p| / sum w.  The Lorentz boost L that takes x to (1, 0, 0)
    takes p to a point whose plane part z has log asinh(|z|) z / |z| there;
    z is taken as L (p - x), which loses nothing to cancellation."""
    x0, x1, x2 = (float(c) for c in x)
    k = 1.0 / (1.0 + x0)
    L = np.array([[-x1, 1.0 + k * x1 * x1, k * x1 * x2], [-x2, k * x1 * x2, 1.0 + k * x2 * x2]])
    g = np.zeros(2)
    for wi, p in zip(w, pts):
        z = L @ (np.asarray(p, dtype=float) - np.asarray(x, dtype=float))
        r = math.hypot(*z)
        if r > 0.0:
            g += wi * math.asinh(r) / r * z
    return math.hypot(*g) / float(np.sum(w))


class TestBarycenters:
    """Ragged batched barycenters against one barycenter per group."""

    SIZES = [3, 1, 9, 2, 5, 1, 7, 4, 8, 6]
    TOL = 1e-7

    def rows(self, t, rng):
        """Group after group of points whose barycenters converge quickly:
        clustered on the hyperboloid, and on two legs of the tripod (a
        geodesic line, a different pair for each group)."""
        n = sum(self.SIZES)
        if t.kind == "product":
            return np.concatenate([self.rows(c, rng) for c in t.components], axis=1)
        if t.kind == "hyperbolic":
            return t.lift(rng.normal(0.0, 0.4, (n, 2)))
        if t.kind == "tree":
            legs = np.repeat(np.arange(len(self.SIZES)) % 3, self.SIZES)
            edge = np.where(rng.random(n) < 0.5, legs, (legs + 1) % 3)
            return t.pack([{"edge": int(e), "t": x} for e, x in zip(edge, rng.random(n))])
        return t.random_points(rng, n)

    def groups(self, t, seed):
        rng = np.random.default_rng(seed)
        rows = self.rows(t, rng)
        w = rng.uniform(0.5, 2.0, rows.shape[0])
        ptr = np.concatenate([[0], np.cumsum(self.SIZES)])
        return rows, ptr, w

    @pytest.fixture(params=["euclidean", "tree", "hyperbolic", "product"])
    def target(self, request, tripod):
        return {
            "euclidean": EuclideanTarget(3),
            "tree": tripod,
            "hyperbolic": HyperbolicTarget(),
            "product": ProductTarget([EuclideanTarget(2), tripod, HyperbolicTarget()]),
        }[request.param]

    def test_rows_match_one_group_barycenters(self, target):
        rows, ptr, w = self.groups(target, 3)
        got = target.barycenters(rows, ptr, w, self.TOL)
        assert got.shape == (len(self.SIZES), target.width)
        exact = target.kind in ("tree", "hyperbolic")
        for k, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
            expect = target.pack([barycenter(target, rows[a:b], w[a:b], tol=self.TOL)])[0]
            if exact:
                assert np.array_equal(got[k], expect)
            else:
                assert np.abs(got[k] - expect).max() <= 1e-15
            assert target.dist(got[k], expect) <= 1e-15
            # optimality oracles for the two kinds that do not average
            if target.kind == "tree":
                f_min, z = _tree_brute_force(target, rows[a:b], w[a:b])
                assert _objective(target, got[k : k + 1], rows[a:b], w[a:b])[0] <= f_min + 1e-12
                assert target.dist(got[k], z) <= 1e-7
            if target.kind == "hyperbolic":
                assert _karcher_residual(got[k], rows[a:b], w[a:b]) <= 1e-11

    def test_euclidean_rows_are_weighted_means(self):
        t = EuclideanTarget(3)
        rows, ptr, w = self.groups(t, 4)
        got = t.barycenters(rows, ptr, w)
        for k, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
            mean = (w[a:b, None] * rows[a:b]).sum(axis=0) / w[a:b].sum()
            assert np.abs(got[k] - mean).max() <= 1e-15

    def test_product_rows_are_componentwise(self, tripod):
        comps = [EuclideanTarget(2), tripod, HyperbolicTarget()]
        t = ProductTarget(comps)
        rows, ptr, w = self.groups(t, 5)
        got = t.barycenters(rows, ptr, w, self.TOL)
        for c, cols in zip(comps, t._slices):
            assert np.array_equal(got[:, cols], c.barycenters(rows[:, cols], ptr, w, self.TOL))

    def test_one_row_group_is_its_own_barycenter(self, tripod):
        for t in (tripod, HyperbolicTarget()):
            rows = t.random_points(np.random.default_rng(6), 3)
            got = t.barycenters(rows, [0, 1, 3], np.array([7.0, 1.0, 1.0]), self.TOL)
            assert np.array_equal(got[0], rows[0])

    def test_agree_with_inductive_mean_on_geodesic_groups(self, tripod):
        # on one geodesic the inductive mean settles, and the two agree
        for t in (tripod, HyperbolicTarget()):
            rows, ptr, w = self.groups(t, 7)
            if t.kind == "hyperbolic":
                # points on the geodesic through the origin along x1
                rows = t.lift(np.stack([rows[:, 1], np.zeros(len(rows))], axis=1))
            got = t.barycenters(rows, ptr, w, 1e-12)
            for k, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
                oracle = _inductive_mean(t, rows[a:b], w[a:b], 1e-12, max_passes=100_000)
                assert t.dist(got[k], oracle) <= 1e-9


class TestKuratowski:
    def test_base_maps_to_origin(self, tripod):
        rng = np.random.default_rng(1)
        lms = [tripod.random_point(rng) for _ in range(5)]
        base = tripod.random_point(rng)
        assert np.abs(kuratowski_embed(tripod, lms, base, base)).max() == 0.0

    def test_one_lipschitz_sup_norm(self, tripod):
        for t in (EuclideanTarget(2), tripod, HyperbolicTarget()):
            rng = np.random.default_rng(6)
            lms = [t.random_point(rng) for _ in range(6)]
            base = t.random_point(rng)
            for _ in range(40):
                a, b = t.random_point(rng), t.random_point(rng)
                ea = kuratowski_embed(t, lms, base, a)
                eb = kuratowski_embed(t, lms, base, b)
                assert np.abs(ea - eb).max() <= t.dist(a, b) + 1e-12

    def test_exact_on_landmark_pairs(self, tripod):
        rng = np.random.default_rng(7)
        lms = [tripod.random_point(rng) for _ in range(4)]
        base = tripod.random_point(rng)
        ea = kuratowski_embed(tripod, lms, base, lms[0])
        eb = kuratowski_embed(tripod, lms, base, lms[1])
        assert np.abs(ea - eb).max() == pytest.approx(
            tripod.dist(lms[0], lms[1]), abs=1e-12
        )

    def test_empty_landmarks_rejected(self, tripod, leafA):
        with pytest.raises(ValidationError):
            kuratowski_embed(tripod, [], leafA, leafA)


class TestSerialKinds:
    def test_build_target_round_trip(self, tripod):
        tripod_json = {"kind": "tree", "vertices": 4,
                       "edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0]]}
        for t, spec in (
            (EuclideanTarget(3), {"kind": "euclidean", "dim": 3}),
            (tripod, tripod_json),
            (HyperbolicTarget(), {"kind": "hyperbolic"}),
            (ProductTarget([EuclideanTarget(2), tripod]),
             {"kind": "product", "components": [{"kind": "euclidean", "dim": 2}, tripod_json]}),
            (ProductTarget([ProductTarget([HyperbolicTarget()]), SphereTarget()]),
             {"kind": "product", "components": [
                 {"kind": "product", "components": [{"kind": "hyperbolic"}]},
                 {"kind": "sphere"}]}),
            (SphereTarget(), {"kind": "sphere"}),
        ):
            assert t.to_json() == spec
            t2 = build_target(t.to_json())
            assert type(t2) is type(t) and t2.to_json() == spec
            rng = np.random.default_rng(0)
            p = t.random_point(rng)
            assert t.dist(p, t2.canonical(p)) <= 1e-12

    def test_tree_point_canonicalization(self, tripod):
        # edge endpoint aliases resolve to the vertex form
        assert tripod.canonical({"edge": 0, "t": 0.0}) == {"vertex": 0}
        assert tripod.canonical({"edge": 0, "t": 1.0}) == {"vertex": 1}

    def test_hyperbolic_point_validation(self):
        t = HyperbolicTarget()
        with pytest.raises(ValidationError):
            t.canonical([1.5, 0.0, 0.0])


KERNEL_KINDS = ["euclidean", "tree", "hyperbolic", "product", "sphere"]


def kernel_case(kind, tripod, seed, n):
    """A target of the kind and n seeded points, vertices included on trees."""
    target = {
        "euclidean": lambda: EuclideanTarget(3),
        "tree": lambda: tripod,
        "hyperbolic": HyperbolicTarget,
        "product": lambda: ProductTarget(
            [EuclideanTarget(2), tripod, HyperbolicTarget()]
        ),
        "sphere": SphereTarget,
    }[kind]()
    rng = np.random.default_rng(seed)
    pts = [target.random_point(rng) for _ in range(n)]
    if kind == "tree":
        pts[:4] = [{"vertex": v} for v in range(4)]
    if kind == "product":
        for k in range(2):
            pts[k] = (pts[k][0], {"vertex": k}, pts[k][2])
    return target, pts


def _tree_reference(t, points):
    """Distances between tree points: shortest paths in the tree with each
    point inside an edge spliced into that edge as a node."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    pts = [t.canonical(p) for p in points]
    cuts = {}
    for p in pts:
        if "edge" in p:
            cuts.setdefault(p["edge"], set()).add(p["t"])
    node, n = {}, t.n_vertices
    for e, offsets in cuts.items():
        for x in offsets:
            node[e, x], n = n, n + 1
    i, j, w = [], [], []
    for e, (u, v, length) in enumerate(t.edges):
        chain = [(0.0, u), *((x, node[e, x]) for x in sorted(cuts.get(e, ()))), (length, v)]
        for (x0, a), (x1, b) in zip(chain, chain[1:]):
            i.append(a)
            j.append(b)
            w.append(x1 - x0)
    D = shortest_path(coo_matrix((w, (i, j)), shape=(n, n)), method="D", directed=False)
    idx = [p["vertex"] if "vertex" in p else node[p["edge"], p["t"]] for p in pts]
    return D[np.ix_(idx, idx)]


def _reference_dists(t, xs, ys):
    """Distances from every point of xs to every point of ys by formulas
    that share no code with the kernels."""
    if t.kind == "product":
        parts = [
            _reference_dists(c, [x[k] for x in xs], [y[k] for y in ys])
            for k, c in enumerate(t.components)
        ]
        return np.sqrt(sum(d**2 for d in parts))
    if t.kind == "tree":
        return _tree_reference(t, [*xs, *ys])[: len(xs), len(xs) :]
    X, Y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if t.kind == "euclidean":
        return np.asarray([[math.dist(a, b) for b in Y] for a in X])
    if t.kind == "hyperbolic":
        # arccosh of the Minkowski product
        m = np.outer(X[:, 0], Y[:, 0]) - np.outer(X[:, 1], Y[:, 1]) - np.outer(X[:, 2], Y[:, 2])
        return np.arccosh(np.maximum(m, 1.0))
    d = np.arccos(np.clip(X @ Y.T, -1.0, 1.0))
    # arccos of the dot product is accurate only away from 0 and pi
    assert np.all((d > 1e-2) & (d < math.pi - 1e-2))
    return d


def _assert_matches_reference(kind, got, ref):
    # arccosh near 1 loses digits, so hyperbolic references hold to 1e-9
    rtol = 1e-9 if kind in ("hyperbolic", "product") else 1e-12
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=1e-12)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
class TestPackedDists:
    """The batched kernel against independent reference formulas
    (``_reference_dists``), in all three shapes."""

    def test_block(self, kind, tripod):
        t, xs = kernel_case(kind, tripod, 1, 12)
        _, ys = kernel_case(kind, tripod, 2, 9)
        px, py = t.pack(xs), t.pack(ys)
        assert px.shape == (12, t.width)
        ref = _reference_dists(t, xs, ys)
        block = t.dists(px[:, None], py[None, :])
        assert block.shape == (12, 9)
        _assert_matches_reference(kind, block, ref)
        sq = t.dists(px[:, None], py[None, :], squared=True)
        _assert_matches_reference(kind, np.sqrt(sq), ref)

    def test_one_to_many(self, kind, tripod):
        t, xs = kernel_case(kind, tripod, 3, 10)
        p = t.pack(xs)
        for i in (0, 5, 9):
            others = [k for k in range(10) if k != i]
            ref = _reference_dists(t, [xs[i]], [xs[k] for k in others])[0]
            _assert_matches_reference(kind, t.dists(p[i], p[others]), ref)

    def test_elementwise(self, kind, tripod):
        t, xs = kernel_case(kind, tripod, 4, 10)
        _, ys = kernel_case(kind, tripod, 5, 10)
        ref = np.diag(_reference_dists(t, xs, ys))
        _assert_matches_reference(kind, t.dists(t.pack(xs), t.pack(ys)), ref)


def test_tree_dists_match_shortest_paths_on_random_trees():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        # each vertex hangs from an earlier one
        edges = [(int(rng.integers(0, v)), v, rng.uniform(0.1, 2.0)) for v in range(1, n)]
        t = TreeTarget(n, edges)
        pts = [{"vertex": int(v)} for v in rng.integers(0, n, 3)]
        pts += [t.random_point(rng) for _ in range(12)]
        P = t.pack(pts)
        _assert_matches_reference("tree", t.dists(P[:, None], P[None, :]), _tree_reference(t, pts))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_packed_dists_exactly_zero_on_identical_points(kind, tripod):
    t, xs = kernel_case(kind, tripod, 6, 10)
    p = t.pack(xs)
    assert np.all(t.dists(p, p) == 0.0)
    assert np.all(np.diag(t.dists(p[:, None], p[None, :])) == 0.0)
    assert all(t.dist(a, a) == 0.0 for a in xs)


class TestSmallDistances:
    def test_hyperbolic_resolves_tiny_distances(self):
        # a and b lie exactly on the hyperboloid (up to 4e-21 in x0), so
        # cosh d = 1 + h^2/2 and d = h to first order
        t = HyperbolicTarget()
        a = np.array([1.25, 0.75, 0.0])
        for h in (1e-10, 1e-12, 3e-9):
            b = np.array([1.25, 0.75, h])
            assert t.dist(a, b) == pytest.approx(h, rel=1e-6)
            assert t.dists(a, b) == pytest.approx(h, rel=1e-6)

    def test_hyperbolic_equal_points_exactly_zero(self):
        t = HyperbolicTarget()
        p = t.random_points(np.random.default_rng(3), 50)
        assert np.all(t.dists(p, p) == 0.0)
        assert all(t.dist(x, x) == 0.0 for x in p)

    def test_sphere_accurate_near_antipodes(self):
        t = SphereTarget()
        for eps in (1e-9, 1e-12):
            b = np.array([-math.cos(eps), math.sin(eps), 0.0])
            assert t.dist(np.array([1.0, 0.0, 0.0]), b) == pytest.approx(math.pi - eps, abs=1e-15)


class TestNonFiniteInput:
    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_tree_edge_length(self, length):
        with pytest.raises(ValidationError, match="edge 1"):
            TreeTarget(3, [(0, 1, 1.0), (1, 2, length)])

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_tree_spec_from_json(self, literal):
        spec = json.loads(f'{{"kind": "tree", "vertices": 2, "edges": [[0, 1, {literal}]]}}')
        with pytest.raises(ValidationError):
            build_target(spec)

    @pytest.mark.parametrize(
        "target, point",
        [
            (EuclideanTarget(2), [0.0, float("nan")]),
            (EuclideanTarget(2), [float("inf"), 0.0]),
            (HyperbolicTarget(), [float("nan"), 0.0, 0.0]),
            (HyperbolicTarget(), [1.0, float("nan"), 0.0]),
            (SphereTarget(), [float("nan"), 0.0, 0.0]),
        ],
    )
    def test_canonical_rejects(self, target, point):
        with pytest.raises(ValidationError):
            target.canonical(point)

    def test_hyperbolic_overflowing_point_is_off(self):
        # its squares overflow to inf, and inf - inf is NaN: no warning, and
        # no NaN that passes the hyperboloid check
        t = HyperbolicTarget()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="index 0:") as exc:
                t.pack([[1e200, 1e200, 0.0], [1.0, 0.0, 0.0]])
            assert exc.value.detail == 0
            with pytest.raises(ValidationError, match="hyperboloid"):
                t.canonical([1e200, 1e200, 0.0])

    def test_map_value_names_its_index(self):
        space = build_space({"kind": "euclidean", "points": [[0.0], [0.5], [1.0]]})
        values = [[0.0, 0.0], [1.0, 1.0], [float("nan"), 2.0]]
        with pytest.raises(ValidationError, match="index 2") as exc:
            MetricMap(space, EuclideanTarget(2), values)
        assert exc.value.detail == 2


# -- batched geodesics and random points ------------------------------------

SPIDER = TreeTarget(
    7, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 2.0), (0, 4, 0.75), (4, 5, 1.25), (4, 6, 0.3)]
)


def _tree_point(e, frac):
    return SPIDER.canonical({"edge": e, "t": frac * SPIDER.edges[e][2]})


_coord = st.floats(-3.0, 3.0)
_unit = st.floats(0.0, 1.0)
_points = {
    "euclidean": st.lists(_coord, min_size=3, max_size=3).map(np.array),
    "tree": st.one_of(
        st.integers(0, 6).map(lambda v: {"vertex": v}),
        st.builds(_tree_point, st.integers(0, 5), _unit),
    ),
    "hyperbolic": st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(
        lambda x: HyperbolicTarget.lift(np.array(x))
    ),
    "sphere": st.lists(_coord, min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v)),
}
_points["product"] = st.tuples(
    st.lists(_coord, min_size=2, max_size=2).map(np.array),
    _points["tree"],
    _points["hyperbolic"],
)
_same_edge = st.builds(
    lambda e, f, g: (_tree_point(e, f), _tree_point(e, g)), st.integers(0, 5), _unit, _unit
)
_special = {
    "tree": _same_edge,
    "sphere": _points["sphere"].map(lambda a: (a, -a)),  # antipodes
    "product": st.tuples(_same_edge, _points["hyperbolic"]).map(
        lambda p: ((np.zeros(2), p[0][0], p[1]), (np.ones(2), p[0][1], p[1]))
    ),
}
_GEO_TARGETS = {
    "euclidean": EuclideanTarget(3),
    "tree": SPIDER,
    "hyperbolic": HyperbolicTarget(),
    "product": ProductTarget([EuclideanTarget(2), SPIDER, HyperbolicTarget()]),
    "sphere": SphereTarget(),
}


def _pairs(kind):
    p = _points[kind]
    options = [st.tuples(p, p), p.map(lambda a: (a, a))]
    if kind in _special:
        options.append(_special[kind])
    return st.lists(st.one_of(*options), min_size=1, max_size=6)


_s = st.one_of(st.sampled_from([0.0, 1.0]), _unit)
# parameters beyond the ends clamp to them
_s_any = st.one_of(_s, st.sampled_from([-0.5, 1.5]))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
class TestBatchedGeodesics:
    """A batch of ``geodesics`` equals its rows taken one pair at a time
    (``geodesic_point`` is the one-pair call), bit for bit; the points
    themselves are checked by ``test_geodesics_constant_speed``."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_geodesic_point(self, kind, data):
        t = _GEO_TARGETS[kind]
        pairs = data.draw(_pairs(kind))
        s = data.draw(_s_any)
        A = t.pack([a for a, _ in pairs])
        B = t.pack([b for _, b in pairs])
        G = t.geodesics(A, B, s)
        assert G.shape == A.shape
        assert np.array_equal(G, t.pack([t.geodesic_point(a, b, s) for a, b in pairs]))

    def test_broadcasts_one_row_against_many(self, kind, tripod):
        t, xs = kernel_case(kind, tripod, 11, 8)
        p = t.pack(xs)
        G = t.geodesics(p[0], p[1:], 0.3)
        assert G.shape == (7, t.width)
        assert np.array_equal(G, np.array([t.geodesics(p[0], q, 0.3) for q in p[1:]]))


@pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_geodesics_constant_speed(kind, data):
    t = _GEO_TARGETS[kind]
    pairs = data.draw(_pairs(kind))
    s = data.draw(_s)
    A = t.pack([a for a, _ in pairs])
    B = t.pack([b for _, b in pairs])
    d = t.dists(A, B)
    G = t.geodesics(A, B, s)
    assert np.allclose(t.dists(A, G), s * d, rtol=1e-9, atol=1e-9)
    assert np.allclose(t.dists(G, B), (1 - s) * d, rtol=1e-9, atol=1e-9)
    if kind == "tree":
        # canonical rows: a point at an edge end is its vertex
        assert np.array_equal(t.pack(G), G)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_random_points_reproduce_sequential_draws(kind, tripod):
    t, _ = kernel_case(kind, tripod, 0, 2)
    r1, r2 = np.random.default_rng(21), np.random.default_rng(21)
    block = t.random_points(r1, 37)
    seq = t.pack([t.random_point(r2) for _ in range(37)])
    assert np.array_equal(block, seq)
    # the generators were left in the same state
    assert r1.random() == r2.random()


@st.composite
def _random_trees(draw):
    """Trees of 2 to 12 vertices, each vertex after the first hung from an
    earlier one under shuffled labels (paths, stars and everything between),
    with edge lengths over six decades."""
    n = draw(st.integers(2, 12))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    label = draw(st.permutations(range(n)))
    lengths = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    return TreeTarget(n, [(label[p], label[v], l)
                          for v, p, l in zip(range(1, n), parents, lengths)])


_leaf_targets = st.one_of(st.integers(1, 4).map(EuclideanTarget), _random_trees(),
                          st.just(HyperbolicTarget()), st.just(SphereTarget()))
# products of every kind in a drawn order, and at times more components
_sampled_targets = st.one_of(
    _leaf_targets,
    st.builds(lambda four, more: ProductTarget(four + more),
              st.tuples(st.integers(1, 4).map(EuclideanTarget), _random_trees(),
                        st.just(HyperbolicTarget()), st.just(SphereTarget()))
              .map(list).flatmap(st.permutations),
              st.lists(_leaf_targets, max_size=2)),
)


def _tree_parts(t, rows):
    """(tree, its columns of rows) for every tree of a target, a product's included."""
    if t.kind == "tree":
        return [(t, rows)]
    if t.kind == "product":
        return [p for c, cols in zip(t.components, t._slices) for p in _tree_parts(c, rows[:, cols])]
    return []


@settings(max_examples=60, deadline=None)
@given(t=_sampled_targets, k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_random_points_are_canonical_rows_drawn_as_one_block(t, k, seed):
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = t.random_points(r1, k)
    assert rows.shape == (k, t.width)
    assert np.array_equal(t.pack(rows), rows)
    for tree, part in _tree_parts(t, rows):
        on = part[:, 4] >= 0
        offsets = part[on, 5]
        assert np.all((offsets >= 0.0) & (offsets <= tree._len[part[on, 4].astype(int)]))
    seq = t.pack([t.random_point(r2) for _ in range(k)])
    assert np.array_equal(rows, seq)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_tree_draws_are_uniform_over_edges_and_offsets():
    # SPIDER's six edges have lengths 0.3 to 2: draws pick an edge
    # uniformly, not by length, and a uniform offset on it.  Each share
    # lies within 0.01 of 1/6 and each mean offset within 0.01 l of l / 2:
    # 8 and 4 standard deviations of 10^5 draws
    rows = SPIDER.random_points(np.random.default_rng(0), 100_000)
    edge = rows[:, 4].astype(int)
    assert np.all(edge >= 0)
    share = np.bincount(edge, minlength=6) / rows.shape[0]
    assert np.all(np.abs(share - 1.0 / 6.0) <= 0.01)
    for e, l in enumerate(SPIDER._len):
        assert abs(rows[edge == e, 5].mean() / l - 0.5) <= 0.01


@pytest.mark.parametrize("t", [EuclideanTarget(3), HyperbolicTarget(), SphereTarget()],
                         ids=["euclidean", "hyperbolic", "sphere"])
def test_coordinate_draws_map_one_normal_block(t):
    # a pin on these kinds' stream: their seeded audits keep their outputs
    for seed in (0, 5, 21):
        rows = t.random_points(np.random.default_rng(seed), 50)
        D = np.random.default_rng(seed).normal(0.0, 1.0, (50, t._draw_width))
        assert rows.tobytes() == t._from_draws(D).tobytes()


class _CountingRng:
    """A generator that counts the calls of each of its methods by name."""

    def __init__(self, rng):
        self._rng, self.calls = rng, {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cat0_audit_draws_one_normal_block_per_chunk(kind, tripod, monkeypatch):
    t, _ = kernel_case(kind, tripod, 0, 2)
    expected = cat0_audit(t, 2100, seed=9, s_steps=1)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingRng(default_rng(seed))) or made[-1])
    assert cat0_audit(t, 2100, seed=9, s_steps=1) == expected
    # 2,100 samples are blocks of 1,024, 1,024 and 52
    assert [rng.calls for rng in made] == [{"normal": 3}]


def _cat0_oracle(target, n_samples, seed, s_steps):
    """The audit as one scalar loop over samples."""
    rng = np.random.default_rng(seed)
    svals = np.linspace(0.0, 1.0, s_steps + 2)
    worst_pt = -np.inf
    worst_geo = -np.inf
    for _ in range(n_samples):
        g0 = target.random_point(rng)
        g1 = target.random_point(rng)
        y = target.random_point(rng)
        h0 = target.random_point(rng)
        h1 = target.random_point(rng)
        d01 = target.dist(g0, g1)
        dy0 = target.dist(y, g0)
        dy1 = target.dist(y, g1)
        dh = target.dist(h0, h1)
        d00 = target.dist(g0, h0)
        d11 = target.dist(g1, h1)
        for s in svals:
            gs = target.geodesic_point(g0, g1, s)
            lhs = target.dist(y, gs) ** 2
            rhs = (1 - s) * dy0**2 + s * dy1**2 - s * (1 - s) * d01**2
            worst_pt = max(worst_pt, lhs - rhs)
            hs = target.geodesic_point(h0, h1, s)
            lhs2 = target.dist(gs, hs) ** 2
            rhs2 = (1 - s) * d00**2 + s * d11**2 - s * (1 - s) * (d01 - dh) ** 2
            worst_geo = max(worst_geo, lhs2 - rhs2)
    return worst_pt, worst_geo


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cat0_audit_matches_scalar_loop(kind, tripod, monkeypatch):
    t, _ = kernel_case(kind, tripod, 0, 2)
    # 150 samples in blocks of 64: two full blocks and a partial one
    monkeypatch.setattr(targets_module, "_AUDIT_CHUNK", 64)
    rep = cat0_audit(t, 150, seed=17, s_steps=4)
    pt, geo = _cat0_oracle(t, 150, 17, 4)
    assert abs(rep.max_point_violation - pt) <= 1e-12
    assert abs(rep.max_geodesic_violation - geo) <= 1e-12
    monkeypatch.undo()
    whole = cat0_audit(t, 150, seed=17, s_steps=4)
    assert whole == rep


def test_cat0_audit_rejects_negative_s_steps():
    with pytest.raises(ValidationError):
        cat0_audit(EuclideanTarget(2), 10, s_steps=-2)
    rep = cat0_audit(EuclideanTarget(2), 10, s_steps=0)
    assert np.isfinite(rep.max_violation)


# -- pack: one validating pass per kind --------------------------------------


def _oracle_row(t, p):
    """The per-value path pack replaces: ``canonical``, then the point's row.

    Packed rows of valid points are read as the points they hold.  The
    sphere keeps a valid point as given, where the per-value path divided
    it by its norm (see ``SphereTarget``).
    """
    if t.kind == "product":
        if isinstance(p, np.ndarray):
            p = np.split(p, np.cumsum([c.width for c in t.components])[:-1])
        if len(p) != len(t.components):
            raise ValidationError("component count mismatch")
        return np.concatenate([_oracle_row(c, q) for c, q in zip(t.components, p)])
    if t.kind == "tree":
        if isinstance(p, np.ndarray):
            p = {"vertex": int(p[0])} if p[4] < 0 else {"edge": int(p[4]), "t": p[5]}
        if "vertex" in p:
            x = p["vertex"]
            if not 0 <= x < t.n_vertices or x != int(x):
                raise ValidationError("vertex index out of range or not an integer")
            return np.array([x, x, 0.0, 0.0, -1.0, 0.0])
        e, x = p["edge"], p["t"]
        if not 0 <= e < len(t.edges) or e != int(e):
            raise ValidationError("edge index out of range or not an integer")
        u, v, length = t.edges[int(e)]
        if not -1e-12 <= x <= length + 1e-12:
            raise ValidationError("edge offset outside the edge length")
        s = min(max(x, 0.0), length)
        if s == 0.0 or s == length:
            w = u if s == 0.0 else v
            return np.array([w, w, 0.0, 0.0, -1.0, 0.0])
        return np.array([u, v, s, length - s, e, s])
    p = np.asarray(p, dtype=float).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise ValidationError("point coordinates must be finite")
    if p.shape[0] != t.width:
        raise ValidationError("wrong dimension")
    if t.kind == "hyperbolic" and (
        p[0] <= 0 or abs(p[0] * p[0] - p[1] * p[1] - p[2] * p[2] - 1.0) > 1e-9
    ):
        raise ValidationError("point off the hyperboloid beyond 1e-9")
    if t.kind == "sphere" and abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise ValidationError("point off the unit sphere beyond 1e-9")
    return p


def _spoiled(points):
    """Points with one coordinate made NaN or infinite."""

    def spoil(p, k, x):
        p = p.copy()
        p[k % p.size] = x
        return p

    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    return st.builds(spoil, points, st.integers(0, 5), bad)


def _edge_point(e, at_end, past):
    """A point ``past`` beyond one end of edge e (negative: inside)."""
    length = SPIDER.edges[e][2]
    return {"edge": e, "t": length + past if at_end else -past}


_pack_values = {
    "euclidean": st.one_of(_points["euclidean"], _spoiled(_points["euclidean"])),
    "tree": st.one_of(
        _points["tree"],
        # edge ends, which become vertices
        st.builds(
            lambda e, end: {"edge": e, "t": SPIDER.edges[e][2] if end else 0.0},
            st.integers(0, 5),
            st.booleans(),
        ),
        # offsets up to 1e-12 outside an edge are clamped onto it, farther are bad
        st.builds(_edge_point, st.integers(0, 5), st.booleans(), st.floats(-1e-12, 3e-12)),
        st.integers(-2, 9).map(lambda v: {"vertex": v}),
        # a non-integral index is bad, an integral float is its integer
        st.sampled_from([0.5, 1.7, 2.0, 3.0 + 1e-9]).map(lambda v: {"vertex": v}),
        st.sampled_from([0.9, 2.0, 4.5]).map(lambda e: {"edge": e, "t": 0.2}),
        st.builds(
            lambda e, t: {"edge": e, "t": t},
            st.integers(-2, 8),
            st.sampled_from([0.3, math.nan, math.inf, -math.inf]),
        ),
        _points["tree"].map(lambda p: _oracle_row(SPIDER, p)),
    ),
    "hyperbolic": st.one_of(
        _points["hyperbolic"],
        # x0 moved by eps / (2 x0): off the hyperboloid by about eps
        st.builds(
            lambda p, eps: p + np.array([eps / (2.0 * p[0]), 0.0, 0.0]),
            _points["hyperbolic"],
            st.floats(-3e-9, 3e-9),
        ),
        _points["hyperbolic"].map(lambda p: -p),
        _spoiled(_points["hyperbolic"]),
    ),
    "sphere": st.one_of(
        _points["sphere"],
        st.builds(lambda p, eps: p * (1.0 + eps), _points["sphere"], st.floats(-3e-9, 3e-9)),
        _spoiled(_points["sphere"]),
    ),
}
_plane = st.lists(_coord, min_size=2, max_size=2).map(np.array)
_pack_values["product"] = st.one_of(
    st.tuples(
        st.one_of(_plane, _spoiled(_plane)),
        _pack_values["tree"],
        _pack_values["hyperbolic"],
    ),
    _points["product"].map(lambda p: _oracle_row(_GEO_TARGETS["product"], p)),
)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pack_matches_per_value_canonical(kind, data):
    t = _GEO_TARGETS[kind]
    values = data.draw(st.lists(_pack_values[kind], min_size=1, max_size=8))
    oracle, first_bad = [], None
    for k, v in enumerate(values):
        try:
            oracle.append(_oracle_row(t, v))
        except ValidationError:
            first_bad = k
            break
    if first_bad is None:
        rows = t.pack(values)
        assert rows.shape == (len(values), t.width)
        assert rows.tobytes() == np.asarray(oracle, dtype=float).tobytes()
        # packed rows pack to themselves, the scalar API reads them, and
        # canonical reads each value as pack does
        assert t.pack(rows).tobytes() == rows.tobytes()
        assert all(t.dist(row, v) == 0.0 for row, v in zip(rows, values))
        assert t.pack([t.canonical(v) for v in values]).tobytes() == rows.tobytes()
    else:
        with pytest.raises(ValidationError, match=f"index {first_bad}:") as exc:
            t.pack(values)
        assert exc.value.detail == first_bad
        with pytest.raises(ValidationError, match="^(?!value at)"):
            t.canonical(values[first_bad])


@pytest.mark.parametrize(
    "kind, values, k, says",
    [
        ("euclidean", [[0.0, 0.0, 0.0], [1.0, 2.0], [math.nan] * 3], 1, "point dimension 2 != 3"),
        ("hyperbolic", [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], 1, "point dimension 4 != 3"),
        ("product", [(np.zeros(2), {"vertex": 0}, np.array([1.0, 0.0, 0.0])),
                     (np.zeros(2), {"vertex": 0})], 1, "a value for each of its 3"),
    ],
)
def test_pack_names_a_value_of_the_wrong_size(kind, values, k, says):
    # values of mixed sizes: the first bad one is named, as canonical names it
    t = _GEO_TARGETS[kind]
    with pytest.raises(ValidationError, match=f"^value at index {k}: .*{says}") as exc:
        t.pack(values)
    assert exc.value.detail == k
    with pytest.raises(ValidationError, match=f"^(?!value at).*{says}"):
        t.canonical(values[k])


_NESTED = ProductTarget([_GEO_TARGETS["product"], SPIDER])
_JSON_CASES = {
    **{kind: (_GEO_TARGETS[kind], _pack_values[kind]) for kind in KERNEL_KINDS},
    "nested-product": (_NESTED, st.tuples(_pack_values["product"], _pack_values["tree"])),
}


def _valid_value(t, v):
    try:
        _oracle_row(t, v)
    except ValidationError:
        return False
    return True


_SPOILS = ["bool", "string", "scalar", "size", "row-list"]


def _spoiled_value(t, v, row, how, pick):
    """The JSON value ``v`` of a point of ``t``, whose packed row is
    ``row``, made bad: a bool or a string in place of one of its numbers
    (``pick`` chooses which, and in a product which component's), a bare
    number, one coordinate or component too many (a tree: a packed row
    one column short), or the packed row as a list (a coordinate kind,
    whose value that list is: a bare number)."""
    if how in ("bool", "string"):
        leaf = True if how == "bool" else "1"
        if t.kind == "product":
            j = pick % len(t.components)
            part = _spoiled_value(t.components[j], v[j], row[t._slices[j]], how, pick)
            return [*v[:j], part, *v[j + 1:]]
        if t.kind == "tree":
            key = sorted(v)[pick % len(v)]
            return {**v, key: leaf}
        return [*v[: pick % len(v)], leaf, *v[pick % len(v) + 1:]]
    if how == "size":
        return row[:-1] if t.kind == "tree" else [*v, v[0]]
    if how == "row-list" and t.kind in ("tree", "product"):
        return row.tolist()
    return 0.5


@pytest.mark.parametrize("kind", sorted(_JSON_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_json_round_trip(kind, data):
    """Valid packed rows pack to themselves, and so do their canonical JSON
    values, before and after a trip through JSON text; canonical is
    idempotent; and values spoiled at some indices name the first."""
    t, values = _JSON_CASES[kind]
    values = [v for v in data.draw(st.lists(values, min_size=1, max_size=8)) if _valid_value(t, v)]
    assume(values)
    rows = t.pack(values)
    assert t.pack(rows).tobytes() == rows.tobytes()
    assert t.pack(list(rows)).tobytes() == rows.tobytes()
    canon = [t.canonical(row) for row in rows]
    assert canon == t._rows_to_json(rows)
    assert t.pack(canon).tobytes() == rows.tobytes()
    assert t.pack(json.loads(canonical_json(canon))).tobytes() == rows.tobytes()
    assert [t.canonical(v) for v in canon] == canon
    spoilt = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    bad = list(canon)
    for k in spoilt:
        how = data.draw(st.sampled_from(_SPOILS))
        bad[k] = _spoiled_value(t, canon[k], rows[k], how, data.draw(st.integers(0, 7)))
    first = min(spoilt)
    with pytest.raises(ValidationError, match=f"^value at index {first}: ") as exc:
        t.pack(bad)
    assert exc.value.detail == first
    with pytest.raises(ValidationError, match="^(?!value at)"):
        t.canonical(bad[first])


# -- exact barycenters ------------------------------------------------------


def _ragged(groups):
    """Rows, pointers and weights of groups given as (rows, weights) pairs."""
    rows = np.concatenate([r for r, _ in groups])
    ptr = np.concatenate([[0], np.cumsum([len(r) for r, _ in groups])])
    return rows, ptr, np.concatenate([w for _, w in groups])


def _group(t, rng, n, sigma):
    """n seeded rows of a kind, hyperbolic ones of plane spread sigma, and
    their weights."""

    def rows(t):
        if t.kind == "hyperbolic":
            return t.lift(rng.normal(0.0, sigma, (n, 2)))
        if t.kind == "product":
            return np.concatenate([rows(c) for c in t.components], axis=1)
        return t.random_points(rng, n)

    return rows(t), rng.uniform(0.5, 2.0, n)


_spread = st.floats(math.log(0.01), math.log(50.0)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_spread, st.integers(1, 50), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=3))
def test_hyperbolic_barycenters_are_karcher_means(specs):
    t = HyperbolicTarget()
    groups = [_group(t, np.random.default_rng(seed), n, sigma) for sigma, n, seed in specs]
    got = t.barycenters(*_ragged(groups), tol=1e-10)
    for row, (pts, w) in zip(got, groups):
        assert not t._off(row)
        assert _karcher_residual(row, pts, w) <= 1e-11


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_hyperbolic_barycenter_stops_on_a_rejected_newton_step(tol):
    # near this group's minimum F rises by rounding alone, so the descent
    # test rejects its Newton steps; the group still stops, where it once
    # alternated rejected and halved steps until ConvergenceError
    t = HyperbolicTarget()
    rows = np.array([[100.54080519356158, 7.081200127068975, -100.2861411847624],
                     [84.83977540053696, -19.71458019904704, -82.51134962893832],
                     [53.67736418764892, -16.929548433544056, -50.92788839103562]])
    w = np.array([0.6203594292177672, 0.5239688052943917, 0.6969408057880961])
    got, residual = t._barycenters(rows, np.array([0, 3]), w, tol, 10_000)
    assert not t._off(got[0])
    assert residual[0] <= tol
    assert _karcher_residual(got[0], rows, w) <= 1e-11


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.tuples(_points["tree"], st.floats(0.5, 2.0)), min_size=1, max_size=9),
                min_size=1, max_size=3))
def test_tree_barycenters_match_brute_force(groups):
    groups = [([p for p, _ in g], np.array([w for _, w in g])) for g in groups]
    got = SPIDER.barycenters(*_ragged([(SPIDER.pack(p), w) for p, w in groups]))
    for row, (pts, w) in zip(got, groups):
        f_min, z = _tree_brute_force(SPIDER, pts, w)
        assert _objective(SPIDER, [row], pts, w)[0] <= f_min + 1e-9
        assert SPIDER.dist(row, z) <= 1e-7


@pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_barycenter_rows_do_not_depend_on_the_batch(kind, data):
    # hyperbolic groups of different spreads converge after different
    # numbers of iterations, so groups leave the batch at different times
    t = _GEO_TARGETS[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spreads = (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 50.0)
    groups = [_group(t, rng, int(rng.integers(1, 10)), sigma) for sigma in spreads]
    alone = [t.barycenters(*_ragged([g]), tol=1e-10)[0] for g in groups]
    order = data.draw(st.permutations(range(len(groups))))
    keep = order[: data.draw(st.integers(1, len(groups)))]
    got = t.barycenters(*_ragged([groups[k] for k in keep]), tol=1e-10)
    for row, k in zip(got, keep):
        assert row.tobytes() == alone[k].tobytes()


_BARY_TARGETS = {
    **_GEO_TARGETS,
    "nested": ProductTarget([EuclideanTarget(1), ProductTarget([SPIDER, HyperbolicTarget()])]),
    # two components that iterate: a group's residual is the 2-norm of theirs
    "two-hyperbolic": ProductTarget([HyperbolicTarget(), HyperbolicTarget()]),
}


@pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product", "nested",
                                  "two-hyperbolic"])
@pytest.mark.parametrize("tol", [0.5, 1e-2, 1e-4])
def test_barycenter_residual_bounds_the_distance_to_exact(kind, tol):
    # the Dirichlet solver certifies its stop with this bound
    t = _BARY_TARGETS[kind]
    rng = np.random.default_rng(7)
    spreads = (0.01, 0.1, 0.5, 1.0, 3.0, 10.0)
    rows, ptr, w = _ragged([_group(t, rng, int(rng.integers(1, 10)), s) for s in spreads])
    got, residuals = t._barycenters(rows, ptr, w, tol, 10_000)
    assert got.tobytes() == t.barycenters(rows, ptr, w, tol).tobytes()
    assert residuals.shape == (len(spreads),)
    exact = t.barycenters(rows, ptr, w, 1e-13)
    # each group's residual bounds the distance of its own row
    assert np.all(t.dists(got, exact) <= residuals + 1e-12)
    if kind in ("euclidean", "tree"):
        assert not residuals.any()


@pytest.mark.parametrize("kind", ["euclidean", "tree", "hyperbolic", "product", "nested"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_split_barycenters_calls_match_one_call(kind, data):
    # the Dirichlet solver sweeps several starts in one call and splits the
    # rows and residuals by start
    t = _BARY_TARGETS[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spreads = data.draw(st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0, 50.0]),
                                 min_size=2, max_size=8))
    groups = [_group(t, rng, int(rng.integers(1, 10)), sigma) for sigma in spreads]
    cut = data.draw(st.integers(1, len(groups) - 1))
    rows, res = t._barycenters(*_ragged(groups), 1e-6, 10_000)
    assert res.shape == (len(groups),)
    for part, lo, hi in ((groups[:cut], 0, cut), (groups[cut:], cut, len(groups))):
        alone, alone_res = t._barycenters(*_ragged(part), 1e-6, 10_000)
        assert rows[lo:hi].tobytes() == alone.tobytes()
        assert res[lo:hi].tobytes() == alone_res.tobytes()
