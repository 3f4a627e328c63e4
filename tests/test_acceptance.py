"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its measured runtime.  Run with ``pytest -s`` to see
the lines as they complete."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from kscalc import (
    DirichletProblem,
    EuclideanTarget,
    FixtureSpec,
    HyperbolicTarget,
    MetricMap,
    ProductTarget,
    Seminorm,
    SphereTarget,
    TreeTarget,
    alignment_defect,
    build_space,
    cat0_audit,
    consistency_constant,
    density_extrapolated,
    density_via_mdiff,
    energy_sweep,
    hajlasz_gradient,
    hs_norm,
    ks_at_scale,
    make_aligned_family,
    make_fixture,
    maximal_bound,
    maximal_function,
    op_norm,
    partition_of_unity,
    size_p,
    solve,
)
from kscalc.energy import midpoint_scale_gap
from kscalc.serialize import (
    map_to_json,
    problem_to_json,
    save_fixture,
    space_to_json,
    write_json,
)

from conftest import grid_points, interior_balls, random_map


def report(number, elapsed, budget, detail):
    line = f"PASS criterion {number} ({elapsed:.1f}s < {budget}s): {detail}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_seminorm_identities():
    t0 = time.monotonic()
    worst_hs = 0.0
    worst_op = 0.0
    for d in range(1, 6):
        rng = np.random.default_rng(1000 + d)
        for _ in range(100):
            a = rng.normal(0.0, 1.0, (d, d))
            n = Seminorm.quadratic(a.T @ a)
            rel = abs(hs_norm(n) - math.sqrt(d + 2) * size_p(n, 2.0)) / hs_norm(n)
            worst_hs = max(worst_hs, rel)
            v = rng.normal(0.0, 1.0, d)
            r1 = Seminorm.quadratic(np.outer(v, v))
            rel2 = abs(
                op_norm(r1) - consistency_constant(d) * size_p(r1, 2.0)
            ) / op_norm(r1)
            worst_op = max(worst_op, rel2)
    assert worst_hs <= 1e-3
    assert worst_op <= 1e-3
    report(
        1,
        time.monotonic() - t0,
        10,
        f"hs identity rel gap {worst_hs:.1e}, rank-one rel gap {worst_op:.1e}",
    )


def test_criterion_2_energy_density_convergence():
    t0 = time.monotonic()
    # 1-d: 2001 points, slope 2
    xs = np.linspace(0.0, 1.0, 2001)
    sp1 = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    h1 = 1.0 / 2000
    u1 = MetricMap(sp1, EuclideanTarget(1), (2.0 * xs)[:, None])
    d1 = density_extrapolated(u1, 2.0, [40.5 * h1, 30.5 * h1, 20.5 * h1])
    inner1 = (xs >= 45 * h1) & (xs <= 1 - 45 * h1)
    err1 = np.abs(d1[inner1] / (2.0 / math.sqrt(3.0)) - 1.0).max()
    assert err1 <= 0.02
    # 2-d: 201 x 201 grid
    pts = grid_points(201, 2)
    sp2 = build_space({"kind": "euclidean", "points": pts.tolist()})
    h2 = 1.0 / 200
    scales = [20.75 * h2, 16.4 * h2, 13.55 * h2]
    inner2 = np.all((pts >= 22 * h2) & (pts <= 1 - 22 * h2), axis=1)
    u2 = MetricMap(sp2, EuclideanTarget(1), (pts @ np.array([2.0, 0.0]))[:, None])
    d2 = density_extrapolated(u2, 2.0, scales)
    err2 = np.abs(d2[inner2] / (2.0 / 2.0) - 1.0).max()
    assert err2 <= 0.02
    u3 = MetricMap(sp2, EuclideanTarget(2), pts)
    d3 = density_extrapolated(u3, 2.0, scales)
    err3 = np.abs(d3[inner2] / math.sqrt(0.5) - 1.0).max()
    assert err3 <= 0.02
    report(
        2,
        time.monotonic() - t0,
        60,
        f"worst interior density errors: 1d {err1:.1e}, "
        f"2d linear {err2:.1e}, 2d identity {err3:.1e}",
    )


CRIT3_FIXTURES = [
    (FixtureSpec(family="euclidean-grid", resolution=256, dim=1), [20.5, 16.5, 12.5]),
    (FixtureSpec(family="euclidean-grid", resolution=48, dim=2), [20.75, 16.4, 13.55]),
    (FixtureSpec(family="flat-torus-grid", resolution=64, dim=2), [12.55, 10.2, 8.55]),
    (FixtureSpec(family="two-chart-curve", resolution=512), [24.5, 20.5, 16.5]),
]


def _sweep_interior(fx, scales):
    """Interior points whose largest sweep ball stays resolution-honest."""
    margin = max(scales) * 1.08
    if fx.spec.family == "flat-torus-grid":
        return np.arange(fx.space.n)
    if fx.spec.family == "two-chart-curve":
        t = np.linspace(0.0, 1.0, fx.space.n)
        return np.nonzero((t >= margin) & (t <= 1 - margin))[0]
    pts = fx.space.coords
    return np.nonzero(np.all((pts >= margin) & (pts <= 1 - margin), axis=1))[0]


def test_criterion_3_representation_cross_check():
    t0 = time.monotonic()
    results = []
    for spec, steps in CRIT3_FIXTURES:
        fx = make_fixture(spec)
        h = 1.0 / (
            spec.resolution if spec.family == "flat-torus-grid" else spec.resolution - 1
        )
        scales = [k * h for k in steps]
        interior = _sweep_interior(fx, scales)
        for ref in fx.maps:
            rep = energy_sweep(ref.map, 2.0, scales)
            md = density_via_mdiff(ref.map, fx.atlas, 2.0)
            sweep_d = rep.per_point_density[interior]
            md_d = md.densities[interior]
            ok = ~np.isnan(md_d)
            rel = np.abs(md_d[ok] - sweep_d[ok]) / np.maximum(
                np.maximum(md_d[ok], sweep_d[ok]), 1e-9
            )
            frac = float((rel <= 0.05).mean())
            results.append((spec.family, ref.name, frac))
            assert frac >= 0.95, (spec.family, ref.name, frac)
    worst = min(r[2] for r in results)
    report(
        3,
        time.monotonic() - t0,
        60,
        f"{len(results)} fixture/map combinations, worst within-5% fraction {worst:.3f}",
    )


def test_criterion_4_cat0_audits():
    t0 = time.monotonic()
    tree = TreeTarget(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    kinds = [
        EuclideanTarget(2),
        tree,
        HyperbolicTarget(),
        ProductTarget([EuclideanTarget(2), tree]),
    ]
    worst = -np.inf
    for t in kinds:
        rep = cat0_audit(t, 10_000, seed=42, s_steps=3)
        assert rep.max_violation <= 1e-9, t.kind
        worst = max(worst, rep.max_violation)
    sphere = cat0_audit(SphereTarget(), 2_000, seed=42, s_steps=3)
    assert sphere.max_violation > 1e-3
    report(
        4,
        time.monotonic() - t0,
        10,
        f"CAT(0) kinds max violation {worst:.1e}; sphere double {sphere.max_violation:.2f}",
    )


def test_criterion_5_midpoint_inequality():
    t0 = time.monotonic()
    tree = TreeTarget(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    spaces = []
    xs = np.linspace(0.0, 1.0, 64)
    spaces.append(
        ("line-64", build_space({"kind": "euclidean", "points": xs[:, None].tolist()}), 0.11)
    )
    pts = grid_points(18, 2)
    spaces.append(
        ("grid-18", build_space({"kind": "euclidean", "points": pts.tolist()}), 0.13)
    )
    tor = grid_points(14, 2)  # open grid reused as a torus sample
    spaces.append(
        (
            "torus-14",
            build_space(
                {"kind": "torus", "points": (tor * 13 / 14).tolist(), "period": [1.0, 1.0]}
            ),
            0.16,
        )
    )
    targets = [
        EuclideanTarget(2),
        tree,
        HyperbolicTarget(),
        ProductTarget([EuclideanTarget(1), tree]),
    ]
    worst = -np.inf
    pairs = 0
    for name, sp, r in spaces:
        for t in targets:
            for k in range(50):
                u = random_map(sp, t, 7_000 + 17 * k)
                v = random_map(sp, t, 8_000 + 17 * k)
                gap = midpoint_scale_gap(u, v, r)
                worst = max(worst, gap)
                pairs += 1
                assert gap <= 1e-9, (name, t.kind, k, gap)
    report(
        5,
        time.monotonic() - t0,
        30,
        f"{pairs} seeded pairs, worst pointwise slack {worst:.1e}",
    )


def _averaging_oracle(prob, boundary_vals):
    """Direct linear solve of the neighbor-averaging system."""
    interior = prob.interior
    pos = {int(x): k for k, x in enumerate(interior)}
    m = boundary_vals[next(iter(prob.boundary_data))].shape[0]
    A = np.eye(len(interior))
    b = np.zeros((len(interior), m))
    w = prob.space.weights
    for row, (x, idx) in enumerate(zip(interior, interior_balls(prob))):
        nbr = idx[idx != x]
        W = w[nbr].sum()
        for j in nbr:
            j = int(j)
            if j in pos:
                A[row, pos[j]] -= w[j] / W
            else:
                b[row] += (w[j] / W) * boundary_vals[j]
    return np.linalg.solve(A, b)


def test_criterion_6_dirichlet_solver():
    t0 = time.monotonic()
    details = []

    def euclid_case(name, space, interior, boundary, scale, tol=1e-9):
        prob = DirichletProblem(space, EuclideanTarget(len(next(iter(boundary.values())))),
                                interior, boundary, scale)
        sol, rep = solve(prob, tol=tol)
        assert rep.converged
        assert np.all(np.diff(rep.energy_trajectory) <= 1e-12)
        assert rep.uniqueness_gap <= 10.0 * tol
        bvals = {k: np.asarray(v, float) for k, v in prob.boundary_data.items()}
        oracle = _averaging_oracle(prob, bvals)
        gap = np.abs(np.asarray(sol)[prob.interior] - oracle).max()
        assert gap <= 1e-8, (name, gap)
        details.append(f"{name} {gap:.1e}")

    # path fixture
    xs = np.linspace(0.0, 1.0, 11)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    euclid_case(
        "path", sp, list(range(1, 10)), {0: [0.0], 10: [1.0]}, 0.15
    )

    # grid fixture with smooth boundary data in euclidean(2)
    pts = grid_points(13, 2)
    spg = build_space({"kind": "euclidean", "points": pts.tolist()})
    h = 1.0 / 12
    inner = np.nonzero(np.all((pts > 0.5 * h) & (pts < 1 - 0.5 * h), axis=1))[0]
    outer = [i for i in range(spg.n) if i not in set(inner.tolist())]
    gvals = {
        int(i): [float(pts[i, 0] ** 2 - pts[i, 1] ** 2), float(pts[i, 0] * pts[i, 1])]
        for i in outer
    }
    euclid_case("grid", spg, inner.tolist(), gvals, 1.6 * h)

    # torus patch fixture
    tpts = grid_points(24, 2) * (23.0 / 24.0)
    spt = build_space({"kind": "torus", "points": tpts.tolist(), "period": [1.0, 1.0]})
    center = np.array([0.5, 0.5])
    rad = np.sqrt(((tpts - center) ** 2).sum(axis=1))
    interior_t = np.nonzero(rad < 0.3)[0]
    ht = 1.0 / 24
    layer = set()
    for i in interior_t:
        layer.update(spt.ball_indices(int(i), 1.6 * ht).tolist())
    bvals_t = {
        int(i): [float(np.sin(2 * np.pi * tpts[i, 0]))]
        for i in range(spt.n)
        if i not in set(interior_t.tolist())
    }
    euclid_case("torus-patch", spt, interior_t.tolist(), bvals_t, 1.6 * ht)

    # tripod interval problem vs brute-force search
    tree = TreeTarget(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    prob_tree = DirichletProblem(
        sp, tree, list(range(1, 10)),
        {0: {"vertex": 1}, 10: {"vertex": 2}}, 0.15,
    )
    tol_tree = 1e-7
    sol_t, rep_t = solve(prob_tree, tol=tol_tree)
    assert rep_t.converged
    assert np.all(np.diff(rep_t.energy_trajectory) <= 1e-12)
    assert rep_t.uniqueness_gap <= 10 * tol_tree
    oracle_pos = _tripod_brute_force(prob_tree)
    gap_t = 0.0
    for k in range(1, 10):
        a = tree.dist(sol_t[k], {"vertex": 1})
        gap_t = max(gap_t, abs(a - oracle_pos[k]))
    assert gap_t <= 1e-4
    details.append(f"tripod {gap_t:.1e}")
    report(6, time.monotonic() - t0, 120, "sup gaps vs oracles: " + ", ".join(details))


def _tripod_brute_force(prob):
    """Grid-search coordinate descent on (leg, offset) coordinates;
    returns the distance from leaf A per index."""
    w = prob.space.weights

    def d_o(a, b):
        (la, ta), (lb, tb) = a, b
        if la == lb:
            return abs(ta - tb)
        if ta == 0.0 or tb == 0.0:
            return ta + tb
        return ta + tb

    balls = interior_balls(prob)
    cur = [(1, 1.0)] * prob.space.n
    cur[10] = (2, 1.0)

    def descend(cands_for, step):
        for _ in range(500):
            moved = 0.0
            for x, idx in zip(prob.interior, balls):
                nbr = [j for j in idx if j != x]
                best, best_val = None, np.inf
                for z in cands_for(cur[int(x)]):
                    val = sum(w[j] * d_o(z, cur[j]) ** 2 for j in nbr)
                    if val < best_val:
                        best, best_val = z, val
                moved = max(moved, d_o(cur[int(x)], best))
                cur[int(x)] = best
            if moved < step / 2:
                return

    coarse = [(leg, t) for leg in (1, 2, 3) for t in np.linspace(0, 1, 801)]
    descend(lambda _z: coarse, 1.0 / 800)
    step = 1.0 / 800
    for _ in range(3):
        window, step = 3.0 * step, step / 100.0

        def local(z, window=window, step=step):
            leg, t = z
            ts = np.arange(max(t - window, 0.0), min(t + window, 1.0) + step, step)
            out = [(leg, float(tt)) for tt in ts]
            if t < window:
                for other in (1, 2, 3):
                    if other != leg:
                        out += [(other, float(tt)) for tt in np.arange(0.0, window, step)]
            return out

        descend(local, step)
    dist_from_A = {}
    for k in range(prob.space.n):
        leg, t = cur[k]
        dist_from_A[k] = abs(1.0 - t) if leg == 1 else 1.0 + t
    return dist_from_A


def test_criterion_7_structure_audits():
    t0 = time.monotonic()
    # partition of unity: exact sums, bounded overlap
    xs11 = np.linspace(0.0, 1.0, 11)
    sp11 = build_space({"kind": "euclidean", "points": xs11[:, None].tolist()})
    pu = partition_of_unity(sp11, 0.1)
    assert np.abs(pu.point_sums() - 1.0).max() <= 1e-12
    assert pu.overlap_counts().max() <= 3
    xs1001 = np.linspace(0.0, 1.0, 1001)
    sp1001 = build_space({"kind": "euclidean", "points": xs1001[:, None].tolist()})
    pu2 = partition_of_unity(sp1001, 0.05)
    assert np.abs(pu2.point_sums() - 1.0).max() <= 1e-12
    assert pu2.overlap_counts().max() <= 4  # 1-d packing bound

    # maximal-function empirical L2 bound on 100 seeded functions
    xs500 = np.linspace(0.0, 1.0, 500)
    sp500 = build_space({"kind": "euclidean", "points": xs500[:, None].tolist()})
    bound = maximal_bound(sp500, 0.2)
    rng = np.random.default_rng(11)
    w = sp500.weights
    worst_ratio = 0.0
    for _ in range(100):
        f = rng.normal(0.0, 1.0, 500)
        M = maximal_function(sp500, f, 0.2)
        ratio = math.sqrt(float(np.dot(w, M**2)) / float(np.dot(w, f**2)))
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= bound

    # Hajlasz pair bound and the scale bound with constant 4
    tree = TreeTarget(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    pts = grid_points(18, 2)
    spg = build_space({"kind": "euclidean", "points": pts.tolist()})
    for target, seed in ((EuclideanTarget(2), 3), (tree, 4)):
        u = random_map(spg, target, seed)
        R, r = 0.2, 0.1
        G = hajlasz_gradient(u, R)
        ks = ks_at_scale(u, 2.0, r)
        for i in range(spg.n):
            idx = spg.ball_indices(i, R)
            idx = idx[idx != i]
            if idx.shape[0]:
                dd = spg.dist_subset(i, idx)
                dy = u.target.dists(u.packed[i], u.packed[idx])
                assert np.all(dy <= dd * (G[i] + G[idx]) + 1e-12)
            bidx = spg.ball_indices(i, r)
            avg = float(np.dot(spg.weights[bidx], G[bidx] ** 2) / spg.weights[bidx].sum())
            assert ks[i] ** 2 <= 4.0 * (G[i] ** 2 + avg) + 1e-12

    # aligned-family defects within the slack sums
    for spec, eps in (
        (FixtureSpec(family="euclidean-grid", resolution=24, dim=2), [0.1, 0.05]),
        (FixtureSpec(family="two-chart-curve", resolution=128), [0.08, 0.04]),
    ):
        atlases = make_aligned_family(spec, eps)
        fx = make_fixture(spec)
        for ai, ei in zip(atlases, eps):
            for aj, ej in zip(atlases, eps):
                if ai is aj:
                    continue
                for ci in ai.charts:
                    for cj in aj.charts:
                        assert alignment_defect(fx.space, ci, cj) <= ei + ej + 1e-9
    report(
        7,
        time.monotonic() - t0,
        30,
        f"partition/maximal/pair/scale/alignment audits all hold "
        f"(worst maximal ratio {worst_ratio:.2f} vs bound {bound:.1f})",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "kscalc.cli", *map(str, args)],
        capture_output=True,
        text=True,
    ).returncode


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.monotonic()
    xs = np.linspace(0.0, 1.0, 11)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    write_json(tmp_path / "space.json", space_to_json(sp))
    write_json(tmp_path / "target.json", {"kind": "euclidean", "dim": 1})
    u = MetricMap(sp, EuclideanTarget(1), (2.0 * xs)[:, None])
    write_json(tmp_path / "map.json", map_to_json(u, "space.json", "target.json"))
    prob = DirichletProblem(
        sp, EuclideanTarget(1), list(range(1, 10)), {0: [0.0], 10: [1.0]}, 0.15
    )
    write_json(
        tmp_path / "problem.json", problem_to_json(prob, "space.json", "target.json")
    )
    write_json(tmp_path / "hyperbolic.json", {"kind": "hyperbolic"})
    fx = make_fixture(FixtureSpec(family="euclidean-grid", resolution=32, dim=1))
    save_fixture(fx, tmp_path / "fx")

    commands = {
        "space-check": lambda out, threads: (
            "space-check", "--space", tmp_path / "space.json", "--out", out,
        ),
        "energy": lambda out, threads: (
            "energy", "--space", tmp_path / "space.json",
            "--map", tmp_path / "map.json", "--target", tmp_path / "target.json",
            "--scales", "0.45,0.35", "--seed", 0, "--threads", threads, "--out", out,
        ),
        "mdiff": lambda out, threads: (
            "mdiff", "--space", tmp_path / "fx" / "space.json",
            "--atlas", tmp_path / "fx" / "atlas.json",
            "--map", tmp_path / "fx" / "map_linear.json",
            "--seed", 0, "--threads", threads, "--out", out,
        ),
        "dirichlet": lambda out, threads: (
            "dirichlet", "--problem", tmp_path / "problem.json",
            "--seed", 0, "--threads", threads, "--out", out,
        ),
        "verify": lambda out, threads: (
            "verify", "--which", "cat0", "--target", tmp_path / "hyperbolic.json",
            "--samples", 400, "--seed", 0, "--out", out,
        ),
    }
    for name, argfn in commands.items():
        payloads = []
        for run, threads in (("a", 1), ("b", 4)):
            out = tmp_path / f"{name}_{run}.out"
            code = _run_cli(*argfn(out, threads))
            assert code == 0, name
            blob = b"".join(
                p.read_bytes()
                for p in sorted(tmp_path.glob(f"{name}_{run}*"))
            )
            payloads.append(blob)
        assert payloads[0] == payloads[1], f"{name} output varies across runs"
    report(
        8,
        time.monotonic() - t0,
        120,
        "all five commands byte-identical across repeated runs and thread counts",
    )
