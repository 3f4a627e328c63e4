"""Seeded input files for the benchmark workloads.

Inputs are written with numpy and json only, in the file formats the
kscalc README documents; nothing here imports kscalc, so a change to the
library cannot change what it is fed.  The seed moves the data only by
exact symmetries (of the grid, and isometries of the targets) and picks
the checked and fitted points and the audit seeds: every seed poses the
same problems up to an isometry, so the program does the same work.

Each writer returns a plan: the commands to run (kscalc argument lists,
each tagged with the target kind whose compute time it counts toward)
and the facts the output checks need.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

KINDS = ("euclidean", "tree", "hyperbolic", "product")

# density: one 71x71 grid (5041 points, above the 4096-point threshold
# where neighbor search switches to its bucketed path)
DENSITY_N = 71
# scale sweep in grid steps; none is a lattice distance, so no pair sits
# on a ball boundary, and the smallest three are >= 3 spacings (reliable)
DENSITY_SCALES = (9.3, 7.1, 5.3, 3.7)
# fit family per kind: the one that represents the map's metric differential.
# The tree and hyperbolic maps have rank-one differentials |a . v|, one
# covector of the polyhedral family; the Euclidean and product maps have
# elliptical ones, a quadratic form (polyhedral fits of those overshoot the
# 2-size by up to 12%, so they could not be checked)
FIT_FAMILY = {"euclidean": "quadratic", "tree": "polyhedral",
              "hyperbolic": "polyhedral", "product": "quadratic"}
FIT_POINTS = {"quadratic": 800, "polyhedral": 40}  # fitted points per kind
DENSITY_CHECK_POINTS = 200  # points whose ks is recomputed from its definition
THREADED_KIND = "product"  # its fits run with --threads 2
TREE_LEG = 4.0  # tripod leg length; holds every value the maps take

# dirichlet: brute-force neighbor path (n <= 4096) on every problem.  The
# tolerances are ones at which each problem converges (see the README:
# the solver's energy-decrease stop fires early at looser ones)
DIRICHLET = {
    # kind: (grid side, scale in grid steps, solver options)
    "euclidean": (33, 1.6, {"tol": 1e-10}),
    "tree": (9, 1.6, {"tol": 1e-9}),
    "hyperbolic": (12, 2.5, {"tol": 1e-7, "mode": "gauss-seidel"}),
    "product": (11, 2.5, {"tol": 1e-7, "mode": "gauss-seidel"}),
}

# audit: samples per kind, sized so that each kind computes for about a second
AUDIT_SAMPLES = {"euclidean": 5000, "tree": 1700, "hyperbolic": 1800, "product": 850}
SPHERE_SAMPLES = 200


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def grid(n):
    axis = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def tree_spec():
    """A tripod: center vertex 0, leg k is edge k-1 from vertex 0 to k."""
    return {"kind": "tree", "vertices": 4, "edges": [[0, k, TREE_LEG] for k in (1, 2, 3)]}


def target_spec(kind):
    if kind == "euclidean":
        return {"kind": "euclidean", "dim": 3}
    if kind == "tree":
        return tree_spec()
    if kind == "hyperbolic":
        return {"kind": "hyperbolic"}
    if kind == "product":
        return {
            "kind": "product",
            "components": [{"kind": "euclidean", "dim": 2}, tree_spec(), {"kind": "hyperbolic"}],
        }
    if kind == "sphere":
        return {"kind": "sphere"}
    raise ValueError(kind)


# -- geodesics: a real parameter s mapped isometrically into each kind -----

AXES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def tree_geodesic(s, legs=(1, 2)):
    """Leg ``legs[0]`` for s < 0, the center at 0, leg ``legs[1]`` for
    s > 0: it crosses the branch point."""
    out = []
    for v in np.asarray(s, dtype=float):
        if v == 0.0:
            out.append({"vertex": 0})
        elif v < 0.0:
            out.append({"edge": legs[0] - 1, "t": float(-v)})
        else:
            out.append({"edge": legs[1] - 1, "t": float(v)})
    return out


def hyperbolic_geodesic(s, direction):
    """Unit-speed geodesic through (1, 0, 0) along a unit vector of R^2."""
    s = np.asarray(s, dtype=float)
    x1 = np.sinh(s) * direction[0]
    x2 = np.sinh(s) * direction[1]
    x0 = np.sqrt(1.0 + x1 * x1 + x2 * x2)
    return np.stack([x0, x1, x2], axis=1).tolist()


class Geodesic:
    """Isometric image of the real line in a target kind.

    The seed picks the tree legs, the hyperbolic direction and the
    Euclidean direction among exact symmetries (leg relabelings, signed
    coordinate axes), so every seed runs the same floating-point
    arithmetic.  The product geodesic splits unit speed over its three
    components with the fixed weights ``c``.
    """

    def __init__(self, kind, rng):
        self.kind = kind
        self.legs = [int(k) for k in rng.permutation([1, 2, 3])[:2]]
        self.direction = list(AXES[int(rng.integers(4))])
        self.e = list(AXES[int(rng.integers(4))])
        self.c = [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)]

    def values(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "tree":
            return tree_geodesic(s, self.legs)
        if self.kind == "hyperbolic":
            return hyperbolic_geodesic(s, self.direction)
        if self.kind == "product":
            eu = np.outer(self.c[0] * s, self.e).tolist()
            tr = tree_geodesic(self.c[1] * s, self.legs)
            hy = hyperbolic_geodesic(self.c[2] * s, self.direction)
            return [list(v) for v in zip(eu, tr, hy)]
        raise ValueError(self.kind)

    def to_json(self):
        return {"legs": self.legs, "direction": self.direction, "e": self.e, "c": self.c}


# -- density ---------------------------------------------------------------


def grid_symmetry(rng):
    """One of the eight symmetries of the square grid, as a 2x2 matrix."""
    d = np.eye(2)[rng.permutation(2)]
    return d * rng.choice([-1.0, 1.0], size=(2, 1))


def target_symmetry(rng, dim):
    """A signed permutation of R^dim: an isometry of a Euclidean target."""
    return np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=(dim, 1))


# fixed map coefficients; the seed moves them only by grid symmetries and
# target isometries, which leave every density and the fits' work unchanged
MAP_A = np.asarray([[0.9, 0.3], [-0.4, 1.1], [0.5, -0.6]])  # into R^3
MAP_B = np.asarray([[0.7, -0.2], [0.4, 0.8]])  # into R^2, inside the product
TREE_GRADIENT = 3.0 * np.asarray([math.cos(0.3), math.sin(0.3)])
HYPERBOLIC_GRADIENT = 2.0 * np.asarray([math.cos(1.1), math.sin(1.1)])
PRODUCT_GRADIENTS = (2.0 * np.asarray([math.cos(2.0), math.sin(2.0)]),
                     1.5 * np.asarray([math.cos(-0.7), math.sin(-0.7)]))
OFFSET = np.asarray([0.04, -0.07])  # where f = 0 crosses, relative to the center


def density_maps(pts, rng):
    """Maps into each kind with their closed-form densities (d = 2).

    Euclidean: a linear map ``A x`` into R^3, density ``|A|_HS / 2``.
    Tree and hyperbolic: a unit-speed geodesic composed with a linear
    ``f(x) = a . (x - x0)``, density ``|a| / 2``; ``x0`` sits inside the
    grid so the tree map crosses the branch point.  Product: a linear map
    into R^2, the tree geodesic and the hyperbolic geodesic with their own
    gradients, density the 2-norm of the three.
    """
    q = (pts - 0.5) @ grid_symmetry(rng).T
    a_mat = target_symmetry(rng, 3) @ MAP_A
    b_mat = target_symmetry(rng, 2) @ MAP_B
    geo = Geodesic("product", rng)
    tree_map = tree_geodesic((q - OFFSET) @ TREE_GRADIENT, geo.legs)
    hyp_map = hyperbolic_geodesic((q - OFFSET) @ HYPERBOLIC_GRADIENT, geo.direction)
    gt, gh = PRODUCT_GRADIENTS
    product_map = [
        list(v)
        for v in zip((q @ b_mat.T).tolist(), tree_geodesic((q - OFFSET) @ gt, geo.legs),
                     hyperbolic_geodesic((q + OFFSET) @ gh, geo.direction))
    ]
    norm = np.linalg.norm
    return {
        "euclidean": ((q @ a_mat.T).tolist(), norm(MAP_A) / 2.0),
        "tree": (tree_map, norm(TREE_GRADIENT) / 2.0),
        "hyperbolic": (hyp_map, norm(HYPERBOLIC_GRADIENT) / 2.0),
        "product": (product_map, math.sqrt(norm(MAP_B) ** 2 + norm(gt) ** 2 + norm(gh) ** 2) / 2.0),
    }


def write_density(root, seed):
    rng = np.random.default_rng([seed, 1])
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n = DENSITY_N
    pts = grid(n)
    h = 1.0 / (n - 1)
    write_json(root / "space.json", {"kind": "euclidean", "points": pts.tolist()})
    write_json(
        root / "atlas.json",
        {
            "epsilon": 0.0,
            "charts": [{"indices": list(range(n * n)), "coordinates": pts.tolist(), "epsilon": 0.0}],
            "uncovered": [],
        },
    )
    scales = [r * h for r in DENSITY_SCALES]
    margin = max(scales)
    interior = np.nonzero(np.all((pts >= margin) & (pts <= 1.0 - margin), axis=1))[0]
    maps = density_maps(pts, rng)
    commands = []
    checks = {"scales": scales, "interior": interior.tolist(), "kinds": {}}
    for kind in KINDS:
        values, density = maps[kind]
        write_json(root / f"target_{kind}.json", target_spec(kind))
        write_json(
            root / f"map_{kind}.json",
            {"space": "space.json", "target": f"target_{kind}.json", "values": values},
        )
        family = FIT_FAMILY[kind]
        fit_pts = np.sort(rng.choice(interior, FIT_POINTS[family], replace=False))
        sample = np.sort(rng.choice(n * n, DENSITY_CHECK_POINTS, replace=False))
        commands.append(
            {
                "kind": kind,
                "name": f"energy_{kind}",
                "args": ["energy", "--map", f"map_{kind}.json",
                         "--scales", ",".join(repr(s) for s in scales), "--out", f"energy_{kind}"],
            }
        )
        args = ["mdiff", "--space", "space.json", "--atlas", "atlas.json",
                "--map", f"map_{kind}.json", "--family", family,
                "--points", ",".join(str(int(i)) for i in fit_pts), "--out", f"mdiff_{kind}.json"]
        if kind == THREADED_KIND:
            args += ["--threads", "2"]
        commands.append({"kind": kind, "name": f"mdiff_{kind}", "args": args})
        checks["kinds"][kind] = {
            "density": float(density),
            "sample": sample.tolist(),
            "fit_points": fit_pts.tolist(),
        }
    # every energy, then every mdiff: the two commands of one kind are
    # spread over the round rather than timed back to back
    commands.sort(key=lambda c: c["args"][0] != "energy")
    return {"workload": "density", "commands": commands, "checks": checks}


# -- dirichlet -------------------------------------------------------------


def harmonic_data(pts, angle, amplitude):
    """``amplitude * (x'^2 - y'^2, 2 x' y')`` in grid-centered coordinates
    rotated by ``angle``.  The rotation acts on the values as a rotation
    of R^2 by twice the angle, an isometry of the target."""
    rot = np.asarray([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    q = (pts - 0.5) @ rot.T
    return amplitude * np.stack([q[:, 0] ** 2 - q[:, 1] ** 2, 2.0 * q[:, 0] * q[:, 1]], axis=1)


def write_dirichlet(root, seed):
    """One problem per kind.  The seed moves the boundary data only by
    isometries of the target (a rotation of R^2; for geodesic data a sign,
    a shift along the geodesic and its direction), so every seed poses the
    same problem up to an isometry and the solver does the same work."""
    rng = np.random.default_rng([seed, 2])
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    commands = []
    checks = {"kinds": {}}
    for kind in KINDS:
        n, steps, solver = DIRICHLET[kind]
        pts = grid(n)
        h = 1.0 / (n - 1)
        scale = steps * h
        idx = np.arange(n * n).reshape(n, n)
        m = int(math.ceil(steps))
        interior = idx[m:n - m, m:n - m].ravel()
        outside = np.setdiff1d(np.arange(n * n), interior)
        space_name, target_name = f"space_{kind}.json", f"target_{kind}.json"
        write_json(root / space_name, {"kind": "euclidean", "points": pts.tolist()})
        if kind == "euclidean":
            write_json(root / target_name, {"kind": "euclidean", "dim": 2})
            data = harmonic_data(pts, rng.uniform(0.0, 2.0 * math.pi), 4.0)
            boundary = [[int(k), data[k].tolist()] for k in outside]
            params = {"data": data[outside].tolist()}
        else:
            write_json(root / target_name, target_spec(kind))
            # real-valued data f on the outside, sent along one geodesic;
            # the offset moves the branch-point crossing off the diagonals
            f = rng.choice([-1.0, 1.0]) * harmonic_data(pts, 0.0, 3.0)[:, 0] + 0.1
            geo = Geodesic(kind, rng)
            vals = geo.values(f[outside])
            boundary = [[int(k), v] for k, v in zip(outside, vals)]
            params = {"data": f[outside].tolist(), **geo.to_json()}
        problem = {
            "space": space_name,
            "target": target_name,
            "interior": interior.tolist(),
            "boundary_values": boundary,
            "scale": scale,
            "solver": solver,
        }
        write_json(root / f"problem_{kind}.json", problem)
        commands.append(
            {"kind": kind, "name": f"dirichlet_{kind}",
             "args": ["dirichlet", "--problem", f"problem_{kind}.json", "--out", f"sol_{kind}"]}
        )
        checks["kinds"][kind] = {
            "n": n, "scale": scale, "tol": solver["tol"], "interior": interior.tolist(),
            "outside": outside.tolist(), **params,
        }
    return {"workload": "dirichlet", "commands": commands, "checks": checks}


# -- audit -----------------------------------------------------------------


def write_audit(root, seed):
    rng = np.random.default_rng([seed, 3])
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    commands = []
    checks = {"samples": {}}
    for kind in KINDS + ("sphere",):
        write_json(root / f"target_{kind}.json", target_spec(kind))
        samples = SPHERE_SAMPLES if kind == "sphere" else AUDIT_SAMPLES[kind]
        audit_seed = int(rng.integers(0, 2**31 - 1))
        commands.append(
            {"kind": None if kind == "sphere" else kind, "name": f"verify_{kind}",
             "expect_exit": 2 if kind == "sphere" else 0,
             "args": ["verify", "--which", "cat0", "--target", f"target_{kind}.json",
                      "--samples", str(samples), "--seed", str(audit_seed),
                      "--out", f"audit_{kind}.json"]}
        )
        checks["samples"][kind] = samples
    return {"workload": "audit", "commands": commands, "checks": checks}


WRITERS = {"density": write_density, "dirichlet": write_dirichlet, "audit": write_audit}
