"""Output checks for the benchmark workloads.

Every check compares against a computation made here with numpy and
scipy, or against a property the method must have; none compares
against a stored copy of an earlier output.  Each function returns a
list of failure messages (empty when the outputs pass).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inputs import TREE_LEG, grid, hyperbolic_geodesic

SWEEP_HEADER = "scale,total,reliable"
DENSITY_HEADER = "index,density"
TRAJECTORY_HEADER = "sweep,energy"

KS_REL_TOL = 1e-9  # ks from its definition vs the CSV: rounding only
CLOSED_FORM_REL_TOL = 0.03  # sweep density vs closed form on interior points
FIT_REL_TOL = 0.05  # fitted vs swept density ...
FIT_AGREE_SHARE = 0.95  # ... on at least this share of the fitted points
# Dirichlet solutions vs the direct solve, in multiples of the solver tol
DIRECT_SOLVE_TOLS = 10.0
# the solver's own monotonicity audit allows rises of up to 1e-12
# (rounding of the energy sum); a larger rise is a failure
ENERGY_SLACK = 1e-12
CAT0_LIMIT = 1e-9
SPHERE_FLOOR = 1e-3


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0], rows


# -- target distances, from the file formats ----------------------------------


def tree_legs(values):
    """(leg, offset) arrays for tripod points; leg 0 is the center."""
    leg = np.empty(len(values), dtype=int)
    off = np.empty(len(values))
    for k, v in enumerate(values):
        if "vertex" in v:
            leg[k] = v["vertex"]
            off[k] = 0.0 if v["vertex"] == 0 else TREE_LEG
        else:
            leg[k] = v["edge"] + 1
            off[k] = v["t"]
    leg[off == 0.0] = 0
    return leg, off


def tree_dist(la, oa, lb, ob):
    """Tripod distance: along one leg, or out to the center and back."""
    return np.where((la == lb) | (la == 0) | (lb == 0), np.abs(oa - ob), oa + ob)


def mink(a, b):
    return a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]


def hyperbolic_dist(a, b):
    return np.arccosh(np.maximum(mink(a, b), 1.0))


def hyperbolic_dist_stable(a, b):
    """Distance from the chord, accurate for nearby points."""
    delta = a - b
    chord2 = np.maximum(-mink(delta, delta), 0.0)
    return 2.0 * np.arcsinh(np.sqrt(chord2) / 2.0)


class Values:
    """Map values of one target kind, with squared distances from one index."""

    def __init__(self, kind, values):
        self.kind = kind
        if kind == "euclidean":
            self.arr = np.asarray(values, dtype=float)
        elif kind == "tree":
            self.leg, self.off = tree_legs(values)
        elif kind == "hyperbolic":
            self.arr = np.asarray(values, dtype=float)
        elif kind == "product":
            self.parts = [
                Values("euclidean", [v[0] for v in values]),
                Values("tree", [v[1] for v in values]),
                Values("hyperbolic", [v[2] for v in values]),
            ]

    def dist2(self, i, idx):
        if self.kind == "euclidean":
            delta = self.arr[idx] - self.arr[i]
            return np.einsum("ij,ij->i", delta, delta)
        if self.kind == "tree":
            return tree_dist(self.leg[i], self.off[i], self.leg[idx], self.off[idx]) ** 2
        if self.kind == "hyperbolic":
            return hyperbolic_dist(self.arr[i], self.arr[idx]) ** 2
        return sum(part.dist2(i, idx) for part in self.parts)


def ks_from_definition(pts, values, i, r):
    """``ks`` at point i and scale r, p = 2, uniform weights, open balls."""
    delta = pts - pts[i]
    member = np.nonzero(np.einsum("ij,ij->i", delta, delta) < r * r)[0]
    if member.shape[0] < 2:
        return 0.0
    return math.sqrt(float(values.dist2(i, member).mean()) / (r * r))


# -- density -----------------------------------------------------------------


def check_density(plan, workdir):
    workdir = Path(workdir)
    chk = plan["checks"]
    pts = np.asarray(json.loads((workdir / "space.json").read_text())["points"])
    interior = np.asarray(chk["interior"])
    fails = []
    for kind, info in chk["kinds"].items():
        report = json.loads((workdir / f"energy_{kind}.json").read_text())
        header, _ = read_csv(workdir / f"energy_{kind}.sweep.csv")
        if header != SWEEP_HEADER:
            fails.append(f"{kind}: sweep CSV header {header!r}")
        header, rows = read_csv(workdir / f"energy_{kind}.density.csv")
        if header != DENSITY_HEADER:
            fails.append(f"{kind}: density CSV header {header!r}")
        if [int(r[0]) for r in rows] != list(range(pts.shape[0])):
            fails.append(f"{kind}: density CSV indices are not 0..n-1")
            continue
        dens = np.asarray([float(r[1]) for r in rows])
        r = report["selected_scale"]
        if r != min(chk["scales"]):
            fails.append(f"{kind}: selected scale {r} is not the smallest reliable one")
        values = Values(kind, json.loads((workdir / f"map_{kind}.json").read_text())["values"])
        for i in info["sample"]:
            ref = ks_from_definition(pts, values, i, r)
            if abs(dens[i] - ref) > KS_REL_TOL * max(ref, 1e-300) + 1e-12:
                fails.append(f"{kind}: ks at point {i} is {float(dens[i])!r}, definition gives {ref!r}")
                break
        closed = info["density"]
        rel = np.abs(dens[interior] - closed) / closed
        if rel.max() > CLOSED_FORM_REL_TOL:
            k = int(interior[np.argmax(rel)])
            fails.append(
                f"{kind}: sweep density {dens[k]!r} at interior point {k} is "
                f"{rel.max():.3%} from the closed form {closed!r}"
            )
        out = json.loads((workdir / f"mdiff_{kind}.json").read_text())
        requested = info["fit_points"]
        fitted = {e["index"]: e["density"] for e in out["fits"]}
        if len(fitted) < FIT_AGREE_SHARE * len(requested) or not set(fitted) <= set(requested):
            fails.append(f"{kind}: {len(fitted)} of {len(requested)} points fitted")
            continue
        idx = np.asarray(sorted(fitted))
        fit = np.asarray([fitted[i] for i in idx])
        agree = np.abs(fit - dens[idx]) <= FIT_REL_TOL * dens[idx]
        if agree.mean() < FIT_AGREE_SHARE:
            fails.append(
                f"{kind}: fitted and swept densities agree within {FIT_REL_TOL:.0%} "
                f"on only {agree.mean():.1%} of {idx.size} points"
            )
    return fails


# -- dirichlet ---------------------------------------------------------------


def averaging_solve(n, scale, interior, outside, data):
    """Direct sparse solve of the averaging system on an n x n grid.

    Each interior value is the mean of the other values in its open ball
    (uniform weights); ``data`` gives the values at ``outside``, one row
    per index, and may have several columns.
    """
    pts = grid(n)
    interior = np.asarray(interior)
    pos = -np.ones(n * n, dtype=int)
    pos[interior] = np.arange(interior.size)
    full = np.zeros((n * n, data.shape[1]))
    full[np.asarray(outside)] = data
    rows, cols, vals = [], [], []
    rhs = np.zeros((interior.size, data.shape[1]))
    for a, x in enumerate(interior):
        delta = pts - pts[x]
        nbr = np.nonzero(np.sqrt(np.einsum("ij,ij->i", delta, delta)) < scale)[0]
        nbr = nbr[nbr != x]
        rows.append(a)
        cols.append(a)
        vals.append(1.0)
        for j in nbr:
            if pos[j] >= 0:
                rows.append(a)
                cols.append(pos[j])
                vals.append(-1.0 / nbr.size)
            else:
                rhs[a] += full[j] / nbr.size
    mat = sp.csc_matrix((vals, (rows, cols)), shape=(interior.size, interior.size))
    return spla.splu(mat).solve(rhs)


def geodesic_distance(kind, info, solution, s):
    """Distances from solution points to the data geodesic at parameters s."""
    if kind == "tree":
        leg, off = tree_legs(solution)
        legs = info["legs"]
        gl = np.where(s < 0, legs[0], np.where(s > 0, legs[1], 0))
        return tree_dist(leg, off, gl, np.abs(s))
    if kind == "hyperbolic":
        return _hyp_geo_dist(np.asarray(solution, dtype=float), s, info["direction"])
    c = info["c"]
    eu = np.asarray([v[0] for v in solution]) - np.outer(c[0] * s, info["e"])
    d_eu = np.sqrt(np.einsum("ij,ij->i", eu, eu))
    d_tree = geodesic_distance("tree", info, [v[1] for v in solution], c[1] * s)
    d_hyp = _hyp_geo_dist(np.asarray([v[2] for v in solution], dtype=float), c[2] * s,
                          info["direction"])
    return np.sqrt(d_eu**2 + d_tree**2 + d_hyp**2)


def _hyp_geo_dist(points, s, direction):
    return hyperbolic_dist_stable(points, np.asarray(hyperbolic_geodesic(s, direction)))


def check_dirichlet(plan, workdir):
    workdir = Path(workdir)
    fails = []
    for kind, info in plan["checks"]["kinds"].items():
        tol = info["tol"]
        report = json.loads((workdir / f"sol_{kind}.report.json").read_text())
        if not report["converged"]:
            fails.append(f"{kind}: not converged")
        gap = report["uniqueness_gap"]
        if gap is None or gap > 10.0 * tol:
            fails.append(f"{kind}: uniqueness gap {gap} above 10 tol = {10 * tol}")
        header, rows = read_csv(workdir / f"sol_{kind}.trajectory.csv")
        if header != TRAJECTORY_HEADER:
            fails.append(f"{kind}: trajectory CSV header {header!r}")
        energy = np.asarray([float(r[1]) for r in rows])
        if energy.size < 2 or np.any(np.diff(energy) > ENERGY_SLACK):
            fails.append(f"{kind}: relaxation energy trajectory is not nonincreasing")
        values = json.loads((workdir / f"sol_{kind}.solution.json").read_text())["values"]
        interior = info["interior"]
        solution = [values[i] for i in interior]
        data = np.asarray(info["data"], dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        direct = averaging_solve(info["n"], info["scale"], interior, info["outside"], data)
        if kind == "euclidean":
            err = np.sqrt(((np.asarray(solution, dtype=float) - direct) ** 2).sum(axis=1))
        else:
            # geodesics are convex in CAT(0) spaces: the solution is the
            # geodesic image of the real-valued solve
            err = geodesic_distance(kind, info, solution, direct[:, 0])
        if err.max() > DIRECT_SOLVE_TOLS * tol:
            k = int(np.argmax(err))
            fails.append(
                f"{kind}: solution at index {interior[k]} is {err.max():.3g} from the "
                f"direct solve (limit {DIRECT_SOLVE_TOLS * tol:.3g})"
            )
    return fails


# -- audit -------------------------------------------------------------------


def check_audit(plan, workdir):
    workdir = Path(workdir)
    fails = []
    for kind, samples in plan["checks"]["samples"].items():
        out = json.loads((workdir / f"audit_{kind}.json").read_text())
        if out["kind"] != kind or out["n_samples"] != samples:
            fails.append(f"{kind}: audit reports kind {out['kind']} with {out['n_samples']} samples")
        worst = max(out["max_point_violation"], out["max_geodesic_violation"])
        if kind == "sphere":
            if not worst > SPHERE_FLOOR:
                fails.append(f"sphere: violation {worst!r} not above {SPHERE_FLOOR}")
        elif not worst <= CAT0_LIMIT:
            fails.append(f"{kind}: violation {worst!r} above {CAT0_LIMIT}")
    return fails


CHECKS = {"density": check_density, "dirichlet": check_dirichlet, "audit": check_audit}
