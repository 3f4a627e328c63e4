"""Complete geodesic target spaces.

Four shipped kinds (Euclidean space, metric trees, the hyperbolic plane
in the hyperboloid model, and finite products) are all CAT(0).  A round
sphere is included as a deliberate counterexample double for the
curvature audits; it is rejected wherever a CAT(0) target is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

_GEO_TOL = 1e-9


@dataclass(frozen=True)
class TreePoint:
    """A position on a metric tree: either a vertex or an edge offset.

    Edge-endpoint aliases are canonicalized to the vertex form so that
    point equality is decidable.
    """

    vertex: int | None = None
    edge: int | None = None
    t: float = 0.0

    def is_vertex(self):
        return self.vertex is not None


def _columns(P):
    """The columns of packed rows, each contiguous, for broadcasting.

    Taken before the operands broadcast, so the copy is of the rows only.
    """
    return np.ascontiguousarray(np.moveaxis(P, -1, 0))


class GeodesicTarget:
    """Base interface: distance, constant-speed geodesics, sampling.

    Besides the scalar ``dist`` on point objects, every kind packs a value
    list into one ``(n, width)`` float array (``pack``) and measures
    packed rows in one batched kernel (``dists``) that computes, pair for
    pair, what ``dist`` computes.
    """

    kind = "abstract"
    is_cat0 = True

    def dist(self, a, b):
        raise NotImplementedError

    def geodesic_point(self, a, b, s):
        raise NotImplementedError

    def canonical(self, p):
        return p

    def validate_point(self, p):
        return self.canonical(p)

    def random_point(self, rng):
        raise NotImplementedError

    def pack(self, values):
        """Canonical values as one ``(n, width)`` float array.

        Coordinate kinds pack their coordinates.
        """
        return np.asarray(values, dtype=float).reshape(len(values), self.width)

    def dists(self, A, B, squared=False):
        """Distances between packed rows whose leading shapes broadcast.

        ``P[rows][:, None]`` against ``P[cols][None, :]`` gives a block,
        one row against many gives a vector, equal shapes give pairs.
        """
        raise NotImplementedError

    def equal(self, a, b):
        return self.dist(a, b) == 0.0

    def point_to_json(self, p):
        raise NotImplementedError

    def point_from_json(self, obj):
        raise NotImplementedError


class EuclideanTarget(GeodesicTarget):
    kind = "euclidean"

    def __init__(self, dim):
        if dim < 1:
            raise ValidationError("euclidean dimension must be >= 1")
        self.dim = int(dim)
        self.width = self.dim

    def canonical(self, p):
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.shape[0] != self.dim:
            raise ValidationError(f"point dimension {p.shape[0]} != {self.dim}")
        return p

    def dist(self, a, b):
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    def dists(self, A, B, squared=False):
        delta = A - B
        d2 = np.einsum("...k,...k->...", delta, delta)
        return d2 if squared else np.sqrt(d2)

    def geodesic_point(self, a, b, s):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        return (1.0 - s) * a + s * b

    def random_point(self, rng):
        return rng.normal(0.0, 1.0, self.dim)

    def point_to_json(self, p):
        return [float(x) for x in np.asarray(p).reshape(-1)]

    def point_from_json(self, obj):
        return self.canonical(obj)


class TreeTarget(GeodesicTarget):
    """A metric tree given by vertices and positively weighted edges."""

    kind = "tree"
    width = 6

    def __init__(self, n_vertices, edges):
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v), float(l)) for u, v, l in edges]
        if len(self.edges) != self.n_vertices - 1:
            raise ValidationError("a tree on n vertices has exactly n-1 edges")
        for u, v, l in self.edges:
            if l <= 0:
                raise ValidationError("edge lengths must be positive")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValidationError("edge endpoint out of range")
        self._adj = [[] for _ in range(self.n_vertices)]
        for e, (u, v, l) in enumerate(self.edges):
            self._adj[u].append((v, e, l))
            self._adj[v].append((u, e, l))
        self._edge_of = {}
        for e, (u, v, _) in enumerate(self.edges):
            self._edge_of[(u, v)] = e
            self._edge_of[(v, u)] = e
        self._vdist, self._next_hop = self._vertex_tables()

    def _vertex_tables(self):
        n = self.n_vertices
        dist = np.full((n, n), np.inf)
        nxt = np.full((n, n), -1, dtype=int)
        for s in range(n):
            dist[s, s] = 0.0
            stack = [s]
            seen = {s}
            while stack:
                u = stack.pop()
                for v, _e, l in self._adj[u]:
                    if v in seen:
                        continue
                    seen.add(v)
                    dist[s, v] = dist[s, u] + l
                    nxt[s, v] = v if u == s else nxt[s, u]
                    stack.append(v)
            if len(seen) != n:
                raise ValidationError("tree graph is not connected")
        return dist, nxt

    # -- points ----------------------------------------------------------

    def canonical(self, p):
        if isinstance(p, TreePoint):
            if p.is_vertex():
                if not 0 <= p.vertex < self.n_vertices:
                    raise ValidationError("vertex index out of range")
                return p
            e, t = p.edge, p.t
        else:
            e, t = p
        if not 0 <= e < len(self.edges):
            raise ValidationError("edge index out of range")
        u, v, l = self.edges[e]
        if not -1e-12 <= t <= l + 1e-12:
            raise ValidationError("edge offset outside the edge length")
        t = min(max(t, 0.0), l)
        if t == 0.0:
            return TreePoint(vertex=u)
        if t == l:
            return TreePoint(vertex=v)
        return TreePoint(edge=e, t=t)

    def _anchors(self, p):
        """(vertex, leg distance) pairs describing a point."""
        if p.is_vertex():
            return ((p.vertex, 0.0),)
        u, v, l = self.edges[p.edge]
        return ((u, p.t), (v, l - p.t))

    def dist(self, a, b):
        a = self.canonical(a)
        b = self.canonical(b)
        if not a.is_vertex() and not b.is_vertex() and a.edge == b.edge:
            return abs(a.t - b.t)
        best = np.inf
        for va, da in self._anchors(a):
            for vb, db in self._anchors(b):
                best = min(best, da + self._vdist[va, vb] + db)
        return float(best)

    def geodesic_point(self, a, b, s):
        a = self.canonical(a)
        b = self.canonical(b)
        total = self.dist(a, b)
        if total == 0.0 or s <= 0.0:
            return a
        if s >= 1.0:
            return b
        walk = s * total
        if not a.is_vertex() and not b.is_vertex() and a.edge == b.edge:
            t = a.t + math.copysign(walk, b.t - a.t)
            return self.canonical(TreePoint(edge=a.edge, t=t))
        # choose the exit/entry anchors realizing the shortest route
        best = None
        for va, da in self._anchors(a):
            for vb, db in self._anchors(b):
                length = da + self._vdist[va, vb] + db
                if best is None or length < best[0] - 1e-15:
                    best = (length, va, da, vb, db)
        _, va, da, vb, db = best
        if walk <= da:
            # still on a's edge, moving toward va
            u, v, l = self.edges[a.edge]
            t = a.t - walk if va == u else a.t + walk
            return self.canonical(TreePoint(edge=a.edge, t=t))
        walk -= da
        u = va
        while u != vb and walk > 0.0:
            v = int(self._next_hop[u, vb])
            e = self._edge_of[(u, v)]
            eu, ev, l = self.edges[e]
            if walk < l:
                t = walk if u == eu else l - walk
                return self.canonical(TreePoint(edge=e, t=t))
            walk -= l
            u = v
        if u == vb and walk > 0.0:
            # inside b's edge, moving away from vb
            eu, ev, l = self.edges[b.edge]
            t = walk if vb == eu else l - walk
            return self.canonical(TreePoint(edge=b.edge, t=t))
        return TreePoint(vertex=u)

    def random_point(self, rng):
        e = int(rng.integers(0, len(self.edges)))
        t = float(rng.uniform(0.0, self.edges[e][2]))
        return self.canonical(TreePoint(edge=e, t=t))

    def pack(self, values):
        """Rows (anchor u, anchor v, leg to u, leg to v, edge, offset).

        A vertex packs as both anchors with zero legs and edge -1.
        """
        out = np.empty((len(values), self.width))
        for k, p in enumerate(values):
            if p.is_vertex():
                out[k] = (p.vertex, p.vertex, 0.0, 0.0, -1.0, 0.0)
            else:
                u, v, l = self.edges[p.edge]
                out[k] = (u, v, p.t, l - p.t, p.edge, p.t)
        return out

    def dists(self, A, B, squared=False):
        D = self._vdist
        ua, va, lua, lva, ea, ta = _columns(A)
        ub, vb, lub, lvb, eb, tb = _columns(B)
        ua, va, ub, vb = (x.astype(np.intp) for x in (ua, va, ub, vb))
        best = lua + D[ua, ub] + lub
        best = np.minimum(best, lua + D[ua, vb] + lvb)
        best = np.minimum(best, lva + D[va, ub] + lub)
        best = np.minimum(best, lva + D[va, vb] + lvb)
        same = (ea == eb) & (ea >= 0)
        if np.any(same):
            best = np.where(same, np.abs(ta - tb), best)
        return best**2 if squared else best

    def point_to_json(self, p):
        p = self.canonical(p)
        if p.is_vertex():
            return {"vertex": int(p.vertex)}
        return {"edge": int(p.edge), "t": float(p.t)}

    def point_from_json(self, obj):
        if "vertex" in obj:
            return TreePoint(vertex=int(obj["vertex"]))
        return self.canonical(TreePoint(edge=int(obj["edge"]), t=float(obj["t"])))


class HyperbolicTarget(GeodesicTarget):
    """Hyperbolic plane on the upper hyperboloid x0^2 - x1^2 - x2^2 = 1."""

    kind = "hyperbolic"
    width = 3

    @staticmethod
    def _mink(a, b):
        return a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]

    def canonical(self, p):
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.shape[0] != 3 or p[0] <= 0:
            raise ValidationError("hyperboloid point needs (x0, x1, x2), x0 > 0")
        if abs(self._mink(p, p) - 1.0) > 1e-9:
            raise ValidationError("point off the hyperboloid beyond 1e-9")
        return p

    @staticmethod
    def lift(x12):
        """Lift plane coordinates (x1, x2) onto the hyperboloid."""
        x12 = np.asarray(x12, dtype=float)
        x0 = np.sqrt(1.0 + x12[..., 0] ** 2 + x12[..., 1] ** 2)
        return np.concatenate([x0[..., None], x12], axis=-1)

    def dist(self, a, b):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        if a[1] == b[1] and a[2] == b[2]:
            return 0.0
        m = self._mink(a, b)
        return float(np.arccosh(max(m, 1.0)))

    def dists(self, A, B, squared=False):
        (a0, a1, a2), (b0, b1, b2) = _columns(A), _columns(B)
        m = a0 * b0 - a1 * b1 - a2 * b2
        d = np.where((a1 == b1) & (a2 == b2), 0.0, np.arccosh(np.maximum(m, 1.0)))
        return d**2 if squared else d

    def geodesic_point(self, a, b, s):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        theta = self.dist(a, b)
        if theta < 1e-12:
            return a.copy()
        v = (b - math.cosh(theta) * a) / math.sinh(theta)
        out = math.cosh(s * theta) * a + math.sinh(s * theta) * v
        out[0] = math.sqrt(1.0 + out[1] ** 2 + out[2] ** 2)
        return out

    def random_point(self, rng):
        return self.lift(rng.normal(0.0, 1.0, 2))

    def point_to_json(self, p):
        return [float(x) for x in np.asarray(p).reshape(-1)]

    def point_from_json(self, obj):
        return self.canonical(obj)


class ProductTarget(GeodesicTarget):
    """2-norm product of component targets; points are tuples."""

    kind = "product"

    def __init__(self, components):
        if not components:
            raise ValidationError("product needs at least one component")
        self.components = list(components)
        self.is_cat0 = all(c.is_cat0 for c in self.components)
        widths = [c.width for c in self.components]
        self.width = sum(widths)
        self._offsets = np.cumsum([0] + widths[:-1]).tolist()

    def canonical(self, p):
        if len(p) != len(self.components):
            raise ValidationError("component count mismatch")
        return tuple(c.canonical(q) for c, q in zip(self.components, p))

    def dist(self, a, b):
        return math.sqrt(
            sum(c.dist(x, y) ** 2 for c, x, y in zip(self.components, a, b))
        )

    def geodesic_point(self, a, b, s):
        return tuple(
            c.geodesic_point(x, y, s) for c, x, y in zip(self.components, a, b)
        )

    def random_point(self, rng):
        return tuple(c.random_point(rng) for c in self.components)

    def pack(self, values):
        """The components' packed columns side by side."""
        return np.concatenate(
            [c.pack([v[k] for v in values]) for k, c in enumerate(self.components)],
            axis=1,
        )

    def dists(self, A, B, squared=False):
        total = None
        for c, lo in zip(self.components, self._offsets):
            cols = slice(lo, lo + c.width)
            d2 = c.dists(A[..., cols], B[..., cols], squared=True)
            total = d2 if total is None else total + d2
        return total if squared else np.sqrt(total)

    def point_to_json(self, p):
        return [c.point_to_json(q) for c, q in zip(self.components, p)]

    def point_from_json(self, obj):
        return tuple(c.point_from_json(q) for c, q in zip(self.components, obj))


class SphereTarget(GeodesicTarget):
    """Unit round 2-sphere: the curvature-audit counterexample double.

    Not CAT(0); shipped so verification commands can demonstrate a
    strictly positive violation.  Geodesics between antipodes pick a
    fixed tie-break.
    """

    kind = "sphere"
    is_cat0 = False
    width = 3

    def canonical(self, p):
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.shape[0] != 3:
            raise ValidationError("sphere point needs 3 coordinates")
        n = np.linalg.norm(p)
        if abs(n - 1.0) > 1e-9:
            raise ValidationError("point off the unit sphere beyond 1e-9")
        return p / n

    def dist(self, a, b):
        d = float(np.clip(np.dot(a, b), -1.0, 1.0))
        return math.acos(d)

    def dists(self, A, B, squared=False):
        d = np.arccos(np.clip(np.einsum("...k,...k->...", A, B), -1.0, 1.0))
        return d**2 if squared else d

    def geodesic_point(self, a, b, s):
        theta = self.dist(a, b)
        if theta < 1e-12:
            return np.asarray(a, float).copy()
        if theta > math.pi - 1e-9:
            # antipodal tie-break: nudge b toward a deterministic normal
            k = int(np.argmin(np.abs(a)))
            w = np.zeros(3)
            w[k] = 1.0
            w = w - np.dot(w, a) * a
            b = np.asarray(b, float) + 1e-9 * w / np.linalg.norm(w)
            b = b / np.linalg.norm(b)
            theta = self.dist(a, b)
        out = (
            math.sin((1 - s) * theta) * np.asarray(a, float)
            + math.sin(s * theta) * np.asarray(b, float)
        ) / math.sin(theta)
        return out / np.linalg.norm(out)

    def random_point(self, rng):
        v = rng.normal(0.0, 1.0, 3)
        return v / np.linalg.norm(v)

    def point_to_json(self, p):
        return [float(x) for x in np.asarray(p).reshape(-1)]

    def point_from_json(self, obj):
        return self.canonical(obj)


def build_target(spec):
    """Construct a target from its plain-dict description."""
    kind = spec.get("kind")
    if kind == "euclidean":
        return EuclideanTarget(spec["dim"])
    if kind == "tree":
        return TreeTarget(spec["vertices"], spec["edges"])
    if kind == "hyperbolic":
        return HyperbolicTarget()
    if kind == "product":
        return ProductTarget([build_target(c) for c in spec["components"]])
    if kind == "sphere":
        return SphereTarget()
    raise ValidationError(f"unknown target kind {kind!r}")


def target_to_json(t):
    if t.kind == "euclidean":
        return {"kind": "euclidean", "dim": t.dim}
    if t.kind == "tree":
        return {
            "kind": "tree",
            "vertices": t.n_vertices,
            "edges": [[u, v, l] for u, v, l in t.edges],
        }
    if t.kind == "hyperbolic":
        return {"kind": "hyperbolic"}
    if t.kind == "product":
        return {"kind": "product", "components": [target_to_json(c) for c in t.components]}
    if t.kind == "sphere":
        return {"kind": "sphere"}
    raise ValidationError(f"unknown target kind {t.kind!r}")


# -- audits and constructions -----------------------------------------------


@dataclass
class Cat0Report:
    n_samples: int
    max_point_violation: float
    max_geodesic_violation: float

    @property
    def max_violation(self):
        return max(self.max_point_violation, self.max_geodesic_violation)


def cat0_audit(target, n_samples, seed=0, s_steps=9):
    """Sampled audit of the two quadratic comparison inequalities.

    Over seeded random configurations and an s-grid, evaluates the
    point-to-geodesic inequality and the two-geodesic inequality; for
    CAT(0) kinds both maxima stay at numerical-noise level.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
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
    return Cat0Report(
        n_samples=n_samples,
        max_point_violation=float(worst_pt),
        max_geodesic_violation=float(worst_geo),
    )


def barycenter(target, pts, weights, tol=1e-9, max_passes=10_000):
    """Weighted barycenter: the minimizer of the squared-distance sum.

    Euclidean targets use the closed-form mean and products split
    componentwise.  Otherwise the estimate cycles through the points,
    stepping toward each by the running weight fraction (so the first
    pass is the inductive mean and later passes keep shrinking the
    steps), until the displacement over a full pass drops below
    ``tol``.
    """
    pts = [target.canonical(p) for p in pts]
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(pts) == 0:
        raise ValidationError("barycenter needs at least one point")
    if w.shape[0] != len(pts) or np.any(w <= 0):
        raise ValidationError("weights must be positive, one per point")
    if len(pts) == 1:
        return pts[0]
    if isinstance(target, EuclideanTarget):
        arr = np.asarray(pts, dtype=float)
        return (w[:, None] * arr).sum(axis=0) / w.sum()
    if isinstance(target, ProductTarget):
        return tuple(
            barycenter(c, [p[k] for p in pts], w, tol=tol, max_passes=max_passes)
            for k, c in enumerate(target.components)
        )
    z = pts[0]
    running = 0.0
    for p in range(max_passes):
        start = z
        for q, wq in zip(pts, w):
            running += wq
            z = target.geodesic_point(z, q, wq / running)
        disp = target.dist(start, z)
        if disp < tol:
            return z
    raise ConvergenceError(
        f"barycenter did not converge in {max_passes} passes",
        last=z,
        residual=disp,
    )


def kuratowski_embed(target, landmarks, base, z):
    """Landmark coordinates ``d(z, l_k) - d(base, l_k)``.

    A finite truncation of the distance-function embedding: 1-Lipschitz
    for the sup norm, exact on pairs that are both landmarks, and
    sending the base point to the origin.
    """
    if not landmarks:
        raise ValidationError("landmark list must be nonempty")
    return np.asarray(
        [target.dist(z, l) - target.dist(base, l) for l in landmarks], dtype=float
    )
