"""Complete geodesic target spaces.

Four shipped kinds (Euclidean space, metric trees, the hyperbolic plane
in the hyperboloid model, and finite products) are all CAT(0).  A round
sphere is included as a deliberate counterexample double for the
curvature audits; it is rejected wherever a CAT(0) target is required.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError


def _columns(P):
    """The columns of packed rows, each contiguous, for broadcasting.

    Taken before the operands broadcast, so the copy is of the rows only.
    """
    return np.ascontiguousarray(np.moveaxis(P, -1, 0))


def _norm(P):
    """Euclidean norms of rows, keeping the last axis for broadcasting."""
    return np.sqrt(np.einsum("...k,...k->...", P, P))[..., None]


def _slices(widths):
    """Consecutive column slices of the given widths."""
    ends = np.cumsum(widths, dtype=int)
    return [slice(int(e - w), int(e)) for e, w in zip(ends, widths)]


def _is_number(x):
    """Whether a value is a real number (``True`` and ``False`` are not)."""
    return type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x):
    """Whether a value is a real number with an integral value."""
    return _is_number(x) and float(x).is_integer()


def _is_row(p):
    """Whether a value is a packed row: a flat integer or float array."""
    return isinstance(p, np.ndarray) and p.ndim == 1 and p.dtype.kind in "iuf"


def _valid(rows, checks, index=None):
    """``rows``, unless a value fails ``checks``: ``(mask, reason)`` pairs,
    each reason a string or a function of the position.  The first bad
    value raises a ``ValidationError`` with the reason of its first mask,
    after ``value at index j: `` when ``index`` gives its j."""
    bad = np.any([mask for mask, _ in checks], axis=0)
    if not bad.any():
        return rows
    k = int(np.argmax(bad))
    reason = next(r for mask, r in checks if mask[k])
    reason = reason(k) if callable(reason) else reason
    if index is None:
        raise ValidationError(reason)
    raise ValidationError(f"value at index {int(index[k])}: {reason}", detail=int(index[k]))


class GeodesicTarget:
    """Base interface: distance, constant-speed geodesics, sampling.

    Packed rows are the one stored form of target values: ``pack`` turns
    values into one validated ``(n, width)`` float array, and each kind's
    batched kernels ``dists``, ``geodesics``, ``random_points`` and
    ``barycenters`` work on such arrays.  They are the kind's only
    distance and geodesic code: ``dist`` and ``geodesic_point`` are their
    one-pair calls.  A point is its JSON value or a packed row: each kind
    reads both with one reader, ``_rows``, into rows and the checks of
    ``_valid``, and writes rows as JSON values (``_rows_to_json``).  The
    scalar API takes either form for a point and returns JSON values.
    """

    kind = "abstract"
    is_cat0 = True

    def canonical(self, p):
        """The validated JSON value of a point or a packed row."""
        return self._rows_to_json(_valid(*self._rows([p])))[0]

    def random_point(self, rng):
        """One random point's JSON value, drawn as one packed row."""
        return self._rows_to_json(self.random_points(rng, 1))[0]

    def random_points(self, rng, k):
        """``k`` random points as packed rows.

        Every kind draws each point from ``_draw_width`` standard normals,
        all ``k`` points in one ``rng.normal`` block, and ``_from_draws``
        maps the rows of draws to points (a tree takes an edge from the
        angle of a normal pair and an offset from its radius).  A block
        consumes the stream row by row, so ``k`` calls of ``random_point``
        consume ``rng`` as this call does and give the same points.
        """
        return self._from_draws(rng.normal(0.0, 1.0, (k, self._draw_width)))

    def pack(self, values, index=None):
        """Validated canonical values as one ``(n, width)`` float array.

        ``values`` holds JSON values of points or packed rows.  A bad value
        raises a ``ValidationError`` naming the first bad index, its
        position in ``values`` or, when given, ``index`` at that position.
        """
        return _valid(*self._rows(values), range(len(values)) if index is None else index)

    def dist(self, a, b):
        """The distance of two points: one pair of ``dists``."""
        P = self.pack([a, b])
        return float(self.dists(P[0], P[1]))

    def geodesic_point(self, a, b, s):
        """The JSON value of the point at parameter ``s`` on the geodesic
        from a to b: one pair of ``geodesics``."""
        P = self.pack([a, b])
        return self.canonical(self.geodesics(P[0], P[1], s))

    def dists(self, A, B, squared=False):
        """Distances between packed rows whose leading shapes broadcast.

        ``P[rows][:, None]`` against ``P[cols][None, :]`` gives a block,
        one row against many gives a vector, equal shapes give pairs.
        """
        raise NotImplementedError

    def geodesics(self, A, B, s):
        """Packed geodesic points at parameter ``s`` from rows A to rows B.

        The leading shapes broadcast as in ``dists``.  ``s <= 0`` gives A,
        ``s >= 1`` gives B and a pair at distance zero gives A; tree rows
        come out canonical.
        """
        A, B = np.broadcast_arrays(A, B)
        if s <= 0.0:
            return A.copy()
        if s >= 1.0:
            return B.copy()
        return self._geodesics(A, B, s)

    def _geodesics(self, A, B, s):
        """``geodesics`` for ``0 < s < 1`` on rows of equal shape."""
        raise NotImplementedError

    def barycenters(self, rows, ptr, weights, tol=1e-9, max_passes=10_000):
        """Weighted barycenters of ragged groups of packed rows, one row each.

        Group k is ``rows[ptr[k]:ptr[k+1]]``, nonempty, with positive weights
        at the same positions of ``weights``; its barycenter minimizes the
        weighted squared-distance sum.  A one-row group is its own
        barycenter, and a group's row does not depend on the other groups
        of the call.  Iterative kinds stop a group when its step is shorter
        than ``tol`` and raise ``ConvergenceError`` after ``max_passes``
        iterations; exact kinds ignore both.
        """
        return self._barycenters(rows, ptr, weights, tol, max_passes)[0]

    def _barycenters(self, rows, ptr, weights, tol, max_passes):
        """``barycenters`` and one residual per group: a bound on the
        distance of the group's returned row to its exact barycenter, zero
        for the exact kinds.  Like its row, a group's residual does not
        depend on the other groups of the call."""
        raise NotImplementedError


class _CoordinateTarget(GeodesicTarget):
    """A kind whose points are float coordinate vectors, their own rows."""

    # the reason a point of the right size is rejected
    _off_reason = "point coordinates must be finite"

    def _rows(self, values):
        ok = np.array([_is_row(v) or isinstance(v, (list, tuple)) and all(map(_is_number, v))
                       for v in values], dtype=bool)
        sizes = [len(v) if good else self.width for v, good in zip(values, ok)]
        fits = np.array(sizes) == self.width
        # a value that is not a point of the right size is checked as the zero row
        blank = (0.0,) * self.width
        P = np.array([v if good else blank for v, good in zip(values, ok & fits)],
                     dtype=float).reshape(-1, self.width)
        with np.errstate(invalid="ignore", over="ignore"):
            off = ~np.isfinite(P).all(axis=1) | self._off(P)
        return P, [(~ok, "a point must be a list of numbers"),
                   (~fits, lambda k: f"point dimension {sizes[k]} != {self.width}"),
                   (off, self._off_reason)]

    def _rows_to_json(self, rows):
        return rows.tolist()

    def _off(self, P):
        """Whether finite rows lie off the kind's manifold."""
        return np.zeros(P.shape[:-1], dtype=bool)


class EuclideanTarget(_CoordinateTarget):
    kind = "euclidean"

    def __init__(self, dim):
        if dim < 1:
            raise ValidationError("euclidean dimension must be >= 1")
        self.dim = int(dim)
        self.width = self._draw_width = self.dim

    def dists(self, A, B, squared=False):
        delta = A - B
        d2 = np.einsum("...k,...k->...", delta, delta)
        return d2 if squared else np.sqrt(d2)

    def _geodesics(self, A, B, s):
        return (1.0 - s) * A + s * B

    def _barycenters(self, rows, ptr, weights, tol, max_passes):
        # the closed-form weighted means of all groups at once
        num = np.add.reduceat(weights[:, None] * rows, ptr[:-1], axis=0)
        return num / np.add.reduceat(weights, ptr[:-1])[:, None], np.zeros(len(ptr) - 1)

    def _from_draws(self, D):
        return D


# edges per block of the tree barycenters: their memory grows with the
# rows, not with the tree
_EDGE_BLOCK = 32


class TreeTarget(GeodesicTarget):
    """A metric tree given by vertices and positively weighted edges.

    A point packs as the row (anchor u, anchor v, leg to u, leg to v,
    edge, offset); a vertex as both anchors with zero legs and edge -1.
    """

    kind = "tree"
    width = 6
    # a point is drawn from the angle and the radius of a normal pair
    _draw_width = 2

    def __init__(self, n_vertices, edges):
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v), float(l)) for u, v, l in edges]
        if len(self.edges) != self.n_vertices - 1:
            raise ValidationError("a tree on n vertices has exactly n-1 edges")
        if not self.edges:
            # one point: nothing to sample, and no edge to hold a barycenter
            raise ValidationError("a tree target needs at least one edge")
        for e, (u, v, l) in enumerate(self.edges):
            if not (math.isfinite(l) and l > 0):
                raise ValidationError(
                    f"edge {e}: length {l} is not positive and finite", detail=e
                )
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValidationError(f"edge {e}: endpoint out of range", detail=e)
        self._adj = [[] for _ in range(self.n_vertices)]
        for e, (u, v, l) in enumerate(self.edges):
            self._adj[u].append((v, e, l))
            self._adj[v].append((u, e, l))
        ends = np.asarray([(u, v) for u, v, _ in self.edges], dtype=np.intp)
        self._eu, self._ev = ends.reshape(-1, 2).T
        self._len = np.asarray([l for _, _, l in self.edges], dtype=float)
        # edge joining two adjacent vertices, -1 elsewhere
        self._edge_index = np.full((self.n_vertices, self.n_vertices), -1, dtype=np.intp)
        self._edge_index[self._eu, self._ev] = np.arange(len(self.edges))
        self._edge_index[self._ev, self._eu] = np.arange(len(self.edges))
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

    def _triple(self, p):
        """(vertex, edge, offset) of a JSON tree point or a packed row, edge
        < 0 for a vertex; None for a value of neither form."""
        if isinstance(p, dict):
            if _is_number(p.get("vertex")):
                return p["vertex"], -1, 0.0
            if _is_number(p.get("edge")) and _is_number(p.get("t")):
                return -1, p["edge"], p["t"]
        elif _is_row(p) and p.size == self.width:
            return p[0], p[4], p[5]
        return None

    def _rows(self, values):
        triples = [self._triple(p) for p in values]
        bad = np.array([t is None for t in triples], dtype=bool)
        # a value of neither form is checked as vertex 0
        T = np.array([t or (0, -1, 0.0) for t in triples], dtype=float).reshape(-1, 3)
        rows, checks = self._rows_of(*T.T)
        return rows, [(bad, 'a tree point must be {"vertex": v} or {"edge": e, "t": offset}'),
                      *checks]

    def _rows_to_json(self, rows):
        return [{"vertex": int(u)} if e < 0 else {"edge": int(e), "t": t}
                for u, e, t in rows[:, [0, 4, 5]].tolist()]

    def _rows_of(self, vertex, edge, t):
        """Canonical rows of points and the checks of their validity.

        A point is a vertex (a negative edge) or an edge and an offset.  An
        offset within 1e-12 of its edge is clamped onto it and an edge end
        becomes its vertex.  A vertex or an edge must be an index in range,
        and an edge's offset must lie on it.
        """
        on = ~(edge < 0)
        e_in = (edge >= 0) & (edge < len(self.edges))
        e_whole = edge == np.floor(edge)
        e = np.where(e_in & e_whole, edge, 0).astype(np.intp)
        u, v, l = self._eu[e], self._ev[e], self._len[e]
        v_in = (vertex >= 0) & (vertex < self.n_vertices)
        v_whole = vertex == np.floor(vertex)
        checks = [
            (~on & ~v_in, "vertex index out of range"),
            (~on & ~v_whole, lambda k: f"vertex index {float(vertex[k])} is not an integer"),
            (on & ~e_in, "edge index out of range"),
            (on & ~e_whole, lambda k: f"edge index {float(edge[k])} is not an integer"),
            (on & ~((t >= -1e-12) & (t <= l + 1e-12)), "edge offset outside the edge length"),
        ]
        t = np.minimum(np.maximum(t, 0.0), l)
        # the vertex of each row, -1 for a point inside its edge
        w = np.where(on, np.where(t == 0.0, u, np.where(t == l, v, -1)), vertex)
        inside = w < 0
        rows = np.stack([np.where(inside, u, w), np.where(inside, v, w), t, l - t, e, t], axis=-1)
        rows[~inside, 2:] = (0.0, 0.0, -1.0, 0.0)
        return rows, checks

    def _from_draws(self, D):
        # the angle of a standard normal pair is uniform and independent of
        # its radius r, and 1 - exp(-r^2 / 2) is uniform on [0, 1): a
        # uniform edge and a uniform offset on it
        z0, z1 = D[:, 0], D[:, 1]
        n = len(self.edges)
        e = np.floor(n * (np.arctan2(z1, z0) + np.pi) / (2.0 * np.pi))
        e = np.minimum(e, n - 1).astype(np.intp)
        t = self._len[e] * -np.expm1(-0.5 * (z0 * z0 + z1 * z1))
        return self._rows_of(-1, e, t)[0]

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

    def _geodesics(self, A, B, s):
        shape = A.shape
        A = A.reshape(-1, self.width)
        B = B.reshape(-1, self.width)
        walk = s * self.dists(A, B)
        ua, va, lua, lva, ea, ta = A.T
        ub, vb, lub, lvb, eb, tb = B.T
        ua, va, ub, vb, ea, eb = (x.astype(np.intp) for x in (ua, va, ub, vb, ea, eb))
        # exit and entry anchors of the shortest route: of the four anchor
        # pairs, a later one wins only when shorter by more than 1e-15
        D = self._vdist
        best, xa, da, xb = lua + D[ua, ub] + lub, ua, lua, ub
        for x, dx, y, dy in ((ua, lua, vb, lvb), (va, lva, ub, lub), (va, lva, vb, lvb)):
            length = dx + D[x, y] + dy
            better = length < best - 1e-15
            best = np.where(better, length, best)
            xa, da, xb = (np.where(better, new, old) for new, old in ((x, xa), (dx, da), (y, xb)))
        # result per row: edge and offset, or vertex where the edge is -1
        res_e = np.full(A.shape[0], -1, dtype=np.intp)
        res_t = np.zeros(A.shape[0])
        res_w = np.zeros(A.shape[0], dtype=np.intp)
        moving = walk > 0.0
        same = moving & (ea == eb) & (ea >= 0)
        res_e[same] = ea[same]
        res_t[same] = (ta + np.copysign(walk, tb - ta))[same]
        # still on a's edge, moving toward the exit anchor
        own = moving & ~same & (walk <= da)
        res_e[own] = ea[own]
        res_t[own] = np.where(xa == ua, ta - walk, ta + walk)[own]
        # walk the vertex path from the exit anchor toward the entry anchor,
        # one vertex per pass, so at most n_vertices passes
        rows = np.flatnonzero(moving & ~same & ~own)
        u, left, goal = xa[rows], (walk - da)[rows], xb[rows]
        while rows.size:
            go = (u != goal) & (left > 0.0)
            # past the entry anchor: inside b's edge, moving away from it
            beyond = ~go & (left > 0.0) & (eb[rows] >= 0)
            r = rows[beyond]
            res_e[r] = eb[r]
            res_t[r] = np.where(goal[beyond] == ub[r], left[beyond],
                                self._len[eb[r]] - left[beyond])
            stop = ~go & ~beyond
            res_w[rows[stop]] = u[stop]
            rows, u, left, goal = rows[go], u[go], left[go], goal[go]
            v = self._next_hop[u, goal]
            e = self._edge_index[u, v]
            l = self._len[e]
            hit = left < l
            r = rows[hit]
            res_e[r] = e[hit]
            res_t[r] = np.where(u == self._eu[e], left, l - left)[hit]
            rows, u, left, goal = rows[~hit], v[~hit], (left - l)[~hit], goal[~hit]
        out = _valid(*self._rows_of(res_w, res_e, res_t))
        out[~moving] = A[~moving]
        return out.reshape(shape)

    def _barycenters(self, rows, ptr, weights, tol, max_passes):
        """Exact barycenters; ``tol`` and ``max_passes`` are unused.

        On edge (a, b, l) the squared distance from offset s to a row p is
        (s - c)^2, where c is p's offset if p lies on the edge, -d(a, p) if
        p is on a's side and l + d(b, p) otherwise.  So a group's objective
        on each edge is one quadratic, minimized at the clipped weighted
        mean of c, and the barycenter is the minimizer of the best edge
        (the first of equal ones).  Edges go in fixed blocks, so memory
        grows with the rows only.
        """
        ptr = np.asarray(ptr, dtype=np.intp)
        starts, sizes = ptr[:-1], np.diff(ptr)
        grp = np.repeat(np.arange(sizes.size), sizes)
        u, v, lu, lv, e, t = (x[:, None] for x in _columns(rows))
        u, v = u.astype(np.intp), v.astype(np.intp)
        w = weights[:, None]
        wsum = np.add.reduceat(w, starts, axis=0)
        D = self._vdist
        pick = np.arange(sizes.size)
        best_f = np.full(sizes.size, np.inf)
        best_e = np.zeros(sizes.size)
        best_s = np.zeros(sizes.size)
        for lo in range(0, len(self.edges), _EDGE_BLOCK):
            j = np.arange(lo, min(lo + _EDGE_BLOCK, len(self.edges)))
            a, b, l = self._eu[j], self._ev[j], self._len[j]
            da = np.minimum(lu + D[u, a], lv + D[v, a])
            db = np.minimum(lu + D[u, b], lv + D[v, b])
            c = np.where(e == j, t, np.where(da <= db, -da, l + db))
            s = np.clip(np.add.reduceat(w * c, starts, axis=0) / wsum, 0.0, l)
            r = s[grp] - c
            f = np.add.reduceat(w * (r * r), starts, axis=0)
            k = np.argmin(f, axis=1)
            fk = f[pick, k]
            better = fk < best_f
            best_f[better] = fk[better]
            best_e[better] = j[k][better]
            best_s[better] = s[pick, k][better]
        out = self._rows_of(-1, best_e, best_s)[0]
        one = sizes == 1
        out[one] = rows[starts[one]]
        return out, np.zeros(sizes.size)


def _lift_columns(y1, y2):
    """Hyperboloid points over plane coordinates, as columns (x0, x1, x2)."""
    x = np.empty((3, y1.size))
    x[1], x[2] = y1, y2
    np.sqrt(1.0 + y1**2 + y2**2, out=x[0])
    return x


class HyperbolicTarget(_CoordinateTarget):
    """Hyperbolic plane on the upper hyperboloid x0^2 - x1^2 - x2^2 = 1."""

    kind = "hyperbolic"
    width = 3
    _off_reason = "point not finite or off the upper hyperboloid beyond 1e-9"
    # a point is the lift of two standard normals
    _draw_width = 2

    def _off(self, P):
        # the Minkowski square x0^2 - x1^2 - x2^2 must be 1; the test is
        # negated so that the NaN of an overflowing square counts as off
        with np.errstate(over="ignore", invalid="ignore"):
            q = P * P
            on = (P[..., 0] > 0) & (np.abs(q[..., 0] - q[..., 1] - q[..., 2] - 1.0) <= 1e-9)
        return ~on

    @staticmethod
    def lift(x12):
        """Lift plane coordinates (x1, x2) onto the hyperboloid."""
        x12 = np.asarray(x12, dtype=float)
        x0 = np.sqrt(1.0 + x12[..., 0] ** 2 + x12[..., 1] ** 2)
        return np.concatenate([x0[..., None], x12], axis=-1)

    def dists(self, A, B, squared=False):
        # chord form 2 asinh(|a - b| / 2) of the Minkowski norm |a - b|:
        # exact zero on equal points, and it resolves distances far below
        # the 2e-8 that arccosh of the Minkowski product can; computed in
        # place in two arrays of the broadcast shape
        (a0, a1, a2), (b0, b1, b2) = _columns(A), _columns(B)
        q = np.empty(np.broadcast_shapes(np.shape(a0), np.shape(b0)))
        d = np.empty_like(q)
        np.subtract(a1, b1, out=q)
        q *= q
        np.subtract(a2, b2, out=d)
        d *= d
        q += d
        np.subtract(a0, b0, out=d)
        d *= d
        q -= d
        np.maximum(q, 0.0, out=q)
        np.sqrt(q, out=q)
        q *= 0.5
        np.arcsinh(q, out=q)
        q *= 2.0
        return q**2 if squared else q

    def _geodesics(self, A, B, s):
        theta = self.dists(A, B)[..., None]
        near = theta < 1e-12
        V = (B - np.cosh(theta) * A) / np.where(near, 1.0, np.sinh(theta))
        out = np.cosh(s * theta) * A + np.sinh(s * theta) * V
        out[..., 0] = np.sqrt(1.0 + out[..., 1] ** 2 + out[..., 2] ** 2)
        return np.where(near, A, out)

    def _barycenters(self, rows, ptr, weights, tol, max_passes):
        """Karcher means by damped Newton steps, all groups at once.

        Each iteration sums a group's objective F = sum w d^2(x, p), its
        gradient and its Hessian at the iterate x in tangent coordinates
        (``_newton_sums``) and steps from x along the geodesic by the
        solution of the 2x2 Newton system.  A step that raises F beyond
        rounding is halved instead.  A group stops once the Newton step at
        the evaluated iterate is shorter than ``tol``, accepted or not (near
        the minimum a rise of F can be rounding alone), and returns that
        iterate advanced by its Newton step; converged groups leave the
        batch, so no group's row depends on the others.
        The start is the group's normalized weighted Minkowski mean.
        Iterates are columns: x is (x0, x1, x2) by group.

        F / 2 is 1-strongly convex per unit weight, so the iterate lies
        within its normalized gradient |sum w log_x p| / sum w of the
        barycenter, and a returned row within that plus its last step: the
        group's residual.
        """
        ptr = np.asarray(ptr, dtype=np.intp)
        sizes = np.diff(ptr)
        out = rows[ptr[:-1]].copy()
        residual = np.zeros(sizes.size)
        live = sizes > 1
        if not live.any():
            return out, residual
        act, n = np.flatnonzero(live), sizes[live]
        keep = np.repeat(live, sizes)
        P, w = np.ascontiguousarray(rows[keep].T), weights[keep]
        start = np.cumsum(n) - n
        m0, m1, m2 = np.add.reduceat(P * w, start, axis=1)
        r = np.hypot(m1, m2)
        # the Minkowski norm of a positive sum of hyperboloid points is at
        # least the weight sum
        norm = np.sqrt((m0 - r) * (m0 + r))
        x = _lift_columns(m1 / norm, m2 / norm)
        base, step, f_old = x, np.zeros((2, act.size)), np.full(act.size, np.inf)
        for _ in range(max_passes):
            f, g1, g2, h11, h12, h22 = self._newton_sums(x, P, w, start, n)
            ok = ~(f > f_old * (1.0 + 1e-14))
            det = h11 * h22 - h12 * h12
            newton = np.empty((2, act.size))
            np.divide(h22 * g1 - h12 * g2, det, out=newton[0])
            np.divide(h11 * g2 - h12 * g1, det, out=newton[1])
            length = np.hypot(*newton)
            done = length < tol
            # a group that stops takes its Newton step even where F rose
            take = ok | done
            base = np.where(take, x, base)
            f_old = np.where(ok, f, f_old)
            step = np.where(take, newton, 0.5 * step)
            x = self._exp(base, step)
            if done.any():
                out[act[done]] = x.T[done]
                gap = length + np.hypot(g1, g2) / np.add.reduceat(w, start)
                residual[act[done]] = gap[done]
                if done.all():
                    return out, residual
                kept = ~done
                P, w = P[:, np.repeat(kept, n)], w[np.repeat(kept, n)]
                act, n, f_old = act[kept], n[kept], f_old[kept]
                x, base, step = x[:, kept], base[:, kept], step[:, kept]
                start = np.cumsum(n) - n
        raise ConvergenceError(
            f"barycenter did not converge in {max_passes} passes",
            last=x[:, 0].copy(),
            residual=float(np.hypot(*step[:, 0])),
        )

    @staticmethod
    def _newton_sums(x, P, w, start, n):
        """Per group at its iterate: F and the sums of w times the tangent
        coordinates of log_x p and the Hessian of d^2(., p) / 2, as rows
        (F, g1, g2, h11, h12, h22).

        The basis of the tangent plane at x is the boost of the plane's
        axes, b_k = (y_k, e_k + y y_k / (1 + x0)) with y = (x1, x2).  The
        log map is (theta / sinh theta)(p - cosh theta x), whose x part has
        no tangent component, and the Hessian is u u^T + theta coth theta
        (I - u u^T) with u the unit direction of the log.
        """
        X0, X1, X2 = X = np.repeat(x, n, axis=1)
        d0, d1, d2 = P - X
        q = d1 * d1 + d2 * d2 - d0 * d0
        np.maximum(q, 0.0, out=q)
        # the chord form of dists: theta = 2 asinh(s / 2), sinh theta = s sqrt(1 + q / 4)
        s = np.sqrt(q)
        zero = q == 0.0
        theta = 2.0 * np.arcsinh(0.5 * s)
        ratio = (theta + zero) / (s * np.sqrt(1.0 + 0.25 * q) + zero)
        along = (X1 * d1 + X2 * d2) / (1.0 + X0) - d0
        T = np.empty((6, q.size))
        np.multiply(theta, theta, out=T[0])
        a1 = np.multiply(ratio, d1 + X1 * along, out=T[1])
        a2 = np.multiply(ratio, d2 + X2 * along, out=T[2])
        c = ratio * (1.0 + 0.5 * q)
        aa = a1 * a1 + a2 * a2
        # k a a^T is (1 - theta coth theta) u u^T; a zero log adds nothing
        k = (1.0 - c) / (aa + (aa == 0.0))
        T[3] = c + k * (a1 * a1)
        T[4] = k * (a1 * a2)
        T[5] = c + k * (a2 * a2)
        T *= w
        return np.add.reduceat(T, start, axis=1)

    @staticmethod
    def _exp(x, S):
        """The points at tangent coordinates ``S`` from ``x`` along the
        geodesic, columns as ``x``; x0 is recomputed as in ``geodesics``."""
        x0, x1, x2 = x
        s1, s2 = S
        ns = np.hypot(s1, s2)
        zero = ns == 0.0
        along = (x1 * s1 + x2 * s2) / (1.0 + x0)
        sinhc = (np.sinh(ns) + zero) / (ns + zero)
        ch = np.cosh(ns)
        return _lift_columns(ch * x1 + sinhc * (s1 + x1 * along), ch * x2 + sinhc * (s2 + x2 * along))

    def _from_draws(self, D):
        return self.lift(D)


class ProductTarget(GeodesicTarget):
    """2-norm product of component targets; a point's JSON value is the
    list of its components' values.

    A point packs as its components' rows side by side.
    """

    kind = "product"

    def __init__(self, components):
        if not components:
            raise ValidationError("product needs at least one component")
        self.components = list(components)
        self.is_cat0 = all(c.is_cat0 for c in self.components)
        self.width = sum(c.width for c in self.components)
        self._slices = _slices([c.width for c in self.components])
        self._draw_width = sum(c._draw_width for c in self.components)
        self._draw_slices = _slices([c._draw_width for c in self.components])

    def _split(self, p):
        """The component values of a packed row of the product's width (by
        columns) or of a list or tuple of one value per component, else None."""
        if _is_row(p) and p.size == self.width:
            return [p[cols] for cols in self._slices]
        if isinstance(p, (list, tuple)) and len(p) == len(self.components):
            return p
        return None

    def _rows(self, values):
        # each component reads its part of every value; a value that does
        # not split is bad, read as the zero row
        split = [self._split(p) for p in values]
        blank = self._split(np.zeros(self.width))
        results = [c._rows([blank[k] if q is None else q[k] for q in split])
                   for k, c in enumerate(self.components)]
        bad = np.array([q is None for q in split], dtype=bool)
        reason = f"a product point needs a value for each of its {len(self.components)} components"
        return (np.concatenate([r for r, _ in results], axis=1),
                [(bad, reason), *(check for _, checks in results for check in checks)])

    def _rows_to_json(self, rows):
        parts = [c._rows_to_json(rows[:, cols]) for c, cols in zip(self.components, self._slices)]
        return [list(p) for p in zip(*parts)]

    def _from_draws(self, D):
        return np.concatenate(
            [c._from_draws(D[:, cols]) for c, cols in zip(self.components, self._draw_slices)],
            axis=1,
        )

    def dists(self, A, B, squared=False):
        total = None
        for c, cols in zip(self.components, self._slices):
            d2 = c.dists(A[..., cols], B[..., cols], squared=True)
            total = d2 if total is None else total + d2
        return total if squared else np.sqrt(total)

    def _geodesics(self, A, B, s):
        return np.concatenate(
            [c._geodesics(A[..., cols], B[..., cols], s)
             for c, cols in zip(self.components, self._slices)],
            axis=-1,
        )

    def _barycenters(self, rows, ptr, weights, tol, max_passes):
        # a squared distance is the sum of the components' squared
        # distances, so a group's residual is the 2-norm of its components'
        parts = [
            c._barycenters(rows[:, cols], ptr, weights, tol, max_passes)
            for c, cols in zip(self.components, self._slices)
        ]
        return (
            np.concatenate([p for p, _ in parts], axis=1),
            np.hypot.reduce([r for _, r in parts]),
        )


class SphereTarget(_CoordinateTarget):
    """Unit round 2-sphere: the curvature-audit counterexample double.

    Not CAT(0); shipped so verification commands can demonstrate a
    strictly positive violation.  Geodesics between antipodes pick a
    fixed tie-break.  A point within 1e-9 of unit norm is kept as given:
    distances do not depend on the norm, and renormalizing is not
    idempotent in floating point, so packing packed rows again would
    change them.
    """

    kind = "sphere"
    is_cat0 = False
    width = 3
    _off_reason = "point not finite or off the unit sphere beyond 1e-9"
    # a point is three standard normals, normalized
    _draw_width = 3

    def _off(self, P):
        # matmul of a row with itself rounds as np.linalg.norm's dot does
        norm = np.sqrt(np.matmul(P[..., None, :], P[..., :, None])[..., 0, 0])
        return np.abs(norm - 1.0) > 1e-9

    def dists(self, A, B, squared=False):
        # atan2(|a x b|, a . b): exact zero on equal points, and accurate
        # near antipodes, where acos of the dot product is not
        (a0, a1, a2), (b0, b1, b2) = _columns(A), _columns(B)
        c0 = a1 * b2 - a2 * b1
        c1 = a2 * b0 - a0 * b2
        c2 = a0 * b1 - a1 * b0
        d = np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), a0 * b0 + a1 * b1 + a2 * b2)
        return d**2 if squared else d

    def _geodesics(self, A, B, s):
        theta = self.dists(A, B)
        far = theta > math.pi - 1e-9
        if np.any(far):
            # antipodal tie-break: B moves 1e-9 off the antipode toward the
            # axis least aligned with A, projected orthogonal to A
            B = B.copy()
            a = A[far]
            k = np.argmin(np.abs(a), axis=-1)
            pick = np.arange(a.shape[0])
            w = -(a[pick, k][:, None] * a)
            w[pick, k] += 1.0
            b = B[far] + 1e-9 * w / _norm(w)
            B[far] = b / _norm(b)
            theta = np.where(far, self.dists(A, B), theta)
        theta = theta[..., None]
        near = theta < 1e-12
        out = (np.sin((1 - s) * theta) * A + np.sin(s * theta) * B) / np.where(
            near, 1.0, np.sin(theta)
        )
        return np.where(near, A, out / np.where(near, 1.0, _norm(out)))

    def _from_draws(self, D):
        return D / _norm(D)


def _spec_field(spec, name, ok, what):
    """Field ``name`` of a spec, rejected by name if missing or unless ``ok(value)``."""
    if name not in spec:
        raise ValidationError(f"missing field {name!r}", detail=name)
    value = spec[name]
    if not ok(value):
        raise ValidationError(f"field {name!r} must be {what}", detail=name)
    return value


def build_target(spec):
    """Construct a target from its plain-dict description; a field of the
    wrong type (an integer must be integral, and not a bool) or a bad edge
    is rejected by name."""
    kind = spec.get("kind")
    if kind == "euclidean":
        return EuclideanTarget(_spec_field(spec, "dim", _is_integer, "an integer"))
    if kind == "tree":
        n = _spec_field(spec, "vertices", _is_integer, "an integer")
        edges = _spec_field(spec, "edges", lambda v: isinstance(v, (list, tuple)), "a list")
        for e, edge in enumerate(edges):
            if not (isinstance(edge, (list, tuple)) and len(edge) == 3 and _is_integer(edge[0])
                    and _is_integer(edge[1]) and _is_number(edge[2])):
                raise ValidationError(f"field 'edges': edge {e} must be [u, v, length] with "
                                      f"integer ends, not {edge!r}", detail=e)
        return TreeTarget(n, edges)
    if kind == "hyperbolic":
        return HyperbolicTarget()
    if kind == "product":
        components = _spec_field(spec, "components", lambda v: isinstance(v, list) and all(
            isinstance(c, dict) for c in v), "a list of target objects")
        return ProductTarget([build_target(c) for c in components])
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


# samples per block of the audit: its memory does not grow with n_samples
_AUDIT_CHUNK = 1024


def cat0_audit(target, n_samples, seed=0, s_steps=9):
    """Sampled audit of the two quadratic comparison inequalities.

    Over seeded random configurations and an s-grid, evaluates the
    point-to-geodesic inequality and the two-geodesic inequality; for
    CAT(0) kinds both maxima stay at numerical-noise level.

    Each sample draws its five points g0, g1, y, h0, h1 in that order,
    sample after sample, so a seed gives the same samples whatever the
    block size; blocks of samples run through the batched kernels.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if s_steps < 0:
        raise ValidationError("s_steps must be >= 0")
    rng = np.random.default_rng(seed)
    svals = np.linspace(0.0, 1.0, s_steps + 2)
    dist = target.dists
    worst_pt = -np.inf
    worst_geo = -np.inf
    for start in range(0, n_samples, _AUDIT_CHUNK):
        k = min(_AUDIT_CHUNK, n_samples - start)
        rows = target.random_points(rng, 5 * k).reshape(k, 5, target.width)
        g0, g1, y, h0, h1 = np.ascontiguousarray(rows.swapaxes(0, 1))
        d01 = dist(g0, g1)
        dy0 = dist(y, g0)
        dy1 = dist(y, g1)
        dh = dist(h0, h1)
        d00 = dist(g0, h0)
        d11 = dist(g1, h1)
        for s in svals:
            gs = target.geodesics(g0, g1, s)
            lhs = dist(y, gs) ** 2
            rhs = (1 - s) * dy0**2 + s * dy1**2 - s * (1 - s) * d01**2
            worst_pt = max(worst_pt, float(np.max(lhs - rhs)))
            hs = target.geodesics(h0, h1, s)
            lhs2 = dist(gs, hs) ** 2
            rhs2 = (1 - s) * d00**2 + s * d11**2 - s * (1 - s) * (d01 - dh) ** 2
            worst_geo = max(worst_geo, float(np.max(lhs2 - rhs2)))
    return Cat0Report(
        n_samples=n_samples,
        max_point_violation=worst_pt,
        max_geodesic_violation=worst_geo,
    )


def barycenter(target, pts, weights, tol=1e-9, max_passes=10_000):
    """Weighted barycenter of points: the minimizer of the squared-distance sum.

    The one group of the target's ``barycenters``, as a JSON value.
    A target that is not CAT(0) has no barycenter here.
    """
    if not target.is_cat0:
        raise ValidationError(f"barycenters need a CAT(0) target, not {target.kind}")
    w = np.asarray(weights, dtype=float).reshape(-1)
    rows = target.pack(pts)
    if len(rows) == 0:
        raise ValidationError("barycenter needs at least one point")
    if w.shape[0] != len(rows) or np.any(w <= 0):
        raise ValidationError("weights must be positive, one per point")
    return target.canonical(target.barycenters(rows, [0, len(rows)], w, tol, max_passes)[0])


def kuratowski_embed(target, landmarks, base, z):
    """Landmark coordinates ``d(z, l_k) - d(base, l_k)``.

    A finite truncation of the distance-function embedding: 1-Lipschitz
    for the sup norm, exact on pairs that are both landmarks, and
    sending the base point to the origin.
    """
    if not landmarks:
        raise ValidationError("landmark list must be nonempty")
    L = target.pack(landmarks)
    z_row, base_row = target.pack([z, base])
    return target.dists(z_row, L) - target.dists(base_row, L)
