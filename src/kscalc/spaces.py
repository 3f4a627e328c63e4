"""Sampled domain spaces: weighted point clouds with a metric oracle.

A space is a finite stand-in for a metric measure space: points carry
positive masses, distances come from coordinates (flat or periodic) or
from an explicit table.  The analysis tools here (doubling constants,
maximal functions, partitions of unity, density ratios) all work off
balls ``B_r(x) = {y : d(x, y) < r}`` with the strict inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

EUCLIDEAN = "euclidean"
TORUS = "torus"
MATRIX = "matrix"

_TRIANGLE_TOL = 1e-9
_TRIANGLE_SAMPLES = 10_000
_EXHAUSTIVE_LIMIT = 200
_RADIUS_RATIO = 1.1


@dataclass(frozen=True)
class Ball:
    """Indices of a metric ball, their weights, and the ball mass."""

    center: int
    radius: float
    indices: np.ndarray
    weights: np.ndarray
    mass: float


class PointCloudSpace:
    """Immutable weighted point cloud with one of three metric kinds.

    Parameters
    ----------
    kind : str
        ``"euclidean"`` (coordinates in R^d), ``"torus"`` (coordinates with
        a period vector, distance minimized over translates) or
        ``"matrix"`` (explicit symmetric distance table).
    coords : array or None
        Per-point coordinates for the coordinate kinds.
    weights : array
        Strictly positive point masses.
    period : array or None
        Period vector for the torus kind.
    matrix : array or None
        Full distance table for the matrix kind.
    """

    def __init__(self, kind, coords=None, weights=None, period=None, matrix=None):
        if kind not in (EUCLIDEAN, TORUS, MATRIX):
            raise ValidationError(f"unknown metric kind {kind!r}")
        self.kind = kind
        if kind == MATRIX:
            self.matrix = np.asarray(matrix, dtype=float)
            if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
                raise ValidationError("distance matrix must be square")
            self.coords = None
            self.period = None
            self.n = self.matrix.shape[0]
            self.ambient_dim = None
        else:
            self.coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if self.coords.ndim != 2:
                raise ValidationError("coordinates must form an (n, d) array")
            self.matrix = None
            self.n = self.coords.shape[0]
            self.ambient_dim = self.coords.shape[1]
            if kind == TORUS:
                self.period = np.asarray(period, dtype=float).reshape(-1)
                if self.period.shape[0] != self.ambient_dim:
                    raise ValidationError("period vector length must match dimension")
                if np.any(self.period <= 0):
                    raise ValidationError("torus periods must be positive")
            else:
                self.period = None
        if weights is None:
            w = np.full(self.n, 1.0 / self.n)
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != self.n:
            raise ValidationError("weights length must match point count")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            bad = int(np.argmin(w))
            raise ValidationError(f"non-positive weight at index {bad}", detail=bad)
        self.weights = w
        self.total_mass = float(w.sum())
        self._nn_cache = None
        self._bucket_cache = {}

    # -- metric oracle -------------------------------------------------

    def dist_row(self, i):
        """Distances from point ``i`` to every point (including itself)."""
        if self.kind == MATRIX:
            return self.matrix[i]
        delta = self.coords - self.coords[i]
        if self.kind == TORUS:
            delta = np.abs(delta)
            delta = np.minimum(delta, self.period - delta)
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def dist(self, i, j):
        if self.kind == MATRIX:
            return float(self.matrix[i, j])
        delta = self.coords[j] - self.coords[i]
        if self.kind == TORUS:
            delta = np.abs(delta)
            delta = np.minimum(delta, self.period - delta)
        return float(np.sqrt(np.dot(delta, delta)))

    def dist_subset(self, i, idx):
        """Distances from ``i`` to the points listed in ``idx``."""
        if self.kind == MATRIX:
            return self.matrix[i, idx]
        delta = self.coords[idx] - self.coords[i]
        if self.kind == TORUS:
            delta = np.abs(delta)
            delta = np.minimum(delta, self.period - delta)
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    # -- neighbor structure --------------------------------------------

    def nn_distances(self):
        """Nearest positive-distance neighbor distance of every point."""
        if self._nn_cache is None:
            if self.kind == MATRIX:
                m = self.matrix + np.diag(np.full(self.n, np.inf))
                self._nn_cache = m.min(axis=1)
            elif self.n <= 4096:
                out = np.empty(self.n)
                for i in range(self.n):
                    row = self.dist_row(i)
                    row[i] = np.inf
                    out[i] = row.min()
                self._nn_cache = out
            else:
                self._nn_cache = self._nn_distances_bucketed()
        return self._nn_cache

    def _nn_distances_bucketed(self):
        out = np.full(self.n, np.inf)
        span = self.coords.max(axis=0) - self.coords.min(axis=0)
        vol = float(np.prod(np.maximum(span, 1e-300)))
        r = max((vol / self.n) ** (1.0 / self.ambient_dim), 1e-12)
        pending = np.arange(self.n)
        while pending.size:
            balls = self._bucket_query(r, pending)
            still = []
            for i, idx in zip(pending, balls):
                d = self.dist_subset(i, idx)
                d = d[d > 0]
                if d.size:
                    out[i] = d.min()
                else:
                    still.append(i)
            pending = np.asarray(still, dtype=int)
            r *= 2.0
        return out

    def min_spacing(self):
        return float(self.nn_distances().min())

    def median_nn_spacing(self):
        return float(np.median(self.nn_distances()))

    def radius_grid(self, R, r_min=None):
        """Geometric radius grid with ratio 1.1 from ``r_min`` up to ``R``."""
        if r_min is None:
            r_min = 2.0 * self.min_spacing()
        radii = []
        r = r_min
        while r <= R * (1 + 1e-12):
            radii.append(min(r, R))
            r *= _RADIUS_RATIO
        if not radii:
            radii = [R]
        return np.asarray(radii)

    def _bucket_query(self, r, centers):
        """Candidate neighbor lists within ``r`` using a grid bucket index."""
        coords = self.coords
        dim = self.ambient_dim
        key = round(math.log(max(r, 1e-300)) / math.log(1.25))
        cell = 1.25 ** key
        cache = self._bucket_cache.get(key)
        if cache is None:
            cells = np.floor(coords / cell).astype(np.int64)
            table = {}
            for i, c in enumerate(map(tuple, cells)):
                table.setdefault(c, []).append(i)
            table = {k: np.asarray(v, dtype=int) for k, v in table.items()}
            cache = (cells, table)
            self._bucket_cache[key] = cache
        cells, table = cache
        reach = int(math.ceil(r / cell))
        offsets = np.stack(
            np.meshgrid(*([np.arange(-reach, reach + 1)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        out = []
        for i in centers:
            base = cells[i]
            cand = [table[t] for t in map(tuple, base + offsets) if t in table]
            out.append(np.concatenate(cand) if cand else np.asarray([i]))
        return out

    def cell_partition(self, r):
        """Blocks of points sharing a bucket cell, with their candidates.

        Yields ``(points, candidates)`` index arrays where candidates
        cover every point within ``r`` of any point in the block.  The
        torus kind wraps cell neighborhoods; the matrix kind falls back
        to one all-pairs block.
        """
        if self.kind == MATRIX:
            allidx = np.arange(self.n)
            yield allidx, allidx
            return
        coords = self.coords
        dim = self.ambient_dim
        if self.kind == TORUS:
            ncells = np.maximum((self.period / r).astype(int), 1)
            if np.any(ncells < 3):
                allidx = np.arange(self.n)
                yield allidx, allidx
                return
            width = self.period / ncells
            cells = np.minimum((coords / width).astype(np.int64), ncells - 1)
        else:
            ncells = None
            cells = np.floor(coords / r).astype(np.int64)
        table = {}
        for i, c in enumerate(map(tuple, cells)):
            table.setdefault(c, []).append(i)
        offsets = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        for key in sorted(table):
            pts = np.asarray(table[key], dtype=int)
            cand = []
            for off in offsets:
                kk = np.asarray(key) + off
                if ncells is not None:
                    kk = kk % ncells
                kk = tuple(kk)
                if kk in table:
                    cand.append(table[kk])
            cand = np.unique(np.concatenate([np.asarray(c) for c in cand]))
            yield pts, cand

    def pair_dist_block(self, rows, cols, squared=False):
        """Distance matrix between two index sets."""
        if self.kind == MATRIX:
            d = self.matrix[np.ix_(rows, cols)]
            return d**2 if squared else d
        delta = np.abs(self.coords[rows][:, None, :] - self.coords[cols][None, :, :])
        if self.kind == TORUS:
            delta = np.minimum(delta, self.period - delta)
        d2 = np.einsum("ijk,ijk->ij", delta, delta)
        return d2 if squared else np.sqrt(d2)

    def ball_indices(self, i, r):
        """Indices with ``d(x_i, x_j) < r`` (the center always included)."""
        if self.kind == EUCLIDEAN and self.n > 4096:
            cand = self._bucket_query(r, [i])[0]
            d = self.dist_subset(i, cand)
            idx = cand[d < r]
        else:
            d = self.dist_row(i)
            idx = np.nonzero(d < r)[0]
        return np.sort(idx)

    def all_balls(self, r):
        """Ball index lists for every point at a common radius."""
        if self.kind == EUCLIDEAN and self.n > 4096:
            cands = self._bucket_query(r, np.arange(self.n))
            out = []
            for i, cand in enumerate(cands):
                d = self.dist_subset(i, cand)
                out.append(np.sort(cand[d < r]))
            return out
        return [self.ball_indices(i, r) for i in range(self.n)]


def build_space(spec):
    """Construct and validate a :class:`PointCloudSpace` from a plain dict.

    The matrix kind is audited: symmetry, zero diagonal, positive
    off-diagonal entries, and the triangle inequality on every triple
    (sampled above 200 points).  Violations reject the space and name
    the offending entry.
    """
    kind = spec.get("kind")
    weights = spec.get("weights")
    if kind in (EUCLIDEAN, TORUS):
        space = PointCloudSpace(
            kind,
            coords=spec["points"],
            weights=weights,
            period=spec.get("period") if kind == TORUS else None,
        )
        _reject_duplicates(space)
        return space
    if kind == MATRIX:
        m = np.asarray(spec["matrix"], dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("distance matrix must be square")
        asym = np.abs(m - m.T).max() if m.size else 0.0
        if asym > 0:
            i, j = np.unravel_index(np.argmax(np.abs(m - m.T)), m.shape)
            raise ValidationError(
                f"non-symmetric matrix at ({i}, {j})", detail=(int(i), int(j))
            )
        if np.any(np.diag(m) != 0):
            i = int(np.nonzero(np.diag(m))[0][0])
            raise ValidationError(f"nonzero diagonal at index {i}", detail=i)
        off = m + np.diag(np.full(m.shape[0], np.inf))
        if np.any(off <= 0):
            i, j = np.unravel_index(int(np.argmin(off)), m.shape)
            raise ValidationError(
                f"non-positive distance between distinct points ({i}, {j})",
                detail=(int(i), int(j)),
            )
        _audit_triangles(m, seed=int(spec.get("seed", 0)))
        return PointCloudSpace(MATRIX, matrix=m, weights=weights)
    raise ValidationError(f"unknown metric kind {kind!r}")


def _reject_duplicates(space):
    """Reject coordinate rows that coincide (modulo the period on a torus).

    Names the first pair: the smallest ``j`` repeating an earlier ``i``.
    """
    rows = space.coords
    if space.kind == TORUS:
        rows = np.mod(rows, space.period)
        rows[rows == space.period] = 0.0  # mod rounds tiny negatives up to the period
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    first = first[inverse.reshape(-1)]
    dup = np.nonzero(first != np.arange(space.n))[0]
    if dup.size:
        i, j = int(first[dup[0]]), int(dup[0])
        raise ValidationError(f"duplicate points ({i}, {j})", detail=(i, j))


def _audit_triangles(m, seed=0):
    n = m.shape[0]
    if n < 3:
        return
    if n <= _EXHAUSTIVE_LIMIT:
        # d(a, c) <= d(a, b) + d(b, c) for every triple, vectorized over b
        for b in range(n):
            slack = m - (m[:, b][:, None] + m[b][None, :])
            if slack.max() > _TRIANGLE_TOL:
                a, c = np.unravel_index(int(np.argmax(slack)), slack.shape)
                raise ValidationError(
                    f"triangle inequality violated on ({a}, {b}, {c})",
                    detail=(int(a), int(b), int(c)),
                )
        return
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, n, size=(_TRIANGLE_SAMPLES, 3))
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    slack = m[a, c] - (m[a, b] + m[b, c])
    worst = int(np.argmax(slack))
    if slack[worst] > _TRIANGLE_TOL:
        bad = (int(a[worst]), int(b[worst]), int(c[worst]))
        raise ValidationError(f"triangle inequality violated on {bad}", detail=bad)


def ball(space, center, r):
    """The open ball ``B_r(center)`` with member weights and total mass."""
    if r <= 0:
        raise ValidationError("ball radius must be positive")
    idx = space.ball_indices(center, r)
    w = space.weights[idx]
    return Ball(center=center, radius=r, indices=idx, weights=w, mass=float(w.sum()))


def doubling_constant(space, R, centers=None):
    """Empirical doubling constant over radii below ``R``.

    Scans ``m(B_2r(x)) / m(B_r(x))`` over all centers (or the given
    subset) and a geometric radius grid, skipping radii whose ball is a
    single point.  A one-point space reports 1.
    """
    if R <= 0:
        raise ValidationError("R must be positive")
    if space.n == 1:
        return 1.0
    radii = space.radius_grid(R)
    if centers is None:
        centers = range(space.n)
    best = 1.0
    w = space.weights
    for i in centers:
        d = space.dist_row(i)
        order = np.argsort(d, kind="stable")
        ds = d[order]
        cw = np.cumsum(w[order])
        k1 = np.searchsorted(ds, radii, side="left")
        k2 = np.searchsorted(ds, 2.0 * radii, side="left")
        valid = k1 > 1  # require more than the center alone
        if not np.any(valid):
            continue
        ratios = cw[k2[valid] - 1] / cw[k1[valid] - 1]
        best = max(best, float(ratios.max()))
    return best


def maximal_function(space, f, R):
    """Restricted Hardy-Littlewood maximal function at scale ``R``.

    ``M_R(f)(x)`` is the sup over radii on the geometric grid of the
    weighted average of ``|f|`` over ``B_r(x)``.
    """
    if R <= 0:
        raise ValidationError("R must be positive")
    f = np.abs(np.asarray(f, dtype=float))
    radii = space.radius_grid(R)
    w = space.weights
    wf = w * f
    out = np.empty(space.n)
    for i in range(space.n):
        d = space.dist_row(i)
        order = np.argsort(d, kind="stable")
        ds = d[order]
        cw = np.cumsum(w[order])
        cwf = np.cumsum(wf[order])
        k = np.searchsorted(ds, radii, side="left")
        k = k[k > 0]
        out[i] = float((cwf[k - 1] / cw[k - 1]).max())
    return out


def maximal_bound(space, R):
    """Crude norm bound for ``maximal_function`` from the doubling scan.

    Chains the weak (1,1) covering estimate (three doublings for the
    5-fold ball inflation) through interpolation at exponent 2.  The
    empirical operator ratio is far below this; the bound is reported,
    not claimed sharp.
    """
    dC = doubling_constant(space, 2.5 * R)
    return 2.0 * math.sqrt(2.0) * dC ** 1.5


@dataclass
class PartitionOfUnity:
    """Normalized tent functions on greedy separated centers.

    ``values[k, j]`` is the k-th function at point j.  Each function is
    supported in the ball of radius ``2 * radius`` around its center and
    the per-point sums are exactly one by construction.
    """

    radius: float
    centers: np.ndarray
    values: np.ndarray
    space: PointCloudSpace = field(repr=False)

    def point_sums(self):
        return self.values.sum(axis=0)

    def overlap_counts(self):
        """Number of support balls (radius 2r) containing each point."""
        counts = np.zeros(self.space.n, dtype=int)
        for c in self.centers:
            counts += self.space.dist_row(int(c)) < 2.0 * self.radius
        return counts

    def lipschitz_constants(self):
        """Empirical Lipschitz constant of each function over all pairs."""
        n = self.space.n
        out = np.zeros(len(self.centers))
        for i in range(n):
            d = self.space.dist_row(i)
            mask = d > 0
            if not np.any(mask):
                continue
            ratios = np.abs(self.values[:, mask] - self.values[:, i][:, None]) / d[mask]
            out = np.maximum(out, ratios.max(axis=1))
        return out

    def reported_constant(self):
        """The constant C with every empirical Lipschitz constant <= C/r."""
        lip = self.lipschitz_constants()
        return float(lip.max() * self.radius) if lip.size else 0.0


def partition_of_unity(space, r, reference_scale=1.0):
    """Partition of unity subordinate to balls of radius 2r.

    Centers are a greedy maximal r-separated subset (index order); the
    functions are positive-part tents of slope 1 cut at 3r/2, normalized
    by their pointwise sum.
    """
    if space.n == 0:
        raise ValidationError("empty space")
    if not 0 < r < reference_scale / 4:
        raise ValidationError("radius must lie in (0, reference_scale / 4)")
    centers = []
    for i in range(space.n):
        d = space.dist_subset(i, np.asarray(centers, dtype=int)) if centers else None
        if d is None or np.all(d >= r):
            centers.append(i)
    centers = np.asarray(centers, dtype=int)
    tents = np.empty((len(centers), space.n))
    for k, c in enumerate(centers):
        tents[k] = np.maximum(1.5 * r - space.dist_row(int(c)), 0.0)
    sums = tents.sum(axis=0)
    values = tents / sums[None, :]
    return PartitionOfUnity(radius=r, centers=centers, values=values, space=space)


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def density_theta(space, i, d, radii):
    """Mass-to-Lebesgue density ratios ``m(B_r(x)) / (omega_d r^d)``.

    The caller inspects stabilization across the radius list; no limit
    is claimed.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    omega = unit_ball_volume(d)
    out = []
    row = space.dist_row(i)
    w = space.weights
    for r in radii:
        if r <= 0:
            raise ValidationError("radii must be positive")
        mass = float(w[row < r].sum())
        out.append(mass / (omega * r**d))
    return out
