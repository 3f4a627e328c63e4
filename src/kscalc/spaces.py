"""Sampled domain spaces: weighted point clouds with a metric oracle.

A space is a finite stand-in for a metric measure space: points carry
positive masses, distances come from coordinates (flat or periodic) or
from an explicit table.  The analysis tools here (doubling constants,
maximal functions, partitions of unity, density ratios) all work off
balls ``B_r(x) = {y : d(x, y) < r}`` with the strict inequality.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .targets import _is_integer, _is_number, _spec_field

EUCLIDEAN = "euclidean"
TORUS = "torus"
MATRIX = "matrix"

_TRIANGLE_TOL = 1e-9
_TRIANGLE_SAMPLES = 10_000
_EXHAUSTIVE_LIMIT = 200
_RADIUS_RATIO = 1.1
# inflation of cell-query radii: relative to the radius, and in ulps of
# the coordinates' magnitude (the largest period on a torus).  Both lie
# far above the rounding of a cell key, a box center or a distance, so a
# query never misses a point that the exact distances keep
_CELL_MARGIN = 1e-9
_CELL_ULPS = 64 * np.finfo(float).eps
# most rows times candidates in one ``cell_partition`` block, and most
# distances in one ``pair_blocks`` part
CELL_PAIR_BUDGET = 1 << 18
# centers per chunk of the sorted-ball scans of ``doubling_constant`` and
# ``maximal_function``: their memory stays within this many balls
_BALL_CHUNK = 16
# fewest points per cell on average: a block costs about as much as a
# thousand candidate pairs, so sparse cells are merged into larger ones
_CELL_ROWS = 16


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
        Per-point coordinates for the coordinate kinds; torus coordinates
        are wrapped into ``[0, period)``.
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
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if coords.ndim != 2 or coords.shape[1] == 0:
                raise ValidationError("coordinates must form an (n, d) array, d >= 1")
            bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
            if bad.size:
                raise ValidationError(
                    f"non-finite coordinates at index {bad[0]}", detail=int(bad[0])
                )
            self.matrix = None
            self.n = coords.shape[0]
            self.ambient_dim = coords.shape[1]
            if kind == TORUS:
                self.period = np.asarray(period, dtype=float).reshape(-1)
                if self.period.shape[0] != self.ambient_dim:
                    raise ValidationError("period vector length must match dimension")
                if not np.all(np.isfinite(self.period) & (self.period > 0)):
                    raise ValidationError("torus periods must be finite and positive")
                coords = np.mod(coords, self.period)
                coords[coords == self.period] = 0.0  # mod rounds tiny negatives up
            else:
                self.period = None
            self.coords = coords
            _reject_overflow(self)
            # the least cell side of the neighbor index: coordinates over it
            # stay below 2**1000 (a cell wider than a radius needs is never
            # wrong, only coarser)
            magnitude = self.period.max() if kind == TORUS else np.abs(coords).max()
            self._least_side = math.ldexp(1.0, math.frexp(float(magnitude))[1] - 1000)
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
        self._nn = None
        self._index = None  # the cell index built last

    # -- metric oracle -------------------------------------------------

    def _dists(self, i, idx, squared=False):
        """Distances from ``i`` to ``idx``; index arrays broadcast."""
        if self.kind == MATRIX:
            d = self.matrix[i, idx]
            return d * d if squared else d
        # ``take`` gathers rows faster than fancy indexing
        rows = self.coords[idx] if isinstance(idx, slice) else np.take(self.coords, idx, axis=0)
        return self._length(rows - np.take(self.coords, i, axis=0), squared)

    def _length(self, delta, squared=False):
        """Lengths of coordinate differences, each below the period on a torus."""
        if self.kind == TORUS:
            delta = np.abs(delta)
            delta = np.minimum(delta, self.period - delta)
        d2 = np.einsum("...k,...k->...", delta, delta)
        return d2 if squared else np.sqrt(d2)

    def dist_row(self, i):
        """Distances from point ``i`` to every point (including itself)."""
        return self._dists(i, slice(None))

    def dist(self, i, j):
        return float(self._dists(i, j))

    def dist_subset(self, i, idx):
        """Distances from ``i`` to the points listed in ``idx``."""
        return self._dists(i, idx)

    def pair_dist_block(self, rows, cols, squared=False):
        """Distance matrix between two index sets."""
        return self._dists(np.asarray(rows)[:, None], np.asarray(cols)[None, :], squared)

    def pair_blocks(self, rows, cols):
        """The distance matrix between two index sets, in row parts.

        Yields ``(part, d)`` in order: ``part`` a slice of ``rows`` and
        ``d = pair_dist_block(rows[part], cols)``, the parts together
        covering ``rows``, each within ``CELL_PAIR_BUDGET`` distances (one
        row at least), so that all-pairs scans keep bounded memory.
        """
        rows = np.asarray(rows)
        step = max(1, CELL_PAIR_BUDGET // max(len(cols), 1))
        for k in range(0, rows.shape[0], step):
            part = slice(k, k + step)
            yield part, self.pair_dist_block(rows[part], cols)

    def quotient_range(self, idx, F):
        """The least and largest ``|F[a] - F[b]| / d(idx[a], idx[b])`` over
        the pairs of ``idx`` at positive distance, ``(inf, 0.0)`` if there
        is none: one ``pair_blocks`` scan.  ``F`` holds a vector per point
        of ``idx``, compared in the 2-norm."""
        lo, hi = math.inf, 0.0
        for part, d in self.pair_blocks(idx, idx):
            mask = d > 0
            ratios = np.linalg.norm(F - F[part, None], axis=2)[mask] / d[mask]
            lo = float(ratios.min(initial=lo))
            hi = float(ratios.max(initial=hi))
        return lo, hi

    # -- neighbor structure --------------------------------------------

    def _cell_index(self, side):
        """The :class:`_CellIndex` of cell side ``side``; the space keeps
        the one it built last."""
        if self._index is None or self._index.side != side:
            self._index = _CellIndex._build(self, side)
        return self._index

    def nn_distances(self):
        """Distance from every point to its nearest other point (inf alone).

        A coordinate space reads the balls of radius 1.5 mean spacings
        (taken from the bounding box of the first min(d, 3) coordinates):
        a ball that holds another point holds the nearest one.  The
        points whose ball holds only themselves read it again with the
        radius doubled.
        """
        if self._nn is not None:
            return self._nn
        n = self.n
        if self.kind == MATRIX:
            self._nn = (self.matrix + np.diag(np.full(n, np.inf))).min(axis=1)
            return self._nn
        x = self.coords[:, : min(self.ambient_dim, 3)]
        extent = self.period[: x.shape[1]] if self.kind == TORUS else np.ptp(x, axis=0)
        extent = extent[extent > 0]
        r = 1.0  # every point shares the box's corner
        if extent.size:
            # 1.5 mean spacings, or the widest extent over n if larger
            top = float(extent.max())
            r = 1.5 * math.exp(float(np.log(extent).mean()) - math.log(n) / extent.size)
            r = max(r, top / n) or top
            r = min(r, float(np.finfo(float).max) / 4.0)  # r is inf if the extent overflows
        nn = np.full(n, np.inf)
        todo = np.arange(n if n > 1 else 0)
        while todo.size:
            ptr, members, d = self.all_balls(r, todo)
            d[members == np.repeat(todo, np.diff(ptr))] = np.inf
            best = np.minimum.reduceat(d, ptr[:-1])  # a ball holds its center
            alone = best == np.inf
            nn[todo[~alone]] = best[~alone]
            todo, r = todo[alone], 2.0 * r
        self._nn = nn
        return nn

    def min_spacing(self):
        return float(self.nn_distances().min())

    def median_nn_spacing(self):
        """``np.median`` of the spacings, which are never NaN, without the
        ``numpy.ma`` import of its NaN check."""
        nn = np.sort(self.nn_distances())
        k = nn.size // 2
        return float(nn[k] if nn.size % 2 else (nn[k - 1] + nn[k]) / 2.0)

    def radius_grid(self, R, r_min=None):
        """Geometric radius grid with ratio 1.1 from ``r_min`` up to ``R``.

        ``r_min`` defaults to twice the smallest spacing; a zero spacing,
        or an ``r_min`` too small for the ratio to grow, is rejected.
        """
        R = check_radius(R, "R")
        if r_min is None:
            r_min = 2.0 * self.min_spacing()
            if not r_min > 0:
                raise ValidationError("r_min: the smallest spacing is 0")
        else:
            r_min = check_radius(r_min, "r_min")
        if r_min * _RADIUS_RATIO == r_min and math.isfinite(r_min):
            raise ValidationError(f"r_min {r_min!r} is too small for a geometric grid")
        radii = []
        r = r_min
        while r <= R * (1 + 1e-12) and r < math.inf:
            radii.append(min(r, R))
            r *= _RADIUS_RATIO
        if not radii:
            radii = [R]
        return np.asarray(radii)

    def cell_partition(self, r):
        """Blocks of nearby points with their neighbor candidates.

        Yields ``(points, candidates)`` index arrays: the blocks partition
        the points, and a block's sorted candidates include every point
        within ``r`` of any of its points.  Blocks are the cells of the
        cell index of side ``r / 2``, doubled until the cells average 16
        points; a cell's candidates are the points within ``r`` plus half
        its bounding box's diagonal of the box's center, read from the
        same index, and cells are cut into row chunks so that rows times
        candidates stays within ``CELL_PAIR_BUDGET`` (a block keeps one
        row at least).  The matrix kind has one cell with every point.
        """
        r = check_radius(r)
        for pts, cand in self._cells(r):
            rows = max(1, CELL_PAIR_BUDGET // cand.shape[0])
            for k in range(0, pts.shape[0], rows):
                yield pts[k:k + rows], cand

    def _cells(self, r):
        if self.kind == MATRIX:
            everyone = np.arange(self.n)
            return [(everyone, everyone)]
        side = max(0.5 * r, self._least_side)
        while True:
            index = self._cell_index(side)
            starts = np.flatnonzero(np.diff(index.ids)) + 1
            if starts.size == 0 or (starts.size + 1) * _CELL_ROWS <= self.n:
                break
            side *= 2.0
        box = self.coords[index.order]
        first = np.concatenate([[0], starts])
        lo, hi = np.minimum.reduceat(box, first), np.maximum.reduceat(box, first)
        center = 0.5 * (lo + hi)
        # a point within r of the box lies within r + half its diagonal of
        # the box's center
        reach = r + 0.5 * np.sqrt(np.einsum("ij,ij->i", hi - lo, hi - lo))
        owner, cand = index._near(center, reach)
        delta = np.take(self.coords, cand, axis=0) - np.take(center, owner, axis=0)
        keep = self._length(delta) <= np.take(index._inflate(reach), owner)
        key = np.sort(owner[keep] * self.n + cand[keep])  # by block, then index
        owner, cand = np.divmod(key, self.n)
        cut = np.cumsum(np.bincount(owner, minlength=first.size))[:-1]
        return list(zip(np.split(index.order, starts), np.split(cand, cut)))

    def ball_indices(self, i, r):
        """Indices with ``d(x_i, x_j) < r`` (the center always included)."""
        return self.all_balls(r, [i])[1]

    def all_balls(self, r, centers=None):
        """The open balls ``B_r(x)`` of ``centers`` (default: every point).

        Returns CSR arrays ``(ptr, members, dists)``: the ball of
        ``centers[k]`` is ``members[ptr[k]:ptr[k + 1]]``, ascending, and
        ``dists`` holds its members' distances to the center.  A center
        that is not an index of the space is rejected by name.
        """
        r = check_radius(r)
        if centers is None:
            centers = np.arange(self.n)
        else:
            centers = domain_indices(centers, self.n, "ball center")
        if self.kind == MATRIX:
            rows, members = np.nonzero(self.matrix[centers] < r)
            ptr = np.searchsorted(rows, np.arange(centers.size + 1))
            return ptr, members, self.matrix[centers[rows], members]
        index = self._cell_index(max(_ball_side(r), self._least_side))
        owner, cand = index._near(self.coords[centers], np.full(centers.size, r))
        d = self._dists(centers[owner], cand)
        keep = d < r
        owner, cand, d = owner[keep], cand[keep], d[keep]
        order = np.argsort(owner * self.n + cand)  # by center, then index
        ptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=centers.size))])
        return ptr, cand[order], d[order]


@dataclass(frozen=True, eq=False)
class _CellIndex:
    """The points of a coordinate space bucketed into grid cells, sorted by cell.

    A point's cell is ``floor(x / side)`` in its first min(d, 3)
    coordinates: a projection never lengthens a distance, so the cells
    serve any dimension, and on a torus (whose coordinates lie in
    ``[0, period)``) each axis's cells are cyclic.  Each axis numbers its
    occupied cells by rank, and a cell's id is its ranks in mixed radix,
    so that the cells of one run along the last axis are one slice of
    ``order`` however far apart the points lie.  Its methods are private:
    their time belongs to the neighbor question that calls them.
    """

    space: PointCloudSpace
    side: float
    order: np.ndarray  # the points by cell, lexicographically, then by index
    axes: list  # the occupied cell keys of each axis, ascending
    ids: np.ndarray  # the cell id of each point of ``order``, ascending
    scale: float  # the coordinates' magnitude (the largest period on a torus)

    @classmethod
    def _build(cls, space, side):
        keys = np.floor(space.coords[:, : min(space.ambient_dim, 3)] / side)
        order = np.lexsort(keys.T[::-1])
        axes, ids = [], np.zeros(space.n, dtype=np.int64)
        for column in keys.T:
            occupied, rank = np.unique(column, return_inverse=True)
            axes.append(occupied)
            ids = ids * occupied.size + rank.reshape(-1)
        cells = math.prod(a.size for a in axes)
        if cells >= 2**62:
            raise ValidationError("too many distinct cells for the neighbor index")
        if space.kind == TORUS:
            scale = float(space.period.max())
        else:
            scale = float(np.abs(space.coords).max())
        return cls(space, side, order, axes, ids[order], scale)

    def _inflate(self, radii):
        """``radii`` with the conservative margins ``_CELL_MARGIN`` and ``_CELL_ULPS``."""
        return radii * (1.0 + _CELL_MARGIN) + _CELL_ULPS * self.scale

    def _near(self, points, radii):
        """Candidates within ``radii`` of coordinate rows ``points``.

        Returns ``(owner, cand)``: the candidates of query ``k`` are
        ``cand[owner == k]``, grouped by query in ascending order and by
        cell within a query.  They are the points of every cell that meets
        the box ``points[k] +- radii[k]`` with margin (``_inflate``), so
        every point that the space's own distance puts within ``radii[k]``
        of the query is one; callers filter with exact distances.
        """
        q = np.asarray(points, dtype=float)
        reach = self._inflate(np.asarray(radii, dtype=float))
        torus = self.space.kind == TORUS
        firsts, counts = [], []  # per axis: the first rank and the run length
        for a, occupied in enumerate(self.axes):
            lo, hi = q[:, a] - reach, q[:, a] + reach
            size = occupied.size
            if torus:
                period = self.space.period[a]
                full = 2.0 * reach >= period
                lo = np.mod(np.where(full, 0.0, lo), period)
                hi = np.mod(np.where(full, 0.0, hi), period)
            first = np.searchsorted(occupied, np.floor(lo / self.side), "left")
            count = np.searchsorted(occupied, np.floor(hi / self.side), "right") - first
            if torus:  # a run through the seam wraps past the last rank
                count = np.where(full, size, np.minimum(count + size * (lo > hi), size))
                first = np.where(full, 0, first)
            firsts.append(first)
            counts.append(count)
        # every rank combination of the leading axes (prefixes of cell ids),
        # then one slice of ``order`` per run of the last axis: two where a
        # torus run wraps, the second empty otherwise
        width = [int(c.max(initial=0)) for c in counts[:-1]]
        steps = np.indices(width).reshape(len(width), math.prod(width))
        prefix = np.zeros((q.shape[0], steps.shape[1]), dtype=np.int64)
        valid = np.ones(prefix.shape, dtype=bool)
        for a, j in enumerate(steps):
            size = self.axes[a].size
            prefix = prefix * size + (firsts[a][:, None] + j) % size
            valid &= j < counts[a][:, None]
        size = self.axes[-1].size
        end = firsts[-1] + counts[-1]
        lo = np.stack([firsts[-1], np.zeros_like(end)], axis=1)
        hi = np.stack([np.minimum(end, size), np.maximum(end - size, 0)], axis=1)
        prefix = prefix[:, :, None] * size
        begin = np.searchsorted(self.ids, (prefix + lo[:, None, :]).ravel())
        stop = np.searchsorted(self.ids, (prefix + hi[:, None, :]).ravel())
        runs = (valid[:, :, None] & (hi > lo)[:, None, :]).ravel()
        length = np.where(runs, stop - begin, 0)
        per_query = length.reshape(valid.shape + (2,)).sum(axis=(1, 2))
        offset = np.cumsum(length) - length
        at = np.repeat(begin - offset, length) + np.arange(length.sum())
        return np.repeat(np.arange(q.shape[0]), per_query), self.order[at]


def _ball_side(r):
    """The cell side of the index for balls of radius ``r``: the power of
    two in ``(r / 2, r]``, so that the radii of one binade share an index."""
    return math.ldexp(0.5, math.frexp(r)[1])


def domain_indices(values, n, what="domain index"):
    """``values`` as a flat array of indices into ``range(n)``.

    The first value that is not an integer (``True`` and ``False`` are
    not) or lies outside ``[0, n)`` is rejected, named in the message and
    in ``detail``.  A flat ``intp`` array is returned as it is.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        raw = values if values.ndim == 1 else values.ravel()
    else:
        # a list can mix True with integers, so only an integer array skips this
        raw = np.ravel(np.asarray(values, dtype=object))
        whole = [_is_integer(k) for k in raw]
        if not all(whole):
            k = raw[np.argmin(whole)]
            raise ValidationError(f"{what} {k} is not an integer", detail=k)
    outside = (raw < 0) | (raw >= n)
    if outside.any():
        k = int(raw[np.argmax(outside)])
        raise ValidationError(f"{what} {k} outside the domain [0, {n})", detail=k)
    return raw.astype(np.intp, copy=False)


def check_radius(r, name="radius"):
    """``r`` as a float; rejected unless finite and positive."""
    r = float(r)
    if not (math.isfinite(r) and r > 0):
        raise ValidationError(f"{name} must be finite and positive, got {r!r}")
    return r


def check_scale(r, name, power=1.0):
    """``r`` through :func:`check_radius`, and rejected by name unless
    ``r ** power`` is a normal float at most half the largest one, so that
    twice it is finite."""
    r = check_radius(r, name)
    what = name if power == 1.0 else f"{name}**{power:g}"
    try:
        rp = r**power
    except OverflowError:  # a float power raises where a product gives inf
        rp = math.inf
    if rp > sys.float_info.max / 2:
        raise ValidationError(f"{name} {r!r} is too large: {what} exceeds half the float range")
    if rp < sys.float_info.min:
        raise ValidationError(f"{name} {r!r} is too small: {what} is below the least normal float")
    return r


def _reals(spec, name, depth):
    """Field ``name`` of a space spec: a numeric array or a list of ``depth``
    levels ending in real numbers, else the field or its first bad entry is named."""
    value = _spec_field(spec, name, lambda v: isinstance(v, (list, tuple, np.ndarray)), "a list")
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value
    ok = _is_number if depth == 1 else lambda x: (
        isinstance(x, (list, tuple)) and all(map(_is_number, x)))
    bad = [k for k, x in enumerate(value) if not ok(x)]
    if bad:
        entry = "a number" if depth == 1 else "a list of numbers"
        raise ValidationError(f"field {name!r} entry {bad[0]} must be {entry}", detail=bad[0])
    return value


def build_space(spec):
    """Construct and validate a :class:`PointCloudSpace` from a plain dict.

    Points, weights, periods and the matrix hold real numbers (``True``
    and ``False`` are not) and the seed is an integer, else the field is
    rejected by name.  The matrix kind is audited: finite entries,
    symmetry, zero diagonal, positive off-diagonal entries, and the
    triangle inequality on every triple (sampled above 200 points).
    Violations reject the space and name the offending entry.
    """
    kind = spec.get("kind")
    weights = None if spec.get("weights") is None else _reals(spec, "weights", 1)
    if kind in (EUCLIDEAN, TORUS):
        space = PointCloudSpace(
            kind,
            coords=_reals(spec, "points", 2),
            weights=weights,
            period=_reals(spec, "period", 1) if kind == TORUS else None,
        )
        _reject_duplicates(space)
        return space
    if kind == MATRIX:
        m = np.asarray(_reals(spec, "matrix", 2), dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("distance matrix must be square")
        if not np.isfinite(m).all():
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(m))), m.shape)
            raise ValidationError(
                f"non-finite distance at ({i}, {j})", detail=(int(i), int(j))
            )
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
        seed = _spec_field({"seed": 0, **spec}, "seed", _is_integer, "an integer")
        _audit_triangles(m, seed=int(seed))
        return PointCloudSpace(MATRIX, matrix=m, weights=weights)
    raise ValidationError(f"unknown metric kind {kind!r}")


def _reject_overflow(space):
    """Reject coordinates whose squared differences may overflow.

    A point's difference to any other point is at most, axis by axis, its
    distance to the farther face of the points' bounding box (at most half
    the period on a torus), so a finite sum of those squares bounds every
    distance it enters.  Names the first point whose sum is not finite.
    The bound is exact in one dimension; in d dimensions the far corner
    need not be a point, so it may exceed every pairwise squared distance
    by up to a factor d and reject a cloud whose distances are finite.
    """
    x = space.coords
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.maximum(x - x.min(axis=0), x.max(axis=0) - x)
        if space.kind == TORUS:
            far = np.minimum(far, 0.5 * space.period)
        bad = np.flatnonzero(~np.isfinite(np.einsum("ik,ik->i", far, far)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"coordinates at index {i} span too far: squared differences may overflow"
            " (its squared distance to the far faces of the bounding box does)",
            detail=i,
        )


def _reject_duplicates(space):
    """Reject points at distance 0: coinciding rows (modulo the period on
    a torus), or distinct rows whose squared difference underflows.

    Names the smallest ``i`` at distance 0 from another point, with the
    smallest such ``j``.
    """
    zero = np.flatnonzero(space.nn_distances() == 0)
    if zero.size:
        i = int(zero[0])
        j = int(np.flatnonzero(space.dist_row(i) == 0)[1])  # the first is i itself
        if np.array_equal(space.coords[i], space.coords[j]):
            message = f"duplicate points ({i}, {j})"
        else:
            message = f"distinct points ({i}, {j}) at distance 0"
        raise ValidationError(message, detail=(i, j))


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
    idx = space.ball_indices(center, r)
    w = space.weights[idx]
    return Ball(center=center, radius=r, indices=idx, weights=w, mass=float(w.sum()))


def doubling_constant(space, R, centers=None):
    """Empirical doubling constant over radii below ``R``.

    Scans ``m(B_2r(x)) / m(B_r(x))`` over all centers (or the given
    subset) and a geometric radius grid, skipping radii whose ball is a
    single point.  A one-point space reports 1.  ``R`` must be a normal
    float at most half the float range (:func:`check_scale`).
    """
    R = check_scale(R, "R")
    if space.n == 1:
        return 1.0
    radii = space.radius_grid(R)
    centers = np.arange(space.n) if centers is None else list(centers)
    best = 1.0
    for ds, (cw,) in _sorted_balls(space, 2.0 * radii[-1], centers, [space.weights]):
        k1 = _counts(ds, radii)
        valid = k1 > 1  # require more than the center alone
        ratios = _at(cw, _counts(ds, 2.0 * radii))[valid] / _at(cw, k1)[valid]
        best = float(ratios.max(initial=best))
    return best


def maximal_function(space, f, R):
    """Restricted Hardy-Littlewood maximal function at scale ``R``.

    ``M_R(f)(x)`` is the sup over radii on the geometric grid of the
    weighted average of ``|f|`` over ``B_r(x)``.  ``f`` holds one finite
    value per point; the first bad index is named.
    """
    R = check_radius(R, "R")
    f = np.asarray(f, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(f[: space.n]))
    if bad.size or f.shape[0] != space.n:
        k = int(bad[0]) if bad.size else min(f.shape[0], space.n)
        raise ValidationError(f"f needs one finite value per point; bad index {k}", detail=k)
    radii = space.radius_grid(R)
    w = space.weights
    out = []
    for ds, (cw, cwf) in _sorted_balls(space, radii[-1], np.arange(space.n), [w, w * np.abs(f)]):
        k = _counts(ds, radii)  # positive: every ball holds its center
        out.append((_at(cwf, k) / _at(cw, k)).max(axis=1))
    return np.concatenate(out)


def _sorted_balls(space, r, centers, columns):
    """The balls ``B_r(x)`` of ``centers``, sorted stably by distance, in chunks.

    Yields ``(ds, sums)`` per chunk of ``_BALL_CHUNK`` centers: row k of
    ``ds`` holds the distances of the chunk's k-th ball in ascending
    order, ties by index, padded with inf, and ``sums`` the cumulative
    sums in that order of each per-point array of ``columns``.  A row is
    the leading part of the stable sort of the center's full distance
    row, so its sums agree with the full row's bit for bit.
    """
    for start in range(0, len(centers), _BALL_CHUNK):
        ptr, members, dists = space.all_balls(r, centers[start : start + _BALL_CHUNK])
        sizes = np.diff(ptr)
        at = np.nonzero(np.arange(sizes.max()) < sizes[:, None])  # row-major: CSR order
        padded = np.full((sizes.size, sizes.max()), np.inf)
        index = np.full(padded.shape, space.n)  # padding reads an appended 0
        padded[at], index[at] = dists, members
        order = np.argsort(padded, axis=1, kind="stable")
        index = np.take_along_axis(index, order, axis=1)
        sums = [np.cumsum(np.append(c, 0.0)[index], axis=1) for c in columns]
        yield np.take_along_axis(padded, order, axis=1), sums


def _counts(ds, radii):
    """Per row of sorted ``ds``, how many entries lie below each radius."""
    return np.count_nonzero(ds[:, None, :] < np.asarray(radii)[:, None], axis=2)


def _at(sums, counts):
    """The cumulative sums through the first ``counts`` entries of each row."""
    return np.take_along_axis(sums, counts - 1, axis=1)


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
        members = self.space.all_balls(2.0 * self.radius, self.centers)[1]
        return np.bincount(members, minlength=self.space.n)

    def lipschitz_constants(self):
        """Empirical Lipschitz constant of each function over all pairs."""
        out = np.zeros(len(self.centers))
        every = np.arange(self.space.n)
        for part, d in self.space.pair_blocks(every, every):
            # |v(j) - v(i)| / d(i, j), zero for the pairs at distance zero
            d = np.where(d > 0, d, np.inf)
            for f, v in enumerate(self.values):
                out[f] = max(out[f], (np.abs(v - v[part, None]) / d).max())
        return out

    def reported_constant(self):
        """The constant C with every empirical Lipschitz constant <= C/r."""
        lip = self.lipschitz_constants()
        return float(lip.max() * self.radius) if lip.size else 0.0


def partition_of_unity(space, r):
    """Partition of unity subordinate to balls of radius 2r.

    Centers are a greedy maximal r-separated subset (index order); the
    functions are positive-part tents of slope 1 cut at 3r/2, normalized
    by their pointwise sum.  ``r`` must lie in (0, 1/4), a quarter of the
    unit reference scale.
    """
    if space.n == 0:
        raise ValidationError("empty space")
    if not 0 < r < 0.25:
        raise ValidationError("radius must lie in (0, 1/4)")
    # distances are symmetric: a point is r-close to a chosen center exactly
    # when it lies in the center's r-ball
    blocked = np.zeros(space.n, dtype=bool)
    centers = []
    for i in range(space.n):
        if not blocked[i]:
            centers.append(i)
            blocked[space.ball_indices(i, r)] = True
    centers = np.asarray(centers, dtype=int)
    ptr, members, dists = space.all_balls(1.5 * r, centers)
    tents = np.zeros((len(centers), space.n))
    tents[np.repeat(np.arange(len(centers)), np.diff(ptr)), members] = 1.5 * r - dists
    values = tents / tents.sum(axis=0)[None, :]
    return PartitionOfUnity(radius=r, centers=centers, values=values, space=space)


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def density_theta(space, i, d, radii):
    """Mass-to-Lebesgue density ratios ``m(B_r(x)) / (omega_d r^d)``.

    The caller inspects stabilization across the radius list; no limit
    is claimed.  Each ``r ** d`` must be a normal float at most half the
    float range (:func:`check_scale`).
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    omega = unit_ball_volume(d)
    radii = [check_scale(r, "radius", d) for r in radii]
    # one ball at the largest radius (any radius names a bad center)
    _, members, dists = space.all_balls(max(radii, default=1.0), [i])
    w = space.weights[members]
    return [float(w[dists < r].sum()) / (omega * r**d) for r in radii]
