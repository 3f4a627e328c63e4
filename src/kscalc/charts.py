"""Chart atlases and local seminorm fits for metric differentials.

A chart carries a subset of domain indices with coordinates in R^d and a
declared biLipschitz slack.  Fitting a seminorm to the target distances
seen from a point, against chart-coordinate displacements, produces the
sampled stand-in for the metric differential at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import FitError, ValidationError
from .seminorms import POLYHEDRAL, QUADRATIC, Seminorm
from .spaces import domain_indices

_FIT_NEIGHBOR_FACTOR = 4  # default ball holds 4 (d+1) chart members
_FIT_ROWS = 2**18  # (point, neighbor) rows gathered before they are fitted
_GREEDY_ENTRIES = 2**18  # (point, direction, neighbor) entries per greedy slice
_MAX_COVECTORS = 8  # greedy rounds of a polyhedral fit
# chart and uncovered indices must be integers; their range is checked
# against a space by ``Atlas.validate_cover``
_INDEX_BOUND = np.iinfo(np.intp).max


@dataclass
class Chart:
    """Indices with coordinates in R^d and a declared biLipschitz slack."""

    indices: np.ndarray
    phi: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.indices = domain_indices(self.indices, _INDEX_BOUND, "chart index")
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if self.phi.shape[0] != self.indices.shape[0]:
            raise ValidationError("one coordinate row per chart member")
        bad = ~np.isfinite(self.phi).all(axis=1)
        if np.any(bad):
            k = int(self.indices[np.argmax(bad)])
            raise ValidationError(f"non-finite chart coordinates at index {k}", detail=k)
        self._pos = {int(i): k for k, i in enumerate(self.indices)}
        if len(self._pos) < self.indices.shape[0]:
            k = next(int(i) for n, i in enumerate(self.indices) if self._pos[int(i)] != n)
            raise ValidationError(f"chart lists index {k} twice", detail=k)

    @property
    def chart_dim(self):
        return self.phi.shape[1]

    def position(self, index):
        return self._pos.get(int(index))

    def contains(self, index):
        return int(index) in self._pos


@dataclass
class Atlas:
    """Disjoint charts plus the uncovered index set."""

    charts: list
    epsilon: float
    uncovered: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    def __post_init__(self):
        self.uncovered = domain_indices(self.uncovered, _INDEX_BOUND, "uncovered index")
        seen = set()
        for c in self.charts:
            s = set(int(i) for i in c.indices)
            if seen & s:
                raise ValidationError("chart member sets must be pairwise disjoint")
            seen |= s
        if seen & set(int(i) for i in self.uncovered):
            raise ValidationError("uncovered indices overlap a chart")

    def validate_cover(self, n_points):
        covered = set(int(i) for i in self.uncovered)
        for c in self.charts:
            covered |= set(int(i) for i in c.indices)
        if covered != set(range(n_points)):
            raise ValidationError("charts plus uncovered must partition all indices")

    def chart_of(self, index):
        """The chart holding ``index``, or None when uncovered."""
        for c in self.charts:
            if c.contains(index):
                return c
        return None


@dataclass
class ChartAuditReport:
    """Empirical biLipschitz window and pushed-measure density sandwich."""

    bilip_min: float
    bilip_max: float
    density_witness: float
    density_spread: float
    n_members: int
    degenerate: bool = False

    def window_ok(self, epsilon):
        return (
            self.bilip_max <= 1.0 + epsilon + 1e-12
            and self.bilip_min >= 1.0 / (1.0 + epsilon) - 1e-12
        )


def chart_audit(space, chart, cells_per_axis=None):
    """Audit a chart: coordinate-to-metric ratios and density sandwich.

    The biLipschitz window is the exact min and max over member pairs of
    ``|phi(y) - phi(x)| / d(x, y)``.  The density part grids the chart
    image and compares pushed-forward weights against cell volumes; the
    witness is the smallest occupied-cell density and the spread the
    max-to-min ratio.
    """
    m = chart.indices.shape[0]
    if m < 2:
        return ChartAuditReport(
            bilip_min=math.nan,
            bilip_max=math.nan,
            density_witness=math.nan,
            density_spread=math.nan,
            n_members=m,
            degenerate=True,
        )
    lo, hi = np.inf, 0.0
    for part, d in space.pair_blocks(chart.indices, chart.indices):
        img = np.linalg.norm(chart.phi - chart.phi[part, None], axis=2)
        mask = d > 0
        ratios = img[mask] / d[mask]
        lo = float(ratios.min(initial=lo))
        hi = float(ratios.max(initial=hi))
    d_ = chart.chart_dim
    if cells_per_axis is None:
        cells_per_axis = max(int(round((m / 2.0) ** (1.0 / d_))), 1)
    mins = chart.phi.min(axis=0)
    maxs = chart.phi.max(axis=0)
    span = np.maximum(maxs - mins, 1e-12)
    cell_idx = np.minimum(
        (cells_per_axis * (chart.phi - mins) / span).astype(int), cells_per_axis - 1
    )
    flat = np.ravel_multi_index(cell_idx.T, (cells_per_axis,) * d_)
    w = space.weights[chart.indices]
    masses = np.bincount(flat, weights=w, minlength=cells_per_axis**d_)
    cell_vol = float(np.prod(span / cells_per_axis))
    dens = masses[masses > 0] / cell_vol
    return ChartAuditReport(
        bilip_min=lo,
        bilip_max=hi,
        density_witness=float(dens.min()),
        density_spread=float(dens.max() / dens.min()),
        n_members=m,
    )


def alignment_defect(space, c1, c2):
    """Lipschitz constant of the chart difference over the overlap.

    Zero when the overlap has fewer than two points.  An aligned pair
    must report at most the sum of the two declared slacks.
    """
    shared = np.intersect1d(c1.indices, c2.indices)
    if shared.shape[0] < 2:
        return 0.0
    g = c1.phi[[c1.position(i) for i in shared]] - c2.phi[[c2.position(i) for i in shared]]
    worst = 0.0
    for part, d in space.pair_blocks(shared, shared):
        mask = d > 0
        num = np.linalg.norm(g - g[part, None], axis=2)
        worst = float((num[mask] / d[mask]).max(initial=worst))
    return worst


def default_fit_radius(space, chart, i):
    """Smallest radius whose ball holds the default chart-member count."""
    radii, held = _default_radii(space.pair_dist_block([int(i)], chart.indices), chart)
    if np.isnan(radii[0]):
        raise _too_few(held[0], i)
    return float(radii[0])


def _default_radii(dists, chart):
    """Default fit radii from rows of distances to the chart members.

    Returns ``(radii, held)``: the k-th smallest positive distance of each
    row times ``1 + 1e-9``, k the default member count (NaN where a row
    holds fewer), and the number of positive distances of each row.
    """
    k = _FIT_NEIGHBOR_FACTOR * (chart.chart_dim + 1)
    held = (dists > 0).sum(axis=1)
    radii = np.full(dists.shape[0], np.nan)
    if dists.shape[1] >= k:
        kth = np.partition(np.where(dists > 0, dists, np.inf), k - 1, axis=1)[:, k - 1]
        radii[held >= k] = kth[held >= k] * (1.0 + 1e-9)
    return radii, held


def _too_few(held, i):
    return FitError(f"chart holds only {int(held)} neighbors of point {int(i)}", index=int(i))


@dataclass
class FitResult:
    seminorm: Seminorm
    residual: float
    n_neighbors: int
    radius: float
    index: int

    def to_json(self):
        return {
            "index": int(self.index),
            "seminorm": self.seminorm.to_json(),
            "residual": float(self.residual),
            "n_neighbors": int(self.n_neighbors),
            "radius": float(self.radius),
        }


@lru_cache(maxsize=8)
def _direction_dictionary(d):
    """Evenly spread unit covectors: 64 in d=2, 256 on the d=3 sphere."""
    if d == 1:
        return np.asarray([[1.0]])
    if d == 2:
        ang = np.linspace(0.0, math.pi, 64, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if d == 3:
        k = np.arange(256)
        z = 1.0 - 2.0 * (k + 0.5) / 256
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(7)
    g = rng.normal(0.0, 1.0, (128 * d, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def fit_metric_differential(space, chart, u, target, i, radius=None, family=QUADRATIC):
    """Fit a seminorm to target distances around point ``i``.

    The one-point call of :func:`fit_metric_differentials`: returns the
    :class:`FitResult` or raises the :class:`FitError`.
    """
    out = fit_metric_differentials(space, chart, u, target, [i], radius, family)[0]
    if isinstance(out, FitError):
        raise out
    return out


def fit_metric_differentials(space, chart, u, target, points, radius=None, family=QUADRATIC):
    """Fit a seminorm to target distances around each of ``points``.

    The neighbors of a point are the chart members in its open ball of
    ``radius`` (default: the smallest ball holding ``4 (d + 1)`` of
    them), their chart displacements the arguments.  Quadratic fits solve
    least squares for the form entries against squared distances and
    project onto the PSD cone; polyhedral fits greedily pick scaled
    covectors from a fixed direction dictionary against plain distances.
    Each fit carries the relative RMS residual.

    Returns one entry per point, in order: its :class:`FitResult`, or the
    :class:`FitError` that stopped its fit.  One pass serves every point:
    distances to the chart members by ``pair_blocks`` parts, then per
    batch of neighbor rows one ``target.dists`` call and, over the points
    with equal neighbor counts, batched rank checks, solves and
    projections (quadratic) or one batched greedy (polyhedral).  No fit
    depends on which points share its batch.
    """
    if family not in (QUADRATIC, POLYHEDRAL):
        raise ValidationError(f"unknown fit family {family!r}")
    points = [int(i) for i in points]
    out = [None] * len(points)
    slots = []
    for k, i in enumerate(points):
        if chart.contains(i):
            slots.append(k)
        else:
            out[k] = FitError(f"point {i} is not a chart member", index=i)
    d = chart.chart_dim
    batch, rows = [], 0  # (slot, point, radius, neighbor positions) awaiting fits
    for part, dists in space.pair_blocks([points[k] for k in slots], chart.indices):
        chunk = slots[part]
        if radius is None:
            radii, held = _default_radii(dists, chart)
        else:
            radii = np.full(len(chunk), float(radius))
        near = (dists > 0) & (dists < radii[:, None])
        for row, k in enumerate(chunk):
            i = points[k]
            nbrs = np.flatnonzero(near[row])
            if radius is None and np.isnan(radii[row]):
                out[k] = _too_few(held[row], i)
            elif nbrs.shape[0] < d + 1:
                out[k] = FitError(
                    f"insufficient neighbors at point {i}: {nbrs.shape[0]} < {d + 1}",
                    index=i,
                )
            else:
                batch.append((k, i, float(radii[row]), nbrs))
                rows += nbrs.shape[0]
        if batch and (rows >= _FIT_ROWS or part.stop >= len(slots)):
            for (k, *_), fit in zip(batch, _fit_batch(chart, u, target, batch, family)):
                out[k] = fit
            batch, rows = [], 0
    return out


def _fit_batch(chart, u, target, batch, family):
    """The fits of the gathered neighborhoods ``(slot, point, radius,
    neighbor positions)``: a :class:`FitResult` or :class:`FitError` each."""
    counts = np.asarray([nbrs.shape[0] for *_, nbrs in batch])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    centers = np.asarray([i for _, i, _, _ in batch])
    owner = np.repeat(np.arange(len(batch)), counts)
    nbrs = np.concatenate([nbrs for *_, nbrs in batch])
    own = np.asarray([chart.position(i) for i in centers])
    v = chart.phi[nbrs] - chart.phi[own[owner]]
    dy = target.dists(u.packed[centers[owner]], u.packed[chart.indices[nbrs]])
    if family == QUADRATIC:
        forms = _fit_quadratics(v, dy, ptr, centers)
    else:
        forms = _fit_polyhedra(v, dy, ptr)
    fits = []
    for j, (_, i, radius, _) in enumerate(batch):
        n = forms[j]
        if isinstance(n, FitError):
            fits.append(n)
            continue
        vj, dyj = v[ptr[j] : ptr[j + 1]], dy[ptr[j] : ptr[j + 1]]
        pred = n.evaluate(vj)
        rms_d = math.sqrt(float(np.mean(dyj**2)))
        rms_e = math.sqrt(float(np.mean((dyj - pred) ** 2)))
        fits.append(
            FitResult(
                seminorm=n,
                residual=rms_e / rms_d if rms_d > 0 else 0.0,
                n_neighbors=int(counts[j]),
                radius=radius,
                index=i,
            )
        )
    return fits


def _quad_monomials(v):
    d = v.shape[1]
    cols = []
    for a in range(d):
        for b in range(a, d):
            cols.append((2.0 if a != b else 1.0) * v[:, a] * v[:, b])
    return np.stack(cols, axis=1)


def _fit_quadratics(v, dy, ptr, centers):
    """Quadratic fits of the row groups ``ptr[j]:ptr[j + 1]``, batched over
    the groups of equal size: a seminorm, or a :class:`FitError` where the
    design is rank-deficient."""
    d = v.shape[1]
    n_params = d * (d + 1) // 2
    design = _quad_monomials(v)
    rhs = dy**2
    sizes = np.diff(ptr)
    upper = np.triu_indices(d)
    out = [None] * sizes.shape[0]
    for size in np.flatnonzero(np.bincount(sizes)):  # the distinct sizes, ascending
        group = np.flatnonzero(sizes == size)
        at = ptr[group][:, None] + np.arange(size)
        full = np.linalg.matrix_rank(design[at]) == n_params
        for j in group[~full]:
            i = int(centers[j])
            out[j] = FitError(
                f"rank-deficient design at point {i} (collinear neighbors)", index=i
            )
        group, at = group[full], at[full]
        if group.shape[0] == 0:
            continue
        # least squares through the thin SVD, as lstsq solves a full-rank design
        U, sv, Vt = np.linalg.svd(design[at], full_matrices=False)
        coef = np.einsum("gpk,gp->gk", Vt, np.einsum("gcp,gc->gp", U, rhs[at]) / sv)
        q = np.empty((group.shape[0], d, d))
        q[:, upper[0], upper[1]] = coef
        q[:, upper[1], upper[0]] = coef
        vals, vecs = np.linalg.eigh(q)
        q = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        for j, form in zip(group, q):
            out[j] = Seminorm.quadratic(form)
    return out


def _fit_polyhedra(v, dy, ptr):
    """Greedy polyhedral fits of the row groups ``ptr[j]:ptr[j + 1]``: a
    seminorm each.

    Each round of a fit scales every dictionary direction to the distances
    (least squares, reweighted up to 10 times on the rows where the scaled
    direction reaches the current maximum), keeps the first direction
    whose squared error beats the best so far by more than 1e-15, and
    stops when that error no longer improves.  The groups of equal size
    run together, in slices of at most about ``_GREEDY_ENTRIES``
    (point, direction, neighbor) entries; no padding, so a fit does not
    depend on the groups that share its slice.
    """
    dirs = _direction_dictionary(v.shape[1])
    sizes = np.diff(ptr)
    out = [None] * sizes.shape[0]
    for size in np.flatnonzero(np.bincount(sizes)):  # the distinct sizes, ascending
        group = np.flatnonzero(sizes == size)
        step = max(_GREEDY_ENTRIES // (dirs.shape[0] * size), 1)
        for lo in range(0, group.shape[0], step):
            part = group[lo : lo + step]
            at = ptr[part][:, None] + np.arange(size)
            for j, covectors in zip(part, _greedy(v[at], dy[at], dirs, _MAX_COVECTORS)):
                out[j] = Seminorm.polyhedral(covectors)
    return out


def _greedy(v, dy, dirs, rounds):
    """The greedy picks for ``(points, rows, d)`` displacements and
    ``(points, rows)`` distances: a ``(k, d)`` covector array per point."""
    n_points, _, d = v.shape
    # |<v, direction>| as (point, direction, row), summed axis by axis
    q = v[:, None, :, 0] * dirs[None, :, 0, None]
    for a in range(1, d):
        q = q + v[:, None, :, a] * dirs[None, :, a, None]
    q = np.abs(q)
    y = dy[:, None, :]
    valid = (q > 0).any(axis=2)  # directions that see some neighbor
    s0 = (y * q).sum(axis=2) / np.where(valid, (q * q).sum(axis=2), 1.0)
    pred = np.zeros(dy.shape)
    sse = (dy * dy).sum(axis=1)
    live = np.arange(n_points)  # the points still picking, in their slot order
    picks = [[] for _ in range(n_points)]
    for _ in range(rounds):
        s, going = s0, valid
        for _ in range(10):  # reweight on the active set of the max
            if not going.any():
                break
            qa = np.where(s[:, :, None] * q >= pred[:, None, :], q, 0.0)
            den = (qa * qa).sum(axis=2)
            ok = going & (den != 0)
            s_new = (y * qa).sum(axis=2) / np.where(ok, den, 1.0)
            done = np.abs(s_new - s) <= 1e-14 * np.maximum(np.abs(s), 1.0)
            s = np.where(ok, s_new, s)
            going = ok & ~done
        s = np.maximum(s, 0.0)
        trial = np.maximum(pred[:, None, :], s[:, :, None] * q)
        err = ((y - trial) ** 2).sum(axis=2)
        best = _first_best(err, valid)
        rows = np.arange(live.shape[0])
        k = np.maximum(best, 0)
        e = err[rows, k]
        better = (best >= 0) & ~(e >= sse - 1e-14 * np.maximum(sse, 1.0))
        for r in np.flatnonzero(better):
            picks[live[r]].append(s[r, k[r]] * dirs[k[r]])
        pred = np.where(better[:, None], trial[rows, k], pred)
        sse = np.where(better, e, sse)
        if not better.all():
            live, q, y, valid, s0 = (x[better] for x in (live, q, y, valid, s0))
            pred, sse = pred[better], sse[better]
        if live.shape[0] == 0:
            break
    return [np.stack(p) if p else np.zeros((1, d)) for p in picks]


def _first_best(err, valid):
    """Per row, the valid column that a left-to-right scan keeps when it
    replaces its best only by an error below ``best - 1e-15``; -1 where no
    column is valid."""
    keep, pick = np.zeros(err.shape[0]), np.full(err.shape[0], -1)
    for c in range(err.shape[1]):
        take = valid[:, c] & ((pick < 0) | (err[:, c] < keep - 1e-15))
        keep = np.where(take, err[:, c], keep)
        pick = np.where(take, c, pick)
    return pick


def aplip_estimate(space, u, target, i, radius):
    """Max distance-quotient over the ball: sampled local Lipschitz ratio."""
    _, idx, dom = space.all_balls(radius, [i])
    other = idx != int(i)
    if not other.any():
        return 0.0
    tar = target.dists(u.packed[int(i)], u.packed[idx[other]])
    return float((tar / dom[other]).max())
