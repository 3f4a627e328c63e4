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
from .spaces import _BALL_CHUNK

_FIT_NEIGHBOR_FACTOR = 4  # default ball holds 4 (d+1) chart members
_FIT_ROWS = 2**18  # (point, neighbor) rows gathered before they are fitted


@dataclass
class Chart:
    """Indices with coordinates in R^d and a declared biLipschitz slack."""

    indices: np.ndarray
    phi: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
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
    uncovered: np.ndarray = field(default_factory=lambda: np.asarray([], dtype=int))

    def __post_init__(self):
        self.uncovered = np.asarray(self.uncovered, dtype=int)
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
    for k in range(m):
        d = space.dist_subset(int(chart.indices[k]), chart.indices)
        img = np.linalg.norm(chart.phi - chart.phi[k], axis=1)
        mask = d > 0
        ratios = img[mask] / d[mask]
        if ratios.size:
            lo = min(lo, float(ratios.min()))
            hi = max(hi, float(ratios.max()))
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
    g = np.empty((shared.shape[0], c1.chart_dim))
    for k, i in enumerate(shared):
        g[k] = c1.phi[c1.position(i)] - c2.phi[c2.position(i)]
    worst = 0.0
    for k, i in enumerate(shared):
        d = space.dist_subset(int(i), shared)
        mask = d > 0
        if not np.any(mask):
            continue
        num = np.linalg.norm(g[mask] - g[k], axis=1)
        worst = max(worst, float((num / d[mask]).max()))
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
    distances to the chart members for ``_BALL_CHUNK`` points at a time,
    then per batch of neighbor rows one ``target.dists`` call and, for
    the quadratic family, batched rank checks, solves and projections
    over the points with equal neighbor counts.
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
    for start in range(0, len(slots), _BALL_CHUNK):
        chunk = slots[start : start + _BALL_CHUNK]
        dists = space.pair_dist_block([points[k] for k in chunk], chart.indices)
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
        if batch and (rows >= _FIT_ROWS or start + _BALL_CHUNK >= len(slots)):
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
        forms = [_fit_polyhedral(v[a:b], dy[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]
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


def _fit_polyhedral(v, dy, max_covectors=8):
    dirs = _direction_dictionary(v.shape[1])
    proj = np.abs(v @ dirs.T)  # (n, k)
    pred = np.zeros(dy.shape[0])
    chosen = []
    sse = float(np.sum(dy**2))
    for _ in range(max_covectors):
        best = None
        for k in range(dirs.shape[0]):
            q = proj[:, k]
            if not np.any(q > 0):
                continue
            s = float(np.dot(dy, q) / np.dot(q, q))
            for _ in range(10):  # reweight on the active set of the max
                active = s * q >= pred
                if not np.any(active) or np.dot(q[active], q[active]) == 0:
                    break
                s_new = float(
                    np.dot(dy[active], q[active]) / np.dot(q[active], q[active])
                )
                if abs(s_new - s) <= 1e-14 * max(abs(s), 1.0):
                    s = s_new
                    break
                s = s_new
            s = max(s, 0.0)
            trial = np.maximum(pred, s * q)
            err = float(np.sum((dy - trial) ** 2))
            if best is None or err < best[0] - 1e-15:
                best = (err, k, s)
        if best is None or best[0] >= sse - 1e-14 * max(sse, 1.0):
            break
        sse, k, s = best
        chosen.append(s * dirs[k])
        pred = np.maximum(pred, s * proj[:, k])
    if not chosen:
        chosen = [np.zeros(v.shape[1])]
    return Seminorm.polyhedral(np.stack(chosen))


def aplip_estimate(space, u, target, i, radius):
    """Max distance-quotient over the ball: sampled local Lipschitz ratio."""
    _, idx, dom = space.all_balls(radius, [i])
    other = idx != int(i)
    if not other.any():
        return 0.0
    tar = target.dists(u.packed[int(i)], u.packed[idx[other]])
    return float((tar / dom[other]).max())
