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

_FIT_NEIGHBOR_FACTOR = 4  # default ball holds 4 (d+1) chart members


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
    return _fit_radius(space.dist_subset(int(i), chart.indices), chart, i)


def _fit_radius(dists, chart, i):
    """``default_fit_radius`` from the distances of ``i`` to the chart members."""
    min_members = _FIT_NEIGHBOR_FACTOR * (chart.chart_dim + 1)
    dists = np.sort(dists[dists > 0])
    if dists.shape[0] < min_members:
        raise FitError(
            f"chart holds only {dists.shape[0]} neighbors of point {i}", index=i
        )
    return float(dists[min_members - 1] * (1.0 + 1e-9))


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

    Quadratic fits solve least squares for the form entries against
    squared distances and project onto the PSD cone; polyhedral fits
    greedily pick scaled covectors from a fixed direction dictionary
    against plain distances.  Returns the seminorm with the relative
    RMS residual.
    """
    if not chart.contains(i):
        raise FitError(f"point {i} is not a chart member", index=i)
    d = chart.chart_dim
    dists = space.dist_subset(int(i), chart.indices)
    if radius is None:
        radius = _fit_radius(dists, chart, i)
    sel = (dists > 0) & (dists < radius)
    members = chart.indices[sel]
    if members.shape[0] < d + 1:
        raise FitError(
            f"insufficient neighbors at point {i}: {members.shape[0]} < {d + 1}",
            index=i,
        )
    v = chart.phi[sel] - chart.phi[chart.position(i)]
    dy = target.dists(u.packed[int(i)], u.packed[members])
    if family == QUADRATIC:
        n = _fit_quadratic(v, dy, i)
    elif family == POLYHEDRAL:
        n = _fit_polyhedral(v, dy)
    else:
        raise ValidationError(f"unknown fit family {family!r}")
    pred = n.evaluate(v)
    rms_d = math.sqrt(float(np.mean(dy**2)))
    rms_e = math.sqrt(float(np.mean((dy - pred) ** 2)))
    residual = rms_e / rms_d if rms_d > 0 else 0.0
    return FitResult(
        seminorm=n,
        residual=residual,
        n_neighbors=int(members.shape[0]),
        radius=float(radius),
        index=int(i),
    )


def _quad_monomials(v):
    d = v.shape[1]
    cols = []
    for a in range(d):
        for b in range(a, d):
            cols.append((2.0 if a != b else 1.0) * v[:, a] * v[:, b])
    return np.stack(cols, axis=1)


def _fit_quadratic(v, dy, i):
    d = v.shape[1]
    design = _quad_monomials(v)
    n_params = d * (d + 1) // 2
    if np.linalg.matrix_rank(design) < n_params:
        raise FitError(
            f"rank-deficient design at point {i} (collinear neighbors)", index=i
        )
    coef, *_ = np.linalg.lstsq(design, dy**2, rcond=None)
    q = np.empty((d, d))
    k = 0
    for a in range(d):
        for b in range(a, d):
            q[a, b] = q[b, a] = coef[k]
            k += 1
    vals, vecs = np.linalg.eigh(q)
    vals = np.maximum(vals, 0.0)
    return Seminorm.quadratic((vecs * vals) @ vecs.T)


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
