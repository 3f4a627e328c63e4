"""Scale energies of metric-valued maps and their density estimates.

The central quantity is the ball-averaged difference quotient at scale
r,

    ks(x) = [ (1/m(B_r(x))) sum_{y in B_r(x)} w_y d_Y(u(x), u(y))^p / r^p ]^(1/p),

evaluated over a sampled domain.  Densities can be estimated either by
sweeping scales and extrapolating, or by fitting a local seminorm and
taking its p-size; agreement of the two routes on smooth maps is a core
consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .charts import fit_metric_differentials
from .errors import FitError, ValidationError
from .parallel import parallel_map
from .seminorms import QUADRATIC, QuadratureSpec, check_exponent, hs_norm, size_p
from .spaces import check_radius, domain_indices
from .targets import EuclideanTarget

RELIABLE_SPACING_FACTOR = 3.0


class MetricMap:
    """A sampled map: one target value per domain index, as packed rows.

    ``values`` are points or packed rows; ``packed`` holds them validated
    and canonical, the map's one stored form.
    """

    def __init__(self, space, target, values):
        if len(values) != space.n:
            raise ValidationError("one value per domain index required")
        self.space = space
        self.target = target
        self.packed = target.pack(values)

    def distance_to(self, other):
        """Pointwise target distances to another map on the same domain."""
        if other.space is not self.space:
            raise ValidationError("maps live on different domains")
        return self.target.dists(self.packed, other.packed)

    def compose(self, fn):
        """The map of ``fn`` applied to each packed row (a point to the scalar API)."""
        return MetricMap(self.space, self.target, [fn(row) for row in self.packed])

    def midpoint_map(self, other):
        """Pointwise geodesic midpoints with another map (same target)."""
        return MetricMap(
            self.space, self.target, self.target.geodesics(self.packed, other.packed, 0.5)
        )

    def separation_map(self, other):
        """Pointwise distance to another map, as a real-valued map."""
        d = self.distance_to(other)
        return MetricMap(self.space, EuclideanTarget(1), d[:, None])


def ks_profile(u, p, scales, omega=None):
    """ks values at several scales in one blocked pass.

    Returns a ``(len(scales), n)`` array.  Ball membership, masses, and
    target distances are shared across scales, so sweeps cost one
    neighbor pass.
    """
    p = check_exponent(p)
    scales = [check_radius(r, "scale") for r in scales]
    space = u.space
    mask = None
    if omega is not None:
        mask = np.zeros(space.n, dtype=bool)
        mask[domain_indices(omega, space.n, "omega index")] = True
    w = space.weights
    out = np.zeros((len(scales), space.n))
    rmax = max(scales)
    packed = u.packed
    for pts, cand in space.cell_partition(rmax):
        dom = space.pair_dist_block(pts, cand)
        tar_p = u.target.dists(
            packed[pts][:, None], packed[cand][None, :], squared=(p == 2.0)
        )
        if p != 2.0:
            tar_p = tar_p**p
        wc = w[cand]
        for k, r in enumerate(scales):
            member = dom < r
            counts = member.sum(axis=1)
            num = (wc[None, :] * tar_p * member).sum(axis=1)
            mass = (wc[None, :] * member).sum(axis=1)
            vals = np.zeros(pts.shape[0])
            ok = counts > 1
            vals[ok] = (num[ok] / (mass[ok] * r**p)) ** (1.0 / p)
            if mask is not None:
                outside = (member & ~mask[cand][None, :]).any(axis=1)
                vals[outside | ~mask[pts]] = 0.0
            out[k, pts] = vals
    return out


def ks_at_scale(u, p, r, omega=None):
    """Per-point scale-r energy density of a map.

    With an ``omega`` index mask the value is zeroed wherever the ball is
    not contained in omega; singleton balls also give zero.
    """
    return ks_profile(u, p, [r], omega=omega)[0]


@dataclass
class EnergyReport:
    """Scale sweep: totals per scale, selected-scale densities, extrapolation."""

    p: float
    scales: np.ndarray
    per_scale_total: np.ndarray
    reliable: np.ndarray
    selected_scale: float
    per_point_density: np.ndarray
    extrapolated_total: float
    extrapolated_density: np.ndarray
    spacing: float = field(default=0.0)

    def to_json(self):
        return {
            "p": self.p,
            "scales": [float(s) for s in self.scales],
            "per_scale_total": [float(t) for t in self.per_scale_total],
            "reliable": [bool(b) for b in self.reliable],
            "selected_scale": float(self.selected_scale),
            "extrapolated_total": float(self.extrapolated_total),
            "extrapolated_density_mean": float(np.mean(self.extrapolated_density)),
            "median_nn_spacing": float(self.spacing),
        }


def _affine_intercept(x, y):
    """Least-squares affine fit through (x, y); returns the intercept."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 1:
        return y[..., 0] if np.ndim(y) > 1 else float(y[0])
    xbar = x.mean()
    den = float(((x - xbar) ** 2).sum())
    yarr = np.asarray(y, dtype=float)
    ybar = yarr.mean(axis=-1)
    slope = ((x - xbar) * (yarr - ybar[..., None])).sum(axis=-1) / den
    return ybar - slope * xbar


def energy_sweep(u, p, scales, omega=None):
    """Totals across a decreasing scale list with linear extrapolation.

    Scales below three median nearest-neighbor spacings are flagged
    unreliable and excluded from both selection and extrapolation; the
    per-point density is the one at the smallest reliable scale.  The
    totals and the per-point densities are both extrapolated linearly in
    r to r = 0 through the three smallest reliable scales.
    """
    scales = np.asarray(scales, dtype=float)
    valid = np.isfinite(scales) & (scales > 0)
    if scales.ndim != 1 or scales.shape[0] == 0 or not np.all(valid):
        raise ValidationError("scales must be a nonempty list of finite positive numbers")
    if np.any(np.diff(scales) >= 0):
        raise ValidationError("scales must be sorted strictly decreasing")
    spacing = u.space.median_nn_spacing()
    reliable = scales >= RELIABLE_SPACING_FACTOR * spacing
    if not np.any(reliable):
        raise ValidationError("all scales unreliable at this resolution")
    totals = np.empty(scales.shape[0])
    w = u.space.weights
    density = None
    selected = None
    profile = ks_profile(u, p, scales, omega=omega)
    for k, r in enumerate(scales):
        ks = profile[k]
        totals[k] = float(np.dot(w, ks**p))
        if reliable[k]:
            selected = float(r)
            density = ks
    tail = np.nonzero(reliable)[0][-3:]
    return EnergyReport(
        p=p,
        scales=scales,
        per_scale_total=totals,
        reliable=reliable,
        selected_scale=selected,
        per_point_density=density,
        extrapolated_total=float(_affine_intercept(scales[tail], totals[tail])),
        extrapolated_density=_affine_intercept(scales[tail], profile[tail].T),
        spacing=spacing,
    )


def density_extrapolated(u, p, scales, omega=None):
    """Per-point density extrapolated linearly in r to r = 0.

    The ``extrapolated_density`` of :func:`energy_sweep` over ``scales``
    in any order: the intercept through the three smallest reliable
    scales, meant for interior points where every used ball is
    resolution-honest.
    """
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    return energy_sweep(u, p, scales, omega=omega).extrapolated_density


@dataclass
class FitConfig:
    """Per-point fit configuration for density estimation."""

    family: str = QUADRATIC
    radius: float | None = None
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    points: list | None = None


@dataclass
class DensityResult:
    """Densities (NaN where no fit), fits and per-point fit errors by index."""

    densities: np.ndarray
    fits: dict
    errors: dict

    def evaluated(self):
        return np.nonzero(~np.isnan(self.densities))[0]


def _fit_points(u, atlas, config, threads=1):
    """The one fit loop: ``(fits, errors)``, both keyed by index.

    ``fits`` holds the :class:`FitResult` of each fitted index in the
    order of ``config.points`` (default: every chart member), ``errors``
    the message of each index whose fit ended in a :class:`FitError`.  A bad
    radius or a point that is not an index of the domain raises
    ``ValidationError`` before any fit; any other exception propagates.
    """
    space = u.space
    if config.radius is not None:
        check_radius(config.radius, "fit radius")
    if config.points is None:
        points = [i for i in range(space.n) if atlas.chart_of(i) is not None]
    else:
        chosen = domain_indices(config.points, space.n, "fit point")
        points = list(dict.fromkeys(chosen.tolist()))

    outcomes, jobs = {}, {}
    for i in points:
        chart = atlas.chart_of(i)
        if chart is None:
            outcomes[i] = FitError("point not covered by any chart", index=i)
        else:
            jobs.setdefault(id(chart), (chart, []))[1].append(i)
    parts = list(jobs.values())  # one batched fit pass per chart

    def work(job):
        chart, part = job
        return fit_metric_differentials(
            space, chart, u, u.target, part, radius=config.radius, family=config.family
        )

    for (_, part), done in zip(parts, parallel_map(work, parts, threads=threads)):
        outcomes.update(zip(part, done))
    fits, errors = {}, {}
    for i in points:
        if isinstance(outcomes[i], FitError):  # per-point failures do not stop the rest
            errors[i] = str(outcomes[i])
        else:
            fits[i] = outcomes[i]
    return fits, errors


def _density_result(u, atlas, config, threads, density):
    """Fit every requested point and take ``density(fit)`` of each fit."""
    fits, errors = _fit_points(u, atlas, config, threads=threads)
    densities = np.full(u.space.n, np.nan)
    for i, fit in fits.items():
        densities[i] = density(fit)
    return DensityResult(densities=densities, fits=fits, errors=errors)


def density_via_mdiff(u, atlas, p=2.0, config=None, threads=1):
    """Energy density through local seminorm fits: p-size of the fit."""
    p = check_exponent(p)
    config = config or FitConfig()
    return _density_result(
        u, atlas, config, threads, lambda fit: size_p(fit.seminorm, p, config.quad)
    )


def hs_energy(u, atlas, config=None, threads=1):
    """Density through the Hilbert-Schmidt norm of quadratic fits.

    Requires the quadratic family and a CAT(0) target.  Each fit's norm is
    divided by sqrt(d + 2), d the dimension of its own chart, so the
    density agrees with the 2-size route up to quadrature tolerance.
    """
    config = config or FitConfig()
    if config.family != QUADRATIC:
        raise ValidationError("Hilbert-Schmidt energy needs the quadratic family")
    if not u.target.is_cat0:
        raise ValidationError("Hilbert-Schmidt energy needs a CAT(0) target")

    def density(fit):
        return hs_norm(fit.seminorm) / math.sqrt(fit.seminorm.dim + 2.0)

    return _density_result(u, atlas, config, threads, density)


def contraction_check(u, post_map, p, r, seed=0, n_pairs=256):
    """Max pointwise increase of ks under a 1-Lipschitz post-composition.

    ``post_map`` maps a packed row (a point to the scalar API) to a
    value.  The declared Lipschitz property is audited on seeded value pairs
    before any energy is computed; a failed audit names the first expanding
    pair and rejects the post map.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, u.space.n, size=(n_pairs, 2)).T
    v = u.compose(post_map)
    da = u.target.dists(u.packed[a], u.packed[b])
    db = u.target.dists(v.packed[a], v.packed[b])
    expands = np.flatnonzero(db > da * (1.0 + 1e-12) + 1e-15)
    if expands.size:
        k = expands[0]
        raise ValidationError(
            f"post map expands pair ({a[k]}, {b[k]}): {db[k]} > {da[k]}",
            detail=(int(a[k]), int(b[k])),
        )
    gap = ks_at_scale(v, p, r) - ks_at_scale(u, p, r)
    return float(gap.max())


def hajlasz_gradient(u, R):
    """Largest distance quotient over the R-ball at every point.

    By construction each value alone dominates the pair quotient, so the
    two-sided pair bound holds with room to spare.
    """
    ptr, members, dom = u.space.all_balls(check_radius(R, "R"))
    owner = np.repeat(np.arange(u.space.n), np.diff(ptr))
    tar = u.target.dists(u.packed[owner], u.packed[members])
    # each ball holds its center, whose quotient is taken as 0
    quotient = np.divide(tar, dom, out=np.zeros_like(tar), where=members != owner)
    return np.maximum.reduceat(quotient, ptr[:-1])


def locality_check(u, v, p, r=None, source="ks", atlas=None, config=None):
    """Max density discrepancy over the interior of the agreement set.

    The agreement set holds indices where the two maps coincide exactly;
    a point qualifies when the ball (or fit neighborhood) it reads lies
    inside that set.  Empty agreement passes vacuously with 0.
    """
    agree = u.distance_to(v) == 0.0
    if not np.any(agree):
        return 0.0
    space = u.space
    if source == "ks":
        if r is None:
            raise ValidationError("scale r required for the ks source")
        gap = np.abs(ks_at_scale(u, p, r) - ks_at_scale(v, p, r))
        ptr, members, _ = space.all_balls(r)
        inside = agree & np.logical_and.reduceat(agree[members], ptr[:-1])
        return float(gap[inside].max(initial=0.0))
    if source == "mdiff":
        if atlas is None:
            raise ValidationError("atlas required for the mdiff source")
        points = [i for i in np.flatnonzero(agree) if atlas.chart_of(i) is not None]
        config = replace(config or FitConfig(), points=points)
        du = density_via_mdiff(u, atlas, p, config)
        dv = density_via_mdiff(v, atlas, p, config).densities
        worst = 0.0
        for i, fit in du.fits.items():
            # the chart members of its open ball, read as the fit reads them
            members = atlas.chart_of(i).indices
            region = members[space.pair_dist_block([i], members)[0] < fit.radius]
            if np.all(agree[region]) and not np.isnan(dv[i]):
                worst = max(worst, abs(float(du.densities[i] - dv[i])))
        return worst
    raise ValidationError(f"unknown density source {source!r}")


def midpoint_scale_gap(u, v, r, omega=None):
    """Slack of the fixed-scale midpoint inequality, pointwise max.

    Returns ``max_x (2 ks^2[m] + ks^2[s]/2) - (ks^2[u] + ks^2[v])``;
    nonpositive (up to noise) for CAT(0) targets at every scale.
    """
    m = u.midpoint_map(v)
    s = u.separation_map(v)
    km = ks_at_scale(m, 2.0, r, omega=omega)
    ks_ = ks_at_scale(s, 2.0, r, omega=omega)
    ku = ks_at_scale(u, 2.0, r, omega=omega)
    kv = ks_at_scale(v, 2.0, r, omega=omega)
    return float((2.0 * km**2 + 0.5 * ks_**2 - ku**2 - kv**2).max())
