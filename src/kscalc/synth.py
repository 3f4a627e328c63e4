"""Synthetic fixtures: sampled spaces with known atlases and reference maps.

Three families: Euclidean grids, flat-torus grids (covered by half-period
patches, so every chart is exactly isometric), and a planar curve split
into two arclength charts.  Each fixture ships a catalog of maps whose
energy densities have closed forms, plus seeded aligned-atlas
perturbations with a unit-Lipschitz budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charts import Atlas, Chart, alignment_defect, chart_audit
from .energy import MetricMap
from .errors import ValidationError
from .spaces import PointCloudSpace, build_space
from .targets import EuclideanTarget

EUCLIDEAN_GRID = "euclidean-grid"
FLAT_TORUS_GRID = "flat-torus-grid"
TWO_CHART_CURVE = "two-chart-curve"
_PERTURBATION_MODES = 2  # sine modes per component of a chart perturbation


@dataclass(frozen=True)
class FixtureSpec:
    family: str = EUCLIDEAN_GRID
    resolution: int = 32
    dim: int = 1
    epsilon: float = 0.0
    seed: int = 0


@dataclass
class ReferenceMap:
    """A catalog entry: a map with its closed-form energy density."""

    name: str
    map: MetricMap
    density: float


@dataclass
class Fixture:
    spec: FixtureSpec
    space: PointCloudSpace
    atlas: Atlas
    maps: list
    interior: np.ndarray = field(default_factory=lambda: np.asarray([], dtype=int))

    def reference(self, name):
        for m in self.maps:
            if m.name == name:
                return m
        raise KeyError(name)


def _grid_points(resolution, dim, closed=True):
    if closed:
        axis = np.linspace(0.0, 1.0, resolution)
    else:
        axis = np.arange(resolution) / resolution
    if dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _perturbation_field(dim, seed):
    """A smooth vector field with operator Lipschitz constant <= 1."""
    rng = np.random.default_rng(seed)
    modes = rng.integers(1, 3, size=(dim, _PERTURBATION_MODES, dim)).astype(float)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(dim, _PERTURBATION_MODES))

    def psi(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for j in range(dim):
            for m in range(_PERTURBATION_MODES):
                k = modes[j, m]
                amp = 1.0 / (
                    2.0 * math.pi * np.linalg.norm(k) * math.sqrt(dim) * _PERTURBATION_MODES
                )
                out[:, j] += amp * np.sin(2.0 * math.pi * (x @ k) + phases[j, m])
        return out

    return psi


def _perturbed_chart(base_phi, indices, eps, seed, base_slack=0.0):
    dim = base_phi.shape[1]
    if eps <= 0.0:
        return Chart(indices=indices, phi=base_phi.copy(), epsilon=base_slack)
    psi = _perturbation_field(dim, seed)
    return Chart(
        indices=indices, phi=base_phi + eps * psi(base_phi), epsilon=base_slack + eps
    )


def _interior_margin(points, margin, period=None):
    if period is not None:
        return np.arange(points.shape[0])
    keep = np.all((points >= margin) & (points <= 1.0 - margin), axis=1)
    return np.nonzero(keep)[0]


def make_fixture(spec):
    """Build space, atlas, and the reference-map catalog for a family."""
    if spec.resolution < 16:
        raise ValidationError("resolution must be at least 16 per dimension")
    if spec.family == EUCLIDEAN_GRID:
        return _euclidean_grid_fixture(spec)
    if spec.family == FLAT_TORUS_GRID:
        return _torus_grid_fixture(spec)
    if spec.family == TWO_CHART_CURVE:
        return _curve_fixture(spec)
    raise ValidationError(f"unknown fixture family {spec.family!r}")


def _euclidean_grid_fixture(spec):
    d = spec.dim
    pts = _grid_points(spec.resolution, d)
    space = build_space({"kind": "euclidean", "points": pts.tolist()})
    chart = _perturbed_chart(pts, np.arange(space.n), spec.epsilon, spec.seed)
    atlas = Atlas(charts=[chart], epsilon=max(spec.epsilon, 0.0))
    slope = np.zeros(d)
    slope[0] = 2.0
    maps = [
        ReferenceMap(
            name="linear",
            map=MetricMap(space, EuclideanTarget(1), (pts @ slope)[:, None]),
            density=float(np.linalg.norm(slope)) / math.sqrt(d + 2.0),
        ),
        ReferenceMap(
            name="identity",
            map=MetricMap(space, EuclideanTarget(d), pts),
            density=math.sqrt(d / (d + 2.0)),
        ),
        ReferenceMap(
            name="constant",
            map=MetricMap(space, EuclideanTarget(d), np.zeros_like(pts)),
            density=0.0,
        ),
    ]
    h = 1.0 / (spec.resolution - 1)
    interior = _interior_margin(pts, 8.5 * h)
    return Fixture(spec=spec, space=space, atlas=atlas, maps=maps, interior=interior)


def _torus_patches(pts):
    """Half-period patches: in-patch coordinate gaps stay below 1/2, so
    local coordinates are exactly isometric for the wrap metric."""
    d = pts.shape[1]
    labels = (pts >= 0.5).astype(int) @ (2 ** np.arange(d))
    charts = []
    for patch in range(2**d):
        idx = np.nonzero(labels == patch)[0]
        if idx.size:
            charts.append((patch, idx))
    return charts


def _torus_grid_fixture(spec):
    d = spec.dim
    pts = _grid_points(spec.resolution, d, closed=False)
    space = build_space(
        {"kind": "torus", "points": pts.tolist(), "period": [1.0] * d}
    )
    charts = []
    for k, (patch, idx) in enumerate(_torus_patches(pts)):
        charts.append(
            _perturbed_chart(pts[idx], idx, spec.epsilon, spec.seed + 17 * k)
        )
    atlas = Atlas(charts=charts, epsilon=max(spec.epsilon, 0.0))
    # locally isometric circle-product embedding of the torus
    emb = np.concatenate(
        [
            np.stack(
                [
                    np.cos(2.0 * math.pi * pts[:, j]) / (2.0 * math.pi),
                    np.sin(2.0 * math.pi * pts[:, j]) / (2.0 * math.pi),
                ],
                axis=1,
            )
            for j in range(d)
        ],
        axis=1,
    )
    maps = [
        ReferenceMap(
            name="identity",
            map=MetricMap(space, EuclideanTarget(2 * d), emb),
            density=math.sqrt(d / (d + 2.0)),
        ),
        ReferenceMap(
            name="constant",
            map=MetricMap(
                space, EuclideanTarget(d), np.zeros((space.n, d))
            ),
            density=0.0,
        ),
    ]
    interior = np.arange(space.n)
    return Fixture(spec=spec, space=space, atlas=atlas, maps=maps, interior=interior)


_CURVE_AMPLITUDE = 0.05


def _curve_fixture(spec):
    n = spec.resolution
    t = np.linspace(0.0, 1.0, n)
    pts = np.stack([t, _CURVE_AMPLITUDE * np.sin(2.0 * math.pi * t)], axis=1)
    space = build_space({"kind": "euclidean", "points": pts.tolist()})
    # arclength by cumulative chords on a refined parameter grid
    tf = np.linspace(0.0, 1.0, 20 * n)
    cf = np.stack([tf, _CURVE_AMPLITUDE * np.sin(2.0 * math.pi * tf)], axis=1)
    seg = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(cf, axis=0), axis=1))])
    arclen = np.interp(t, tf, seg)[:, None]
    half = n // 2
    idx1 = np.arange(half)
    idx2 = np.arange(half, n)
    base_slack = _curve_base_slack(space, arclen)
    c1 = _perturbed_chart(arclen[idx1], idx1, spec.epsilon, spec.seed, base_slack)
    c2 = _perturbed_chart(arclen[idx2], idx2, spec.epsilon, spec.seed + 1, base_slack)
    atlas = Atlas(charts=[c1, c2], epsilon=base_slack + max(spec.epsilon, 0.0))
    maps = [
        ReferenceMap(
            name="inclusion",
            map=MetricMap(space, EuclideanTarget(2), pts),
            density=math.sqrt(1.0 / 3.0),
        ),
        ReferenceMap(
            name="scaled-arclength",
            map=MetricMap(space, EuclideanTarget(1), 2.0 * arclen),
            density=2.0 / math.sqrt(3.0),
        ),
        ReferenceMap(
            name="constant",
            map=MetricMap(space, EuclideanTarget(1), np.zeros((n, 1))),
            density=0.0,
        ),
    ]
    interior = np.arange(n // 8, n - n // 8)
    return Fixture(spec=spec, space=space, atlas=atlas, maps=maps, interior=interior)


def _curve_base_slack(space, arclen):
    """Audited chord-vs-arclength slack of the curve parameterization."""
    worst = 0.0
    arc = arclen[:, 0]
    everyone = np.arange(space.n)
    for part, d in space.pair_blocks(everyone, everyone):
        mask = d > 0
        ratios = np.abs(arc - arc[part, None])[mask] / d[mask]
        worst = float(ratios.max(initial=worst))
    return max(worst - 1.0, 0.0) + 1e-12


def make_aligned_family(spec, eps_list):
    """Atlases from seeded unit-Lipschitz perturbations of one base chart.

    The pairwise alignment defect is audited against the slack sums; an
    audit failure is a generation bug, not user error.
    """
    eps_list = list(eps_list)
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValidationError("eps_list must be positive")
    if not all(b < a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    fixture = make_fixture(spec)
    atlases = []
    for k, eps in enumerate(eps_list):
        charts = []
        for c in fixture.atlas.charts:
            # the field is unit-Lipschitz in chart coordinates; rescale by
            # the base slack so the defect stays within eps sums in the
            # space metric
            scaled = eps / (1.0 + c.epsilon)
            cc = _perturbed_chart(
                c.phi,
                c.indices,
                scaled,
                spec.seed + 1000 * (k + 1),
                base_slack=c.epsilon,
            )
            cc.epsilon = c.epsilon + eps
            charts.append(cc)
        atlases.append(Atlas(charts=charts, epsilon=eps))
    for a_i, e_i in zip(atlases, eps_list):
        for c in a_i.charts:
            rep = chart_audit(fixture.space, c)
            if not rep.degenerate and not rep.window_ok(c.epsilon):
                raise ValidationError(
                    f"generated chart fails its own audit at eps={c.epsilon}"
                )
        for a_j, e_j in zip(atlases, eps_list):
            if a_i is a_j:
                continue
            for ci in a_i.charts:
                for cj in a_j.charts:
                    defect = alignment_defect(fixture.space, ci, cj)
                    if defect > e_i + e_j + 1e-9:
                        raise ValidationError(
                            f"alignment defect {defect} exceeds {e_i} + {e_j}"
                        )
    return atlases
