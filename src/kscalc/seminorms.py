"""Seminorms on R^d: evaluation, operator norms, distances, and p-sizes.

Two families are shipped: quadratic forms ``n(v) = sqrt(v' Q v)`` with Q
symmetric PSD (the Hilbertian case, where the Hilbert-Schmidt identity
``hs = sqrt(d + 2) * S_2`` holds exactly), and maxima of finitely many
linear functionals (cheap witnesses of non-Hilbertian behavior).

The p-size is the normalized L^p average over the Euclidean unit ball,
computed by a fixed, seeded low-discrepancy quadrature so results are
reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

QUADRATIC = "quadratic"
POLYHEDRAL = "polyhedral"

_EIG_CLAMP = -1e-12
DEFAULT_QUAD_COUNT = 2**16
DEFAULT_QUAD_SEED = 0


@dataclass(frozen=True)
class QuadratureSpec:
    """Unit-ball quadrature configuration: node count and scramble seed."""

    count: int = DEFAULT_QUAD_COUNT
    seed: int = DEFAULT_QUAD_SEED


class Seminorm:
    """A seminorm on R^d from the quadratic or polyhedral family."""

    def __init__(self, family, dim, matrix=None, covectors=None):
        self.family = family
        self.dim = int(dim)
        if family == QUADRATIC:
            q = np.asarray(matrix, dtype=float)
            if q.shape != (self.dim, self.dim):
                raise ValidationError("quadratic form must be d x d")
            if np.abs(q - q.T).max() > 1e-10 * max(1.0, np.abs(q).max()):
                raise ValidationError("quadratic form must be symmetric")
            q = 0.5 * (q + q.T)
            vals, vecs = np.linalg.eigh(q)
            if vals.min() < _EIG_CLAMP * max(1.0, abs(vals).max()):
                raise ValidationError("quadratic form is not positive semidefinite")
            vals = np.maximum(vals, 0.0)
            self.matrix = (vecs * vals) @ vecs.T
            self._eigvals = vals
            self.covectors = None
        elif family == POLYHEDRAL:
            a = np.asarray(covectors, dtype=float)
            if a.ndim != 2 or a.shape[1] != self.dim:
                raise ValidationError("covectors must form a (k, d) array")
            self.covectors = a
            self.matrix = None
            self._eigvals = None
        else:
            raise ValidationError(f"unknown seminorm family {family!r}")

    @classmethod
    def quadratic(cls, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(QUADRATIC, matrix.shape[0], matrix=matrix)

    @classmethod
    def polyhedral(cls, covectors):
        covectors = np.atleast_2d(np.asarray(covectors, dtype=float))
        return cls(POLYHEDRAL, covectors.shape[1], covectors=covectors)

    @classmethod
    def from_linear_map(cls, a):
        """The seminorm ``v -> |A v|`` of a linear map into R^m."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        return cls(QUADRATIC, a.shape[1], matrix=a.T @ a)

    @classmethod
    def zero(cls, dim):
        return cls(QUADRATIC, dim, matrix=np.zeros((dim, dim)))

    def __call__(self, v):
        return float(self.evaluate(np.asarray(v, dtype=float).reshape(1, -1))[0])

    def evaluate(self, vs):
        """Evaluate on an (n, d) batch of vectors."""
        vs = np.asarray(vs, dtype=float)
        if vs.shape[-1] != self.dim:
            raise ValidationError("vector dimension mismatch")
        if self.family == QUADRATIC:
            q = np.einsum("ij,jk,ik->i", vs, self.matrix, vs)
            return np.sqrt(np.maximum(q, 0.0))
        if self.covectors.shape[0] == 0:
            return np.zeros(vs.shape[0])
        return np.abs(vs @ self.covectors.T).max(axis=1)

    def to_json(self):
        if self.family == QUADRATIC:
            return {"family": QUADRATIC, "matrix": self.matrix.tolist()}
        return {"family": POLYHEDRAL, "covectors": self.covectors.tolist()}

    @classmethod
    def from_json(cls, obj):
        if obj["family"] == QUADRATIC:
            return cls.quadratic(obj["matrix"])
        return cls.polyhedral(obj["covectors"])


def op_norm(n):
    """Lipschitz constant of the seminorm, exact per family."""
    if n.family == QUADRATIC:
        return float(math.sqrt(max(n._eigvals.max(), 0.0))) if n.dim else 0.0
    if n.covectors.shape[0] == 0:
        return 0.0
    return float(np.sqrt((n.covectors**2).sum(axis=1)).max())


# -- unit-sphere meshes for the seminorm distance ---------------------------


@lru_cache(maxsize=32)
def _sphere_mesh(dim, resolution):
    if dim == 1:
        return np.asarray([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        # Fibonacci spiral
        k = np.arange(resolution)
        z = 1.0 - 2.0 * (k + 0.5) / resolution
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    from scipy.special import ndtri
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim, scramble=True, seed=1234)
    u = np.clip(eng.random(resolution), 1e-12, 1.0 - 1e-12)
    g = ndtri(u)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _mesh_gap(mesh):
    """Max nearest-neighbor spacing of a direction mesh."""
    if mesh.shape[0] < 2:
        return 2.0
    gaps = np.empty(mesh.shape[0])
    for i in range(mesh.shape[0]):
        d = np.linalg.norm(mesh - mesh[i], axis=1)
        d[i] = np.inf
        gaps[i] = d.min()
    return float(gaps.max())


def sn_distance_report(n1, n2, resolution=512):
    """Sup distance over the unit sphere with a mesh-gap certificate.

    Returns ``(value, gap)``: the mesh sup after local refinement (a
    lower bound on the true sup) and a Lipschitz-based bound on how far
    below the sup it can sit.
    """
    if n1.dim != n2.dim:
        raise ValidationError("seminorm dimensions differ")
    d = n1.dim

    def f(vs):
        return np.abs(n1.evaluate(vs) - n2.evaluate(vs))

    mesh = _sphere_mesh(d, resolution)
    vals = f(mesh)
    best = int(np.argmax(vals))
    value = float(vals[best])
    if d == 2:
        # golden-section on the bracketing angular interval
        step = 2.0 * math.pi / resolution
        theta = math.atan2(mesh[best, 1], mesh[best, 0])
        lo, hi = theta - step, theta + step
        gr = (math.sqrt(5.0) - 1.0) / 2.0

        def g(t):
            return float(f(np.asarray([[math.cos(t), math.sin(t)]]))[0])

        a, b = lo, hi
        c, dd = b - gr * (b - a), a + gr * (b - a)
        fc, fd = g(c), g(dd)
        for _ in range(60):
            if fc > fd:
                b, dd, fd = dd, c, fc
                c = b - gr * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, dd, fd
                dd = a + gr * (b - a)
                fd = g(dd)
        value = max(value, fc, fd)
    elif d > 2:
        # shrinking pattern search around the best mesh direction
        x = mesh[best]
        delta = _mesh_gap(mesh)
        basis = np.eye(d)
        for _ in range(40):
            cands = np.concatenate([x + delta * basis, x - delta * basis])
            cands /= np.linalg.norm(cands, axis=1, keepdims=True)
            cv = f(cands)
            j = int(np.argmax(cv))
            if cv[j] > value:
                value = float(cv[j])
                x = cands[j]
            else:
                delta *= 0.5
    gap = (op_norm(n1) + op_norm(n2)) * _mesh_gap(mesh)
    return value, gap


def sn_distance(n1, n2, resolution=512):
    """Sup over the unit sphere of ``|n1 - n2|`` (mesh + refinement)."""
    return sn_distance_report(n1, n2, resolution)[0]


# -- unit-ball quadrature -----------------------------------------------


@lru_cache(maxsize=16)
def ball_nodes(dim, count=DEFAULT_QUAD_COUNT, seed=DEFAULT_QUAD_SEED):
    """Deterministic low-discrepancy nodes in the unit ball of R^d.

    A scrambled Sobol' stream in d+1 dimensions: d coordinates become a
    direction through the normal inverse CDF, the last one the radius
    through the radial inverse CDF ``u^(1/d)``.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim + 1, scramble=True, seed=seed)
    u = np.clip(eng.random(count), 1e-12, 1.0 - 1e-12)
    g = ndtri(u[:, :dim])
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    radii = u[:, dim] ** (1.0 / dim)
    nodes = dirs * radii[:, None]
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=16)
def _ball_moment_matrices(dim, count, seed):
    """Full- and half-sample second-moment matrices of the node set."""
    v = ball_nodes(dim, count, seed)
    half = v.shape[0] // 2
    c = (v.T @ v) / v.shape[0]
    c1 = (v[:half].T @ v[:half]) / half
    c2 = (v[half:].T @ v[half:]) / (v.shape[0] - half)
    for m in (c, c1, c2):
        m.setflags(write=False)
    return c, c1, c2


def check_exponent(p):
    """``p`` as a float; rejected unless finite with ``p > 1``."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValidationError(f"exponent p must lie in (1, inf), got {p!r}")
    return p


def size_p(n, p, quad=None):
    """p-size: normalized L^p average of the seminorm over the unit ball."""
    return size_p_report(n, p, quad)[0]


def size_p_report(n, p, quad=None):
    """p-size plus a split-sample relative error estimate."""
    p = check_exponent(p)
    quad = quad or QuadratureSpec()
    if n.family == QUADRATIC and p == 2.0:
        # mean of v'Qv over the nodes, contracted through the node moments
        c, c1, c2 = _ball_moment_matrices(n.dim, quad.count, quad.seed)
        val = math.sqrt(max(float(np.tensordot(n.matrix, c)), 0.0))
        v1 = math.sqrt(max(float(np.tensordot(n.matrix, c1)), 0.0))
        v2 = math.sqrt(max(float(np.tensordot(n.matrix, c2)), 0.0))
        err = abs(v1 - v2) / max(val, 1e-300)
        return val, err
    v = ball_nodes(n.dim, quad.count, quad.seed)
    vals = n.evaluate(v) ** p
    half = vals.shape[0] // 2
    val = float(np.mean(vals)) ** (1.0 / p)
    v1 = float(np.mean(vals[:half])) ** (1.0 / p)
    v2 = float(np.mean(vals[half:])) ** (1.0 / p)
    err = abs(v1 - v2) / max(val, 1e-300)
    return val, err


def hs_norm(n):
    """Hilbert-Schmidt norm ``sqrt(trace Q)`` of a quadratic seminorm."""
    if n.family != QUADRATIC:
        raise ValidationError("Hilbert-Schmidt norm is undefined for this family")
    return float(math.sqrt(max(np.trace(n.matrix), 0.0)))


def consistency_constant(d):
    """The constant relating operator norm and 2-size for rank-one forms."""
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    return math.sqrt(d + 2.0)
