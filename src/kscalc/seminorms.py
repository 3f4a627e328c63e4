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

import importlib.util
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .spaces import build_space

QUADRATIC = "quadratic"
POLYHEDRAL = "polyhedral"

_EIG_CLAMP = -1e-12
DEFAULT_QUAD_COUNT = 2**16
DEFAULT_QUAD_SEED = 0
_SOBOL_BITS = 30  # a stream holds at most 2**30 points


def _is_integer(x):
    """Whether a value is an integer (``True`` and ``False`` are not)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class QuadratureSpec:
    """Unit-ball quadrature configuration: node count and scramble seed.

    The count must be an integer in [2, 2**30], since the split-sample
    error needs two halves and the Sobol' stream holds 2**30 points; the
    seed must be a non-negative integer.
    """

    count: int = DEFAULT_QUAD_COUNT
    seed: int = DEFAULT_QUAD_SEED

    def __post_init__(self):
        if not (_is_integer(self.count) and 2 <= self.count <= 2**_SOBOL_BITS):
            raise ValidationError(
                f"quadrature count must be an integer in [2, 2**30], got {self.count!r}"
            )
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValidationError(
                f"quadrature seed must be a non-negative integer, got {self.seed!r}"
            )


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
        vals = np.abs(vs @ self.covectors.T)
        # column by column: a max over the short covector axis is slow
        out = vals[:, 0].copy()
        for j in range(1, vals.shape[1]):
            np.maximum(out, vals[:, j], out=out)
        return out

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


# -- the scrambled Sobol' stream ---------------------------------------------


def _sobol(dim, count, seed):
    """``count`` points of the scrambled Sobol' stream in ``[0, 1)^dim``.

    Bit for bit ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)
    .random(count)``, from the Joe-Kuo direction numbers scipy ships, so
    that ``scipy.stats`` is never imported: the 30-bit direction numbers
    by the Bratley-Fox recurrence, a linear matrix scramble plus digital
    shift (Matousek 1998) drawn in scipy's order, and the points in
    Gray-code order, each the last one XOR one direction number.
    """
    bits = _SOBOL_BITS
    table = Path(importlib.util.find_spec("scipy").origin).parent / "stats"
    with np.load(table / "_sobol_direction_numbers.npz") as z:
        poly, vinit = z["poly"][:dim], z["vinit"][:dim]
    v = np.ones((dim, bits), dtype=np.uint32)
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1  # the primitive polynomial's degree
        v[d, :m] = vinit[d, :m]
        for j in range(m, bits):
            new = int(v[d, j - m])
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= int(v[d, j - k - 1]) << (k + 1)
            v[d, j] = new
    high = np.arange(bits - 1, -1, -1, dtype=np.uint32)  # k -> bit 29 - k
    v <<= high
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ (np.uint32(1) << high[::-1])
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # bit 29 - p of a scrambled number: row p of the matrix dotted with
    # the bits 29 - k of the plain one, mod 2
    parity = np.einsum("dpk,djk->djp", ltm, (v[:, :, None] >> high) & 1) & 1
    v = parity @ (np.uint32(1) << high)
    i = np.arange(1, count, dtype=np.int64)
    ctz = np.log2(i & -i).astype(np.intp)  # trailing zeros of i
    steps = np.concatenate([shift[None, :], v[:, ctz].T])
    return np.bitwise_xor.accumulate(steps[:count], axis=0) * 2.0**-bits


# -- the normal quantile ---------------------------------------------------

# Cephes ``ndtri`` (S. L. Moshier): a rational function of y - 1/2 for
# exp(-2) < y < 1 - exp(-2); in the tails, x = sqrt(-2 log y) corrected by a
# rational function of 1/x, one coefficient set below x = 8 and one above
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coef, monic=False):
    """Horner's rule, highest coefficient first; ``monic`` prepends a 1."""
    out = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _libm_log(x):
    """Natural logarithms through libm, one element at a time."""
    return np.fromiter(map(math.log, x.ravel().tolist()), dtype=float, count=x.size)


def _ndtri(y):
    """The standard normal quantile of each ``y`` in [0, 1] (NaN outside).

    Bit for bit ``scipy.special.ndtri``: Cephes' coefficients in its
    evaluation order, with the tails' logarithms taken through libm, as C
    takes them (numpy's vectorized ``log`` rounds some differently).
    """
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    out = np.full_like(t, np.nan)
    mid = t > _EXP_M2
    c = t[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0, True))) * _SQRT_2PI
    tail = ~mid & (t > 0)
    x = np.sqrt(-2.0 * _libm_log(t[tail]))
    z = 1.0 / x
    near = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, True)
    far = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, True)
    x = x - _libm_log(x) / x - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    out[t == 0] = np.where(upper[t == 0], np.inf, -np.inf)
    return out


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
    u = np.clip(_sobol(dim, resolution, 1234), 1e-12, 1.0 - 1e-12)
    g = _ndtri(u)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@lru_cache(maxsize=32)
def _mesh_gap(dim, resolution):
    """Max nearest-neighbor spacing of the direction mesh ``_sphere_mesh``:
    the max over points of the min of ``np.linalg.norm(mesh - x)``.

    The exact nearest-neighbor search of a Euclidean space narrows the
    work.  Its distance formula can differ from the norm's in the last
    bit, so the norm is taken again from each point within rounding of
    the largest spacing to the members of its ball of that radius (plus
    rounding), which hold its nearest point.
    """
    mesh = _sphere_mesh(dim, resolution)
    if mesh.shape[0] < 2:
        return 2.0
    space = build_space({"kind": "euclidean", "points": mesh})
    nn = space.nn_distances()
    top = np.flatnonzero(nn >= nn.max() * (1.0 - 1e-12))
    ptr, nbr, _ = space.all_balls(nn.max() * (1.0 + 1e-12), top)
    center = np.repeat(top, np.diff(ptr))
    nbr, center = nbr[nbr != center], center[nbr != center]
    best = np.full(mesh.shape[0], np.inf)
    np.minimum.at(best, center, np.linalg.norm(mesh[nbr] - mesh[center], axis=1))
    return float(best[top].max())


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
        delta = _mesh_gap(d, resolution)
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
    gap = (op_norm(n1) + op_norm(n2)) * _mesh_gap(d, resolution)
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
    u = np.clip(_sobol(dim + 1, count, seed), 1e-12, 1.0 - 1e-12)
    g = _ndtri(u[:, :dim])
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
