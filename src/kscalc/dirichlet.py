"""Discrete Dirichlet problems: minimize the fixed-scale energy over maps
into a CAT(0) target with prescribed boundary values.

The solver relaxes each interior point to the weighted barycenter of the
values its ball reads, through the target kind's ``barycenters``; for
Euclidean targets one sweep is exactly a Jacobi iteration of the induced
graph-Laplacian system, which the solver's first step solves directly.
It stops on a certified bound on the sup target-distance to the
solution, from the averaging operator of the sweeps.  The energy
reported per step is the relaxation energy, the pairwise form the sweeps
descend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AuditError, ValidationError
from .spaces import check_radius, domain_indices
from .targets import EuclideanTarget, _is_number

JACOBI = "jacobi"
GAUSS_SEIDEL = "gauss-seidel"

_ENERGY_SLACK = 1e-12
# iterations a barycenter may take: the kinds' default
_BARY_PASSES = 10_000


def _component_labels(indptr, indices):
    """Each node's connected component, labelled by its lowest node, in the
    undirected graph of a square CSR structure.

    Label propagation: every node takes the lowest label among itself and
    its neighbors, then the label of its label (which shortcuts chains),
    until no label changes.
    """
    n = indptr.size - 1
    row = np.repeat(np.arange(n), np.diff(indptr))
    a = np.concatenate([row, indices])  # both directions of every edge
    b = np.concatenate([indices, row])
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


class DirichletProblem:
    """Interior mask, boundary trace, CAT(0) target, and the scale.

    The boundary layer is derived: every non-interior index read by some
    interior ball.  Boundary data must cover the layer; the exponent is
    fixed to two.
    """

    def __init__(self, space, target, interior, boundary_data, scale):
        if not target.is_cat0:
            raise ValidationError("Dirichlet problems need a CAT(0) target kind")
        self.space = space
        self.target = target
        self.scale = check_radius(scale, "scale")
        self.p = 2.0
        self.interior = np.unique(domain_indices(interior, space.n))
        if self.interior.size == 0:
            raise ValidationError("interior must be nonempty")
        if self.interior.size >= space.n:
            raise ValidationError("the complement of the interior must carry mass")
        given = dict(boundary_data)
        data = dict(zip(domain_indices(list(given), space.n).tolist(), given.values()))
        self._inside = inside = np.isin(np.arange(space.n), self.interior)
        ptr, nbr, _ = space.all_balls(self.scale, self.interior)
        self._ball_ptr, self._ball_nbr = ptr, nbr  # the interior balls as CSR arrays
        sizes = np.diff(ptr)
        if np.any(sizes < 2):
            x = int(self.interior[np.argmax(sizes < 2)])
            raise ValidationError(f"interior point {x} has an empty ball at the scale", detail=x)
        self.boundary_layer = np.unique(nbr[~inside[nbr]])
        self._boundary = np.asarray(list(data), dtype=int)
        _first_bad(
            inside[self._boundary], self._boundary, "boundary value given at interior index"
        )
        self._boundary_rows = target.pack(list(data.values()), index=self._boundary)
        missing = np.setdiff1d(self.boundary_layer, self._boundary).tolist()
        if missing:
            raise ValidationError(f"missing boundary values at {missing[:8]}", detail=missing)
        # the trace as packed rows, by index
        self.boundary_data = dict(zip(data, self._boundary_rows))
        self.referenced = np.union1d(self.interior, self.boundary_layer)
        w = space.weights
        self._coef = w[self.interior] / (np.add.reduceat(w[nbr], ptr[:-1]) * self.scale**2)
        centers = np.repeat(self.interior, sizes)
        # unordered in-ball pairs with an interior endpoint, interior pairs
        # counted once: the edge set of the relaxation's own energy
        # (conductance w_a w_b / r^2)
        pair = (nbr != centers) & ~(inside[nbr] & (nbr < centers))
        pa, pb = centers[pair], nbr[pair]
        self._pair_w = w[pa] * w[pb] / self.scale**2
        # the energies read values packed at the referenced indices: the
        # rows of each ball's center and members and of the pair ends
        ref = self.referenced
        self._ball_rows = (np.searchsorted(ref, centers), np.searchsorted(ref, nbr))
        self._pair_rows = (np.searchsorted(ref, pa), np.searchsorted(ref, pb))
        # every interior point's ball without the point, as ragged groups
        # with their weights: the barycenters' inputs
        keep = nbr != centers
        self._nbrx = nbr[keep]
        self._nbrx_ptr = np.concatenate([[0], np.cumsum(keep)])[ptr]
        self._nbrx_w = w[self._nbrx]

    @cached_property
    def _averaging(self):
        """The averaging operator P of the sweeps on interior values, the LU
        factors of I - P and max h, where h = (I - P)^-1 1.

        Row k of P holds the barycenter weights, in interior point k's
        ball, of the members that are interior; the rest of the row's mass
        reads the boundary layer.  I - P is singular when a component of
        the interior under ball adjacency reads no boundary value: such a
        component, numbered by its lowest member, is rejected by name.
        """
        from scipy.sparse import csr_matrix, identity
        from scipy.sparse.linalg import splu

        ni = self.interior.shape[0]
        ptr = self._nbrx_ptr
        row = np.repeat(np.arange(ni), np.diff(ptr))
        share = self._nbrx_w / np.add.reduceat(self._nbrx_w, ptr[:-1])[row]
        inner = self._inside[self._nbrx]
        col = np.searchsorted(self.interior, self._nbrx[inner])
        P = csr_matrix((share[inner], (row[inner], col)), shape=(ni, ni))
        label = _component_labels(P.indptr, P.indices)
        touched = np.zeros(ni, dtype=bool)
        touched[label[row[~inner]]] = True
        lonely = np.flatnonzero(~touched[label])
        if lonely.size:
            members = [int(x) for x in self.interior[label == label[lonely[0]]]]
            raise ValidationError(
                f"interior component {members[:8]} touches no boundary", detail=members
            )
        lu = splu((identity(ni, format="csr") - P).tocsc())
        return P, lu, float(lu.solve(np.ones(ni)).max())

    def _classes(self, mode):
        """A sweep's point classes in order: (points, members, pointers, weights)."""
        if mode == JACOBI:
            return [(self.interior, self._nbrx, self._nbrx_ptr, self._nbrx_w)]
        if mode == GAUSS_SEIDEL:
            return self._colored_classes
        raise ValidationError(f"solver option mode: unknown sweep mode {mode!r}")

    @cached_property
    def _colored_classes(self):
        """Gauss-Seidel's classes: a greedy coloring of the interior in index
        order in which no class holds a point and a member of its ball
        (balls are symmetric).  Classes go by color and points ascend, so a
        sweep equals the point-by-point sweep in that order."""
        ptr, color = self._nbrx_ptr, np.full(self.space.n, -1)
        for k, x in enumerate(self.interior):
            used = set(color[self._nbrx[ptr[k] : ptr[k + 1]]].tolist())
            color[x] = next(c for c in range(len(used) + 1) if c not in used)
        color, lens, classes = color[self.interior], np.diff(ptr), []
        for c in range(color.max() + 1):
            inc = color == c
            sel = np.repeat(inc, lens)
            cptr = np.concatenate([[0], np.cumsum(lens[inc])])
            classes.append((self.interior[inc], self._nbrx[sel], cptr, self._nbrx_w[sel]))
        return classes

    # -- value containers: (n, width) arrays of packed rows ----------------

    def blank_values(self):
        """A value array with every row missing (NaN)."""
        return np.full((self.space.n, self.target.width), np.nan)

    def assemble(self, interior_values):
        """Full value assignment from interior values plus the trace."""
        vals = self.blank_values()
        vals[self.interior] = self.target.pack(interior_values, index=self.interior)
        vals[self._boundary] = self._boundary_rows
        return vals

    def default_init(self):
        """Copy the nearest boundary value to each interior point."""
        layer = self.boundary_layer
        nearest = [np.argmin(self.space.dist_subset(int(x), layer)) for x in self.interior]
        return self.assemble([self.boundary_data[int(layer[k])] for k in nearest])

    def seeded_init(self, seed):
        """A feasible start copying seeded random boundary values."""
        rng = np.random.default_rng(seed)
        layer = self.boundary_layer
        picks = rng.integers(0, layer.shape[0], size=self.interior.shape[0])
        return self.assemble([self.boundary_data[int(layer[k])] for k in picks])

    def check_feasible(self, values):
        _first_bad(
            ~(self.target.dists(values[self._boundary], self._boundary_rows) == 0.0),
            self._boundary,
            "boundary value altered at index",
        )


def _first_bad(bad, index, message):
    """Raise ``ValidationError`` naming the index of the first bad row."""
    if np.any(bad):
        raise ValidationError(f"{message} {int(index[np.argmax(bad)])}")


def _referenced_rows(prob, values):
    """The rows at the referenced indices; a NaN row is a missing value."""
    rows = values[prob.referenced]
    missing = np.isnan(rows)
    if missing.any():
        _first_bad(missing.any(axis=1), prob.referenced, "missing value at referenced index")
    return rows


def discrete_energy(prob, values, target=None):
    """Fixed-scale interior energy sum for a full value assignment.

    ``target`` overrides the problem target (the real-valued comparison
    map in the midpoint test reuses the same ball structure).
    """
    target = target or prob.target
    packed = _referenced_rows(prob, values)
    centers, members = prob._ball_rows
    d2 = target.dists(packed[centers], packed[members], squared=True)
    w = prob.space.weights
    per = np.add.reduceat(w[prob._ball_nbr] * d2, prob._ball_ptr[:-1])
    return float(np.dot(prob._coef, per))


def relaxation_energy(prob, values):
    """The pairwise ball energy the barycentric sweeps descend.

    Sums ``w_a w_b d^2(u_a, u_b) / r^2`` over unordered in-ball pairs with
    an interior endpoint.  Replacing an interior value by the weighted
    barycenter of its ball minimizes this form exactly in that
    coordinate, so relaxation sweeps never increase it; the scale-energy
    sum of ``discrete_energy`` normalizes by ball masses instead and can
    fluctuate near the boundary layer along the same iteration.
    """
    packed = _referenced_rows(prob, values)
    a, b = prob._pair_rows
    d2 = prob.target.dists(packed[a], packed[b], squared=True)
    return float(np.dot(prob._pair_w, d2))


def relax_sweep(prob, values, mode=JACOBI, bary_tol=1e-10):
    """One relaxation sweep: every interior point moves to the weighted
    barycenter of the other values in its ball.

    Jacobi reads a frozen snapshot; Gauss-Seidel goes by color, then index.
    The relaxation energy never increases, and the sweep checks it.
    """
    return _checked_step(prob, values, relaxation_energy(prob, values), mode, bary_tol)[0]


def _checked_step(prob, values, energy, mode, bary_tol):
    """One sweep from values of relaxation energy ``energy``: the new values,
    their energy and the bound on the barycenters' distance from exact."""
    new_values, residual = _sweep(prob, values, mode, bary_tol)
    return new_values, _descended(prob, energy, new_values), residual


def _descended(prob, energy, values):
    """The relaxation energy of ``values``, one step from values of energy
    ``energy``.  A rise beyond rounding raises ``AuditError``."""
    new_energy = relaxation_energy(prob, values)
    if new_energy > energy + _ENERGY_SLACK:
        raise AuditError(f"energy increased across a sweep: {energy} -> {new_energy}")
    return new_energy


def _error_bound(prob, disp, residual):
    """The certified sup target-distance to the solution of the values of a
    sweep with largest displacement ``disp`` and barycenter residual
    ``residual`` (see ``solve``)."""
    h_max = prob._averaging[2]
    return (h_max - 1.0) * disp + h_max * residual


def _sweep(prob, values, mode, bary_tol):
    """The swept values and the largest residual of their barycenters: each
    class of the mode moves at once, reading the values swept so far."""
    out, residual = values.copy(), 0.0
    for points, nbr, ptr, w in prob._classes(mode):
        out[points], r = prob.target._barycenters(out[nbr], ptr, w, bary_tol, _BARY_PASSES)
        residual = max(residual, r)
    return out, residual


def _direct_step(prob, values):
    """The exact solution for a Euclidean target: interior values u with
    (I - P) u equal to the boundary layer's share of one Jacobi sweep.

    It is solved for the correction from ``values``, whose right-hand side
    is one Jacobi sweep's displacement, with every coordinate as a column,
    so a start that already solves the system stays as it is.
    """
    idx = prob.interior
    swept, _ = _sweep(prob, values, JACOBI, 0.0)
    swept[idx] = values[idx] + prob._averaging[1].solve(swept[idx] - values[idx])
    return swept


@dataclass
class SolveReport:
    """Iteration record; the trajectory tracks the relaxation energy."""

    iterations: int
    energy_trajectory: list
    final_energy: float
    max_displacement_last_sweep: float
    converged: bool
    uniqueness_gap: float | None = None
    final_scale_energy: float | None = None
    # the certified sup target-distance of the final values to the
    # solution; None before the first sweep
    error_bound: float | None = None

    def to_json(self):
        return {
            "iterations": self.iterations,
            "energy_trajectory": [float(e) for e in self.energy_trajectory],
            "final_energy": float(self.final_energy),
            "final_scale_energy": None
            if self.final_scale_energy is None
            else float(self.final_scale_energy),
            "max_displacement_last_sweep": float(self.max_displacement_last_sweep),
            "converged": self.converged,
            "error_bound": None if self.error_bound is None else float(self.error_bound),
            "uniqueness_gap": None
            if self.uniqueness_gap is None
            else float(self.uniqueness_gap),
        }


def _displacement(prob, old, new):
    """Largest target distance between two value assignments over the interior."""
    idx = prob.interior
    return float(prob.target.dists(old[idx], new[idx]).max())


def default_tolerance(target):
    return 1e-8 if isinstance(target, EuclideanTarget) else 1e-6


def solve(
    prob,
    init=None,
    tol=None,
    max_sweeps=20_000,
    mode=JACOBI,
    bary_tol=None,
    uniqueness_audit=True,
    seed=0,
):
    """Relax until the certified distance to the solution is below ``tol``.

    After each sweep, with d its largest displacement and r the largest
    distance of its barycenters from exact ones, the sup target-distance
    of the new values to the solution is at most ``(max h - 1) d + max h r``,
    where h = (I - P)^-1 1 for the averaging operator P of the sweeps:
    barycenters into CAT(0) targets are 1-Lipschitz in the Wasserstein
    distance (Sturm), so the pointwise error e of a Jacobi or Gauss-Seidel
    sweep satisfies e <= P(d + e) + r.  The solver stops once
    this bound is below ``tol`` and reports it.  For Euclidean targets the
    first step solves the averaging system exactly; the sweeps after it
    certify the solution.

    Returns the final values and a report.  Exhausting ``max_sweeps``
    yields a non-converged report, not an exception.  On convergence a
    second seeded start re-solves the problem and the two final maps
    must agree within ten tolerances in sup target-distance.
    """
    if tol is None:
        tol = default_tolerance(prob.target)
    if not (_is_number(tol) and math.isfinite(tol) and tol > 0):
        raise ValidationError(f"solver option tol must be finite and positive, not {tol!r}")
    if not (_is_number(max_sweeps) and float(max_sweeps).is_integer() and max_sweeps >= 1):
        raise ValidationError(
            f"solver option max_sweeps must be a positive integer, not {max_sweeps!r}"
        )
    prob._classes(mode)  # an unknown mode is rejected before any step
    max_sweeps = int(max_sweeps)
    if bary_tol is None:
        bary_tol = max(tol * 1e-2, 1e-12)
    prob._averaging  # an ill-posed problem is rejected before any step
    values = prob.default_init() if init is None else init
    prob.check_feasible(values)
    energy = relaxation_energy(prob, values)
    trajectory = [energy]
    converged = False
    disp = math.inf
    bound = None
    direct = isinstance(prob.target, EuclideanTarget)
    for step in range(1, max_sweeps + 1):
        if direct and step == 1:
            new_values = _direct_step(prob, values)
            new_energy, residual = _descended(prob, energy, new_values), None
        else:
            new_values, new_energy, residual = _checked_step(
                prob, values, energy, mode, bary_tol
            )
        disp = _displacement(prob, values, new_values)
        values, energy = new_values, new_energy
        trajectory.append(energy)
        # only a sweep is certified: the bound reads its displacement
        if residual is not None:
            bound = _error_bound(prob, disp, residual)
            if bound < tol:
                converged = True
                break
    report = SolveReport(
        iterations=len(trajectory) - 1,
        energy_trajectory=trajectory,
        final_energy=energy,
        max_displacement_last_sweep=disp,
        converged=converged,
        final_scale_energy=discrete_energy(prob, values),
        error_bound=bound,
    )
    if converged and uniqueness_audit:
        values2, _ = solve(
            prob,
            init=prob.seeded_init(seed + 1),
            tol=tol,
            max_sweeps=max_sweeps,
            mode=mode,
            bary_tol=bary_tol,
            uniqueness_audit=False,
        )
        gap = _displacement(prob, values, values2)
        report.uniqueness_gap = gap
        if gap > 10.0 * tol:
            raise AuditError(
                f"uniqueness audit failed: seeded restart differs by {gap}"
            )
    return values, report


@dataclass
class MidpointReport:
    lhs: float
    rhs: float
    slack: float
    energy_mid: float
    energy_sep: float


def midpoint_test(prob, u_values, v_values):
    """Fixed-scale comparison inequality for a feasible pair.

    With m the pointwise geodesic midpoint and s the pointwise target
    distance, checks ``2 E(m) + E_s(s)/2 <= E(u) + E(v)`` and reports
    the slack.
    """
    t = prob.target
    bd = prob._boundary
    _first_bad(
        ~(t.dists(u_values[bd], v_values[bd]) == 0.0), bd, "boundary values differ at index"
    )
    ref = prob.referenced
    mid = prob.blank_values()
    mid[ref] = t.geodesics(u_values[ref], v_values[ref], 0.5)
    sep = np.zeros((prob.space.n, 1))
    sep[ref, 0] = t.dists(u_values[ref], v_values[ref])
    e_u = discrete_energy(prob, u_values)
    e_v = discrete_energy(prob, v_values)
    e_m = discrete_energy(prob, mid)
    e_s = discrete_energy(prob, sep, target=EuclideanTarget(1))
    lhs = 2.0 * e_m + 0.5 * e_s
    rhs = e_u + e_v
    if lhs > rhs + 1e-9:
        raise AuditError(f"midpoint inequality violated: {lhs} > {rhs}")
    return MidpointReport(
        lhs=lhs, rhs=rhs, slack=rhs - lhs, energy_mid=e_m, energy_sep=e_s
    )


def poincare_estimate(prob, tol=1e-13, max_iter=500):
    """Inverse of the smallest Dirichlet eigenvalue at the problem scale.

    Assembles the real-valued quadratic form of maps vanishing on the
    boundary layer from the averaging operator and runs inverse power
    iteration against the interior mass; the result converts energy gaps
    into squared L2 distances.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    P = prob._averaging[0]
    # the form sums c_x w_j (u_x - u_j)^2 over the ball members j != x of
    # each interior x; with s_x = c_x times the mass of those members,
    # c_x w_j is s_x P_xj for interior j
    s = prob._coef * np.add.reduceat(prob._nbrx_w, prob._nbrx_ptr[:-1])
    sp = diags(s) @ P
    q = (diags(s + P.T @ s) - sp - sp.T).tocsc()
    mass = prob.space.weights[prob.interior]
    factor = splu(q)
    x = np.ones(prob.interior.shape[0])
    lam_prev = math.inf
    for _ in range(max_iter):
        y = factor.solve(mass * x)
        y /= math.sqrt(float(np.dot(mass * y, y)))
        lam = float(np.dot(y, q @ y)) / float(np.dot(mass * y, y))
        x = y
        if abs(lam - lam_prev) <= tol * max(lam, 1e-300):
            break
        lam_prev = lam
    return 1.0 / lam
