"""Discrete Dirichlet problems: minimize the fixed-scale energy over maps
into a CAT(0) target with prescribed boundary values.

The solver relaxes each interior point to the weighted barycenter of the
values its ball reads, through the target kind's ``barycenters``; for
Euclidean targets one sweep is exactly a Jacobi iteration of the induced
graph-Laplacian system, which the solver's first step solves directly.
It stops on a certified bound on the sup target-distance to the
solution, from the averaging operator of the sweeps.  The energy
reported per step is the relaxation energy, the pairwise form the sweeps
descend.  The linear systems (the averaging system and the Poincare
form) are solved by numpy conjugate gradients on their symmetric forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AuditError, ConvergenceError, ValidationError
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


# the conjugate-gradient stop: every right-hand side's preconditioned
# residual within this share of its first
_CG_RTOL = 1e-14
# the inverse power iteration of ``poincare_estimate`` stops once the
# eigenvalue moves by at most this share of itself, or after this many steps
_POINCARE_TOL = 1e-13
_POINCARE_ITERATIONS = 500


class _SymmetricForm:
    """A symmetric positive definite matrix diag(d) - A, with A's entries
    ``a`` at rows ``row`` and columns ``col`` (the pattern is symmetric and
    holds no diagonal entry).  ``form @ x`` multiplies every row of ``x``."""

    def __init__(self, diag, row, col, a):
        self.diag, self.row, self.col, self.a = diag, row, col, a

    def __matmul__(self, x):
        n = self.diag.shape[0]
        ax = [np.bincount(self.row, self.a * v[self.col], minlength=n) for v in x]
        return self.diag * x - np.stack(ax)


def _cg(form, rhs, max_iter=None):
    """X with M x = b for the matrix M of a ``_SymmetricForm``, every row b
    of ``rhs`` and the row x of X, by Jacobi-preconditioned conjugate
    gradients on all rows at once.

    A row stops once the sup norm of its preconditioned residual
    (b - M x) / d is within ``_CG_RTOL`` of its first; the others go on.
    Reaching ``max_iter`` iterations (default 2n + 50) first raises
    ``ConvergenceError`` naming the residual.
    """
    if max_iter is None:
        max_iter = 2 * form.diag.shape[0] + 50
    x = np.zeros(rhs.shape)
    r = np.array(rhs, dtype=float)
    z = r / form.diag
    first = np.abs(z).max(axis=1)
    p, rz = z, np.einsum("ij,ij->i", r, z)
    for it in range(max_iter + 1):
        err = np.abs(z).max(axis=1)
        live = err > _CG_RTOL * first
        if not live.any():
            return x
        if it == max_iter:
            break
        q = form @ p
        alpha = np.divide(rz, np.einsum("ij,ij->i", p, q), out=np.zeros_like(rz), where=live)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        z = r / form.diag
        rz_next = np.einsum("ij,ij->i", r, z)
        beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=live)
        p = z + beta[:, None] * p
        rz = rz_next
    worst = float((err / np.where(live, first, 1.0)).max())
    raise ConvergenceError(
        f"conjugate gradients did not converge in {max_iter} iterations: "
        f"relative residual {worst}",
        last=x,
        residual=worst,
    )


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
    def _interior_reads(self):
        """The interior members of the interior balls, without their
        centers: interior numbers ``(row, col)`` and member weights ``w``
        of each, in CSR order, and every ball's mass ``m`` without its
        center."""
        ptr = self._nbrx_ptr
        row = np.repeat(np.arange(self.interior.shape[0]), np.diff(ptr))
        inner = self._inside[self._nbrx]
        col = np.searchsorted(self.interior, self._nbrx[inner])
        mass = np.add.reduceat(self._nbrx_w, ptr[:-1])
        return row[inner], col, self._nbrx_w[inner], mass

    @cached_property
    def _averaging(self):
        """The averaging operator P of the sweeps on interior values as a
        symmetric form M, and a certified upper bound on max h, where
        h = (I - P)^-1 1.

        Row x of P holds the barycenter weights w_j / m_x, in interior
        point x's ball of mass m_x without x, of the members j that are
        interior; the rest of the row's mass reads the boundary layer.
        Balls are symmetric, so M = diag(w m) - A with A_xj = w_x w_j for
        interior pairs sharing a ball is symmetric, and I - P =
        diag(w m)^-1 M.  M is positive definite unless a component of the
        interior under ball adjacency reads no boundary value: such a
        component, numbered by its lowest member, is rejected by name.

        With h' the conjugate-gradient solution and rho the sup norm of
        1 - (I - P) h', computed from P itself, max h <= max h' / (1 -
        rho), since (I - P)^-1 >= 0 entrywise: the solver's accuracy
        moves only the bound, never its validity.  rho >= 1 raises
        ``ConvergenceError``.
        """
        ni = self.interior.shape[0]
        row, col, wj, mass = self._interior_reads
        label = _component_labels(np.searchsorted(row, np.arange(ni + 1)), col)
        reads_boundary = np.diff(self._nbrx_ptr) > np.bincount(row, minlength=ni)
        touched = np.zeros(ni, dtype=bool)
        touched[label[reads_boundary]] = True
        lonely = np.flatnonzero(~touched[label])
        if lonely.size:
            members = [int(x) for x in self.interior[label == label[lonely[0]]]]
            raise ValidationError(
                f"interior component {members[:8]} touches no boundary", detail=members
            )
        wi = self.space.weights[self.interior]
        form = _SymmetricForm(wi * mass, row, col, wi[row] * wj)
        h = _cg(form, form.diag[None])[0]
        ph = np.bincount(row, wj / mass[row] * h[col], minlength=ni)
        rho = float(np.abs(1.0 - (h - ph)).max())
        if not rho < 1.0:
            raise ConvergenceError(
                f"averaging system: residual {rho} of h = (I - P)^-1 1 certifies no bound",
                last=h,
                residual=rho,
            )
        return form, float(h.max()) / (1.0 - rho)

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
        nearest = np.empty(self.interior.shape[0], dtype=np.intp)
        for part, d in self.space.pair_blocks(self.interior, layer):
            nearest[part] = np.argmin(d, axis=1)
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
    energy = relaxation_energy(prob, values)
    (new_values,), _ = _sweep(prob, [values], mode, bary_tol)
    _descended(prob, energy, new_values)
    return new_values


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
    h_max = prob._averaging[1]
    return (h_max - 1.0) * disp + h_max * residual


def _sweep(prob, starts, mode, bary_tol):
    """One sweep of each value array of ``starts``: the swept arrays and the
    largest bound of a class's barycenters in each.  Each class of the mode
    moves at once, reading the values swept so far, in one barycenters call
    over the groups of every start; a group's row and residual do not
    depend on the other groups of the call, so each start sweeps as it
    would alone."""
    t, k = prob.target, len(starts)
    outs, bounds = [v.copy() for v in starts], [0.0] * k
    for points, nbr, ptr, w in prob._classes(mode):
        g = ptr.shape[0] - 1
        # start i's groups follow start i - 1's, their pointers shifted
        ptrs = np.append((ptr[:-1] + ptr[-1] * np.arange(k)[:, None]).ravel(), k * ptr[-1])
        rows, res = t._barycenters(
            np.concatenate([out[nbr] for out in outs]), ptrs, np.tile(w, k), bary_tol,
            _BARY_PASSES,
        )
        for i, out in enumerate(outs):
            out[points] = rows[i * g : (i + 1) * g]
            bounds[i] = max(bounds[i], t._bound(res[i * g : (i + 1) * g]))
    return outs, bounds


def _direct_step(prob, starts):
    """The exact solution for a Euclidean target, from each value array of
    ``starts``: interior values u with (I - P) u equal to the boundary
    layer's share of one Jacobi sweep.

    It is solved for the correction from the start, whose right-hand side
    is one Jacobi sweep's displacement, with every coordinate of every
    start as a row of one conjugate-gradient solve (rows stop on their
    own), so a start that already solves the system stays as it is.
    """
    idx, form = prob.interior, prob._averaging[0]
    swept, _ = _sweep(prob, starts, JACOBI, 0.0)
    rhs = np.concatenate([(s[idx] - v[idx]).T for s, v in zip(swept, starts)])
    steps = np.split(_cg(form, form.diag * rhs), len(starts))
    for s, v, step in zip(swept, starts, steps):
        s[idx] = v[idx] + step.T
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


class _Start:
    """One start of ``solve``: its values, its relaxation-energy trajectory,
    the largest displacement and the certified bound of its last step, and
    the error that stopped it, if one did."""

    def __init__(self, prob, values):
        self.values, self.trajectory = values, [relaxation_energy(prob, values)]
        self.disp, self.bound, self.converged, self.error = math.inf, None, False, None

    @property
    def live(self):
        return not self.converged and self.error is None

    def advance(self, prob, values, residual, tol):
        """Take one step's values; only a sweep (``residual`` not None) is
        certified, since the bound reads its displacement."""
        energy = _descended(prob, self.trajectory[-1], values)
        self.disp = _displacement(prob, self.values, values)
        self.values = values
        self.trajectory.append(energy)
        if residual is not None:
            self.bound = _error_bound(prob, self.disp, residual)
            self.converged = self.bound < tol


def _step(prob, starts, direct, mode, bary_tol):
    """The new values of each value array of ``starts`` after one step, with
    the barycenters' bound: the direct solve (bound None) or a sweep."""
    if direct:
        return [(v, None) for v in _direct_step(prob, starts)]
    return list(zip(*_sweep(prob, starts, mode, bary_tol)))


def solve(
    prob,
    init=None,
    tol=None,
    max_sweeps=20_000,
    mode=JACOBI,
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
    this bound is below ``tol`` and reports it.  Max h is itself a
    certified upper bound, from the residual of the conjugate-gradient
    solve for h.  For Euclidean targets the first step solves the
    averaging system by conjugate gradients to rounding; the sweeps after
    it certify the solution.

    Returns the final values and a report.  Exhausting ``max_sweeps``
    yields a non-converged report, not an exception.  On convergence a
    second start, ``prob.seeded_init(seed + 1)``, must reach a map within
    ten tolerances of the first in sup target-distance.  That start steps
    alongside the first, in the same barycenter and conjugate-gradient
    calls, and stops on its own bound or at ``max_sweeps``; every start's
    values are those it reaches alone.  The second start's errors (an
    energy rise, a barycenter that does not converge) are raised only if
    the first converges, as if it were solved after the first.
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
    bary_tol = max(tol * 1e-2, 1e-12)  # the barycenters' own tolerance
    prob._averaging  # an ill-posed problem is rejected before any step
    values = prob.default_init() if init is None else init
    prob.check_feasible(values)
    first = _Start(prob, values)
    runs = [first, _Start(prob, prob.seeded_init(seed + 1))] if uniqueness_audit else [first]
    direct = isinstance(prob.target, EuclideanTarget)
    for step in range(1, max_sweeps + 1):
        live = [run for run in runs if run.live]
        if not live:
            break
        direct_now = direct and step == 1
        try:
            moved = _step(prob, [run.values for run in live], direct_now, mode, bary_tol)
        except ConvergenceError:
            if len(live) == 1:
                raise
            # a shared call failed: each start steps alone, to own its error
            moved = None
        for k, run in enumerate(live):
            try:
                new_values, residual = (
                    moved[k] if moved else _step(prob, [run.values], direct_now, mode, bary_tol)[0]
                )
                run.advance(prob, new_values, residual, tol)
            except (AuditError, ConvergenceError) as err:
                if run is first:
                    raise
                run.error = err
    report = SolveReport(
        iterations=len(first.trajectory) - 1,
        energy_trajectory=first.trajectory,
        final_energy=first.trajectory[-1],
        max_displacement_last_sweep=first.disp,
        converged=first.converged,
        final_scale_energy=discrete_energy(prob, first.values),
        error_bound=first.bound,
    )
    if first.converged and uniqueness_audit:
        seeded = runs[1]
        if seeded.error is not None:
            raise seeded.error
        gap = _displacement(prob, first.values, seeded.values)
        report.uniqueness_gap = gap
        if gap > 10.0 * tol:
            raise AuditError(
                f"uniqueness audit failed: seeded restart differs by {gap}"
            )
    return first.values, report


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


def poincare_estimate(prob):
    """Inverse of the smallest Dirichlet eigenvalue at the problem scale.

    Assembles the real-valued quadratic form of maps vanishing on the
    boundary layer from the balls' interior members and runs inverse
    power iteration against the interior mass; the result converts
    energy gaps into squared L2 distances.
    """
    prob._averaging  # an ill-posed problem is rejected by name
    row, col, wj, mass = prob._interior_reads
    # the form sums c_x w_j (u_x - u_j)^2 over the ball members j != x of
    # each interior x.  Its diagonal at x is c_x m_x plus c_j w_x for every
    # interior j whose ball holds x; an interior pair x, j sharing a ball
    # carries c_x w_j + c_j w_x off the diagonal
    c = prob._coef
    w = prob.space.weights[prob.interior]
    ni = w.shape[0]
    diag = c * mass + np.bincount(col, c[row] * wj, minlength=ni)
    q = _SymmetricForm(diag, row, col, c[row] * wj + c[col] * w[row])
    x = np.ones(ni)
    lam_prev = math.inf
    for _ in range(_POINCARE_ITERATIONS):
        y = _cg(q, (w * x)[None])[0]
        y /= math.sqrt(float(np.dot(w * y, y)))
        lam = float(np.dot(y, (q @ y[None])[0])) / float(np.dot(w * y, y))
        x = y
        if abs(lam - lam_prev) <= _POINCARE_TOL * max(lam, 1e-300):
            break
        lam_prev = lam
    return 1.0 / lam
