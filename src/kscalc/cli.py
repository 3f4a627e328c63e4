"""Command-line interface.

Subcommands wrap the library: space audits, energy sweeps, metric
differential fits, Dirichlet solves, and target verification.  Exit
codes: 0 success, 1 I/O failure, 2 validation or audit failure, 3
non-convergence.  Outputs are canonical JSON / frozen-column CSV, the same
bytes for the same configuration, seed and inputs at any thread count.
``energy --threads/--seed`` and ``dirichlet --threads`` are accepted and unused.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dirichlet import solve
from .energy import FitConfig, density_via_mdiff, energy_sweep
from .errors import AuditError, ConvergenceError, ValidationError
from .seminorms import QuadratureSpec, Seminorm, consistency_constant, hs_norm, size_p
from .serialize import (
    canonical_json,
    load_atlas,
    load_map,
    load_problem,
    load_space,
    load_target,
    read_json,
    values_to_json,
    write_json,
)
from .spaces import density_theta, doubling_constant
from .targets import cat0_audit

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3

# `import kscalc` loads numpy only, and no subcommand imports scipy.
# `main` imports the modules a subcommand's computation uses before it
# reads any input, so their cost is paid at start-up, not inside the
# computation, and a broken install fails before any work.
SUBCOMMAND_IMPORTS = {
    "space-check": (),
    "energy": (),
    "mdiff": ("numpy.random",),
    "dirichlet": ("numpy.random",),
    "verify": ("numpy.random",),
}


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_space_check(args):
    space = load_space(args.space)
    spacing = space.median_nn_spacing()  # inf for a single point
    radius = 8.0 * spacing if args.radius is None else args.radius
    report = {
        "n_points": space.n,
        "kind": space.kind,
        "total_mass": float(space.total_mass),
        "median_nn_spacing": spacing if np.isfinite(spacing) else None,
        "doubling": {"R": float(radius), "value": float(doubling_constant(space, radius))},
    }
    if args.dim:
        radii = [radius * s for s in (0.5, 1.0, 2.0)]
        center = args.center if args.center is not None else space.n // 2
        report["density_theta"] = {
            "center": int(center),
            "dim": int(args.dim),
            "radii": [float(r) for r in radii],
            "values": [float(v) for v in density_theta(space, center, args.dim, radii)],
        }
    _emit(args.out, canonical_json(report))
    return EXIT_OK


def _load_map_bundle(args):
    space = load_space(args.space) if args.space else None
    target = load_target(args.target) if args.target else None
    return load_map(args.map, space=space, target=target)


def cmd_energy(args):
    u = _load_map_bundle(args)
    scales = [float(s) for s in args.scales.split(",")]
    omega = read_json(args.omega) if args.omega else None
    report = energy_sweep(u, args.p, scales, omega=omega)
    out = Path(args.out) if args.out else None
    sweep_rows = [
        (float(s), float(t), int(ok))
        for s, t, ok in zip(report.scales, report.per_scale_total, report.reliable)
    ]
    density_rows = [(i, float(v)) for i, v in enumerate(report.per_point_density)]
    if out is not None or args.format == "csv":
        _emit(
            out.with_suffix(".sweep.csv") if out else None,
            _csv(sweep_rows, ["scale", "total", "reliable"]),
        )
        _emit(
            out.with_suffix(".density.csv") if out else None,
            _csv(density_rows, ["index", "density"]),
        )
    if out is not None or args.format == "json":
        _emit(out.with_suffix(".json") if out else None, canonical_json(report.to_json()))
    if not all(report.reliable):
        sys.stderr.write("warning: some scales fall below the reliable resolution\n")
    return EXIT_OK


def cmd_mdiff(args):
    space = load_space(args.space)
    atlas = load_atlas(args.atlas)
    target = load_target(args.target) if args.target else None
    u = load_map(args.map, space=space, target=target)
    atlas.validate_cover(space.n)
    points = None
    if args.points and args.points != "all":
        points = [int(i) for i in args.points.split(",")]
    config = FitConfig(
        family=args.family,
        radius=args.radius,
        quad=QuadratureSpec(seed=args.seed),
        points=points,
    )
    result = density_via_mdiff(u, atlas, args.p, config, threads=args.threads)
    report = {
        "family": args.family,
        "p": args.p,
        "fits": [
            dict(fit.to_json(), density=float(result.densities[i]))
            for i, fit in result.fits.items()
        ],
        "errors": {str(i): err for i, err in result.errors.items()},
    }
    _emit(args.out, canonical_json(report))
    return EXIT_OK


def cmd_dirichlet(args):
    prob, options = load_problem(args.problem)
    tol = options.get("tol") if args.tol is None else args.tol
    max_sweeps = options.get("max_sweeps", 20000) if args.max_sweeps is None else args.max_sweeps
    mode = options.get("mode", "jacobi") if args.mode is None else args.mode
    values, report = solve(prob, tol=tol, max_sweeps=max_sweeps, mode=mode, seed=args.seed)
    out = Path(args.out) if args.out else None
    _emit(out.with_suffix(".report.json") if out else None, canonical_json(report.to_json()))
    _emit(
        out.with_suffix(".solution.json") if out else None,
        canonical_json(values_to_json(prob, values)),
    )
    _emit(
        out.with_suffix(".trajectory.csv") if out else None,
        _csv(
            [(k, float(e)) for k, e in enumerate(report.energy_trajectory)],
            ["sweep", "energy"],
        ),
    )
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_verify(args):
    if args.which == "cat0":
        if not args.target:
            raise ValidationError("--target is required for the cat0 audit")
        target = load_target(args.target)
        report = cat0_audit(target, args.samples, seed=args.seed)
        payload = {
            "kind": target.kind,
            "n_samples": report.n_samples,
            "max_point_violation": report.max_point_violation,
            "max_geodesic_violation": report.max_geodesic_violation,
        }
        _emit(args.out, canonical_json(payload))
        return EXIT_OK if report.max_violation <= 1e-9 else EXIT_VALIDATION
    if args.which == "seminorm-identities":
        rng = np.random.default_rng(args.seed)
        rows = []
        for d in range(1, 6):
            worst_d = 0.0
            for _ in range(20):
                a = rng.normal(0.0, 1.0, (d, d))
                n = Seminorm.quadratic(a.T @ a)
                s2 = size_p(n, 2.0)
                rel = abs(hs_norm(n) - consistency_constant(d) * s2) / max(
                    hs_norm(n), 1e-300
                )
                worst_d = max(worst_d, rel)
            rows.append({"dim": d, "worst_rel_gap": worst_d})
        worst = max(r["worst_rel_gap"] for r in rows)
        _emit(args.out, canonical_json({"checks": rows, "worst": worst}))
        return EXIT_OK if worst <= 1e-3 else EXIT_VALIDATION
    raise ValidationError(f"unknown verification {args.which!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kscalc",
        description="Energy calculus for metric-valued maps on point clouds",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("space-check", help="validate a space and report audits")
    sc.add_argument("--space", required=True)
    sc.add_argument("--radius", type=float)
    sc.add_argument("--dim", type=int, help="dimension for density ratios")
    sc.add_argument("--center", type=int)
    sc.add_argument("--out")
    sc.set_defaults(fn=cmd_space_check)

    en = sub.add_parser("energy", help="scale sweep of a map energy")
    en.add_argument("--space")
    en.add_argument("--map", required=True)
    en.add_argument("--target")
    en.add_argument("--p", type=float, default=2.0)
    en.add_argument("--scales", required=True, help="comma list, decreasing")
    en.add_argument("--omega", help="JSON file with an index list")
    en.add_argument("--format", choices=["json", "csv"], default="json")
    en.add_argument("--out", help="output path prefix")
    en.add_argument("--threads", type=int, default=1, help="accepted and unused")
    en.add_argument("--seed", type=int, default=0, help="accepted and unused")
    en.set_defaults(fn=cmd_energy)

    md = sub.add_parser("mdiff", help="fit metric differentials over an atlas")
    md.add_argument("--space", required=True)
    md.add_argument("--atlas", required=True)
    md.add_argument("--map", required=True)
    md.add_argument("--target")
    md.add_argument("--points", default="all")
    md.add_argument("--family", choices=["quadratic", "polyhedral"], default="quadratic")
    md.add_argument("--radius", type=float)
    md.add_argument("--p", type=float, default=2.0)
    md.add_argument("--threads", type=int, default=1)
    md.add_argument("--seed", type=int, default=0)
    md.add_argument("--out")
    md.set_defaults(fn=cmd_mdiff)

    di = sub.add_parser("dirichlet", help="solve a Dirichlet problem")
    di.add_argument("--problem", required=True)
    di.add_argument("--tol", type=float)
    di.add_argument("--max-sweeps", type=int, dest="max_sweeps")
    di.add_argument("--mode", choices=["jacobi", "gauss-seidel"])
    di.add_argument("--seed", type=int, default=0)
    di.add_argument("--threads", type=int, default=1, help="accepted and unused")
    di.add_argument("--out", help="output path prefix")
    di.set_defaults(fn=cmd_dirichlet)

    ve = sub.add_parser("verify", help="curvature and seminorm identity audits")
    ve.add_argument("--which", choices=["cat0", "seminorm-identities"], required=True)
    ve.add_argument("--target")
    ve.add_argument("--samples", type=int, default=10000)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--out")
    ve.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    for name in SUBCOMMAND_IMPORTS[args.command]:
        importlib.import_module(name)
    try:
        return args.fn(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        # ValidationError subclasses ValueError; bad JSON raises ValueError
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except AuditError as exc:
        sys.stderr.write(f"audit failure: {exc}\n")
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
