"""Per-layer metrics from the spans and counters of traced commands.

A span's self time is its duration minus the part of it that its child
spans cover (the union of the children's intervals, so that children
running in parallel pool threads are not subtracted twice).  Each metric
below sums the self time of every span whose name ends in one of its
function names, across the layer's classes (``targets.TreeTarget.dist``
and ``targets.HyperbolicTarget.dist`` both count as ``targets.dist``).
"""

from __future__ import annotations

import json

import numpy as np

# metric -> (layer, function or method names whose self time it sums)
SELF_TIMES = {
    "serialize.load_s": ("serialize", ("load_space", "load_target", "load_map",
                                       "load_atlas", "load_problem", "read_json")),
    # output formatting and writing: the canonical JSON writers and the two
    # CLI helpers that format CSV rows and write every output file
    "serialize.write_s": ("serialize", ("canonical_json", "values_to_json", "write_json",
                                        "_emit", "_csv")),
    "spaces.nn_s": ("spaces", ("nn_distances",)),
    "spaces.cell_partition_s": ("spaces", ("cell_partition",)),
    "spaces.ball_indices_s": ("spaces", ("ball_indices",)),
    "spaces.dist_subset_s": ("spaces", ("dist_subset",)),
    "energy.ks_profile_s": ("energy", ("ks_profile",)),
    "targets.packed_block_s": ("targets", ("packed_block",)),
    "targets.dist_block_s": ("targets", ("dist_block",)),
    "targets.dist_s": ("targets", ("dist",)),
    "targets.geodesic_point_s": ("targets", ("geodesic_point",)),
    "targets.canonical_s": ("targets", ("canonical",)),
    "targets.barycenter_s": ("targets", ("barycenter",)),
    "targets.cat0_audit_s": ("targets", ("cat0_audit",)),
    "charts.fit_s": ("charts", ("fit_metric_differential",)),
    "seminorms.size_p_s": ("seminorms", ("size_p", "size_p_report")),
    "seminorms.ball_nodes_s": ("seminorms", ("ball_nodes",)),
    "parallel.map_s": ("parallel", ("parallel_map",)),
    "dirichlet.solve_s": ("dirichlet", ("solve",)),
    "dirichlet.relaxation_energy_s": ("dirichlet", ("relaxation_energy",)),
    "dirichlet.problem_build_s": ("dirichlet", ("__init__",)),
}

COUNTS = (
    "serialize.bytes_read", "serialize.bytes_written", "spaces.nn_calls",
    "spaces.cell_blocks", "spaces.candidate_pairs", "spaces.ball_indices_calls",
    "spaces.dist_subset_calls", "energy.ks_profile_calls", "energy.ks_values",
    "targets.packed_block_pairs", "targets.dist_block_points", "targets.dist_calls",
    "targets.geodesic_point_calls", "targets.canonical_calls", "targets.barycenter_calls",
    "targets.random_point_calls", "charts.fit_calls", "seminorms.size_p_calls",
    "parallel.items", "dirichlet.sweeps",
)

# metric -> (numerator count, denominator count)
RATIOS = {
    "spaces.in_ball_frac": ("spaces.in_ball_pairs", "spaces.candidate_pairs"),
    "targets.barycenter_passes": ("targets.barycenter_steps", "targets.barycenter_points"),
    "charts.fit_ok_frac": ("charts.fit_ok", "charts.fit_calls"),
}

UNITS = {"_s": "s", "bytes_read": "B", "bytes_written": "B", "_frac": "ratio",
         "barycenter_passes": "count"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def self_times(rows):
    """Self time of every span; rows are (id, name, parent, start, end)."""
    ids = rows[:, 0].astype(np.int64)
    parent = rows[:, 2].astype(np.int64)
    start, end = rows[:, 3], rows[:, 4]
    dur = end - start
    covered = np.zeros(rows.shape[0])
    has_parent = parent >= 0
    if np.any(has_parent):
        pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        kids = np.nonzero(has_parent)[0]
        owner = pos[parent[kids]]
        kids, owner = kids[owner >= 0], owner[owner >= 0]
        # union of child intervals per parent: sort by (parent, start), shift
        # each parent's group past the previous one, then a running max of
        # the ends gives how far coverage already reaches
        order = np.lexsort((start[kids], owner))
        kids, owner = kids[order], owner[order]
        span = float(end.max() - start.min()) + 1.0
        base = start.min()
        rank = np.cumsum(np.r_[0, np.diff(owner) != 0])
        s = start[kids] - base + rank * span
        e = end[kids] - base + rank * span
        reach = np.maximum.accumulate(np.r_[-np.inf, e[:-1]])
        first = np.r_[True, np.diff(owner) != 0]
        reach[first] = -np.inf
        part = np.maximum(e - np.maximum(s, reach), 0.0)
        np.add.at(covered, owner, part)
    return dur - covered


def command_layers(trace_path):
    """Self times by metric and raw counters of one traced command."""
    meta = json.loads(open(trace_path + ".json").read())
    rows = np.load(trace_path + ".npy")
    out = dict.fromkeys(SELF_TIMES, 0.0)
    counts = dict(meta["counts"])
    if rows.size:
        own = self_times(rows)
        per_name = np.bincount(rows[:, 1].astype(np.int64), weights=own,
                               minlength=len(meta["names"]))
        for metric, (layer, funcs) in SELF_TIMES.items():
            for nid, name in enumerate(meta["names"]):
                parts = name.split(".")
                if parts[-1] in funcs and (parts[0] == layer or parts[-1] in ("_emit", "_csv")):
                    out[metric] += float(per_name[nid])
    return out, counts


def round_metrics(commands):
    """Per-layer metrics of one traced round.

    ``commands`` holds (self times, counters, import seconds) per command.
    """
    totals = dict.fromkeys(SELF_TIMES, 0.0)
    counts = {}
    import_s = 0.0
    for times, cnt, imp in commands:
        import_s += imp
        for k, v in times.items():
            totals[k] += v
        for k, v in cnt.items():
            counts[k] = counts.get(k, 0) + v
    out = {"cli.import_s": import_s, **totals}
    for k in COUNTS:
        out[k] = counts.get(k, 0)
    for k, (num, den) in RATIOS.items():
        out[k] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    out["dirichlet.sweep_s"] = (
        out["dirichlet.solve_s"] / out["dirichlet.sweeps"] if out["dirichlet.sweeps"] else 0.0
    )
    return out


METRICS = (
    ["cli.import_s"] + list(SELF_TIMES) + list(COUNTS) + list(RATIOS)
    + ["dirichlet.sweep_s", "trace.overhead_s"]
)
