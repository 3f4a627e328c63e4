"""JSON file formats for spaces, targets, maps, atlases, and problems.

All writers emit canonical JSON (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .charts import Atlas, Chart
from .dirichlet import DirichletProblem
from .energy import MetricMap
from .errors import ValidationError
from .spaces import build_space
from .targets import build_target, target_to_json


def canonical_json(obj):
    """Strict JSON: a NaN or infinite float raises ``ValueError``, so a field
    without a value must write ``None`` (``null``)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    """The JSON value in the file at ``path``.  The non-standard tokens
    ``NaN``, ``Infinity`` and ``-Infinity`` are rejected by name."""

    def reject(token):
        raise ValidationError(f"{path}: non-finite JSON token {token}", detail=token)

    return json.loads(Path(path).read_text(), parse_constant=reject)


def space_to_json(space):
    out = {"kind": space.kind, "weights": [float(w) for w in space.weights]}
    if space.kind == "matrix":
        out["matrix"] = space.matrix.tolist()
    else:
        out["points"] = space.coords.tolist()
        if space.kind == "torus":
            out["period"] = space.period.tolist()
    return out


def load_space(path):
    return build_space(read_json(path))


def load_target(path):
    return build_target(read_json(path))


def map_to_json(u, space_ref=None, target_ref=None):
    out = {"values": [u.target.point_to_json(row) for row in u.packed]}
    if space_ref is not None:
        out["space"] = str(space_ref)
    if target_ref is not None:
        out["target"] = str(target_ref)
    return out


def load_map(path, space=None, target=None):
    """Load a map file; file references resolve relative to the file."""
    obj = read_json(path)
    base = Path(path).parent
    if space is None:
        if "space" not in obj:
            raise ValidationError("map file lacks a space reference")
        space = load_space(base / obj["space"])
    if target is None:
        if "target" not in obj:
            raise ValidationError("map file lacks a target reference")
        target = load_target(base / obj["target"])
    values = obj["values"]
    return MetricMap(space, target, _points_from_json(target, values, range(len(values))))


def _points_from_json(target, values, index):
    """The points of JSON values; a malformed value raises naming its index."""
    points = []
    for k, v in zip(index, values):
        try:
            points.append(target.point_from_json(v))
        except ValidationError as exc:
            raise ValidationError(f"value at index {k}: {exc}", detail=k) from exc
    return points


def atlas_to_json(atlas):
    return {
        "epsilon": float(atlas.epsilon),
        "charts": [
            {
                "indices": [int(i) for i in c.indices],
                "coordinates": c.phi.tolist(),
                "epsilon": float(c.epsilon),
            }
            for c in atlas.charts
        ],
        "uncovered": [int(i) for i in atlas.uncovered],
    }


def load_atlas(path):
    obj = read_json(path)
    charts = [
        Chart(
            indices=np.asarray(c["indices"], dtype=int),
            phi=np.asarray(c["coordinates"], dtype=float),
            epsilon=float(c.get("epsilon", obj.get("epsilon", 0.0))),
        )
        for c in obj["charts"]
    ]
    return Atlas(
        charts=charts,
        epsilon=float(obj.get("epsilon", 0.0)),
        uncovered=np.asarray(obj.get("uncovered", []), dtype=int),
    )


def problem_to_json(prob, space_ref, target_ref):
    t = prob.target
    return {
        "space": str(space_ref),
        "target": str(target_ref),
        "interior": [int(i) for i in prob.interior],
        "boundary_values": [
            [int(k), t.point_to_json(v)] for k, v in sorted(prob.boundary_data.items())
        ],
        "scale": float(prob.scale),
    }


def load_problem(path):
    obj = read_json(path)
    base = Path(path).parent
    space = load_space(base / obj["space"])
    target = load_target(base / obj["target"])
    # DirichletProblem checks that each index is an integer
    index = [k for k, _ in obj["boundary_values"]]
    values = [v for _, v in obj["boundary_values"]]
    boundary = dict(zip(index, _points_from_json(target, values, index)))
    prob = DirichletProblem(
        space,
        target,
        interior=obj["interior"],
        boundary_data=boundary,
        scale=float(obj["scale"]),
    )
    return prob, obj.get("solver", {})


def values_to_json(prob, values):
    """Solution values; indices never referenced serialize as null."""
    referenced = set(int(i) for i in prob.referenced)
    return {
        "values": [
            prob.target.point_to_json(row) if i in referenced else None
            for i, row in enumerate(values)
        ]
    }


def save_fixture(fixture, directory):
    """Write a fixture as standard files plus a reference manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / "space.json", space_to_json(fixture.space))
    write_json(directory / "atlas.json", atlas_to_json(fixture.atlas))
    manifest = {
        "family": fixture.spec.family,
        "resolution": fixture.spec.resolution,
        "dim": fixture.spec.dim,
        "seed": fixture.spec.seed,
        "space": "space.json",
        "atlas": "atlas.json",
        "interior": [int(i) for i in fixture.interior],
        "maps": [],
    }
    for ref in fixture.maps:
        tname = f"target_{ref.name}.json"
        mname = f"map_{ref.name}.json"
        write_json(directory / tname, target_to_json(ref.map.target))
        write_json(
            directory / mname,
            map_to_json(ref.map, space_ref="space.json", target_ref=tname),
        )
        manifest["maps"].append(
            {"name": ref.name, "file": mname, "target": tname,
             "reference_density": float(ref.density)}
        )
    write_json(directory / "manifest.json", manifest)
    return directory / "manifest.json"
