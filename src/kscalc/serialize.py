"""JSON file formats for spaces, targets, maps, atlases, and problems.

All writers emit canonical JSON (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .charts import Atlas, Chart
from .dirichlet import DirichletProblem
from .energy import MetricMap
from .errors import ValidationError
from .spaces import build_space, domain_indices
from .targets import build_target, target_to_json


def canonical_json(obj):
    """Strict JSON: a NaN or infinite float raises ``ValueError``, so a field
    without a value must write ``None`` (``null``)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj))


def _json_int(literal):
    """A JSON integer: an ``int``, or beyond the float range the infinite
    float that a literal such as ``1e999`` also reads as, so a loader
    rejects it by index like any non-finite number."""
    # fewer than 300 digits are always within the float range
    if len(literal) < 300:
        return int(literal)
    x = float(literal)
    return int(literal) if math.isfinite(x) else x


def read_json(path):
    """The JSON value in the file at ``path``.  The non-standard tokens
    ``NaN``, ``Infinity`` and ``-Infinity`` are rejected by name."""

    def reject(token):
        raise ValidationError(f"{path}: non-finite JSON token {token}", detail=token)

    return json.loads(Path(path).read_text(), parse_constant=reject, parse_int=_json_int)


def space_to_json(space):
    out = {"kind": space.kind, "weights": [float(w) for w in space.weights]}
    if space.kind == "matrix":
        out["matrix"] = space.matrix.tolist()
    else:
        out["points"] = space.coords.tolist()
        if space.kind == "torus":
            out["period"] = space.period.tolist()
    return out


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object", float: "a number"}


def _object(obj, where):
    """``obj``, which must be a JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must hold a JSON object")
    return obj


def _field(obj, name, kind, where, default=None):
    """Field ``name`` of a JSON object, of JSON type ``kind`` (``float``:
    any number); a missing field is ``default``, if one is given."""
    if name not in obj:
        if default is None:
            raise ValidationError(f"{where}: missing field {name!r}", detail=name)
        return default
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValidationError(f"{where}: field {name!r} must be {_JSON_TYPES[kind]}", detail=name)
    return value


def load_space(path):
    return build_space(_object(read_json(path), path))


def load_target(path):
    return build_target(_object(read_json(path), path))


def map_to_json(u, space_ref=None, target_ref=None):
    out = {"values": u.target._rows_to_json(u.packed)}
    if space_ref is not None:
        out["space"] = str(space_ref)
    if target_ref is not None:
        out["target"] = str(target_ref)
    return out


def load_map(path, space=None, target=None):
    """Load a map file; file references resolve relative to the file."""
    obj = _object(read_json(path), path)
    base = Path(path).parent
    if space is None:
        space = load_space(base / _field(obj, "space", str, path))
    if target is None:
        target = load_target(base / _field(obj, "target", str, path))
    return MetricMap(space, target, _field(obj, "values", list, path))


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
    """Load an atlas file.  Chart and uncovered indices must be integers;
    the first that is not is named with its chart.  Their range is checked
    against a space by :meth:`Atlas.validate_cover`."""
    n = np.iinfo(np.intp).max
    obj = _object(read_json(path), path)
    epsilon = float(_field(obj, "epsilon", float, path, 0.0))
    charts = []
    for k, c in enumerate(_field(obj, "charts", list, path)):
        where = f"{path}: chart {k}"
        c = _object(c, where)
        charts.append(Chart(
            indices=domain_indices(_field(c, "indices", list, where), n, f"{where} index"),
            phi=np.asarray(_field(c, "coordinates", list, where), dtype=float),
            epsilon=float(_field(c, "epsilon", float, where, epsilon)),
        ))
    uncovered = domain_indices(
        _field(obj, "uncovered", list, path, []), n, f"{path}: uncovered index"
    )
    return Atlas(charts=charts, epsilon=epsilon, uncovered=uncovered)


def problem_to_json(prob, space_ref, target_ref):
    index = sorted(prob.boundary_data)
    values = prob.target._rows_to_json(prob.target.pack([prob.boundary_data[k] for k in index]))
    return {
        "space": str(space_ref),
        "target": str(target_ref),
        "interior": [int(i) for i in prob.interior],
        "boundary_values": [[int(k), v] for k, v in zip(index, values)],
        "scale": float(prob.scale),
    }


def load_problem(path):
    obj = _object(read_json(path), path)
    base = Path(path).parent
    space = load_space(base / _field(obj, "space", str, path))
    target = load_target(base / _field(obj, "target", str, path))
    pairs = _field(obj, "boundary_values", list, path)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ValidationError(f"{path}: field 'boundary_values' must hold [index, point] pairs")
    index = domain_indices([k for k, _ in pairs], space.n)
    rows = target.pack([v for _, v in pairs], index)
    prob = DirichletProblem(
        space,
        target,
        interior=_field(obj, "interior", list, path),
        boundary_data=dict(zip(index.tolist(), rows)),
        scale=_field(obj, "scale", float, path),
    )
    return prob, _field(obj, "solver", dict, path, {})


def values_to_json(prob, values):
    """Solution values; indices never referenced serialize as null."""
    ref = prob.referenced
    rows = dict(zip(ref.tolist(), prob.target._rows_to_json(np.asarray(values)[ref])))
    return {"values": [rows.get(i) for i in range(len(values))]}


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
