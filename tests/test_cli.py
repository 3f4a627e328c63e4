import contextlib
import io
import json
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscalc import (
    DirichletProblem,
    EuclideanTarget,
    FixtureSpec,
    MetricMap,
    build_space,
    make_fixture,
)
from kscalc.cli import main as cli_main
from kscalc.errors import ValidationError
from kscalc.serialize import (
    canonical_json,
    load_atlas,
    load_map,
    load_problem,
    load_space,
    map_to_json,
    problem_to_json,
    save_fixture,
    space_to_json,
    atlas_to_json,
    write_json,
)
from kscalc.targets import target_to_json


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "kscalc.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """``run_cli`` in this process: the exit code ``main`` returns and its output."""
    code = cli_main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    xs = np.linspace(0.0, 1.0, 11)
    sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
    write_json(tmp / "space.json", space_to_json(sp))
    write_json(tmp / "target.json", {"kind": "euclidean", "dim": 1})
    u = MetricMap(sp, EuclideanTarget(1), (2.0 * xs)[:, None])
    write_json(tmp / "map.json", map_to_json(u, "space.json", "target.json"))
    prob = DirichletProblem(
        sp, EuclideanTarget(1), list(range(1, 10)), {0: [0.0], 10: [1.0]}, 0.15
    )
    write_json(tmp / "problem.json", problem_to_json(prob, "space.json", "target.json"))
    write_json(tmp / "hyperbolic.json", {"kind": "hyperbolic"})
    write_json(tmp / "sphere.json", {"kind": "sphere"})
    fx = make_fixture(FixtureSpec(family="euclidean-grid", resolution=64, dim=1))
    save_fixture(fx, tmp / "fixture")
    return tmp


class TestSerializationRoundTrips:
    def test_space(self, workdir):
        sp = load_space(workdir / "space.json")
        assert sp.n == 11 and sp.kind == "euclidean"

    def test_map_resolves_references(self, workdir):
        u = load_map(workdir / "map.json")
        assert u.packed.shape == (11, 1)

    def test_problem(self, workdir):
        prob, options = load_problem(workdir / "problem.json")
        assert list(prob.boundary_layer) == [0, 10]

    def test_atlas(self, workdir, tripod):
        fx = make_fixture(FixtureSpec(family="euclidean-grid", resolution=20, dim=2))
        write_json(workdir / "atlas.json", atlas_to_json(fx.atlas))
        atlas = load_atlas(workdir / "atlas.json")
        assert len(atlas.charts) == len(fx.atlas.charts)
        assert np.allclose(atlas.charts[0].phi, fx.atlas.charts[0].phi)

    def test_tree_map_round_trip(self, workdir, tripod):
        xs = np.linspace(0.0, 1.0, 16)
        sp = build_space({"kind": "euclidean", "points": xs[:, None].tolist()})
        write_json(workdir / "tree_space.json", space_to_json(sp))
        write_json(workdir / "tree_target.json", target_to_json(tripod))
        rng = np.random.default_rng(0)
        u = MetricMap(sp, tripod, [tripod.random_point(rng) for _ in range(16)])
        write_json(
            workdir / "tree_map.json",
            map_to_json(u, "tree_space.json", "tree_target.json"),
        )
        v = load_map(workdir / "tree_map.json")
        assert all(tripod.dist(a, b) == 0.0 for a, b in zip(u.packed, v.packed))

    def test_fixture_manifest(self, workdir):
        manifest = json.loads((workdir / "fixture" / "manifest.json").read_text())
        names = {m["name"] for m in manifest["maps"]}
        assert {"linear", "identity", "constant"} <= names
        u = load_map(workdir / "fixture" / "map_linear.json")
        assert u.space.n == 64


class TestExitCodes:
    def test_space_check_ok(self, workdir):
        code, out, _ = run_cli("space-check", "--space", workdir / "space.json")
        assert code == 0
        assert "doubling" in out

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_space_check_non_finite_radius_exit_2(self, workdir, radius):
        code, out, err = run_cli(
            "space-check", "--space", workdir / "space.json", "--radius", radius
        )
        assert code == 2
        assert out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize(
        "field,value,token",
        [
            ("weights", float("nan"), "NaN"),
            ("points", [float("inf")], "Infinity"),
            ("points", [-float("inf")], "-Infinity"),
        ],
    )
    def test_non_finite_json_token_exit_2(self, capsys, workdir, field, value, token):
        spec = json.loads((workdir / "space.json").read_text())
        spec[field][3] = value
        path = workdir / f"space_{field}_{token}.json"
        path.write_text(json.dumps(spec))
        assert token in path.read_text()
        code, out, err = run_main(capsys, "space-check", "--space", path)
        assert (code, out) == (2, "")
        assert f"{path}: non-finite JSON token {token}" in err

    def test_space_check_one_point_spacing_is_null(self, capsys, tmp_path):
        # a single point has no nearest neighbor: its spacing is inf, which
        # strict JSON has no token for
        write_json(tmp_path / "one.json", {"kind": "euclidean", "points": [[0.5, 0.5]]})
        code, out, _ = run_main(capsys, "space-check", "--space", tmp_path / "one.json",
                                "--radius", "1")
        assert code == 0
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["median_nn_spacing"] is None
        assert report["doubling"] == {"R": 1.0, "value": 1.0}
        # the default radius is 8 spacings, so a single point has none
        code, out, _ = run_main(capsys, "space-check", "--space", tmp_path / "one.json")
        assert code == 0
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["doubling"] == {"R": None, "value": 1.0}
        code, out, err = run_main(
            capsys, "space-check", "--space", tmp_path / "one.json", "--dim", "2"
        )
        assert (code, out) == (2, "")
        assert "--dim on a one-point space needs a --radius" in err

    @pytest.mark.parametrize(
        "args, says",
        [
            (("energy", "--scales", "1e200,5"),
             "scale 1e+200 is too large: scale**2 exceeds half the float range"),
            (("energy", "--p", "3", "--scales", "1e120,5"),
             "scale 1e+120 is too large: scale**3 exceeds half the float range"),
            (("energy", "--scales", "5,1e-200"),
             "scale 1e-200 is too small: scale**2 is below the least normal float"),
            (("space-check", "--radius", "1e308"),
             "R 1e+308 is too large: R exceeds half the float range"),
            (("space-check", "--radius", "1e-310"),
             "R 1e-310 is too small: R is below the least normal float"),
            (("space-check", "--radius", "1e200", "--dim", "2"),
             "radius 5e+199 is too large: radius**2 exceeds half the float range"),
        ],
    )
    def test_huge_or_subnormal_scale_named_exit_2(self, capsys, tmp_path, args, says):
        # in this process a RuntimeWarning raises, and an OverflowError
        # would escape ``main`` with a traceback
        sp = build_space({"kind": "euclidean", "points": [[0.0], [1.0]]})
        write_json(tmp_path / "space.json", space_to_json(sp))
        write_json(tmp_path / "target.json", {"kind": "euclidean", "dim": 1})
        u = MetricMap(sp, EuclideanTarget(1), [[0.0], [2.0]])
        write_json(tmp_path / "map.json", map_to_json(u, "space.json", "target.json"))
        inputs = {"energy": ("--map", "map.json"), "space-check": ("--space", "space.json")}
        command, *options = args
        files = [tmp_path / f if f.endswith(".json") else f for f in inputs[command]]
        code, out, err = run_main(capsys, command, *files, *options)
        assert (code, out) == (2, "")
        assert err == f"validation error: {says}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_json_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json({"field": [1.0, value]})

    @pytest.mark.parametrize("center", ["-1", "11", "99999"])
    def test_space_check_bad_center_exit_2(self, capsys, workdir, center):
        code, out, err = run_main(
            capsys, "space-check", "--space", workdir / "space.json",
            "--dim", "1", "--center", center,
        )
        assert (code, out) == (2, "")
        assert f"ball center {center} outside the domain [0, 11)" in err

    @pytest.mark.parametrize(
        "index, says",
        [
            (99999, "omega index 99999 outside the domain [0, 11)"),
            (-1, "omega index -1 outside the domain [0, 11)"),
            (2.7, "omega index 2.7 is not an integer"),
        ],
    )
    def test_energy_bad_omega_index_exit_2(self, capsys, workdir, index, says):
        write_json(workdir / "omega_bad.json", [3, 4, index])
        out_prefix = workdir / "energy_bad_omega"
        code, out, err = run_main(
            capsys, "energy", "--map", workdir / "map.json", "--scales", "0.3",
            "--omega", workdir / "omega_bad.json", "--out", out_prefix,
        )
        assert code == 2
        assert says in err
        assert not out_prefix.with_suffix(".json").exists()

    def test_verify_cat0_one_vertex_tree_exit_2(self, workdir):
        write_json(workdir / "one_vertex.json", {"kind": "tree", "vertices": 1, "edges": []})
        code, out, err = run_cli(
            "verify", "--which", "cat0", "--target", workdir / "one_vertex.json"
        )
        assert code == 2
        assert out == ""
        assert "at least one edge" in err

    @pytest.mark.parametrize(
        "spec, says",
        [
            ({"kind": "euclidean", "dim": 1.5}, "field 'dim' must be an integer"),
            ({"kind": "euclidean", "dim": True}, "field 'dim' must be an integer"),
            ({"kind": "euclidean", "dim": "1"}, "field 'dim' must be an integer"),
            ({"kind": "euclidean"}, "missing field 'dim'"),
            ({"kind": "tree", "vertices": 2.9, "edges": [[0, 1, 1.0]]},
             "field 'vertices' must be an integer"),
            ({"kind": "tree", "vertices": 3, "edges": [[0, 1, 1.0], [1.7, 2, 1.0]]},
             "field 'edges': edge 1 must be [u, v, length] with integer ends, not [1.7, 2, 1.0]"),
            ({"kind": "tree", "vertices": 2, "edges": [[0, 1, "1"]]},
             "field 'edges': edge 0 must be [u, v, length] with integer ends, not [0, 1, '1']"),
            ({"kind": "tree", "vertices": 2, "edges": 5}, "field 'edges' must be a list"),
            ({"kind": "tree", "vertices": 2, "edges": [[0, 5, 1.0]]},
             "edge 0: endpoint out of range"),
            ({"kind": "tree", "vertices": 2, "edges": [[0, 1]]},
             "field 'edges': edge 0 must be [u, v, length]"),
            ({"kind": "product", "components": 3}, "field 'components' must be a list"),
            ({"kind": "product", "components": [3]}, "field 'components' must be a list"),
        ],
        ids=["dim-float", "dim-bool", "dim-string", "dim-missing", "vertices-float", "endpoint-float",
             "length-string", "edges-number", "endpoint-out-of-range", "edge-pair",
             "components-number",
             "component-number"],
    )
    def test_verify_cat0_bad_target_field_exit_2(self, capsys, tmp_path, spec, says):
        write_json(tmp_path / "t.json", spec)
        code, out, err = run_main(
            capsys, "verify", "--which", "cat0", "--target", tmp_path / "t.json", "--samples", "5"
        )
        assert (code, out) == (2, "")
        assert says in err

    @pytest.mark.parametrize(
        "spec, says",
        [
            ({"kind": "euclidean", "points": {"a": 1}}, "field 'points' must be a list"),
            ({"kind": "euclidean", "points": [[True], [False]]},
             "field 'points' entry 0 must be a list of numbers"),
            ({"kind": "euclidean", "points": [[0.0], [1.0]], "weights": ["1", "1"]},
             "field 'weights' entry 0 must be a number"),
            ({"kind": "euclidean", "points": [[0.0], [1.0]], "weights": [1, True]},
             "field 'weights' entry 1 must be a number"),
            ({"kind": "torus", "points": [[0.0], [0.5]], "period": "1"},
             "field 'period' must be a list"),
            ({"kind": "torus", "points": [[0.0], [0.5]]}, "missing field 'period'"),
            ({"kind": "matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]], "seed": 1.5},
             "field 'seed' must be an integer"),
            ({"kind": "matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]], "seed": "a"},
             "field 'seed' must be an integer"),
        ],
        ids=["points-object", "points-bools", "weights-strings", "weights-bool",
             "period-string", "period-missing", "seed-float", "seed-string"],
    )
    def test_space_check_bad_space_field_exit_2(self, capsys, tmp_path, spec, says):
        write_json(tmp_path / "s.json", spec)
        code, out, err = run_main(
            capsys, "space-check", "--space", tmp_path / "s.json", "--radius", "0.5"
        )
        assert (code, out) == (2, "")
        assert says in err

    def test_energy_infinite_scale_exit_2(self, workdir):
        code, _, err = run_cli(
            "energy",
            "--map", workdir / "map.json",
            "--scales", "inf,0.3",
            "--out", workdir / "energy_inf",
        )
        assert code == 2
        assert "finite" in err
        assert not (workdir / "energy_inf.json").exists()

    def test_missing_file_is_io_error(self):
        code, _, err = run_cli("space-check", "--space", "/does/not/exist.json")
        assert code == 1

    def test_triangle_violation_reports_triple(self, workdir):
        write_json(
            workdir / "bad.json",
            {"kind": "matrix", "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]},
        )
        code, _, err = run_cli("space-check", "--space", workdir / "bad.json")
        assert code == 2
        assert "(0, 1, 2)" in err

    def test_energy_writes_all_outputs(self, workdir):
        code, _, _ = run_cli(
            "energy",
            "--space", workdir / "space.json",
            "--map", workdir / "map.json",
            "--target", workdir / "target.json",
            "--scales", "0.45,0.35",
            "--out", workdir / "energy_run",
        )
        assert code == 0
        sweep = (workdir / "energy_run.sweep.csv").read_text().splitlines()
        assert sweep[0] == "scale,total,reliable"
        dens = (workdir / "energy_run.density.csv").read_text().splitlines()
        assert dens[0] == "index,density"
        summary = json.loads((workdir / "energy_run.json").read_text())
        assert summary["selected_scale"] == 0.35

    def test_energy_flags_subresolution_scale(self, workdir):
        code, _, err = run_cli(
            "energy",
            "--space", workdir / "space.json",
            "--map", workdir / "map.json",
            "--target", workdir / "target.json",
            "--scales", "0.45,0.01",
            "--out", workdir / "energy_flagged",
        )
        assert code == 0
        rows = (workdir / "energy_flagged.sweep.csv").read_text().splitlines()
        assert rows[2].endswith(",0")  # unreliable row flagged
        assert "reliable" in err or "warning" in err

    def test_energy_fixture_reference(self, workdir):
        manifest = json.loads((workdir / "fixture" / "manifest.json").read_text())
        entry = next(m for m in manifest["maps"] if m["name"] == "linear")
        h = 1.0 / 63
        code, _, _ = run_cli(
            "energy",
            "--map", workdir / "fixture" / entry["file"],
            "--scales", f"{12.5 * h},{10.5 * h},{8.5 * h}",
            "--out", workdir / "fx_energy",
        )
        assert code == 0
        summary = json.loads((workdir / "fx_energy.json").read_text())
        # whole-domain mean includes boundary-clipped balls; stay loose
        assert summary["extrapolated_density_mean"] == pytest.approx(
            entry["reference_density"], rel=0.1
        )

    def test_mdiff_linear_residuals(self, workdir):
        code, _, _ = run_cli(
            "mdiff",
            "--space", workdir / "fixture" / "space.json",
            "--atlas", workdir / "fixture" / "atlas.json",
            "--map", workdir / "fixture" / "map_linear.json",
            "--out", workdir / "mdiff.json",
        )
        assert code == 0
        report = json.loads((workdir / "mdiff.json").read_text())
        assert report["errors"] == {}
        assert max(f["residual"] for f in report["fits"]) < 1e-9
        first = report["fits"][0]
        # fit entries carry the seminorm, neighbor count, and radius
        assert {"seminorm", "n_neighbors", "radius", "density"} <= set(first)

    def test_mdiff_partial_failure_keeps_exit_zero(self, workdir):
        fx = make_fixture(FixtureSpec(family="euclidean-grid", resolution=20, dim=2))
        save_fixture(fx, workdir / "fx2d")
        # polyhedral family at a radius that starves the corner point but
        # leaves the interior cross-stencil fittable
        code, _, _ = run_cli(
            "mdiff",
            "--space", workdir / "fx2d" / "space.json",
            "--atlas", workdir / "fx2d" / "atlas.json",
            "--map", workdir / "fx2d" / "map_identity.json",
            "--points", "0,210",
            "--family", "polyhedral",
            "--radius", "0.06",
            "--out", workdir / "mdiff2.json",
        )
        assert code == 0
        report = json.loads((workdir / "mdiff2.json").read_text())
        assert "0" in report["errors"]  # corner lacks neighbors
        assert any(f["index"] == 210 for f in report["fits"])

    @pytest.mark.parametrize("p", ["0", "-1", "nan", "inf", "0.5"])
    def test_energy_bad_exponent_exit_2(self, capsys, workdir, p):
        out_prefix = workdir / f"energy_bad_p_{p}"
        code, out, err = run_main(
            capsys,
            "energy", "--map", workdir / "map.json", "--scales", "0.45,0.35",
            "--p", p, "--out", out_prefix,
        )
        assert code == 2
        assert "exponent p must lie in (1, inf)" in err
        assert not out_prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "flags, says",
        [
            *(pytest.param(("--p", p), "exponent p must lie in (1, inf)", id=f"p={p}")
              for p in ("0", "-1", "nan", "inf", "0.5")),
            *(pytest.param(("--radius", r), "fit radius must be finite and positive",
                           id=f"radius={r}")
              for r in ("-1", "0", "nan")),
            pytest.param(("--points", "10,99999"),
                         "fit point 99999 outside the domain [0, 64)", id="points"),
        ],
    )
    def test_mdiff_bad_option_exit_2(self, capsys, workdir, flags, says):
        out_path = workdir / "mdiff_bad_option.json"
        code, out, err = run_main(
            capsys,
            "mdiff",
            "--space", workdir / "fixture" / "space.json",
            "--atlas", workdir / "fixture" / "atlas.json",
            "--map", workdir / "fixture" / "map_linear.json",
            "--points", "10,30",
            *flags,
            "--out", out_path,
        )
        assert code == 2
        assert says in err
        assert not out_path.exists()

    def test_mdiff_non_finite_chart_coordinate_exit_2(self, capsys, workdir):
        # strict JSON has no non-finite token; a literal beyond the float
        # range still reads as inf
        atlas = json.loads((workdir / "fixture" / "atlas.json").read_text())
        chart = atlas["charts"][0]
        chart["coordinates"][20] = ["huge"] * len(chart["coordinates"][20])
        (workdir / "atlas_inf.json").write_text(json.dumps(atlas).replace('"huge"', "1e999"))
        code, out, err = run_main(
            capsys,
            "mdiff",
            "--space", workdir / "fixture" / "space.json",
            "--atlas", workdir / "atlas_inf.json",
            "--map", workdir / "fixture" / "map_linear.json",
        )
        assert code == 2
        assert out == ""
        assert f"non-finite chart coordinates at index {chart['indices'][20]}" in err

    @pytest.mark.parametrize("field", ["indices", "uncovered"])
    def test_mdiff_non_integral_atlas_index_exit_2(self, capsys, workdir, field):
        atlas = json.loads((workdir / "fixture" / "atlas.json").read_text())
        if field == "indices":
            atlas["charts"][0]["indices"][20] += 0.5
            says = f"chart 0 index {atlas['charts'][0]['indices'][20]} is not an integer"
        else:
            atlas["uncovered"] = [*atlas["uncovered"], 2.5]
            says = "uncovered index 2.5 is not an integer"
        (workdir / f"atlas_half_{field}.json").write_text(json.dumps(atlas))
        code, out, err = run_main(
            capsys,
            "mdiff",
            "--space", workdir / "fixture" / "space.json",
            "--atlas", workdir / f"atlas_half_{field}.json",
            "--map", workdir / "fixture" / "map_linear.json",
        )
        assert (code, out) == (2, "")
        assert says in err

    def test_energy_integer_beyond_float_range_exit_2(self, capsys, workdir):
        # read as inf, like the literal 1e999, and named by its index
        values = ["[0.5]"] * 11
        values[7] = "[1" + "0" * 400 + "]"
        (workdir / "map_huge_int.json").write_text(
            '{"space": "space.json", "target": "target.json", "values": [%s]}' % ", ".join(values)
        )
        code, out, err = run_main(
            capsys, "energy", "--map", workdir / "map_huge_int.json", "--scales", "0.45,0.35"
        )
        assert (code, out) == (2, "")
        assert "index 7: point coordinates must be finite" in err

    def test_mdiff_repeated_chart_index_exit_2(self, capsys, workdir):
        atlas = json.loads((workdir / "fixture" / "atlas.json").read_text())
        chart = atlas["charts"][0]
        chart["indices"][21] = chart["indices"][20]
        (workdir / "atlas_repeated.json").write_text(json.dumps(atlas))
        with pytest.raises(ValidationError) as info:
            load_atlas(workdir / "atlas_repeated.json")
        assert info.value.detail == chart["indices"][20]
        code, out, err = run_main(
            capsys,
            "mdiff",
            "--space", workdir / "fixture" / "space.json",
            "--atlas", workdir / "atlas_repeated.json",
            "--map", workdir / "fixture" / "map_linear.json",
        )
        assert code == 2
        assert out == ""
        assert f"chart lists index {chart['indices'][20]} twice" in err

    def test_dirichlet_converged(self, workdir):
        code, _, _ = run_cli(
            "dirichlet",
            "--problem", workdir / "problem.json",
            "--out", workdir / "solve_run",
        )
        assert code == 0
        rep = json.loads((workdir / "solve_run.report.json").read_text())
        assert rep["converged"] is True
        sol = json.loads((workdir / "solve_run.solution.json").read_text())
        assert sol["values"][10] == [1.0]
        traj = (workdir / "solve_run.trajectory.csv").read_text().splitlines()
        assert traj[0] == "sweep,energy"
        energies = [float(r.split(",")[1]) for r in traj[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_energy_with_omega_mask(self, workdir):
        write_json(workdir / "omega.json", list(range(3, 9)))
        code, _, _ = run_cli(
            "energy",
            "--space", workdir / "space.json",
            "--map", workdir / "map.json",
            "--target", workdir / "target.json",
            "--scales", "0.3",
            "--omega", workdir / "omega.json",
            "--out", workdir / "energy_omega",
        )
        assert code == 0
        rows = (workdir / "energy_omega.density.csv").read_text().splitlines()[1:]
        dens = [float(r.split(",")[1]) for r in rows]
        assert dens[0] == 0.0 and dens[10] == 0.0  # outside omega
        assert any(d > 0 for d in dens)

    def test_dirichlet_nonconverged_exit_3(self, workdir):
        code, _, _ = run_cli(
            "dirichlet",
            "--problem", workdir / "problem.json",
            "--max-sweeps", "1",
            "--tol", "1e-12",
            "--out", workdir / "solve_short",
        )
        assert code == 3
        assert (workdir / "solve_short.report.json").exists()

    def test_barycenter_fan_meets_at_the_hub(self, workdir):
        # three unit-weight values at offset 0.5 on the tripod's three legs:
        # the interior point's barycenter is the hub, found exactly
        write_json(
            workdir / "fan_space.json",
            {"kind": "euclidean",
             "points": [[0, 0], [1, 0], [-0.5, 0.866], [-0.5, -0.866]]},
        )
        write_json(
            workdir / "tripod.json",
            {"kind": "tree", "vertices": 4, "edges": [[0, 1, 1], [0, 2, 1], [0, 3, 1]]},
        )
        write_json(
            workdir / "fan_problem.json",
            {
                "space": "fan_space.json",
                "target": "tripod.json",
                "interior": [0],
                "boundary_values": [[k + 1, {"edge": k, "t": 0.5}] for k in range(3)],
                "scale": 1.5,
            },
        )
        code, _, err = run_cli(
            "dirichlet", "--problem", workdir / "fan_problem.json", "--out", workdir / "fan"
        )
        assert code == 0, err
        assert json.loads((workdir / "fan.report.json").read_text())["converged"] is True
        sol = json.loads((workdir / "fan.solution.json").read_text())
        assert sol["values"][0] == {"vertex": 0}

    def test_duplicate_points_exit_2(self, workdir):
        write_json(
            workdir / "dup.json", {"kind": "euclidean", "points": [[0], [0], [0.5], [1]]}
        )
        code, _, err = run_cli("space-check", "--space", workdir / "dup.json")
        assert code == 2
        assert "(0, 1)" in err

    def test_dirichlet_infeasible_exit_2(self, workdir):
        obj = json.loads((workdir / "problem.json").read_text())
        obj["scale"] = 0.01  # empty interior balls
        write_json(workdir / "problem_bad.json", obj)
        code, _, _ = run_cli("dirichlet", "--problem", workdir / "problem_bad.json")
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "euclidean", "points": [[0.0], [1e-170], [1.0]]},
            {"kind": "torus", "points": [[0.0], [5e-321]], "period": [1e-320]},
        ],
        ids=["underflowing-spacing", "subnormal-period"],
    )
    def test_space_check_zero_spacing_exits_2(self, tmp_path, spec):
        # distinct coordinates the metric puts at distance 0 once made the
        # radius grid multiply r = 0 forever
        write_json(tmp_path / "space.json", spec)
        proc = subprocess.run(
            [sys.executable, "-m", "kscalc.cli", "space-check",
             "--space", str(tmp_path / "space.json"), "--radius", "0.5"],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "distinct points (0, 1) at distance 0" in proc.stderr

    def test_dirichlet_ill_posed_exit_2(self, workdir):
        # interior points 3 and 4 read only each other
        write_json(
            workdir / "split_space.json",
            {"kind": "euclidean", "points": [[0.0], [0.1], [0.2], [5.0], [5.1]]},
        )
        write_json(
            workdir / "split_problem.json",
            {
                "space": "split_space.json",
                "target": "target.json",
                "interior": [1, 3, 4],
                "boundary_values": [[0, [0.0]], [2, [1.0]]],
                "scale": 0.15,
            },
        )
        code, _, err = run_cli(
            "dirichlet", "--problem", workdir / "split_problem.json", "--out", workdir / "split"
        )
        assert code == 2
        assert "component [3, 4] touches no boundary" in err
        assert not (workdir / "split.report.json").exists()

    def test_verify_cat0(self, workdir):
        code, out, _ = run_cli(
            "verify", "--which", "cat0",
            "--target", workdir / "hyperbolic.json", "--samples", "500",
        )
        assert code == 0
        code2, out2, _ = run_cli(
            "verify", "--which", "cat0",
            "--target", workdir / "sphere.json", "--samples", "300",
        )
        assert code2 == 2

    def test_verify_seminorm_identities(self, workdir):
        code, out, _ = run_cli("verify", "--which", "seminorm-identities")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst"] <= 1e-3


# a value of each kind that loads, and one that a check rejects
_LOAD_CASES = {
    "tree": (
        {"kind": "tree", "vertices": 4, "edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0]]},
        {"vertex": 1},
        {"vertex": 9},  # vertex out of range
    ),
    "hyperbolic": (
        {"kind": "hyperbolic"},
        [1.0, 0.0, 0.0],
        [1.5, 0.0, 0.0],  # off the hyperboloid
    ),
}


@pytest.mark.parametrize("kind", sorted(_LOAD_CASES))
class TestLoadNamesBadIndex:
    """A bad value in a map or problem file exits 2 naming its index."""

    def test_energy_map_value(self, workdir, kind):
        target, good, bad = _LOAD_CASES[kind]
        write_json(workdir / f"load_{kind}_target.json", target)
        values = [good] * 11
        values[7] = bad
        write_json(
            workdir / f"load_{kind}_map.json",
            {"space": "space.json", "target": f"load_{kind}_target.json", "values": values},
        )
        code, out, err = run_cli(
            "energy", "--map", workdir / f"load_{kind}_map.json", "--scales", "0.45,0.35"
        )
        assert code == 2
        assert out == ""
        assert "index 7" in err

    def test_dirichlet_boundary_value(self, workdir, kind):
        target, good, bad = _LOAD_CASES[kind]
        write_json(workdir / f"load_{kind}_target.json", target)
        write_json(
            workdir / f"load_{kind}_problem.json",
            {
                "space": "space.json",
                "target": f"load_{kind}_target.json",
                "interior": list(range(1, 10)),
                "boundary_values": [[0, good], [10, bad]],
                "scale": 0.15,
            },
        )
        code, out, err = run_cli(
            "dirichlet", "--problem", workdir / f"load_{kind}_problem.json"
        )
        assert code == 2
        assert out == ""
        assert "index 10" in err


class TestLoadNamesMalformedValue:
    """A value of the wrong JSON type, or a non-integral tree index, exits 2
    naming its index, through both the map and the problem loader."""

    CASES = {
        "object-for-list": ("target.json", [0.5], {"x": 0.5}, "list of numbers"),
        "string-coordinate": ("target.json", [0.5], ["0.5"], "list of numbers"),
        "edge-without-t": ("tripod.json", {"vertex": 1}, {"edge": 0}, '"t"'),
        "fractional-vertex": ("tripod.json", {"vertex": 1}, {"vertex": 1.7}, "1.7"),
        "fractional-edge": ("tripod.json", {"vertex": 1}, {"edge": 0.9, "t": 0.5}, "0.9"),
    }

    @pytest.fixture
    def tripod_file(self, workdir, tripod):
        write_json(workdir / "tripod.json", target_to_json(tripod))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_map(self, workdir, tripod_file, case):
        target, good, bad, says = self.CASES[case]
        values = [good] * 11
        values[4] = bad
        path = workdir / f"malformed_{case}_map.json"
        write_json(path, {"space": "space.json", "target": target, "values": values})
        with pytest.raises(ValidationError, match="index 4") as info:
            load_map(path)
        assert says in str(info.value) and info.value.detail == 4
        code, out, err = run_cli("energy", "--map", path, "--scales", "0.45,0.35")
        assert (code, out) == (2, "")
        assert "index 4" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_problem(self, workdir, tripod_file, case):
        target, good, bad, says = self.CASES[case]
        path = workdir / f"malformed_{case}_problem.json"
        write_json(
            path,
            {
                "space": "space.json",
                "target": target,
                "interior": list(range(1, 10)),
                "boundary_values": [[0, good], [10, bad]],
                "scale": 0.15,
            },
        )
        with pytest.raises(ValidationError, match="index 10") as info:
            load_problem(path)
        assert says in str(info.value) and info.value.detail == 10
        code, out, err = run_cli("dirichlet", "--problem", path)
        assert (code, out) == (2, "")
        assert "index 10" in err and "Traceback" not in err

    def test_integral_float_index_loads(self, workdir, tripod_file):
        path = workdir / "integral_float_map.json"
        values = [{"vertex": 1.0}] * 10 + [{"edge": 2.0, "t": 0.25}]
        write_json(path, {"space": "space.json", "target": "tripod.json", "values": values})
        u = load_map(path)
        assert u.target.canonical(u.packed[0]) == {"vertex": 1}
        assert u.target.canonical(u.packed[10]) == {"edge": 2, "t": 0.25}


class TestLoadNamesBadField:
    """A file whose top level or a field has the wrong JSON type exits 2
    naming the field."""

    def edit(self, workdir, source, name, change):
        obj = json.loads((workdir / source).read_text())
        path = workdir / f"bad_field_{name}.json"
        write_json(path, change(obj))
        return path

    def check(self, args, says):
        code, out, err = run_cli(*args)
        assert (code, out) == (2, "")
        assert says in err and "Traceback" not in err

    def test_energy_map_with_inline_space(self, workdir):
        space = json.loads((workdir / "space.json").read_text())
        path = self.edit(workdir, "map.json", "inline_space", lambda m: {**m, "space": space})
        self.check(("energy", "--map", path, "--scales", "0.45,0.35"), "field 'space'")

    def test_energy_map_with_number_values(self, workdir):
        path = self.edit(workdir, "map.json", "number_values", lambda m: {**m, "values": 7})
        self.check(("energy", "--map", path, "--scales", "0.45,0.35"), "field 'values'")

    def test_mdiff_atlas_with_object_charts(self, workdir):
        path = self.edit(workdir, "fixture/atlas.json", "object_charts",
                         lambda a: {**a, "charts": {"a": 1}})
        fx = workdir / "fixture"
        self.check(("mdiff", "--space", fx / "space.json", "--atlas", path,
                    "--map", fx / "map_linear.json", "--points", "10,30"), "field 'charts'")

    def test_dirichlet_problem_holding_a_list(self, workdir):
        path = self.edit(workdir, "problem.json", "list_problem", lambda p: [p])
        self.check(("dirichlet", "--problem", path), "JSON object")

    def test_energy_space_file_holding_a_list(self, workdir):
        space = self.edit(workdir, "space.json", "list_space", lambda s: s["points"])
        path = self.edit(workdir, "map.json", "list_space_map", lambda m: {**m, "space": space.name})
        self.check(("energy", "--map", path, "--scales", "0.45,0.35"), "JSON object")


# the JSON files the loader property mutates, each with the command that
# reads it (file names relative to the module's workdir)
_LOADED_FILES = {
    "map": ("map.json", ["energy", "--map", "{path}", "--scales", "0.45,0.35"]),
    "problem": ("problem.json", ["dirichlet", "--problem", "{path}"]),
    "atlas": ("fixture/atlas.json",
              ["mdiff", "--space", "fixture/space.json", "--atlas", "{path}",
               "--map", "fixture/map_linear.json", "--points", "10,30"]),
}
# the wall-clock limit of one mutated file's command: a hang fails its
# example instead of stalling the suite
_EXAMPLE_SECONDS = 30
_JSON_VALUES = st.sampled_from([7, 2.5, "x", [], [1, 2], {}, {"a": 1}, None, True])
_NON_FINITE = st.sampled_from(["1e999", "-1e999", "NaN", "Infinity"])


def _mutate(obj, data, workdir):
    """``obj`` with one field dropped, given another JSON type or, for a
    file reference, replaced by the file's content; or with a non-finite
    number in its values, marked by the string "NONFINITE"."""
    name = data.draw(st.sampled_from(sorted(obj)))
    how = data.draw(st.sampled_from(["drop", "retype", "inline", "non-finite"]))
    obj = dict(obj)
    if how == "drop":
        del obj[name]
    elif how == "retype":
        obj[name] = data.draw(_JSON_VALUES.filter(lambda v: type(v) is not type(obj[name])))
    elif how == "inline" and name in ("space", "target"):
        obj[name] = json.loads((workdir / obj[name]).read_text())
    elif "values" in obj:
        values = obj["values"]
        k = data.draw(st.integers(0, len(values) - 1))
        obj["values"] = values[:k] + [["NONFINITE"]] + values[k + 1:]
    elif "boundary_values" in obj:
        obj["boundary_values"] = [[0, ["NONFINITE"]], *obj["boundary_values"][1:]]
    else:
        chart = dict(obj["charts"][0])
        chart["coordinates"] = [["NONFINITE"], *chart["coordinates"][1:]]
        obj["charts"] = [chart, *obj["charts"][1:]]
    return obj


@pytest.mark.parametrize("kind", sorted(_LOADED_FILES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_files_exit_0_or_2(workdir, kind, data):
    """A valid map, problem or atlas file, mutated: every command that reads
    it returns 0 or 2 and raises nothing."""
    source, args = _LOADED_FILES[kind]
    obj = _mutate(json.loads((workdir / source).read_text()), data, workdir)
    text = json.dumps(obj).replace('"NONFINITE"', data.draw(_NON_FINITE))
    path = workdir / f"mutated_{kind}.json"
    path.write_text(text)
    argv = [str(path) if a == "{path}" else str(workdir / a) if a.endswith(".json") else a
            for a in args]

    def over_time(signum, frame):
        pytest.fail(f"{args[0]} ran longer than {_EXAMPLE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, over_time)
    signal.alarm(_EXAMPLE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([*argv, "--out", str(workdir / f"mutated_{kind}_out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2)


class TestProblemIndicesAndOptions:
    """A non-integral domain index or a bad solver option exits 2 naming it."""

    def write_problem(self, workdir, name, **changes):
        obj = json.loads((workdir / "problem.json").read_text())
        obj.update(changes)
        path = workdir / f"{name}.json"
        write_json(path, obj)
        return path

    @pytest.mark.parametrize(
        "changes, says",
        [
            ({"interior": [1.5, *range(2, 10)]}, "index 1.5 is not an integer"),
            ({"boundary_values": [[0.7, [0.0]], [10, [1.0]]]}, "index 0.7 is not an integer"),
        ],
    )
    def test_non_integral_index(self, workdir, changes, says):
        path = self.write_problem(workdir, "fractional_index", **changes)
        with pytest.raises(ValidationError, match=says):
            load_problem(path)
        code, out, err = run_cli("dirichlet", "--problem", path)
        assert (code, out) == (2, "")
        assert says in err and "Traceback" not in err

    def test_integral_float_indices_load(self, workdir):
        path = self.write_problem(
            workdir, "float_index",
            interior=[float(i) for i in range(1, 10)],
            boundary_values=[[0.0, [0.0]], [10.0, [1.0]]],
        )
        prob, _ = load_problem(path)
        assert prob.interior.tolist() == list(range(1, 10))
        code, _, _ = run_cli("dirichlet", "--problem", path, "--out", workdir / "float_index")
        assert code == 0

    @pytest.mark.parametrize(
        "flags, solver, says",
        [
            ([], {"mode": "sor"}, "mode"),
            (["--tol", "nan"], {}, "tol"),
            (["--tol", "0"], {}, "tol"),
            (["--tol", "-1"], {}, "tol"),
            (["--max-sweeps", "0"], {}, "max_sweeps"),
            ([], {"max_sweeps": 2.5}, "max_sweeps"),
        ],
    )
    def test_bad_solver_option(self, workdir, flags, solver, says):
        path = self.write_problem(workdir, "bad_option", solver=solver)
        code, out, err = run_cli("dirichlet", "--problem", path, *flags)
        assert (code, out) == (2, "")
        assert f"solver option {says}" in err and "uniqueness" not in err


# Runs one CLI command with every ``cli.load_*`` wrapped (as the benchmark's
# launcher wraps them) and writes, as JSON to argv[1], the exit code and the
# numpy/scipy modules loaded after the last load returned, the scipy
# modules loaded in all and whether numpy.ma was loaded at the end.  The
# CLI's arguments follow.
_IMPORT_PROBE = """
import json, sys

def heavy():
    return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}

import kscalc.cli as cli

state = {"depth": 0, "loaded": None}

def wrap(fn):
    def loaded(*args, **kwargs):
        state["depth"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            state["depth"] -= 1
            if state["depth"] == 0:
                state["loaded"] = heavy()
    return loaded

for name in dir(cli):
    if name.startswith("load_"):
        setattr(cli, name, wrap(getattr(cli, name)))
code = cli.main(sys.argv[2:])
late = None if state["loaded"] is None else sorted(heavy() - state["loaded"])
scipy = sorted(m for m in heavy() if m.startswith("scipy"))
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "late": late, "scipy": scipy, "ma": "numpy.ma" in sys.modules}, fh)
"""


def probe_imports(tmp_path, *args):
    result = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(result), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


class TestStartupImports:
    """``import kscalc`` loads numpy only; each subcommand imports the
    modules it uses before its inputs load (``cli.SUBCOMMAND_IMPORTS``),
    and none loads scipy or numpy.ma."""

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, kscalc, kscalc.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_verify_cat0_loads_no_scipy(self, workdir, tmp_path, tripod):
        write_json(workdir / "startup_tripod.json", target_to_json(tripod))
        for target in ("hyperbolic.json", "startup_tripod.json"):
            report = probe_imports(
                tmp_path, "verify", "--which", "cat0",
                "--target", workdir / target, "--samples", "200",
                "--out", tmp_path / "cat0.json",
            )
            assert report["code"] == 0
            assert report["scipy"] == []
            assert report["late"] == []

    @pytest.mark.parametrize("family", ["quadratic", "polyhedral"])
    def test_mdiff_loads_no_stats_or_spatial(self, workdir, tmp_path, family):
        fx = workdir / "fixture"
        report = probe_imports(
            tmp_path, "mdiff", "--space", fx / "space.json", "--atlas", fx / "atlas.json",
            "--map", fx / "map_linear.json", "--points", "10,30", "--family", family,
            "--out", tmp_path / "mdiff.json",
        )
        assert report["code"] == 0
        assert report["scipy"] == []

    def test_seminorm_identities_loads_no_stats(self, tmp_path):
        report = probe_imports(
            tmp_path, "verify", "--which", "seminorm-identities", "--out", tmp_path / "id.json"
        )
        assert report["code"] == 0
        assert report["scipy"] == []

    @pytest.mark.parametrize(
        "args",
        [
            ("space-check", "--space", "space.json", "--dim", "1"),
            ("energy", "--map", "map.json", "--scales", "0.45,0.35"),
            ("energy", "--map", "fixture/map_linear.json", "--scales", "0.2,0.15,0.1"),
            ("mdiff", "--space", "fixture/space.json", "--atlas", "fixture/atlas.json",
             "--map", "fixture/map_linear.json", "--points", "10,30"),
            ("mdiff", "--space", "fixture/space.json", "--atlas", "fixture/atlas.json",
             "--map", "fixture/map_linear.json", "--points", "10,30",
             "--family", "polyhedral"),
            ("dirichlet", "--problem", "problem.json"),
            ("dirichlet", "--problem", "problem.json", "--mode", "gauss-seidel"),
        ],
        ids=lambda args: "-".join(a for a in args if not a.endswith(".json"))[:48],
    )
    def test_nothing_imported_after_loading(self, workdir, tmp_path, args):
        resolved = [workdir / a if a.endswith(".json") else a for a in args]
        report = probe_imports(tmp_path, *resolved, "--out", tmp_path / "out")
        assert report["code"] == 0
        assert report["late"] == []
        assert report["scipy"] == []
        # numpy.ma costs about 10 ms to import, and no command needs it
        assert not report["ma"]


_THREAD_PROBE = """
import json, sys, threading

started = []
start = threading.Thread.start

def counted(self):
    started.append(self.name)
    start(self)

threading.Thread.start = counted
import kscalc.cli as cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "started": started,
               "futures": "concurrent.futures" in sys.modules}, fh)
"""


class TestDeterminism:
    def test_mdiff_fits_every_chart_on_the_calling_thread(self, tmp_path):
        fx = make_fixture(FixtureSpec(family="two-chart-curve", resolution=128))
        assert len(fx.atlas.charts) == 2
        save_fixture(fx, tmp_path)
        outputs = {}
        for threads in (1, 4):
            out = tmp_path / f"fits_{threads}.json"
            probe = tmp_path / f"probe_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE, str(probe), "mdiff",
                 "--space", str(tmp_path / "space.json"),
                 "--atlas", str(tmp_path / "atlas.json"),
                 "--map", str(tmp_path / f"map_{fx.maps[0].name}.json"),
                 "--threads", str(threads), "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(probe.read_text())
            assert report == {"code": 0, "started": [], "futures": False}
            outputs[threads] = out.read_bytes()
        fitted = {fit["index"] for fit in json.loads(outputs[1])["fits"]}
        assert all(fitted & set(chart.indices.tolist()) for chart in fx.atlas.charts)
        assert outputs[4] == outputs[1]

    def test_outputs_byte_identical_across_thread_counts(self, workdir):
        for threads in (1, 4):
            run_cli(
                "mdiff",
                "--space", workdir / "fixture" / "space.json",
                "--atlas", workdir / "fixture" / "atlas.json",
                "--map", workdir / "fixture" / "map_linear.json",
                "--threads", threads,
                "--seed", 0,
                "--out", workdir / f"det_{threads}.json",
            )
        a = (workdir / "det_1.json").read_bytes()
        b = (workdir / "det_4.json").read_bytes()
        assert a == b

    def test_repeat_run_identical(self, workdir):
        for tag in ("r1", "r2"):
            run_cli(
                "energy",
                "--space", workdir / "space.json",
                "--map", workdir / "map.json",
                "--target", workdir / "target.json",
                "--scales", "0.45,0.35",
                "--seed", 0,
                "--out", workdir / f"rep_{tag}",
            )
        assert (workdir / "rep_r1.json").read_bytes() == (
            workdir / "rep_r2.json"
        ).read_bytes()
        assert (workdir / "rep_r1.density.csv").read_bytes() == (
            workdir / "rep_r2.density.csv"
        ).read_bytes()
