import contextlib
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobenefit import (
    MAX_GRID_CELLS,
    ContourLine,
    ContourSet,
    GridSpec,
    Kernel,
    Raster,
    SceneFormatError,
    evaluate_field,
    extract_isolines,
    kernel_benefit,
    load_scene,
    read_contours_geojson,
    read_raster,
    read_raster_csv,
    write_contours_geojson,
    write_raster,
)
from isobenefit import cli
from isobenefit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def one_amenity(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "amenities": [{"id": "park", "x": 0, "y": 0, "A": 3}],
    }))
    return path


@pytest.fixture
def profiled(tmp_path):
    path = tmp_path / "profiled.json"
    path.write_text(json.dumps({
        "amenities": [
            {"id": "park", "x": 0, "y": 0, "A": 3},
            {"id": "shop", "x": 2, "y": 1, "A": 1},
        ],
        "profiles": {
            "alice": {"E": 2, "overrides": {"park": 5}},
            "median": {},
        },
        "majority": "median",
    }))
    return path


@pytest.fixture
def pair(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "amenities": [
            {"id": "big", "x": 0, "y": 0, "A": 4},
            {"id": "small", "x": 3, "y": 0, "A": 1},
        ],
    }))
    return path


# -- field


def test_field_peak_cell_equals_attractiveness(tmp_path, one_amenity):
    out = tmp_path / "field.csv"
    assert run("field", "--scene", one_amenity, "--grid", "-2,-2,1,5,5",
               "--out", out) == 0
    raster = read_raster_csv(str(out))
    assert raster.values.max() == 3.0


def test_field_asc_format_matches_grid(tmp_path, one_amenity):
    out = tmp_path / "field.asc"
    assert run("field", "--scene", one_amenity, "--grid", "-2,-2,1,5,4",
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "NCOLS 5"
    assert lines[1] == "NROWS 4"


def test_field_format_flag_is_gone(tmp_path, one_amenity):
    with pytest.raises(SystemExit) as excinfo:
        run("field", "--scene", one_amenity, "--grid", "-2,-2,1,5,4",
            "--out", tmp_path / "field.csv", "--format", "asc")
    assert excinfo.value.code == 2


def test_field_profile_matches_library(tmp_path, profiled):
    out = tmp_path / "field.csv"
    assert run("field", "--scene", profiled, "--grid", "-1,-1,0.5,7,7",
               "--profile", "alice", "--out", out) == 0
    scene = load_scene(str(profiled))
    want = evaluate_field(scene, Kernel("rational", 1.0),
                          GridSpec(-1.0, -1.0, 0.5, 7, 7), profile="alice")
    assert np.array_equal(read_raster_csv(str(out)).values, want.values)


def test_field_parts_written_alongside(tmp_path, profiled):
    out = tmp_path / "field.csv"
    assert run("field", "--scene", profiled, "--grid", "0,0,1,3,3",
               "--out", out, "--parts") == 0
    assert (tmp_path / "field_positive.csv").exists()
    assert (tmp_path / "field_negative.csv").exists()


@pytest.mark.parametrize("out, companions", [
    ("./field", ("./field_positive", "./field_negative")),
    ("runs.v1/field", ("runs.v1/field_positive", "runs.v1/field_negative")),
    ("field.csv", ("field_positive.csv", "field_negative.csv")),
    ("out/field.ASC", ("out/field_positive.ASC", "out/field_negative.ASC")),
    ("field", ("field_positive", "field_negative")),
])
def test_field_parts_sit_beside_out(tmp_path, monkeypatch, profiled, out, companions):
    # a dot in a directory name is not the extension's
    monkeypatch.chdir(tmp_path)
    for directory in ("runs.v1", "out"):
        (tmp_path / directory).mkdir()
    assert run("field", "--scene", profiled, "--grid", "0,0,1,4,4",
               "--out", out, "--parts") == 0
    assert cli._parts_paths(out) == companions
    for path in (out,) + companions:
        assert (tmp_path / path).is_file(), path
    for path in companions:
        assert os.path.dirname(path) == os.path.dirname(out)
        assert (tmp_path / path).parent.resolve() == (tmp_path / out).parent.resolve()


def test_missing_scene_file_fails(tmp_path, capsys):
    out = tmp_path / "field.csv"
    assert run("field", "--scene", tmp_path / "nope.json",
               "--grid", "0,0,1,2,2", "--out", out) == 1
    assert "nope.json" in capsys.readouterr().err
    assert not out.exists()


def test_bad_grid_flag_is_a_usage_error(one_amenity, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run("field", "--scene", one_amenity, "--grid", "1,2,3", "--out",
            tmp_path / "x.csv")
    assert excinfo.value.code == 2


@pytest.mark.parametrize("grid, message", [
    ("0,0,1,100000,100000", "exceeds the limit of 67108864 cells"),
    ("0,0,0,2,2", "cell_size must be finite and > 0"),
])
def test_bad_grid_value_is_a_named_error(tmp_path, monkeypatch, capsys, grid, message):
    # the grid is refused before the scene is even read, so nothing is evaluated
    def refuse(path):
        raise AssertionError("the scene must not be loaded")

    monkeypatch.setattr(cli, "load_scene", refuse)
    out = tmp_path / "x.csv"
    assert run("field", "--scene", tmp_path / "s.json", "--grid", grid, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: ") and message in err
    assert not out.exists()


def test_overflowing_field_names_the_scene(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"amenities": [
        {"id": "a", "x": 0, "y": 0, "A": 1e308},
        {"id": "b", "x": 0, "y": 0, "A": 1e308},
    ]}))
    for argv in (["field", "--out", tmp_path / "f.csv"],
                 ["field", "--parts", "--out", tmp_path / "f.csv"],
                 ["uniformity"],
                 ["sweep", "--efficiencies", "1,2"]):
        assert run(*argv, "--scene", huge, "--grid", "0,0,1,2,2") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {huge}: the benefit sum over 2 amenities overflowed")
        assert "RuntimeWarning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


# -- isolines


def test_isolines_round_trip_matches_library(tmp_path, one_amenity):
    out = tmp_path / "lines.geojson"
    assert run("isolines", "--scene", one_amenity, "--grid", "-4,-4,0.1,81,81",
               "--levels", "1.0,2.0", "--out", out) == 0
    raster = evaluate_field(load_scene(str(one_amenity)), Kernel("rational", 1.0),
                            GridSpec(-4.0, -4.0, 0.1, 81, 81))
    assert read_contours_geojson(str(out)) == extract_isolines(raster, levels=[1.0, 2.0])


def test_isolines_from_raster_file(tmp_path, one_amenity):
    raster_path = tmp_path / "field.csv"
    run("field", "--scene", one_amenity, "--grid", "-4,-4,0.1,81,81",
        "--out", raster_path)
    out = tmp_path / "lines.geojson"
    assert run("isolines", "--raster", raster_path, "--nlevels", "3",
               "--out", out) == 0
    contours = read_contours_geojson(str(out))
    assert len(contours.levels) == 3


def test_isolines_constant_raster_with_nlevels_fails(tmp_path, capsys):
    raster_path = tmp_path / "flat.csv"
    raster_path.write_text("# 2,2,0.0,0.0,1.0\n5.0,5.0\n5.0,5.0\n")
    assert run("isolines", "--raster", raster_path, "--nlevels", "2",
               "--out", tmp_path / "x.geojson") == 1
    assert "constant" in capsys.readouterr().err


def test_isolines_needs_exactly_one_level_flag(tmp_path, one_amenity, capsys):
    assert run("isolines", "--scene", one_amenity, "--grid", "0,0,1,3,3",
               "--out", tmp_path / "x.geojson") == 1
    assert "--levels" in capsys.readouterr().err
    # the flags are checked before any input is read: a raster that does not
    # exist would otherwise be the error
    missing = tmp_path / "missing.csv"
    assert run("isolines", "--raster", missing, "--levels", "1", "--nlevels", "2",
               "--out", tmp_path / "y.geojson") == 1
    err = capsys.readouterr().err
    assert "--levels" in err
    assert "missing.csv" not in err
    assert not (tmp_path / "y.geojson").exists()


# -- uniformity


def test_uniformity_of_constant_raster_is_one(tmp_path, capsys):
    raster_path = tmp_path / "flat.csv"
    raster_path.write_text("# 3,1,0.0,0.0,1.0\n2.5,2.5,2.5\n")
    report = tmp_path / "u.json"
    assert run("uniformity", "--raster", raster_path, "--out", report) == 0
    assert json.loads(report.read_text())["uniformity"]["all"]["u"] == 1.0
    assert "U(all) = 1.0" in capsys.readouterr().out


def test_uniformity_of_one_two_three(tmp_path):
    raster_path = tmp_path / "steps.csv"
    raster_path.write_text("# 3,1,0.0,0.0,1.0\n1.0,2.0,3.0\n")
    report = tmp_path / "u.json"
    assert run("uniformity", "--raster", raster_path, "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["uniformity"]["all"]["u"] == pytest.approx(
        1.0 - math.sqrt(2.0 / 3.0) / 2.0, abs=1e-12)
    assert doc["summary"]["mean"] == 2.0


def test_uniformity_all_zero_raster_fails(tmp_path, capsys):
    raster_path = tmp_path / "zero.csv"
    raster_path.write_text("# 2,1,0.0,0.0,1.0\n0.0,0.0\n")
    assert run("uniformity", "--raster", raster_path) == 1
    assert "mean" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, where", [
    ("nan.csv", "# 2,2,0.0,0.0,1.0\n1.0,2.0\n\n3.0,nan\n", ":4:"),
    ("inf.asc", "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
                "1.0 -inf\n", ":6:"),
    ("frac.asc", "NCOLS 2.7\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
                 "1.0 2.0\n", ":1:"),
    ("cell.csv", "# 2,1,0.0,0.0,-1.0\n1.0,2.0\n", ": bad grid header"),
])
def test_bad_raster_file_is_a_named_error(tmp_path, capsys, name, text, where):
    raster_path = tmp_path / name
    raster_path.write_text(text)
    assert run("uniformity", "--raster", raster_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{raster_path}{where}" in err


def test_source_flags_error_is_shared(tmp_path, capsys):
    for command in ("isolines", "uniformity"):
        assert run(command, "--out", tmp_path / "x") == 1
        assert f"error: {command} needs --scene (with --grid) or --raster" in capsys.readouterr().err


def test_uniformity_scene_report_has_parts(tmp_path, capsys):
    scene_path = tmp_path / "mixed.json"
    scene_path.write_text(json.dumps({
        "amenities": [
            {"id": "park", "x": 0, "y": 0, "A": 3},
            {"id": "dump", "x": 1, "y": 1, "A": -1},
        ],
    }))
    report = tmp_path / "u.json"
    assert run("uniformity", "--scene", scene_path, "--grid", "-1,-1,0.5,5,5",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["uniformity"]["all"]["u"] is not None
    assert doc["uniformity"]["positive"]["u"] > 0
    assert doc["uniformity"]["negative"]["negative_mean"] is True
    out = capsys.readouterr().out
    assert "U(positive)" in out
    assert "interpret with care" in out


def test_uniformity_positive_part_undefined_when_no_positive_amenities(tmp_path):
    scene_path = tmp_path / "gloom.json"
    scene_path.write_text(json.dumps({
        "amenities": [{"id": "dump", "x": 0, "y": 0, "A": -1}],
    }))
    report = tmp_path / "u.json"
    assert run("uniformity", "--scene", scene_path, "--grid", "0,0,1,3,3",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["uniformity"]["positive"] is None
    assert doc["uniformity"]["all"]["negative_mean"] is True


# -- breakpoint


def test_breakpoint_equal_pair_reports_midpoint(tmp_path):
    scene_path = tmp_path / "equal.json"
    scene_path.write_text(json.dumps({
        "amenities": [
            {"id": "a", "x": 0, "y": 0, "A": 2},
            {"id": "b", "x": 4, "y": 0, "A": 2},
        ],
    }))
    report = tmp_path / "bp.json"
    assert run("breakpoint", "--scene", scene_path, "--pair", "a,b",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["reilly"]["distance_from_1"] == 2.0
    assert doc["reilly"]["distance_from_2"] == 2.0
    assert doc["numeric"]["distance_from_1"] == pytest.approx(2.0, abs=4e-6)


def test_breakpoint_four_to_one(tmp_path, pair):
    report = tmp_path / "bp.json"
    assert run("breakpoint", "--scene", pair, "--pair", "big,small",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["reilly"]["distance_from_2"] == 1.0
    assert doc["distance"] == 3.0


def test_breakpoint_monotone_profile_is_reported_not_fatal(tmp_path, capsys):
    scene_path = tmp_path / "steep.json"
    scene_path.write_text(json.dumps({
        "amenities": [
            {"id": "strong", "x": 0, "y": 0, "A": 9},
            {"id": "weak", "x": 1, "y": 0, "A": 1},
        ],
    }))
    report = tmp_path / "bp.json"
    assert run("breakpoint", "--scene", scene_path, "--pair", "strong,weak",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["numeric"]["error"] == "NoInteriorMinimum"
    assert "reilly" in doc
    assert "no interior minimum" in capsys.readouterr().out


def test_breakpoint_resolution_above_the_grid_cap_is_refused(profiled, monkeypatch, capsys):
    def no_arange(*args, **kwargs):
        raise AssertionError("samples were allocated for a refused resolution")

    monkeypatch.setattr(np, "arange", no_arange)
    assert run("breakpoint", "--scene", profiled, "--pair", "park,shop",
               "--resolution", MAX_GRID_CELLS + 1) == 1
    assert capsys.readouterr().err.startswith(
        f"error: resolution must be between 3 and {MAX_GRID_CELLS}")


@pytest.mark.parametrize("resolution", [2, MAX_GRID_CELLS + 1])
def test_refused_breakpoint_resolution_prints_no_partial_report(profiled, capsys, resolution):
    assert run("breakpoint", "--scene", profiled, "--pair", "park,shop",
               "--resolution", resolution) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: resolution must be between 3")


def test_breakpoint_unknown_id_names_the_flag(tmp_path, pair, capsys):
    assert run("breakpoint", "--scene", pair, "--pair", "big,ghost") == 1
    err = capsys.readouterr().err
    assert "--pair" in err and "ghost" in err


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
@pytest.mark.parametrize("xs, reason", [
    ((-1.7e308, 1.7e308), "are farther apart than the float range"),
    ((1.0, 1.0), "share a position")])
@pytest.mark.parametrize("out", [None, "b.json"])
def test_a_pair_without_a_segment_names_the_flag(tmp_path, capsys, family, xs, reason, out):
    scene = tmp_path / "pair.json"
    scene.write_text(json.dumps({"amenities": [
        {"id": "a", "x": xs[0], "y": 0, "A": 1}, {"id": "b", "x": xs[1], "y": 0, "A": 1}]}))
    argv = ["breakpoint", "--scene", scene, "--pair", "a,b", "--kernel", family]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would surface as an error
        assert run(*argv, *(["--out", tmp_path / out] if out else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --pair: amenities 'a' and 'b' {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json"]


# -- huff


def test_huff_table_and_report(tmp_path, pair, capsys):
    report = tmp_path / "huff.json"
    assert run("huff", "--scene", pair, "--origin", "1.5,0",
               "--out", report) == 0
    doc = json.loads(report.read_text())
    assert doc["probabilities"] == {"big": 0.8, "small": 0.2}
    out = capsys.readouterr().out
    assert "big\t0.8" in out


def test_huff_origin_on_amenity_fails(pair, capsys):
    assert run("huff", "--scene", pair, "--origin", "0,0") == 1
    assert "origin" in capsys.readouterr().err


@pytest.mark.parametrize("exponent, shares", [
    ("2", {"near": 1.0, "far": 0.0}),    # 1e-200 ** 2 underflows to 0
    ("-2", {"near": 0.0, "far": 1.0}),   # 1e-200 ** -2 overflows
])
def test_huff_extreme_distance_exponent(tmp_path, exponent, shares):
    scene_path = tmp_path / "tiny.json"
    scene_path.write_text(json.dumps({
        "amenities": [
            {"id": "near", "x": 0, "y": 1e-200, "A": 1},
            {"id": "far", "x": 0, "y": 1, "A": 1},
        ],
    }))
    report = tmp_path / "huff.json"
    assert run("huff", "--scene", scene_path, "--origin", "0,0",
               "--distance-exponent", exponent, "--out", report) == 0
    assert json.loads(report.read_text())["probabilities"] == shares


# -- pgg


def test_pgg_identical_profiles_zero_raster(tmp_path, profiled):
    out = tmp_path / "pgg.csv"
    assert run("pgg", "--scene", profiled, "--grid", "-1,-1,0.5,5,5",
               "--person", "median", "--majority", "median", "--out", out) == 0
    raster = read_raster_csv(str(out))
    assert (raster.values == 0.0).all()


def test_pgg_antisymmetry_under_swap(tmp_path, profiled):
    forward = tmp_path / "f.csv"
    backward = tmp_path / "b.csv"
    run("pgg", "--scene", profiled, "--grid", "-1,-1,0.5,5,5",
        "--person", "alice", "--majority", "median", "--out", forward)
    run("pgg", "--scene", profiled, "--grid", "-1,-1,0.5,5,5",
        "--person", "median", "--majority", "alice", "--out", backward)
    assert np.array_equal(read_raster_csv(str(forward)).values,
                          -read_raster_csv(str(backward)).values)


def test_pgg_report_counts_signed_cells(tmp_path, profiled):
    out = tmp_path / "pgg.csv"
    report = tmp_path / "pgg.json"
    assert run("pgg", "--scene", profiled, "--grid", "-1,-1,0.5,5,5",
               "--person", "alice", "--out", out, "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["majority"] == "median"  # scene default picked up
    assert doc["gain_cells"] == 25      # alice only raises park's pull
    assert doc["loss_cells"] == 0
    assert doc["summary"]["total"] > 0


# -- curve


def test_curve_columns_start_at_a_and_order_by_e(tmp_path):
    out = tmp_path / "curves.csv"
    assert run("curve", "--efficiencies", "0.5,1,2", "--dmax", "5",
               "--samples", "11", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,E=0.5,E=1.0,E=2.0"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 3.0, 3.0, 3.0]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for row in rows[1:]:
        # rational family: larger E decays slower, so columns are ordered
        assert row[1] < row[2] < row[3]
    for col in (1, 2, 3):
        values = [row[col] for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
def test_curve_rows_equal_per_distance_kernel_calls(tmp_path, family):
    out = tmp_path / "curves.csv"
    assert run("curve", "--kernel", family, "--attractiveness", "2.5",
               "--efficiencies", "0.3,1.7", "--dmax", "7.3", "--samples", "41",
               "--out", out) == 0
    kernels = [Kernel(family, 0.3), Kernel(family, 1.7)]
    step = 7.3 / 40
    want = ["d,E=0.3,E=1.7"] + [
        ",".join([repr(k * step)] + [repr(kernel_benefit(2.5, k * step, kern)) for kern in kernels])
        for k in range(41)]
    assert out.read_text().splitlines() == want


def test_curve_gaussian_flips_the_e_ordering(tmp_path):
    out = tmp_path / "curves.csv"
    assert run("curve", "--kernel", "gaussian", "--efficiencies", "0.5,2",
               "--dmax", "2", "--samples", "5", "--out", out) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    for row in rows[1:]:
        assert row[1] > row[2]  # larger E decays faster here


def test_curve_overflowing_exponent_writes_zero_without_a_warning(tmp_path, capsys):
    # E*d*d overflows to inf on the way to an exact 0.0
    out = tmp_path / "c.csv"
    assert run("curve", "--kernel", "gaussian", "--efficiencies", "1e300",
               "--dmax", "1e10", "--samples", "3", "--out", out) == 0
    assert out.read_text().splitlines()[1:] == [
        "0.0,3.0", "5000000000.0,0.0", "10000000000.0,0.0"]
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, allocator, message", [
    ("curve --efficiencies 1 --samples COUNT --out c.csv", "arange",
     "error: --samples must be between 2 and"),
    ("isolines --raster r.csv --nlevels COUNT --out l.geojson", "linspace",
     "error: nlevels must be between 1 and"),
])
def test_count_above_the_grid_cap_is_refused_before_allocating(
        tmp_path, monkeypatch, capsys, argv, allocator, message):
    def no_allocation(*args, **kwargs):
        raise AssertionError(f"np.{allocator} ran for a refused count")

    (tmp_path / "r.csv").write_text("# 2,2,0.0,0.0,1.0\n0.0,1.0\n0.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np, allocator, no_allocation)
    assert run(*argv.replace("COUNT", str(2 ** 40)).split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{message} {MAX_GRID_CELLS}, got {2 ** 40}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


# -- sweep


def test_sweep_single_e_matches_uniformity_command(tmp_path, profiled):
    sweep_report = tmp_path / "sweep.json"
    uniformity_report = tmp_path / "u.json"
    assert run("sweep", "--scene", profiled, "--efficiencies", "1.0",
               "--grid", "-1,-1,0.5,7,7", "--out", sweep_report) == 0
    assert run("uniformity", "--scene", profiled, "--grid", "-1,-1,0.5,7,7",
               "--out", uniformity_report) == 0
    swept = json.loads(sweep_report.read_text())["rows"][0]
    direct = json.loads(uniformity_report.read_text())
    assert swept["uniformity"]["u"] == direct["uniformity"]["all"]["u"]
    assert swept["summary"] == direct["summary"]


def test_sweep_reports_one_row_per_e(tmp_path, profiled, capsys):
    report = tmp_path / "sweep.json"
    assert run("sweep", "--scene", profiled, "--efficiencies", "0.5,1,2,4",
               "--grid", "-1,-1,0.5,5,5", "--out", report) == 0
    doc = json.loads(report.read_text())
    assert [row["efficiency"] for row in doc["rows"]] == [0.5, 1.0, 2.0, 4.0]
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # header plus one line per E


# -- plumbing


@pytest.mark.parametrize("argv", [
    "field --scene SCENE --efficiency 0 --grid 0,0,1,3,3 --out f.csv",
    "field --scene SCENE --efficiency -1 --grid 0,0,1,3,3 --out f.csv",
    "field --scene SCENE --efficiency nan --grid 0,0,1,3,3 --out f.csv",
    "uniformity --scene SCENE --efficiency 0 --grid 0,0,1,3,3",
    "pgg --scene SCENE --efficiency 0 --grid 0,0,1,3,3 --person alice --out g.csv",
    "breakpoint --scene SCENE --efficiency nan --pair park,shop",
    "breakpoint --scene SCENE --resolution 2 --pair park,shop",
    "sweep --scene SCENE --efficiencies 0 --grid 0,0,1,3,3",
    "sweep --scene SCENE --efficiencies 1,0 --grid 0,0,1,3,3",
    "curve --efficiencies 0 --out c.csv",
    "isolines --scene SCENE --grid 0,0,1,3,3 --nlevels 0 --out l.geojson",
    "isolines --scene SCENE --grid 0,0,1,3,3 --levels nan --out l.geojson",
    "field --scene HUGE --grid 0,0,1,2,2 --out f.csv",  # the field overflows
])
def test_bad_argument_is_a_named_error(tmp_path, monkeypatch, capsys, profiled, argv):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "amenities": [
            {"id": "a", "x": 0, "y": 0, "A": 1e308},
            {"id": "b", "x": 0, "y": 0, "A": 1e308},
        ],
    }))
    monkeypatch.chdir(tmp_path)
    paths = {"SCENE": str(profiled), "HUGE": str(huge)}
    assert run(*(paths.get(token, token) for token in argv.split())) == 1
    out, err = capsys.readouterr()
    assert out == ""  # a refused argument prints no partial report
    assert err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "profiled.json"]


@pytest.mark.parametrize("argv, message", [
    ("isolines --scene SCENE --grid 0,0,1,3,3 --levels 1,nan --out l.geojson",
     "--levels must be finite, got [1.0, nan]"),
    ("isolines --scene SCENE --grid 0,0,1,3,3 --levels=-inf --out l.geojson",
     "--levels must be finite, got [-inf]"),
    ("huff --scene SCENE --origin nan,1 --out h.json", "--origin must be finite, got (nan, 1.0)"),
    ("huff --scene SCENE --origin 1,inf --out h.json", "--origin must be finite, got (1.0, inf)"),
    ("curve --efficiencies 1 --attractiveness inf --out c.csv",
     "--attractiveness must be finite, got inf"),
    ("curve --efficiencies 1 --attractiveness=-inf --out c.csv",
     "--attractiveness must be finite, got -inf"),
    ("curve --efficiencies 1 --dmax nan --out c.csv", "--dmax must be finite, got nan"),
])
def test_a_non_finite_flag_value_is_refused_by_one_line_naming_it(
        tmp_path, monkeypatch, capsys, profiled, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(*(str(profiled) if token == "SCENE" else token for token in argv.split())) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profiled.json"]


def test_non_finite_report_is_a_named_error(tmp_path, capsys):
    # the indicators refuse the overflowing mean before any report is written
    raster_path = tmp_path / "huge.csv"
    raster_path.write_text("# 2,1,0.0,0.0,1.0\n1e308,1e308\n")
    report = tmp_path / "u.json"
    assert run("uniformity", "--raster", raster_path, "--out", report) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {raster_path}: ")
    assert "Infinity" not in captured.out + captured.err
    assert "RuntimeWarning" not in captured.err
    assert not report.exists()


def test_missing_output_directory_names_the_target(tmp_path, capsys, one_amenity):
    out = tmp_path / "missing" / "field.csv"
    assert run("field", "--scene", one_amenity, "--grid", "0,0,1,2,2", "--out", out) == 1
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp-" not in err


@pytest.mark.parametrize("argv", [
    "uniformity --scene SCENE --grid 0,0,1,3,3 --out REPORT",
    "breakpoint --scene SCENE --pair park,shop --out REPORT",
    "huff --scene SCENE --origin 1,3 --out REPORT",
    "sweep --scene SCENE --efficiencies 1,2 --grid 0,0,1,3,3 --out REPORT",
    "pgg --scene SCENE --person alice --grid 0,0,1,3,3 --out g.csv --report REPORT",
])
def test_unwritable_report_prints_nothing(tmp_path, monkeypatch, capsys, profiled, argv):
    report = tmp_path / "missing" / "report.json"
    monkeypatch.chdir(tmp_path)
    paths = {"SCENE": str(profiled), "REPORT": str(report)}
    assert run(*(paths.get(token, token) for token in argv.split())) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(report) in err
    # all or none: pgg leaves no raster behind, and no command a temp file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profiled.json"]


@pytest.mark.parametrize("report", ["g.csv", "./sub/../g.csv"])
def test_one_file_for_out_and_report_is_refused_before_the_scene_is_read(
        tmp_path, monkeypatch, capsys, report):
    # the report would have replaced the raster; the scene does not exist,
    # so an error naming the flags was raised before it was read
    monkeypatch.chdir(tmp_path)
    assert run("pgg", "--scene", "missing.json", "--person", "alice", "--grid", "0,0,1,3,3",
               "--out", "g.csv", "--report", report) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --out and --report name the same file: g.csv\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "huff --scene SCENE --origin 1,3 --out adir",
    "field --scene SCENE --grid 0,0,1,3,3 --out adir",
    "isolines --scene SCENE --grid 0,0,1,3,3 --nlevels 2 --out adir",
    "pgg --scene SCENE --person alice --grid 0,0,1,3,3 --out g.csv --report newdir/",
])
def test_an_output_that_is_a_directory_is_named_without_a_temp_file(
        tmp_path, monkeypatch, capsys, profiled, argv):
    # a path ending in a separator names a directory too, as open() says
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(*(str(profiled) if token == "SCENE" else token for token in argv.split())) == 1
    out, err = capsys.readouterr()
    assert out == ""
    target = argv.split()[-1]
    assert err == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "profiled.json"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("fault", ["directory", "no temp file", "disk full"])
def test_field_parts_writes_all_rasters_or_none(tmp_path, monkeypatch, capsys, profiled, fault):
    # the third raster is refused: before anything is staged (a directory
    # in its place), when its temp file cannot be made, or while its rows
    # are written; the first two must not be left behind either
    import tempfile

    from isobenefit import io as scene_io
    monkeypatch.chdir(tmp_path)
    if fault == "directory":
        (tmp_path / "f_negative.csv").mkdir()
    elif fault == "no temp file":
        mkstemp, calls = tempfile.mkstemp, []

        def third_refused(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise PermissionError(13, "Permission denied", kwargs["dir"])
            return mkstemp(*args, **kwargs)
        monkeypatch.setattr(tempfile, "mkstemp", third_refused)
    else:
        format_rows, calls = scene_io._rows.format_rows, []

        def third_refused(rows, sep):
            calls.append(sep)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return format_rows(rows, sep)
        monkeypatch.setattr(scene_io._rows, "format_rows", third_refused)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run("field", "--scene", profiled, "--grid", "0,0,1,3,3", "--out", "f.csv",
               "--parts") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if fault == "directory":
        assert err == "error: [Errno 21] Is a directory: 'f_negative.csv'\n"
    elif fault == "no temp file":
        assert err == "error: [Errno 13] Permission denied: 'f_negative.csv'\n"


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run("paint")
    assert excinfo.value.code == 2


COMMANDS = ["field", "isolines", "uniformity", "breakpoint", "huff", "pgg", "curve", "sweep"]


def _exit_code_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    return excinfo.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag, code", [("--help", 0), ("--bogus", 2)])
def test_one_command_parser_prints_what_the_full_parser_prints(
        capsys, monkeypatch, command, flag, code):
    # main builds only the named command's parser; its help and usage
    # errors must be those of that command in the full parser
    want = _exit_code_and_output(capsys, cli._build_parser().parse_args, [command, flag])
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: built.append(name) or build(name))
    got = _exit_code_and_output(capsys, main, [command, flag])
    assert built == [command]
    assert got == want
    assert got[0] == code
    if code == 0:
        assert got[1].out.startswith(f"usage: isobenefit {command} [-h]")


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["paint"], 2)])
def test_no_known_command_falls_back_to_the_full_parser(capsys, argv, code):
    want = _exit_code_and_output(capsys, cli._build_parser().parse_args, argv)
    got = _exit_code_and_output(capsys, main, argv)
    assert got == want
    assert got[0] == code
    if argv:  # help and an unknown command both list every command
        text = got[1].out + got[1].err
        assert all(command in text for command in COMMANDS)


def test_module_entry_point_runs():
    import os
    import subprocess
    import sys

    import isobenefit
    # the child imports the same copy of the package as this test run
    src = os.path.dirname(os.path.dirname(isobenefit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "isobenefit", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "field" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "isobenefit", "breakpoint", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "usage: isobenefit breakpoint" in proc.stdout


# -- mutated raster input


@st.composite
def mutated_rasters(draw):
    """A small raster, the file name that picks its format (CSV or ASC),
    and how to mutate the file: truncate it, flip bytes, replace values by
    non-finite or odd tokens, or make a row ragged."""
    ncols = draw(st.integers(2, 5))
    nrows = draw(st.integers(2, 5))
    values = draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False) | st.integers(-3, 3).map(float),
        min_size=ncols * nrows, max_size=ncols * nrows))
    raster = Raster(GridSpec(0.5, -1.0, 0.25, ncols, nrows), values)
    name = draw(st.sampled_from(["r.csv", "r.asc"]))
    how = draw(st.sampled_from(["truncate", "flip", "token", "ragged"]))
    return name, raster, how, draw(st.randoms(use_true_random=False))


def mutate(data: bytes, how: str, rnd) -> bytes:
    if how == "truncate":
        return data[:rnd.randrange(len(data))]
    if how == "flip":
        out = bytearray(data)
        for _ in range(rnd.randint(1, 3)):
            out[rnd.randrange(len(out))] ^= rnd.randrange(1, 256)
        return bytes(out)
    lines = data.split(b"\n")
    k = rnd.choice([k for k, line in enumerate(lines) if line and line[:1] in b"-0123456789"])
    sep = b"," if b"," in lines[k] else b" "
    cells = lines[k].split(sep)
    if how == "token":  # one or two cells, so that -1e308 and 1e308 can meet
        for _ in range(rnd.randint(1, 2)):
            cells[rnd.randrange(len(cells))] = rnd.choice(
                [b"nan", b"inf", b"-inf", b"Infinity", b"NaN", b"1e999", b"-1e308",
                 b"1e308", b""])
    elif rnd.random() < 0.5:
        cells.pop(rnd.randrange(len(cells)))
    else:
        cells.append(b"1.0")
    lines[k] = sep.join(cells)
    return b"\n".join(lines)


@given(mutated_rasters(), st.sampled_from([("--nlevels", "3"), ("--levels", "0.5,-1")]))
def test_mutated_raster_input_ends_in_an_exit_code(tmp_path_factory, case, level_flag):
    name, raster, how, rnd = case
    directory = tmp_path_factory.mktemp("mutated")
    path = directory / name
    write_raster(raster, str(path))
    path.write_bytes(mutate(path.read_bytes(), how, rnd))
    outputs = [directory / "c.geojson", directory / "u.json"]
    for argv in (["isolines", "--raster", path, *level_flag, "--out", outputs[0]],
                 ["uniformity", "--raster", path, "--out", outputs[1]]):
        try:
            code = run(*argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        assert code in (0, 1, 2)
    for out in outputs:
        if out.exists():
            assert "Infinity" not in out.read_text()
            assert "NaN" not in out.read_text()


# -- mutated scene and GeoJSON input

# a number that is not part of an id such as "a0"
NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
ODD_NUMBERS = [b"nan", b"NaN", b"Infinity", b"-Infinity", b"inf", b"1e400", b"-1e400",
               b"1e308", b"-1e308", b"1e-400", b"1" * 400, b"true", b'"3"', b""]


def mutate_numbers(data: bytes, how: str, rnd) -> bytes:
    """``data`` truncated or byte-flipped as :func:`mutate` does, or with
    one or two of its numbers replaced by non-finite, huge or odd tokens
    (two, so that 1e308 can meet 1e308)."""
    if how != "token":
        return mutate(data, how, rnd)
    spans = [m.span() for m in NUMBER.finditer(data)]
    chosen = rnd.sample(spans, min(len(spans), rnd.randint(1, 2)))
    for start, end in sorted(chosen, reverse=True):
        data = data[:start] + rnd.choice(ODD_NUMBERS) + data[end:]
    return data


@st.composite
def mutated_scenes(draw):
    """A small scene as JSON (with a profile) or amenity CSV, and how to
    mutate the file."""
    number = st.floats(-4.0, 4.0, allow_nan=False) | st.integers(-3, 3)
    amenities = [{"id": f"a{k}", "x": draw(number), "y": draw(number),
                  "A": draw(st.floats(0.1, 10.0) | st.integers(1, 5))}
                 for k in range(draw(st.integers(2, 4)))]
    name = draw(st.sampled_from(["s.json", "s.csv"]))
    if name == "s.json":
        text = json.dumps({"amenities": amenities, "majority": "p",
                           "profiles": {"p": {"E": 2, "overrides": {"a0": 4}}}})
    else:
        text = "id,x,y,A\n" + "".join(
            f"{a['id']},{a['x']!r},{a['y']!r},{a['A']!r}\n" for a in amenities)
    how = draw(st.sampled_from(["truncate", "flip", "token"]))
    return name, text.encode(), how, draw(st.randoms(use_true_random=False))


@given(mutated_scenes())
def test_mutated_scene_input_ends_in_an_exit_code(tmp_path_factory, case):
    name, data, how, rnd = case
    directory = tmp_path_factory.mktemp("mutated")
    path = directory / name
    path.write_bytes(mutate_numbers(data, how, rnd))
    profile = ["--profile", "p"] if name == "s.json" else []
    outputs = [directory / "f.csv", directory / "b.json", directory / "h.json"]
    for argv in (["field", "--scene", path, "--grid", "-1,-1,1,3,3", *profile,
                  "--out", outputs[0]],
                 ["breakpoint", "--scene", path, "--pair", "a0,a1", "--out", outputs[1]],
                 ["huff", "--scene", path, "--origin", "7,7", "--out", outputs[2]]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(*argv)
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
        assert code in (0, 1, 2)
        if code != 0:  # a failed command prints no partial report
            assert stdout.getvalue() == ""
    for out in outputs:
        if out.exists():
            assert "Infinity" not in out.read_text()
            assert "NaN" not in out.read_text()


contour_sets = st.builds(
    ContourSet,
    levels=st.lists(st.floats(-5.0, 5.0), max_size=3).map(tuple),
    lines=st.lists(st.builds(
        ContourLine,
        level=st.floats(-5.0, 5.0),
        points=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                        max_size=4).map(tuple),
        closed=st.booleans(),
    ), min_size=1, max_size=3).map(tuple),
)


@given(contour_sets, st.sampled_from(["truncate", "flip", "token"]),
       st.randoms(use_true_random=False))
def test_mutated_geojson_is_read_or_refused_by_name(tmp_path_factory, contours, how, rnd):
    # the library reader, not the CLI: no subcommand reads GeoJSON
    path = tmp_path_factory.mktemp("mutated") / "c.geojson"
    write_contours_geojson(contours, str(path))
    path.write_bytes(mutate_numbers(path.read_bytes(), how, rnd))
    try:
        read_contours_geojson(str(path))
    except SceneFormatError as exc:
        assert str(exc).startswith(f"{path}:")


# -- mutated flag values

# non-finite, huge, signed-zero, subnormal, empty and malformed field values;
# the integers stay far below MAX_GRID_CELLS or far above it, so no drawn
# grid or count is large enough to be slow and every cap refuses at once
FLAG_TOKENS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "-0", "0",
               "1e-320", "1e308", "-1e308", "", " ", "1" * 400, "-" + "1" * 400, "abc",
               "0x10", "2", "0.5", "-3"]

# flag: (command line with VALUE and OUT placeholders, the fields of a valid value)
FLAG_CASES = {
    "--grid": ("uniformity --scene SCENE --grid VALUE --out OUT.json",
               ["-1", "-1", "0.5", "4", "3"]),
    "--efficiency": ("uniformity --scene SCENE --grid -1,-1,0.5,4,3 --efficiency VALUE "
                     "--out OUT.json", ["2"]),
    "--origin": ("huff --scene SCENE --origin VALUE --out OUT.json", ["1", "3"]),
    "--levels": ("isolines --scene SCENE --grid -1,-1,0.5,4,3 --levels VALUE "
                 "--out OUT.geojson", ["1", "2"]),
    "--nlevels": ("isolines --scene SCENE --grid -1,-1,0.5,4,3 --nlevels VALUE "
                  "--out OUT.geojson", ["3"]),
    "--resolution": ("breakpoint --scene SCENE --pair park,shop --resolution VALUE "
                     "--out OUT.json", ["11"]),
    "--samples": ("curve --efficiencies 1,2 --samples VALUE --out OUT.csv", ["11"]),
    "--attractiveness": ("curve --efficiencies 1,2 --attractiveness VALUE --out OUT.csv", ["3"]),
    "--dmax": ("curve --efficiencies 1,2 --dmax VALUE --out OUT.csv", ["10"]),
    "--distance-exponent": ("huff --scene SCENE --origin 1,3 --distance-exponent VALUE "
                            "--out OUT.json", ["1"]),
    "--efficiencies": ("sweep --scene SCENE --grid -1,-1,0.5,4,3 --efficiencies VALUE "
                       "--out OUT.json", ["1", "2"]),
}


@st.composite
def mutated_flags(draw):
    """A flag and a value made from a valid one by replacing, dropping or
    inserting one or two comma-separated fields."""
    flag = draw(st.sampled_from(sorted(FLAG_CASES)))
    fields = list(FLAG_CASES[flag][1])
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["replace", "drop", "insert"]))
        k = draw(st.integers(0, len(fields)))
        if how == "insert" or not fields:
            fields.insert(k, draw(st.sampled_from(FLAG_TOKENS)))
        elif how == "replace":
            fields[min(k, len(fields) - 1)] = draw(st.sampled_from(FLAG_TOKENS))
        else:
            fields.pop(min(k, len(fields) - 1))
    return flag, ",".join(fields), draw(st.booleans())


@given(mutated_flags())
def test_mutated_flag_value_ends_in_an_exit_code(tmp_path_factory, case):
    flag, value, joined = case
    directory = tmp_path_factory.mktemp("flags")
    scene = directory / "profiled.json"
    scene.write_text(json.dumps({"amenities": [
        {"id": "park", "x": 0, "y": 0, "A": 3}, {"id": "shop", "x": 2, "y": 1, "A": 1}]}))
    template, _fields = FLAG_CASES[flag]
    argv = []
    for token in template.split():
        token = token.replace("SCENE", str(scene)).replace("OUT", str(directory / "out"))
        if token == "VALUE" and joined:  # --flag=VALUE, so a leading "-" stays a value
            argv[-1] = f"{flag}={value}"
        else:
            argv.append(value if token == "VALUE" else token)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    assert code in (0, 1, 2)
    errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
    assert (code == 0) == (errors == [])
    for line in errors:  # named by the flag, with or without its dashes
        assert flag.lstrip("-") in line, (argv, line)
    if code != 0:
        assert stdout.getvalue() == ""
    for out in directory.iterdir():
        assert "Infinity" not in out.read_text()
        assert "NaN" not in out.read_text()
        if out.suffix == ".csv":  # a header line, then rows of numbers
            cells = [cell for line in out.read_text().splitlines()[1:]
                     for cell in line.split(",")]
            assert all(math.isfinite(float(cell)) for cell in cells), (argv, out.name)


def test_a_pgg_beyond_the_float_range_names_the_scene(tmp_path, capsys):
    scene = tmp_path / "gap.json"
    scene.write_text(json.dumps({
        "amenities": [{"id": "a", "x": 0, "y": 0, "A": 1}, {"id": "b", "x": 3, "y": 0, "A": 1}],
        "profiles": {"p": {"overrides": {"a": 1.7e308}}, "m": {"overrides": {"a": -1.7e308}}},
    }))
    out = tmp_path / "pgg.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would surface as an error
        assert run("pgg", "--scene", scene, "--grid", "0,0,1,2,2", "--person", "p",
                   "--majority", "m", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {scene}: the preference gap ")
    assert not out.exists()


# -- extreme finite inputs through every subcommand


def _signed(magnitudes):
    return st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


# attractiveness and overrides near the float range, coordinates around the
# 2**499 guard of the squared distance forms, E around 2**-400 and 2**400;
# ordinary values ride along, so that extremes meet plain neighbours
EXTREME_A = _signed(st.floats(1e307, 1.7976931348623157e308) | st.floats(0.5, 4.0))
EXTREME_XY = _signed(st.floats(2.0 ** 497, 2.0 ** 501) | st.floats(0.0, 4.0))
EXTREME_E = (st.floats(2.0 ** -402, 2.0 ** -398) | st.floats(2.0 ** 398, 2.0 ** 402)
             | st.floats(0.5, 2.0))

# every subcommand that reads a scene or a number; SCENE and OUT are placeholders
EXTREME_COMMANDS = [
    "field --scene=SCENE {kernel} --grid={grid} --profile=p --out=OUT.csv",
    "field --scene=SCENE {kernel} --grid={grid} --profile=p --parts --out=OUT.csv",
    "pgg --scene=SCENE {kernel} --grid={grid} --person=p --out=OUT.csv --report=OUT.json",
    "uniformity --scene=SCENE {kernel} --grid={grid} --profile=p --out=OUT.json",
    "isolines --scene=SCENE {kernel} --grid={grid} --profile=p --nlevels=3 --out=OUT.geojson",
    "sweep --scene=SCENE --kernel={family} --efficiencies={e1!r},{e2!r} --grid={grid} "
    "--profile=p --out=OUT.json",
    "breakpoint --scene=SCENE {kernel} --pair=a0,a1 --with-context --out=OUT.json",
    "huff --scene=SCENE --origin={ox!r},{oy!r} --out=OUT.json",
    "curve --kernel={family} --attractiveness={a!r} --efficiencies={e1!r},{e2!r} "
    "--dmax={dmax!r} --samples=5 --out=OUT.csv",
]


def _extreme_case(rows, overrides, person_e=None, family="rational", e=1.0,
                  grid=(0.0, 0.0, 1.0), e1=1.0, e2=2.0, origin=(7.0, 7.0), a=3.0, dmax=10.0):
    """The scene of amenities a0, a1, ... at ``rows`` (x, y, A), whose
    profile p (the person) overrides a0 and m (the majority) a1, and the
    flag values of :data:`EXTREME_COMMANDS`; the grid is 3 x 3 cells."""
    person = {"overrides": {"a0": overrides[0]}}
    if person_e is not None:
        person["E"] = person_e
    scene = {"amenities": [{"id": f"a{k}", "x": x, "y": y, "A": value}
                           for k, (x, y, value) in enumerate(rows)],
             "majority": "m", "profiles": {"p": person, "m": {"overrides": {"a1": overrides[1]}}}}
    values = {"family": family, "kernel": f"--kernel={family} --efficiency={e!r}",
              "grid": ",".join(map(repr, grid)) + ",3,3", "e1": e1, "e2": e2,
              "ox": origin[0], "oy": origin[1], "a": a, "dmax": dmax}
    return scene, values


@st.composite
def extreme_cases(draw):
    rows = [(draw(EXTREME_XY), draw(EXTREME_XY), draw(EXTREME_A))
            for _ in range(draw(st.integers(2, 3)))]
    # the grid and the Huff origin start on an amenity's coordinates or anywhere
    xs = st.sampled_from([row[0] for row in rows]) | EXTREME_XY
    ys = st.sampled_from([row[1] for row in rows]) | EXTREME_XY
    cell = draw(st.floats(0.5, 4.0) | st.floats(2.0 ** 496, 2.0 ** 499))
    return _extreme_case(
        rows, (draw(EXTREME_A), draw(EXTREME_A)), draw(st.none() | EXTREME_E),
        draw(st.sampled_from(["rational", "gaussian", "exponential"])), draw(EXTREME_E),
        (draw(xs), draw(ys), cell), draw(EXTREME_E), draw(EXTREME_E),
        (draw(xs), draw(ys)), draw(EXTREME_A), abs(draw(EXTREME_XY)))


def _file_cells_are_finite(path) -> bool:
    text = path.read_text()
    if path.suffix != ".csv":
        return "Infinity" not in text and "NaN" not in text
    rows = [line for line in text.splitlines() if not line.startswith(("#", "d,"))]
    return all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


@given(extreme_cases())
@settings(max_examples=25, deadline=None)
# a field spanning more than the float range (isolines), an origin on an
# amenity (huff), a pair with A < 0 (breakpoint)
@example(_extreme_case([(0.0, 0.0, 1.7e308), (2.0, 0.0, -1.7e308)], (1.7e308, 1.0),
                       origin=(0.0, 0.0)))
# a field that is 0 everywhere (uniformity, isolines), A < 0 in huff's choice set
@example(_extreme_case([(2.0 ** 500, 0.0, 1.0), (-(2.0 ** 500), 0.0, -2.0)], (1.0, 1.0),
                       family="gaussian"))
# a field constant at 2e307, whose amenities sit 2**-370 apart from its cells
@example(_extreme_case([(4.0917382598701773e+149, 4.0917382598701773e+149, 1e307)] * 2,
                       (1e307, 1e307), e=9.681479787123296e-122,
                       grid=(4.0917382598701773e+149, 4.0917382598701773e+149, 1.0)))
def test_extreme_finite_inputs_end_in_a_result_or_one_named_error(tmp_path_factory, case):
    scene_doc, values = case
    directory = tmp_path_factory.mktemp("extreme")
    scene = directory / "s.json"
    scene.write_text(json.dumps(scene_doc))
    for k, template in enumerate(EXTREME_COMMANDS):
        out = directory / f"out{k}"
        argv = [token.replace("SCENE", str(scene)).replace("OUT", str(out))
                for token in template.format(**values).split()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert caught == [], (argv, [str(w.message) for w in caught])
        if code == 0:
            assert stderr.getvalue() == "", argv
        else:
            assert code == 1 and stdout.getvalue() == "", argv
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            named = [str(scene)] + [token.split("=")[0] for token in argv[1:]]
            assert any(name in lines[0] for name in named), (argv, lines)
        for path in directory.glob(f"out{k}*"):
            assert _file_cells_are_finite(path), (argv, path.name)
