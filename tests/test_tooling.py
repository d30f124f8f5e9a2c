"""Checks that tie the package to files outside it, or pin how it works:
the benchmark's tracer wraps package names by module attribute, so every
name it wraps must exist, or traced benchmark rounds fail; every CLI
example in the README must still parse; only the CLI's ``main`` prints and
writes files; a valid scene loads without a per-value check and a valid
raster without the per-line parser; a call that writes no large table
imports no ``subprocess``; and the row-formatting helper interpreter needs
nothing but the standard library."""

import ast
import importlib
import importlib.util
import json
import math
import pathlib
import random
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from isobenefit import SceneFormatError, SceneValidationError, cli
from isobenefit import io as scene_io
from isobenefit import scene as scene_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _span, _measure in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_readme_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    examples = [line for block in blocks for line in block.splitlines()
                if line.startswith("isobenefit ")]
    assert len(examples) >= 10
    parser = cli._build_parser()
    for line in examples:
        argv = cli._join_minus_values(shlex.split(line)[1:])
        args = parser.parse_args(argv)
        assert args.func is not None, line
        # main parses with the named command's parser alone; it must agree
        assert cli._build_parser(argv[0]).parse_args(argv) == args, line


def test_cli_prints_only_in_main():
    # handlers return their lines; main prints them once the command has
    # succeeded, so a failing command prints no partial report
    tree = ast.parse((ROOT / "src" / "isobenefit" / "cli.py").read_text())
    printers = {getattr(node, "name", "<module>")
                for node in tree.body for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "print"}
    assert printers == {"main"}


def test_cli_writes_only_in_main():
    # handlers return their data products; main writes them, and the
    # report, in one call that writes all of them or none
    tree = ast.parse((ROOT / "src" / "isobenefit" / "cli.py").read_text())
    writers = {getattr(node, "name", "<module>")
               for node in tree.body for call in ast.walk(node)
               if isinstance(call, ast.Call)
               and getattr(call.func, "id", getattr(call.func, "attr", "")).startswith(
                   ("write_", "atomic_write"))}
    assert writers == {"main"}


def test_small_writes_do_not_import_subprocess(tmp_path):
    # only a table large enough for the helper interpreter needs subprocess;
    # importing it on every write cost point queries measurable time
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"amenities": [
        {"id": "a", "x": 0.0, "y": 0.0, "A": 3.0}, {"id": "b", "x": 4.0, "y": 0.0, "A": 1.0}]}))
    script = f"""import sys
sys.path.insert(0, {str(ROOT / "src")!r})
from isobenefit import cli
assert cli.main(["breakpoint", "--scene", {str(scene)!r}, "--pair", "a,b",
                 "--out", {str(tmp_path / "b.json")!r}]) == 0
assert cli.main(["curve", "--efficiencies", "0.5,1", "--out", {str(tmp_path / "c.csv")!r}]) == 0
print("subprocess" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "b.json").exists() and (tmp_path / "c.csv").exists()


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def load_counting_checks(tmp_path, monkeypatch, where=None, bad=None):
    """Load a 200-amenity scene with two profiles and 60 overrides, the
    value at ``where`` set to ``bad``; return the scene, or the refusal, and
    the calls made to the per-value checks and to validate_scene."""
    rng = random.Random(7)
    amenities = [{"id": f"a{k}", "x": rng.uniform(0, 10), "y": rng.uniform(0, 10),
                  "A": rng.uniform(0.5, 3.0)} for k in range(200)]
    profiles = {
        "walker": {"E": 0.5, "overrides": {f"a{k}": rng.uniform(0.5, 3.0) for k in range(40)}},
        "cyclist": {"overrides": {f"a{k}": rng.randint(1, 4) for k in range(100, 120)}},
    }
    if where == "amenity":
        amenities[150]["A"] = bad
    elif where == "override":
        profiles["cyclist"]["overrides"]["a110"] = bad
    elif where == "E":
        profiles["walker"]["E"] = bad
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"amenities": amenities, "profiles": profiles,
                                "majority": "walker"}, indent=1), encoding="utf-8")
    calls = {"_finite_number": 0, "_require_number": 0, "validate_scene": 0}
    counting(monkeypatch, scene_model, "_finite_number", calls)
    counting(monkeypatch, scene_io, "_require_number", calls)
    counting(monkeypatch, scene_io, "validate_scene", calls)
    try:
        return scene_io.load_scene(str(path)), calls
    except (SceneFormatError, SceneValidationError) as exc:
        return exc, calls


@pytest.mark.parametrize("bad, error", [
    (None, None), (True, SceneFormatError), (math.nan, SceneValidationError)])
def test_a_valid_scene_loads_without_per_value_checks(tmp_path, monkeypatch, bad, error):
    # a valid scene's values, its profiles' included, are checked in bulk,
    # once each: the parser checks types, validate_scene values; the
    # per-value checks run only to name the culprit of a refused scene.
    # load_scene calls validate_scene through the io module, where the
    # benchmark's tracer wraps it.
    where = None if error is None else "amenity"
    scene, calls = load_counting_checks(tmp_path, monkeypatch, where, bad)
    if error is None:
        assert len(scene.amenities) == 200
        assert sum(len(p.overrides) for p in scene.profiles.values()) == 60
        assert calls == {"_finite_number": 0, "_require_number": 0, "validate_scene": 1}
    else:
        assert type(scene) is error
        assert calls["_finite_number"] + calls["_require_number"] > 0


@pytest.mark.parametrize("where, bad, error", [
    ("override", True, SceneFormatError), ("override", math.inf, SceneValidationError),
    ("E", "1.5", SceneFormatError), ("E", 0, SceneValidationError)])
def test_a_refused_profile_value_is_named_by_a_per_value_check(tmp_path, monkeypatch,
                                                                where, bad, error):
    refusal, calls = load_counting_checks(tmp_path, monkeypatch, where, bad)
    assert type(refusal) is error
    assert calls["_finite_number" if error is SceneValidationError else "_require_number"] > 0


@pytest.mark.parametrize("name", ["r.csv", "r.asc"])
def test_a_valid_raster_loads_without_the_per_line_parser(tmp_path, monkeypatch, name):
    # numpy's text reader parses a valid raster in one call; the per-line
    # parser runs only to name the culprit of a refused file
    grid = scene_model.GridSpec(0.0, 0.0, 0.5, 384, 384)
    values = np.random.default_rng(11).normal(size=grid.size) * 1e3
    path = tmp_path / name
    scene_io.write_raster(scene_model.Raster(grid, values), str(path))
    calls = {"_parse_cells": 0}
    counting(monkeypatch, scene_io, "_parse_cells", calls)
    back = scene_io.read_raster(str(path))
    assert back.values.tobytes() == scene_model.Raster(grid, values).values.tobytes()
    assert calls["_parse_cells"] == 0
    text = path.read_text()
    first = text.index(repr(float(values[0])))  # a cell of the file's last line
    path.write_text(text[:first] + "x" + text[first + 1:])
    with pytest.raises(SceneFormatError, match="bad value"):
        scene_io.read_raster(str(path))
    assert calls["_parse_cells"] > 0


def test_the_row_helper_imports_only_sys():
    # io.write_rows runs _rows.py as a script under ``python -I -S``, where
    # neither the package nor numpy can be imported
    tree = ast.parse((ROOT / "src" / "isobenefit" / "_rows.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"sys"}


def test_large_cli_rasters_equal_the_one_process_bytes(tmp_path, monkeypatch):
    # 384 x 384 cells, the rasters of the benchmark's raster_export, reach
    # the helper interpreter at its real size floor: it formats the second
    # half of the rows where two CPUs are usable
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"amenities": [
        {"id": "a", "x": 1.5, "y": 2.0, "A": 3.0},
        {"id": "b", "x": -4.0, "y": -1.25, "A": -1.5}]}))
    grid = "-9.5,-9.5,0.05,384,384"
    in_process = []
    format_rows = scene_io._rows.format_rows

    def counted(rows, sep):
        for line in format_rows(rows, sep):
            in_process.append(line)
            yield line
    monkeypatch.setattr(scene_io._rows, "format_rows", counted)
    for out, flags in (("f.csv", ["--parts"]), ("x.asc", [])):
        assert cli.main(["field", "--scene", str(scene), "--grid", grid,
                         "--out", str(tmp_path / out)] + flags) == 0
    outputs = ["f.csv", "f_positive.csv", "f_negative.csv", "x.asc"]
    assert len(in_process) == len(outputs) * (192 if scene_io._usable_cpus() > 1 else 384)
    monkeypatch.setattr(scene_io, "_HELPER_MIN_VALUES", 384 * 384 + 1)
    for name in outputs:
        serial = tmp_path / f"serial-{name}"
        scene_io.write_raster(scene_io.read_raster(str(tmp_path / name)), str(serial))
        assert serial.read_bytes() == (tmp_path / name).read_bytes(), name
