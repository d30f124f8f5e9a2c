import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isobenefit import (
    Amenity,
    ContourLine,
    ContourSet,
    GridSpec,
    InvalidValueError,
    Raster,
    SceneFormatError,
    SceneValidationError,
    Violation,
    load_scene,
    read_contours_geojson,
    read_raster,
    read_raster_asc,
    read_raster_csv,
    write_contours_geojson,
    write_raster,
    write_raster_asc,
    write_raster_csv,
)
from isobenefit import _rows
from isobenefit import io as scene_io
from isobenefit._rows import format_rows
from isobenefit.io import contours_to_geojson, write_rows


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- scene loading


def test_load_json_scene(tmp_path):
    path = write(tmp_path / "scene.json", json.dumps({
        "amenities": [
            {"id": "park", "x": 0, "y": 0.5, "A": 3},
            {"id": "dump", "x": 2, "y": 2, "A": -1},
        ],
        "profiles": {
            "alice": {"E": 2, "overrides": {"park": 5}},
            "median": {},
        },
        "majority": "median",
    }))
    scene = load_scene(path)
    assert [am.id for am in scene.amenities] == ["park", "dump"]
    assert scene.amenities[0].y == 0.5
    assert scene.profiles["alice"].efficiency == 2.0
    assert scene.profiles["alice"].overrides == {"park": 5.0}
    assert scene.profiles["median"].efficiency is None
    assert scene.majority == "median"


def test_load_csv_scene(tmp_path):
    path = write(tmp_path / "scene.csv",
                 "id,x,y,A\npark,0,0,3\ndump,2.5,-1,-0.5\n")
    scene = load_scene(path)
    assert len(scene.amenities) == 2
    assert scene.amenities[1] == Amenity("dump", 2.5, -1.0, -0.5)
    assert scene.profiles == {}


def test_load_scene_runs_validation(tmp_path):
    path = write(tmp_path / "dup.json", json.dumps({
        "amenities": [
            {"id": "p", "x": 0, "y": 0, "A": 1},
            {"id": "p", "x": 1, "y": 1, "A": 2},
        ],
    }))
    with pytest.raises(SceneValidationError):
        load_scene(path)


def test_json_parse_error_carries_line(tmp_path):
    path = write(tmp_path / "broken.json", '{\n  "amenities": [\n  oops\n]}')
    with pytest.raises(SceneFormatError, match=r"broken\.json:3"):
        load_scene(path)


@pytest.mark.parametrize("doc, fragment", [
    ([1, 2, 3], "JSON object"),
    ({}, '"amenities" list'),
    ({"amenities": [{"x": 0, "y": 0, "A": 1}]}, "missing id"),
    ({"amenities": [{"id": "p", "x": "far", "y": 0, "A": 1}]}, "must be a number"),
    ({"amenities": [], "profiles": {"a": {"E": "fast"}}}, "must be a number"),
    ({"amenities": [], "majority": 7}, "majority"),
    ({"amenities": [{"id": "p", "x": 10 ** 400, "y": 0, "A": 1}]},
     r"bad\.json: amenity #0 x is out of the float range"),
])
def test_json_structure_errors(tmp_path, doc, fragment):
    path = write(tmp_path / "bad.json", json.dumps(doc))
    with pytest.raises(SceneFormatError, match=fragment):
        load_scene(path)


@pytest.mark.parametrize("name, doc, message", [
    ("bad.json", {"amenities": [{"id": "p", "x": 0, "y": 0, "A": 1},
                                {"id": "q", "x": 0, "y": "far", "A": 1}]},
     "amenity #1 y must be a number, got 'far'"),
    ("bad.json", {"amenities": [{"id": "p", "x": 0, "y": 0, "A": True}]},
     "amenity #0 A must be a number, got True"),
    ("bad.json", {"amenities": [], "profiles": {"a": {"E": "fast"}}},
     "profile 'a' E must be a number, got 'fast'"),
    ("bad.json", {"amenities": [], "profiles": {"a": {"overrides": {"p": 10 ** 400}}}},
     "profile 'a' override 'p' is out of the float range"),
    ("bad.geojson", {"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": []},
         "properties": {}}]},
     "feature #0 level must be a number, got None"),
    ("bad.json", {"amenities": [], "profiles": {"a": {"E": 1, "overrides": {"p": 2}},
                                                "b": {"overrides": {"p": 1.5, "q": None}}}},
     "profile 'b' override 'q' must be a number, got None"),
    ("bad.json", {"amenities": [], "profiles": {"a": {"E": 1}, "b": [], "c": {"E": "x"}}},
     "profile 'b' must be an object, got []"),
    ("bad.json", {"amenities": [], "profiles": {"a": {"overrides": [1]}}},
     "profile 'a' \"overrides\" must be an object"),
])
def test_refused_number_message_is_exact(tmp_path, name, doc, message):
    # labels are formatted only once a value is refused; their text is pinned
    path = write(tmp_path / name, json.dumps(doc))
    read = read_contours_geojson if name.endswith(".geojson") else load_scene
    with pytest.raises(SceneFormatError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_csv_header_and_row_errors(tmp_path):
    bad_header = write(tmp_path / "h.csv", "name,x,y,A\np,0,0,1\n")
    with pytest.raises(SceneFormatError, match="header"):
        load_scene(bad_header)
    bad_row = write(tmp_path / "r.csv", "id,x,y,A\np,0,0\n")
    with pytest.raises(SceneFormatError, match=r"r\.csv:2"):
        load_scene(bad_row)
    bad_number = write(tmp_path / "n.csv", "id,x,y,A\np,0,zero,1\n")
    with pytest.raises(SceneFormatError, match=r"n\.csv:2"):
        load_scene(bad_number)


# -- bulk scene parsing against a per-value reference


def reference_amenities(path):
    """A scene's amenities parsed and validated one value at a time, the way
    the loader names a culprit; the loader checks valid scenes in bulk and
    must agree with this on every file, value bits and refusals alike."""
    def fail(message, line=None):
        where = f"{path}:{line}" if line is not None else path
        raise SceneFormatError(f"{where}: {message}")

    def number(raw, what):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            fail(f"{what} must be a number, got {raw!r}")
        try:
            return float(raw)
        except OverflowError:
            fail(f"{what} is out of the float range")

    amenities = []
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as handle:
            rows = [(n, row) for n, row in enumerate(csv.reader(handle), start=1)
                    if row and any(cell.strip() for cell in row)]
        for n, row in rows[1:]:
            if len(row) != 4:
                fail(f"expected 4 fields, got {len(row)}", n)
            values = []
            for cell, what in zip(row[1:], "xyA"):
                try:
                    values.append(float(cell))
                except ValueError:
                    fail(f"{what} is not a number: {cell.strip()!r}", n)
            amenities.append(Amenity(row[0].strip(), *values))
    else:
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)["amenities"]
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                fail(f"amenity #{k} must be an object, got {entry!r}")
            missing = [key for key in ("id", "x", "y", "A") if key not in entry]
            if missing:
                fail(f"amenity #{k} is missing {', '.join(missing)}")
            if not isinstance(entry["id"], str):
                fail(f"amenity #{k} id must be a string, got {entry['id']!r}")
            amenities.append(Amenity(
                entry["id"], *(number(entry[key], f"amenity #{k} {key}") for key in "xyA")))

    violations, seen = [], set()
    for am in amenities:
        if not am.id:
            violations.append(Violation("EmptyId", am.id, "amenity id must be non-empty text"))
        elif am.id in seen:
            violations.append(Violation("DuplicateId", am.id, "amenity id appears more than once"))
        seen.add(am.id)
        for what in ("attractiveness", "x", "y"):
            value = getattr(am, what)
            if not math.isfinite(value):
                violations.append(Violation(
                    "NonFiniteValue", am.id, f"{what} is not a finite number: {value!r}"))
    if violations:
        raise SceneValidationError(violations)
    return amenities


def parse_outcome(read, path):
    """What reading ``path`` gives: the amenities with their values' exact
    bits, or the refusal with its message or violation list."""
    try:
        amenities = read(path)
    except SceneFormatError as exc:
        return "format", str(exc)
    except SceneValidationError as exc:
        return "invalid", exc.violations
    return [(am.id, *((type(v), v.hex()) for v in (am.x, am.y, am.attractiveness)))
            for am in amenities]


def assert_parsers_agree(path):
    want = parse_outcome(reference_amenities, path)
    assert parse_outcome(lambda p: load_scene(p).amenities, path) == want


EDGE_NUMBERS = [-0.0, 5e-324, -5e-324, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 63 + 1, 10 ** 300]
json_numbers = (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-10 ** 20, 10 ** 20) | st.sampled_from(EDGE_NUMBERS))
json_faults = st.one_of(
    st.tuples(st.just("value"), st.sampled_from("xyA"),
              st.sampled_from([True, False, "1.5", None, 10 ** 400, math.nan, math.inf,
                               -math.inf, [1.0], {}])),
    st.tuples(st.just("value"), st.just("id"), st.sampled_from([7, None, True, ["a0"], "", "a0"])),
    st.tuples(st.just("drop"), st.sampled_from(["id", "x", "y", "A"])),
    st.tuples(st.just("entry"), st.sampled_from([[1, 2], "a", 3, None])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(json_numbers, json_numbers, json_numbers), max_size=6),
       st.lists(st.tuples(st.integers(0, 5), json_faults), max_size=2))
def test_bulk_json_parse_matches_a_per_value_parser(tmp_path_factory, values, faults):
    # the NaN and Infinity tokens that json writes reach the validator
    entries = [{"id": f"a{k}", "x": x, "y": y, "A": a} for k, (x, y, a) in enumerate(values)]
    for k, (kind, *what) in faults:
        if not entries:
            break
        k %= len(entries)
        if not isinstance(entries[k], dict):  # replaced by an earlier fault
            continue
        if kind == "value":
            entries[k][what[0]] = what[1]
        elif kind == "drop":
            entries[k].pop(what[0], None)
        else:
            entries[k] = what[0]
    path = tmp_path_factory.mktemp("scene") / "s.json"
    assert_parsers_agree(write(path, json.dumps({"amenities": entries})))


csv_numbers = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-10 ** 20, 10 ** 20).map(str)
               | st.sampled_from([repr(v) if isinstance(v, float) else str(v) for v in EDGE_NUMBERS]
                                 + [" 2.5 ", "1e-400", "1_000", "+4"]))
csv_faults = st.one_of(
    st.tuples(st.just("value"), st.integers(1, 3),
              st.sampled_from(["far", "", "nan", "inf", "-Infinity", "1e400", "0x10", "1,5"])),
    st.tuples(st.just("value"), st.just(0), st.sampled_from(["", " ", " a0 ", "a0"])),
    st.tuples(st.just("drop"), st.integers(0, 3)),
    st.tuples(st.just("extra"), st.just("1.0")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(csv_numbers, csv_numbers, csv_numbers), max_size=6),
       st.lists(st.tuples(st.integers(0, 5), csv_faults), max_size=2))
def test_bulk_csv_parse_matches_a_per_value_parser(tmp_path_factory, values, faults):
    rows = [[f"a{k}", x, y, a] for k, (x, y, a) in enumerate(values)]
    for k, (kind, *what) in faults:
        if not rows:
            break
        k %= len(rows)
        if kind == "value":
            rows[k][what[0] % len(rows[k])] = what[1]
        elif kind == "drop":
            del rows[k][what[0] % len(rows[k])]
        else:
            rows[k].append(what[0])
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([["id", "x", "y", "A"], *rows])
    path = tmp_path_factory.mktemp("scene") / "s.csv"
    assert_parsers_agree(write(path, text.getvalue()))


# -- raster CSV


def sample_raster():
    grid = GridSpec(origin_x=-1.5, origin_y=2.0, cell_size=0.25, ncols=3, nrows=2)
    values = [0.1, -2.0, 1.0 / 3.0, math.pi, 0.0, 12345.6789]
    return Raster(grid, values)


def test_raster_csv_round_trip_is_exact(tmp_path):
    original = sample_raster()
    path = str(tmp_path / "r.csv")
    write_raster_csv(original, path)
    back = read_raster_csv(path)
    assert back.grid == original.grid
    assert np.array_equal(back.values, original.values)


def test_raster_csv_layout(tmp_path):
    path = str(tmp_path / "r.csv")
    write_raster_csv(sample_raster(), path)
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "# 3,2,-1.5,2.0,0.25"
    # data rows are written top row first
    assert [float(v) for v in lines[1].split(",")] == [math.pi, 0.0, 12345.6789]
    assert [float(v) for v in lines[2].split(",")] == [0.1, -2.0, 1.0 / 3.0]


def test_raster_csv_errors(tmp_path):
    missing_header = write(tmp_path / "a.csv", "1.0,2.0\n")
    with pytest.raises(SceneFormatError, match="header"):
        read_raster_csv(missing_header)
    wrong_rows = write(tmp_path / "b.csv", "# 2,2,0.0,0.0,1.0\n1.0,2.0\n")
    with pytest.raises(SceneFormatError, match="2 data rows"):
        read_raster_csv(wrong_rows)
    wrong_cols = write(tmp_path / "c.csv", "# 2,1,0.0,0.0,1.0\n1.0,2.0,3.0\n")
    with pytest.raises(SceneFormatError, match="2 values"):
        read_raster_csv(wrong_cols)


# -- ESRI ASCII


def test_asc_round_trip_is_exact(tmp_path):
    original = sample_raster()
    path = str(tmp_path / "r.asc")
    write_raster_asc(original, path)
    back = read_raster_asc(path)
    assert back.grid == original.grid
    assert np.array_equal(back.values, original.values)


def test_asc_header_uses_corner_registration(tmp_path):
    path = str(tmp_path / "r.asc")
    write_raster_asc(sample_raster(), path)
    text = (tmp_path / "r.asc").read_text().splitlines()
    assert text[0] == "NCOLS 3"
    assert text[1] == "NROWS 2"
    # the grid origin is a cell center, so the corner sits half a cell out
    assert text[2] == "XLLCORNER -1.625"
    assert text[3] == "YLLCORNER 1.875"
    assert text[4] == "CELLSIZE 0.25"
    assert text[5] == "NODATA_VALUE -9999.0"


def test_asc_rejects_nodata_cells(tmp_path):
    path = write(tmp_path / "holes.asc",
                 "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
                 "NODATA_VALUE -9999\n1.0 -9999\n")
    with pytest.raises(SceneFormatError, match="NODATA"):
        read_raster_asc(path)


def test_asc_missing_header_rejected(tmp_path):
    path = write(tmp_path / "short.asc", "NCOLS 2\nNROWS 1\n1.0 2.0\n")
    with pytest.raises(SceneFormatError, match="XLLCORNER"):
        read_raster_asc(path)


def test_read_raster_picks_format_by_extension(tmp_path):
    original = sample_raster()
    csv_path = str(tmp_path / "r.csv")
    asc_path = str(tmp_path / "r.asc")
    write_raster_csv(original, csv_path)
    write_raster_asc(original, asc_path)
    assert np.array_equal(read_raster(csv_path).values, read_raster(asc_path).values)


@pytest.mark.parametrize("name", ["r.csv", "r.asc", "r.ASC", "r.txt"])
def test_write_raster_round_trips_by_extension(tmp_path, name):
    original = sample_raster()
    path = str(tmp_path / name)
    write_raster(original, path)
    back = read_raster(path)
    assert back.grid == original.grid
    assert np.array_equal(back.values, original.values)
    is_asc = name.lower().endswith(".asc")
    assert (tmp_path / name).read_text().startswith("NCOLS" if is_asc else "#")


def test_write_raster_has_no_format_parameter():
    assert list(inspect.signature(write_raster).parameters) == ["raster", "path"]


def test_asc_without_data_lines_is_refused(tmp_path):
    # numpy's text reader warns on zero lines, and the test run makes an
    # isobenefit UserWarning an error: the reader must not call it then
    path = write(tmp_path / "empty.asc", "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\n"
                 "CELLSIZE 1\n \n")
    with pytest.raises(SceneFormatError) as caught:
        read_raster_asc(path)
    assert str(caught.value) == f"{path}: expected 2 values, got 0"


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "# 2,1,0.0,0.0,1.0\n", "expected 1 data rows, got 0"),
    ("blank.csv", "# 2,1,0.0,0.0,1.0\n\n \n", "expected 1 data rows, got 0"),
    ("empty.asc", "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n",
     "expected 2 values, got 0")])
def test_a_raster_header_without_data_lines_is_refused_without_a_warning(
        tmp_path, name, text, message):
    path = write(tmp_path / name, text)
    with warnings.catch_warnings(record=True) as caught_warnings:
        warnings.simplefilter("always")
        with pytest.raises(SceneFormatError) as caught:
            read_raster(path)
    assert str(caught.value) == f"{path}: {message}"
    assert caught_warnings == []


def traced_peak(call):
    """The result of ``call()`` and the peak of the memory that tracemalloc
    traced during it, above what was allocated when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["r.csv", "r.asc"])
@pytest.mark.parametrize("helper", [False, True])
def test_writing_a_raster_holds_a_chunk_of_text_and_reading_it_two_arrays(
        tmp_path, monkeypatch, name, helper):
    # at 256 x 256 the whole text of the file is about 2.4 arrays, and its
    # encoded bytes as many again
    if helper:  # the raw half goes to the helper in chunks too
        monkeypatch.setattr(scene_io, "_HELPER_MIN_VALUES", 0)
        monkeypatch.setattr(scene_io, "_usable_cpus", lambda: 2)
    grid = GridSpec(0.0, 0.0, 1.0, 256, 256)
    raster = Raster(grid, np.random.default_rng(2).normal(size=grid.size) * 1e3)
    path = str(tmp_path / name)
    _, written = traced_peak(lambda: write_raster(raster, path))
    assert written < 64 * _rows.CHUNK_VALUES  # a chunk's text, not the table's
    back, read = traced_peak(lambda: read_raster(path))
    assert np.array_equal(back.values, raster.values)
    # the parsed table and its row-reversed copy
    assert read < 2.5 * raster.values.nbytes


@pytest.mark.parametrize("repeated, value", [
    ("NCOLS", "3"), ("NROWS", "1"), ("CELLSIZE", "2"), ("cellsize", "1"),
    ("XLLCORNER", "0"), ("NODATA_VALUE", "-1")])
def test_asc_repeated_header_key_is_refused(tmp_path, repeated, value):
    head = ["NCOLS 2", "NROWS 1", "XLLCORNER 0", "YLLCORNER 0", "CELLSIZE 1",
            "NODATA_VALUE -9999"]
    at = next(k for k, line in enumerate(head) if line.startswith(repeated.upper())) + 1
    head.insert(at, f"{repeated} {value}")
    path = write(tmp_path / "twice.asc", "\n".join(head) + "\n1.0 2.0\n")
    message = f"{path}:{at + 1}: repeated {repeated.upper()} header"
    with pytest.raises(SceneFormatError) as caught:
        read_raster_asc(path)
    assert str(caught.value) == message


# -- bulk raster parsing against a per-line reference


def reference_raster(path):
    """A raster file parsed one line at a time with ``float()``, the way
    the reader names a culprit; the reader parses valid files in bulk and
    must agree with this on every file, value bits and refusals alike."""
    def fail(message, line=None):
        where = f"{path}:{line}" if line is not None else path
        raise SceneFormatError(f"{where}: {message}")

    def grid_of(*args):
        try:
            return GridSpec(*args)
        except ValueError as exc:
            fail(f"bad grid header: {exc}")

    def cells_of(cells, line):
        for cell in cells:
            try:
                if math.isfinite(float(cell)):
                    continue
            except ValueError:
                pass
            fail(f"bad value {cell.strip()!r}", line)
        return [float(cell) for cell in cells]

    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not path.lower().endswith(".asc"):
        if not lines or not lines[0].startswith("#"):
            fail('missing "# ncols,nrows,origin_x,origin_y,cell_size" header', 1)
        header = lines[0].lstrip("#").strip().split(",")
        if len(header) != 5:
            fail(f"header needs 5 fields, got {len(header)}", 1)
        try:
            ncols, nrows = int(header[0]), int(header[1])
            origin_x, origin_y, cell_size = (float(h) for h in header[2:])
        except ValueError as exc:
            fail(f"bad header value: {exc}", 1)
        data = [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]
        if len(data) != nrows:
            fail(f"expected {nrows} data rows, got {len(data)}")
        grid = grid_of(origin_x, origin_y, cell_size, ncols, nrows)
        rows = []
        for n, line in data:
            cells = line.split(",")
            if len(cells) != ncols:
                fail(f"expected {ncols} values, got {len(cells)}", n)
            rows.append(cells_of(cells, n))
        return Raster(grid, np.array(rows[::-1]))

    lines = [(n, line.strip()) for n, line in enumerate(lines, start=1) if line.strip()]
    header, k = {}, 0
    while k < len(lines):
        n, line = lines[k]
        parts = line.split()
        key = parts[0].upper()
        if len(parts) != 2 or key not in (
                "NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE", "NODATA_VALUE"):
            break
        if key in header:
            fail(f"repeated {key} header", n)
        try:
            header[key] = float(parts[1])
        except ValueError:
            fail(f"bad header value in {line!r}", n)
        if key in ("NCOLS", "NROWS") and not header[key].is_integer():
            fail(f"{key} must be a whole number, got {parts[1]!r}", n)
        k += 1
    for key in ("NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE"):
        if key not in header:
            fail(f"missing {key} header")
    ncols, nrows = int(header["NCOLS"]), int(header["NROWS"])
    cell_size = header["CELLSIZE"]
    grid = grid_of(header["XLLCORNER"] + cell_size / 2.0, header["YLLCORNER"] + cell_size / 2.0,
                   cell_size, ncols, nrows)
    flat = [value for n, line in lines[k:] for value in cells_of(line.split(), n)]
    if len(flat) != grid.size:
        fail(f"expected {grid.size} values, got {len(flat)}")
    values = np.array(flat).reshape(nrows, ncols)[::-1]
    if "NODATA_VALUE" in header and (values == header["NODATA_VALUE"]).any():
        fail("grid contains NODATA cells; benefit rasters must be complete")
    return Raster(grid, values)


def raster_outcome(read, path):
    """What reading ``path`` gives: the grid and the values' exact bits, or
    the refusal's message."""
    try:
        raster = read(path)
    except SceneFormatError as exc:
        return "format", str(exc)
    return raster.grid, raster.values.tobytes()


def assert_raster_readers_agree(path):
    assert raster_outcome(read_raster, path) == raster_outcome(reference_raster, path)


# cells that float() reads and numpy's text reader refuses, or the reverse,
# or that neither reads
CELL_TOKENS = ["1_0", "١", "１", "nan", "-NaN", "inf", "-Infinity", "1e999", "-1e999",
               "1e-400", "#1", '"1.5"', "'2'", "", "0x10", "+4", ".5", "5.", "1e5", "-0.0"]
# characters put around or inside a cell: NUL, form feed, non-breaking space,
# ASCII information separators, Unicode spaces, quotes, the comment sign, CR
CELL_CHARS = ["\x00", "\x0c", "\xa0", "\x1c", "\x1f", "\x85", "\u2028", "\u3000", "#",
              '"', "'", " ", "\t", "\v", "\r", ",", "_"]
raster_cells = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.integers(-10 ** 20, 10 ** 20).map(str)
                | st.sampled_from(["5e-324", "-5e-324", "1.7976931348623157e308", "1e-320",
                                   "0.1000000000000000055511151231257827", "9" * 400]))
raster_faults = st.one_of(
    st.tuples(st.just("token"), st.sampled_from(CELL_TOKENS)),
    st.tuples(st.sampled_from(["prefix", "suffix", "inside"]), st.sampled_from(CELL_CHARS)),
    st.tuples(st.sampled_from(["trailing separator", "drop cell", "extra cell", "wrap",
                               "blank line", "whitespace line", "crlf"]), st.just("")),
    st.tuples(st.just("declare"), st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["r.csv", "r.asc"]),
       st.integers(1, 4), st.integers(1, 4), st.data(),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), raster_faults), max_size=3))
def test_bulk_raster_parse_matches_a_per_line_parser(tmp_path_factory, name, ncols, nrows,
                                                     data, faults):
    sep = " " if name.endswith(".asc") else ","
    rows = [data.draw(st.lists(raster_cells, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    declared = [ncols, nrows]  # the header's size
    ending = "\n"
    extra = []  # (row, line) inserted below that row
    for i, j, (kind, what) in faults:
        row = rows[i % nrows]
        j %= len(row) if row else 1
        if kind == "token" and row:
            row[j] = what
        elif kind == "prefix" and row:
            row[j] = what + row[j]
        elif kind == "suffix" and row:
            row[j] = row[j] + what
        elif kind == "inside" and row:
            row[j] = row[j][:1] + what + row[j][1:]
        elif kind == "trailing separator":
            row.append("")
        elif kind == "drop cell" and row:
            del row[j]
        elif kind == "extra cell":
            row.append("1.0")
        elif kind == "wrap" and len(row) > 1:
            extra.append((i % nrows, sep.join(row[j or 1:])))
            del row[j or 1:]
        elif kind in ("blank line", "whitespace line"):
            extra.append((i % nrows, "" if kind == "blank line" else " \t\x0c"))
        elif kind == "crlf":
            ending = "\r\n"
        elif kind == "declare":
            declared = [n + change for n, change in zip(declared, what)]
    if sep == ",":
        lines = ["# {},{},-1.5,2.0,0.25".format(*declared)]
    else:
        lines = ["NCOLS {}".format(declared[0]), "NROWS {}".format(declared[1]),
                 "XLLCORNER -1.625", "YLLCORNER 1.875", "CELLSIZE 0.25", "NODATA_VALUE -9999.0"]
    for k, row in enumerate(rows):
        lines.append(sep.join(row))
        lines.extend(line for at, line in extra if at == k)
    path = tmp_path_factory.mktemp("raster") / name
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(ending.join(lines) + ending)
    assert_raster_readers_agree(str(path))


@pytest.mark.parametrize("name", ["r.csv", "r.asc"])
@pytest.mark.parametrize("cell", ["\x1c1.5", "1.5\x1f", "1.5\xa0", "\x0c1.5", "1_0", "１",
                                  "1.5\x00", "nan", "1e999", "#1", '"1.5"'])
def test_raster_edge_cells_read_as_by_float(tmp_path, name, cell):
    # numpy's reader strips \x1c-\x1f around a number, float() does not;
    # float() reads 1_0 and non-ASCII digits, numpy's reader does not
    if name.endswith(".asc"):
        text = ("NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
                f"1.0 2.0\n3.0 {cell}\n")
    else:
        text = f"# 2,2,0,0,1\n1.0,2.0\n3.0,{cell}\n"
    path = write(tmp_path / name, text)
    assert_raster_readers_agree(path)


# -- float tables

special_floats = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.0, -3.0, 1e16, 0.1])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | special_floats),
       st.sampled_from([",", " "]))
def test_write_rows_matches_per_cell_repr(tmp_path_factory, table, sep):
    want = ["head 1", "head 2"] + [sep.join(repr(float(v)) for v in row) for row in table]
    directory = tmp_path_factory.mktemp("rows")
    in_process = []

    def counted(rows, sep):
        for line in format_rows(rows, sep):
            in_process.append(line)
            yield line
    # with the size floor at 0, every table of two or more rows has its
    # second half formatted by the helper interpreter
    for floor in (scene_io._HELPER_MIN_VALUES, 0):
        path = directory / f"floor-{floor}.txt"
        in_process.clear()
        with mock.patch.object(scene_io, "_HELPER_MIN_VALUES", floor), \
                mock.patch.object(scene_io, "_usable_cpus", lambda: 2), \
                mock.patch.object(_rows, "format_rows", counted):
            write_rows(str(path), ["head 1", "head 2"], table, sep=sep)
        assert path.read_text() == "\n".join(want) + "\n"
        helped = floor == 0 and len(table) >= 2
        assert len(in_process) == (len(table) // 2 if helped else len(table))


TOO_FEW_LINES = """import os, sys
raw, ncols = sys.argv[1], int(sys.argv[2])
sys.stdout.write("0.0\\n" * (os.path.getsize(raw) // 8 // ncols - 1))
"""


@pytest.mark.skipif(not hasattr(os, "WNOHANG"), reason="checks for children with waitpid")
@pytest.mark.parametrize("fault", ["no interpreter", "exit 1", "a line too few", "interrupt"])
def test_a_failing_helper_leaves_the_same_bytes_and_nothing_behind(tmp_path, monkeypatch, fault):
    table = np.random.default_rng(3).normal(size=(7, 5)) * 1e10
    serial = tmp_path / "serial.txt"
    write_rows(str(serial), ["h"], table)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(scene_io, "_HELPER_MIN_VALUES", 0)
    monkeypatch.setattr(scene_io, "_usable_cpus", lambda: 2)
    script = tmp_path / "helper.py"
    script.write_text({"no interpreter": "", "exit 1": "raise SystemExit(1)",
                       "a line too few": TOO_FEW_LINES,
                       "interrupt": "import time; time.sleep(60)"}[fault])
    monkeypatch.setattr(_rows, "__file__", str(script))
    if fault == "no interpreter":
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    out = tmp_path / "out.txt"
    if fault == "interrupt":
        def interrupted(rows, sep):
            raise KeyboardInterrupt
            yield
        monkeypatch.setattr(_rows, "format_rows", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            write_rows(str(out), ["h"], table)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert not out.exists()
    else:
        write_rows(str(out), ["h"], table)
        assert out.read_bytes() == serial.read_bytes()
    assert os.listdir(temp) == []
    assert len(started) == (fault != "no interpreter")
    assert all(helper.returncode is not None for helper in started)  # reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a helper that formats every table it is given, but for FAULT
BATCH_HELPER = """import sys
FAULT = {fault!r}
argv = sys.argv[1:]
for k in range(0, len(argv), 3):
    raw, ncols, sep = argv[k], int(argv[k + 1]), argv[k + 2]
    with open(raw, "rb") as handle:
        values = memoryview(handle.read()).cast("d")
    lines = [sep.join(map(repr, values[i:i + ncols].tolist()))
             for i in range(0, len(values), ncols)]
    if FAULT == "a line too few in the second" and k == 3:
        lines.pop()
    sys.stdout.write("".join(line + "\\n" for line in lines))
    sys.stdout.flush()
    if FAULT == "exit after the first" and k == 0:
        raise SystemExit(0)
if FAULT == "a line beyond the last":
    sys.stdout.write("0.0\\n")
raise SystemExit(FAULT == "exit 1 after the last")
"""


@pytest.mark.skipif(not hasattr(os, "WNOHANG"), reason="checks for children with waitpid")
@pytest.mark.parametrize("fault", [
    None, "exit after the first", "a line too few in the second",
    "interrupt in the second", "a line beyond the last", "exit 1 after the last"])
def test_one_helper_formats_a_batch_or_the_parent_does(tmp_path, monkeypatch, fault):
    rng = np.random.default_rng(5)
    tables = [(rng.normal(size=shape) * 1e10, sep)
              for shape, sep in (((7, 5), ","), ((6, 3), " "), ((9, 4), ","))]
    serial = []
    for k, (table, sep) in enumerate(tables):
        serial.append(tmp_path / f"serial-{k}.txt")
        write_rows(str(serial[-1]), ["h"], table, sep)
    temp, out = tmp_path / "temp", tmp_path / "out"
    temp.mkdir()
    out.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(scene_io, "_HELPER_MIN_VALUES", 0)
    monkeypatch.setattr(scene_io, "_usable_cpus", lambda: 2)
    script = tmp_path / "helper.py"
    script.write_text(BATCH_HELPER.format(fault=fault))
    monkeypatch.setattr(_rows, "__file__", str(script))
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    in_process = []

    def counted(rows, sep):
        if fault == "interrupt in the second" and len(in_process) >= len(tables[0][0]) // 2:
            raise KeyboardInterrupt
        for line in format_rows(rows, sep):
            in_process.append(line)
            yield line
    monkeypatch.setattr(_rows, "format_rows", counted)
    products = [scene_io.rows_product(str(out / f"{k}.txt"), ["h"], table, sep)
                for k, (table, sep) in enumerate(tables)]
    if fault == "interrupt in the second":
        with pytest.raises(KeyboardInterrupt):
            scene_io.write_all(products)
        assert os.listdir(out) == []
    else:
        scene_io.write_all(products)
        for k in range(len(tables)):
            assert (out / f"{k}.txt").read_bytes() == serial[k].read_bytes()
        assert sorted(os.listdir(out)) == ["0.txt", "1.txt", "2.txt"]  # no staged file left
        halves = sum(len(table) // 2 for table, _ in tables)
        # the parent formats the first halves, and every row again on a fault
        assert len(in_process) == halves if fault is None else len(in_process) > halves
    assert os.listdir(temp) == []
    assert len(started) == 1 and len(started[0].args) == 4 + 3 * len(tables)
    assert all(helper.returncode is not None for helper in started)  # reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- contour GeoJSON


def sample_contours():
    return ContourSet(
        levels=(0.5, 2.0),
        lines=(
            ContourLine(level=0.5, points=((0.0, 0.5), (0.5, 0.0)), closed=False),
            ContourLine(level=0.5,
                        points=((1.0, 2.0), (2.0, 3.0), (1.0, 4.0), (0.0, 3.0)),
                        closed=True),
        ),
    )


def test_geojson_round_trip(tmp_path):
    path = str(tmp_path / "c.geojson")
    original = sample_contours()
    write_contours_geojson(original, path)
    assert read_contours_geojson(path) == original


def test_geojson_structure(tmp_path):
    path = tmp_path / "c.geojson"
    write_contours_geojson(sample_contours(), str(path))
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert "crs_note" in doc
    assert doc["levels"] == [0.5, 2.0]
    open_line, ring = doc["features"]
    assert open_line["properties"] == {"level": 0.5, "closed": False}
    assert len(open_line["geometry"]["coordinates"]) == 2
    # closed rings repeat their first coordinate in the file only
    assert ring["properties"]["closed"] is True
    coords = ring["geometry"]["coordinates"]
    assert len(coords) == 5
    assert coords[0] == coords[-1]


def test_geojson_preserves_lineless_levels(tmp_path):
    path = str(tmp_path / "empty.geojson")
    original = ContourSet(levels=(7.0,), lines=())
    write_contours_geojson(original, path)
    assert read_contours_geojson(path) == original


geojson_floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       1e300, -1e300, 0.1, 1e16])
)
geojson_numbers = geojson_floats | geojson_floats.map(np.float64)
contour_lines = st.builds(
    ContourLine,
    level=geojson_numbers,
    points=st.lists(st.tuples(geojson_numbers, geojson_numbers), max_size=5).map(tuple),
    closed=st.booleans(),
)
contour_sets = st.builds(
    ContourSet,
    levels=st.lists(geojson_numbers, max_size=4).map(tuple),
    lines=st.lists(contour_lines, max_size=4).map(tuple),
)


def json_reference(contours):
    return json.dumps(contours_to_geojson(contours), indent=2, allow_nan=False) + "\n"


@given(contour_sets)
def test_geojson_bytes_equal_the_json_module(tmp_path_factory, contours):
    # empty levels, no lines, lineless levels, open and closed lines, and
    # -0.0, subnormal, huge and numpy float values all come up
    path = tmp_path_factory.mktemp("geojson") / "c.geojson"
    write_contours_geojson(contours, str(path))
    assert path.read_bytes() == json_reference(contours).encode()


@pytest.mark.parametrize("contours", [
    ContourSet(levels=(), lines=()),
    ContourSet(levels=(1.0, 2.0), lines=()),
    ContourSet(levels=(np.float64(-0.0),), lines=(
        ContourLine(level=np.float64(-0.0), points=(), closed=True),
        ContourLine(level=-0.0, points=((5e-324, 1e300), (0.1, -0.0)), closed=True),
        ContourLine(level=3, points=((1, 2.5), (np.float64(0.5), 7)), closed=False),
    )),
])
def test_geojson_bytes_of_edge_cases(tmp_path, contours):
    path = tmp_path / "c.geojson"
    write_contours_geojson(contours, str(path))
    assert path.read_bytes() == json_reference(contours).encode()


def test_geojson_refuses_a_point_that_is_not_a_pair(tmp_path):
    contours = ContourSet(levels=(1.0,), lines=(
        ContourLine(level=1.0, points=((0.0, 1.0), (2.0, 3.0, 4.0)), closed=False),))
    with pytest.raises(ValueError):
        json_reference(contours)
    with pytest.raises(ValueError):
        write_contours_geojson(contours, str(tmp_path / "c.geojson"))
    assert list(tmp_path.iterdir()) == []


def with_bad_number(contours, where, bad):
    """``contours`` with ``bad`` in one of its levels, line levels or
    coordinates, chosen by ``where``."""
    slots = [("levels", k) for k in range(len(contours.levels))]
    for n, line in enumerate(contours.lines):
        slots.append(("line level", n))
        slots.extend(("point", n, k, axis)
                     for k in range(len(line.points)) for axis in (0, 1))
    if not slots:
        return ContourSet(levels=(bad,), lines=())
    slot = slots[where % len(slots)]
    if slot[0] == "levels":
        levels = list(contours.levels)
        levels[slot[1]] = bad
        return ContourSet(levels=tuple(levels), lines=contours.lines)
    lines = list(contours.lines)
    line = lines[slot[1]]
    if slot[0] == "line level":
        lines[slot[1]] = ContourLine(level=bad, points=line.points, closed=line.closed)
    else:
        points = [list(p) for p in line.points]
        points[slot[2]][slot[3]] = bad
        lines[slot[1]] = ContourLine(level=line.level,
                                     points=tuple(map(tuple, points)), closed=line.closed)
    return ContourSet(levels=contours.levels, lines=tuple(lines))


@given(contour_sets, st.integers(0, 1000),
       st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.inf)]))
def test_geojson_refuses_non_finite_numbers(tmp_path_factory, contours, where, bad):
    directory = tmp_path_factory.mktemp("refused")
    path = str(directory / "c.geojson")
    contours = with_bad_number(contours, where, bad)
    with pytest.raises(ValueError):  # the reference refuses it too
        json_reference(contours)
    with pytest.raises(InvalidValueError) as excinfo:
        write_contours_geojson(contours, path)
    assert str(excinfo.value) == (
        f"{path}: JSON cannot hold a non-finite number (did a sum overflow?)")
    assert list(directory.iterdir()) == []


def test_geojson_short_coordinate_names_the_feature(tmp_path):
    path = write(tmp_path / "short.geojson", json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[0.0, 1.0], [2.0]]},
            "properties": {"level": 1.0, "closed": False},
        }],
    }))
    with pytest.raises(SceneFormatError, match=r"short\.geojson: feature #0"):
        read_contours_geojson(path)


LINE_FEATURE = {"type": "Feature",
                "geometry": {"type": "LineString", "coordinates": [[0.0, 1.0]]},
                "properties": {"level": 1.0}}


@pytest.mark.parametrize("doc, message", [
    ({"features": [LINE_FEATURE, 1]}, "feature #1: expected a GeoJSON Feature object"),
    ({"features": [{"geometry": 3}]}, "feature #0: expected a LineString"),
    ({"features": [{**LINE_FEATURE, "properties": 7}]},
     "feature #0: properties must be an object"),
    # "false" read as a closed ring, which dropped a repeated last point
    ({"features": [{**LINE_FEATURE, "properties": {"level": 1.0, "closed": "false"}}]},
     "feature #0: closed must be true or false, got 'false'"),
    ({"features": [{**LINE_FEATURE, "properties": {"level": 1.0, "closed": 1}}]},
     "feature #0: closed must be true or false, got 1"),
    ({"features": 5}, "features must be a list"),
    ({"features": [], "levels": 3}, "levels must be a list of numbers"),
    ({"features": [], "levels": ["a"]}, "levels #0 must be a number, got 'a'"),
])
def test_geojson_of_the_wrong_shape_is_a_named_error(tmp_path, doc, message):
    path = write(tmp_path / "c.geojson", json.dumps({"type": "FeatureCollection", **doc}))
    with pytest.raises(SceneFormatError) as excinfo:
        read_contours_geojson(path)
    assert str(excinfo.value) == f"{path}: {message}"


def line_feature(coordinates, level=1.0):
    return {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coordinates},
            "properties": {"level": level}}


@pytest.mark.parametrize("doc, message", [
    # a string unpacked into a point: "12" used to read as (1.0, 2.0)
    ({"features": [line_feature(["12"])]}, "feature #0: coordinates must be [x, y] pairs"),
    ({"features": [line_feature([[0.0, 1.0]]), line_feature([[math.inf, 3.0]])]},
     "feature #1: coordinates must be [x, y] pairs"),
    ({"features": [line_feature([[0.0, math.nan]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([[0.0, -math.inf]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([[True, 1.0]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([["1", 1.0]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([[0.0, 10 ** 400]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([[0.0, 1.0, 2.0]])]}, "feature #0: coordinates must be"),
    ({"features": [line_feature({"x": 0.0})]}, "feature #0: coordinates must be"),
    ({"features": [line_feature([[0.0, 1.0]], level=math.nan)]},
     "feature #0 level must be finite, got nan"),
    ({"features": [line_feature([[0.0, 1.0]], level=math.inf)]},
     "feature #0 level must be finite, got inf"),
    ({"features": [line_feature([[0.0, 1.0]], level=-math.inf)]},
     "feature #0 level must be finite, got -inf"),
    ({"features": [], "levels": [1.0, math.nan]}, "levels #1 must be finite, got nan"),
    ({"features": [], "levels": [math.inf]}, "levels #0 must be finite, got inf"),
    ({"features": [], "levels": [True]}, "levels #0 must be a number, got True"),
    ({"features": [], "levels": [10 ** 400]}, "levels #0 is out of the float range"),
])
def test_geojson_number_that_is_not_finite_names_the_feature(tmp_path, doc, message):
    # json writes NaN and Infinity tokens; the reader must refuse every one
    path = write(tmp_path / "c.geojson", json.dumps({"type": "FeatureCollection", **doc}))
    with pytest.raises(SceneFormatError) as excinfo:
        read_contours_geojson(path)
    assert str(excinfo.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("name, read", [
    ("s.json", load_scene), ("s.csv", load_scene), ("r.csv", read_raster),
    ("r.asc", read_raster), ("c.geojson", read_contours_geojson),
])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, name, read):
    path = tmp_path / name
    path.write_bytes(b"# 2,1,0.0,0.0,1.0\n1.0,\xb1.0\n")
    with pytest.raises(SceneFormatError) as excinfo:
        read(str(path))
    assert str(excinfo.value) == f"{path}: not UTF-8 text"


def test_atomic_write_replaces_existing_content(tmp_path):
    path = tmp_path / "r.csv"
    write(path, "stale")
    write_raster_csv(sample_raster(), str(path))
    assert (tmp_path / "r.csv").read_text().startswith("# 3,2,")
    leftovers = [p for p in tmp_path.iterdir() if p.name != "r.csv"]
    assert leftovers == []
