import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given
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


# -- float tables

special_floats = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.0, -3.0, 1e16, 0.1])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | special_floats),
       st.sampled_from([",", " "]))
def test_write_rows_matches_per_cell_repr(tmp_path_factory, table, sep):
    path = tmp_path_factory.mktemp("rows") / "t.txt"
    write_rows(str(path), ["head 1", "head 2"], table, sep=sep)
    want = ["head 1", "head 2"] + [sep.join(repr(float(v)) for v in row) for row in table]
    assert path.read_text() == "\n".join(want) + "\n"


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
