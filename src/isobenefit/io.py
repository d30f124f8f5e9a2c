"""File formats: scene ingestion, raster serialization, contour GeoJSON.

All writers are atomic (write to a temp file, then rename into place), so a
failing run never leaves a partial output file behind. Floats are written
in shortest round-trip form, which makes every format lossless for double
precision and byte-for-byte deterministic. Float tables (raster rows,
decay curves) go through :func:`write_rows`, JSON reports through
:func:`write_json`, which refuses non-finite numbers.

Contour GeoJSON bypasses :func:`write_json`: with ``indent`` set, CPython's
``json`` runs its pure-Python encoder, which took longer than extracting the
contours. :func:`write_contours_geojson` builds the same text directly, and
its bytes equal those of ``write_json`` on :func:`contours_to_geojson`'s
document (a test pins this). They stay equal because it lays out lists and
objects as ``json.dumps(indent=2)`` does, writes a float as ``json`` does
(``float.__repr__``, so a numpy float64 too), hands any other value to
``json.dumps``, and refuses a non-finite number with the same error.

Formats:

* Scene JSON: ``{"amenities": [{"id", "x", "y", "A"}], "profiles":
  {name: {"E": num?, "overrides": {id: num}}}?, "majority": str?}``.
* Scene CSV: header ``id,x,y,A`` then one amenity per row (no profiles).
* Raster CSV: first line ``# ncols,nrows,origin_x,origin_y,cell_size``,
  then nrows comma-separated data lines, top row first.
* ESRI ASCII grid: any raster path ending in ``.asc`` (any case), on write
  as on read; every other raster path is raster CSV. The usual six-line
  header; since grid origins are cell centers, XLLCORNER sits half a cell
  below/left of the origin. The NODATA value is declared but never emitted,
  and rejected on read.
* Contours: GeoJSON FeatureCollection of LineStrings with ``level`` and
  ``closed`` properties; closed rings repeat their first coordinate in the
  GeoJSON only. Coordinates are scene-local planar x,y (see ``crs_note``).
  On read, every coordinate and level must be a finite number, as on write.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import tempfile
from typing import Iterable

import numpy as np

from .errors import InvalidValueError, SceneFormatError
from .isolines import ContourLine, ContourSet
from .scene import Amenity, GridSpec, Profile, Raster, Scene, _finite_number, validate_scene

__all__ = [
    "load_scene",
    "write_raster",
    "read_raster",
    "write_raster_csv",
    "read_raster_csv",
    "write_raster_asc",
    "read_raster_asc",
    "contours_to_geojson",
    "write_contours_geojson",
    "read_contours_geojson",
    "write_rows",
    "write_json",
    "atomic_write_text",
]

ASC_NODATA = -9999.0

CRS_NOTE = "coordinates are scene-local planar x,y; no CRS is assumed"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the same directory,
    then rename over the target. Unix newlines regardless of platform."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the target, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_rows(path: str, header_lines: Iterable[str], table: np.ndarray,
               sep: str = ",") -> None:
    """Write the header lines, then one line per row of the 2-D float
    ``table``: its values in shortest round-trip form, joined by ``sep``."""
    lines = list(header_lines)
    # one row at a time, so that only one row's Python floats are alive
    lines.extend(sep.join(map(repr, row.tolist())) for row in table)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _non_finite_error(path: str) -> InvalidValueError:
    return InvalidValueError(
        f"{path}: JSON cannot hold a non-finite number (did a sum overflow?)")


def write_json(path: str, doc: object) -> None:
    """Write ``doc`` as indented JSON; a non-finite number is an error,
    since JSON has no spelling for it."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise _non_finite_error(path) from None
    atomic_write_text(path, text + "\n")


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


# ---------------------------------------------------------------- scenes


def _format_error(path: str, message: str, line: int | None = None) -> SceneFormatError:
    where = f"{path}:{line}" if line is not None else path
    return SceneFormatError(f"{where}: {message}")


@contextlib.contextmanager
def _text_file(path: str, newline: str | None = None):
    """``path`` opened for reading as UTF-8 text. Bytes that are not UTF-8,
    met while the block reads, are a format error naming the file."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise _format_error(path, "not UTF-8 text") from None


def _require_number(raw: object, path: str, label: str, *label_args: object) -> float:
    """``raw`` as a float. A refused value is a format error naming it by
    ``label.format(*label_args)``, formatted only then: a scene's valid
    values are most of what it holds."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        what = label.format(*label_args)
        raise _format_error(path, f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # an integer too large for a float
        what = label.format(*label_args)
        raise _format_error(path, f"{what} is out of the float range") from None


def _require_finite(raw: object, path: str, label: str, *label_args: object) -> float:
    """Like :func:`_require_number`, and a NaN or infinity is refused too."""
    value = _require_number(raw, path, label, *label_args)
    if not math.isfinite(value):
        raise _format_error(path, f"{label.format(*label_args)} must be finite, got {value!r}")
    return value


def _scene_from_json(path: str) -> Scene:
    with _text_file(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _format_error(path, f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(doc, dict):
        raise _format_error(path, "scene document must be a JSON object")
    raw_amenities = doc.get("amenities")
    if not isinstance(raw_amenities, list):
        raise _format_error(path, 'scene needs an "amenities" list')

    amenities = []
    for k, entry in enumerate(raw_amenities):
        if not isinstance(entry, dict):
            raise _format_error(path, f"amenity #{k} must be an object, got {entry!r}")
        missing = [key for key in ("id", "x", "y", "A") if key not in entry]
        if missing:
            raise _format_error(path, f"amenity #{k} is missing {', '.join(missing)}")
        if not isinstance(entry["id"], str):
            raise _format_error(path, f"amenity #{k} id must be a string, got {entry['id']!r}")
        amenities.append(Amenity(
            id=entry["id"],
            x=_require_number(entry["x"], path, "amenity #{} x", k),
            y=_require_number(entry["y"], path, "amenity #{} y", k),
            attractiveness=_require_number(entry["A"], path, "amenity #{} A", k),
        ))

    profiles: dict[str, Profile] = {}
    raw_profiles = doc.get("profiles", {})
    if not isinstance(raw_profiles, dict):
        raise _format_error(path, '"profiles" must be an object mapping name to profile')
    for name, body in raw_profiles.items():
        if not isinstance(body, dict):
            raise _format_error(path, f"profile {name!r} must be an object, got {body!r}")
        efficiency = None
        if body.get("E") is not None:
            efficiency = _require_number(body["E"], path, "profile {!r} E", name)
        raw_overrides = body.get("overrides", {})
        if not isinstance(raw_overrides, dict):
            raise _format_error(path, f'profile {name!r} "overrides" must be an object')
        overrides = {
            target: _require_number(value, path, "profile {!r} override {!r}", name, target)
            for target, value in raw_overrides.items()
        }
        profiles[name] = Profile(name=name, efficiency=efficiency, overrides=overrides)

    majority = doc.get("majority")
    if majority is not None and not isinstance(majority, str):
        raise _format_error(path, f'"majority" must be a profile name, got {majority!r}')

    return Scene(amenities=tuple(amenities), profiles=profiles, majority=majority)


def _scene_from_csv(path: str) -> Scene:
    with _text_file(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [(n, row) for n, row in enumerate(rows, start=1)
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise _format_error(path, "empty scene file")
    header_line, header = rows[0]
    if [cell.strip() for cell in header] != ["id", "x", "y", "A"]:
        raise _format_error(path, 'header must be exactly "id,x,y,A"', header_line)
    amenities = []
    for n, row in rows[1:]:
        if len(row) != 4:
            raise _format_error(path, f"expected 4 fields, got {len(row)}", n)
        ident = row[0].strip()
        numbers = []
        for cell, what in zip(row[1:], ("x", "y", "A")):
            try:
                numbers.append(float(cell))
            except ValueError:
                raise _format_error(path, f"{what} is not a number: {cell.strip()!r}", n) from None
        amenities.append(Amenity(ident, numbers[0], numbers[1], numbers[2]))
    return Scene(amenities=tuple(amenities))


def load_scene(path: str) -> Scene:
    """Read a scene from JSON (by default) or amenity CSV (``.csv``), then
    run full validation.

    Malformed files raise :class:`SceneFormatError` with file and, where
    known, line context; well-formed files that break scene invariants raise
    :class:`~isobenefit.errors.SceneValidationError` listing every problem.
    """
    if path.lower().endswith(".csv"):
        scene = _scene_from_csv(path)
    else:
        scene = _scene_from_json(path)
    return validate_scene(scene)


# ---------------------------------------------------------------- rasters


def write_raster_csv(raster: Raster, path: str) -> None:
    grid = raster.grid
    header = "# {},{},{},{},{}".format(
        grid.ncols, grid.nrows, _fmt(grid.origin_x), _fmt(grid.origin_y),
        _fmt(grid.cell_size))
    write_rows(path, [header], raster.as_grid()[::-1])  # top row first


def _grid_from_header(path: str, *args) -> GridSpec:
    try:
        return GridSpec(*args)
    except ValueError as exc:
        raise _format_error(path, f"bad grid header: {exc}") from None


def _parse_cells(cells: list[str], path: str, line: int) -> np.ndarray:
    """Float values of one line's cells; a cell that is not a finite number
    is a format error naming the line. An array, so that the Python floats
    of only one line are alive at a time."""
    try:
        values = list(map(float, cells))
        if all(map(math.isfinite, values)):
            return np.array(values)
    except ValueError:
        pass
    for cell in cells:  # name the first culprit
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        raise _format_error(path, f"bad value {cell.strip()!r}", line)


def read_raster_csv(path: str) -> Raster:
    with _text_file(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or not lines[0].startswith("#"):
        raise _format_error(path, 'missing "# ncols,nrows,origin_x,origin_y,cell_size" header', 1)
    header = lines[0].lstrip("#").strip().split(",")
    if len(header) != 5:
        raise _format_error(path, f"header needs 5 fields, got {len(header)}", 1)
    try:
        ncols, nrows = int(header[0]), int(header[1])
        origin_x, origin_y, cell_size = (float(h) for h in header[2:])
    except ValueError as exc:
        raise _format_error(path, f"bad header value: {exc}", 1) from None
    data = [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(data) != nrows:
        raise _format_error(path, f"expected {nrows} data rows, got {len(data)}")
    grid = _grid_from_header(path, origin_x, origin_y, cell_size, ncols, nrows)
    rows = []
    for n, line in data:
        cells = line.split(",")
        if len(cells) != ncols:
            raise _format_error(path, f"expected {ncols} values, got {len(cells)}", n)
        rows.append(_parse_cells(cells, path, n))
    return Raster(grid, np.array(rows[::-1]))  # the file lists the top row first


def write_raster_asc(raster: Raster, path: str) -> None:
    grid = raster.grid
    half = grid.cell_size / 2.0
    header = [
        f"NCOLS {grid.ncols}",
        f"NROWS {grid.nrows}",
        f"XLLCORNER {_fmt(grid.origin_x - half)}",
        f"YLLCORNER {_fmt(grid.origin_y - half)}",
        f"CELLSIZE {_fmt(grid.cell_size)}",
        f"NODATA_VALUE {_fmt(ASC_NODATA)}",
    ]
    write_rows(path, header, raster.as_grid()[::-1], sep=" ")


def read_raster_asc(path: str) -> Raster:
    with _text_file(path) as handle:
        lines = [(n, line.strip()) for n, line in enumerate(handle, start=1) if line.strip()]
    header: dict[str, float] = {}
    k = 0
    while k < len(lines):
        n, line = lines[k]
        parts = line.split()
        key = parts[0].upper()
        if len(parts) != 2 or key not in (
                "NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE", "NODATA_VALUE"):
            break
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise _format_error(path, f"bad header value in {line!r}", n) from None
        if key in ("NCOLS", "NROWS") and not header[key].is_integer():
            raise _format_error(path, f"{key} must be a whole number, got {parts[1]!r}", n)
        k += 1
    for key in ("NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE"):
        if key not in header:
            raise _format_error(path, f"missing {key} header")
    ncols, nrows = int(header["NCOLS"]), int(header["NROWS"])
    cell_size = header["CELLSIZE"]
    nodata = header.get("NODATA_VALUE")
    grid = _grid_from_header(path, header["XLLCORNER"] + cell_size / 2.0,
                             header["YLLCORNER"] + cell_size / 2.0, cell_size, ncols, nrows)
    chunks = [_parse_cells(line.split(), path, n) for n, line in lines[k:]]
    flat = np.concatenate(chunks) if chunks else np.empty(0)
    if flat.size != grid.size:
        raise _format_error(path, f"expected {grid.size} values, got {flat.size}")
    values = flat.reshape(nrows, ncols)[::-1]  # the file lists the top row first
    if nodata is not None and (values == nodata).any():
        raise _format_error(
            path, "grid contains NODATA cells; benefit rasters must be complete")
    return Raster(grid, values)


def _is_asc(path: str) -> bool:
    return path.lower().endswith(".asc")


def write_raster(raster: Raster, path: str) -> None:
    """Write a raster, picking the format from the extension (.asc vs CSV)."""
    (write_raster_asc if _is_asc(path) else write_raster_csv)(raster, path)


def read_raster(path: str) -> Raster:
    """Read a raster, picking the format from the extension (.asc vs CSV)."""
    return (read_raster_asc if _is_asc(path) else read_raster_csv)(path)


# ---------------------------------------------------------------- contours


def contours_to_geojson(contours: ContourSet) -> dict:
    features = []
    for line in contours.lines:
        coordinates = [[x, y] for x, y in line.points]
        if line.closed and coordinates:
            coordinates.append(list(coordinates[0]))  # GeoJSON rings repeat the start
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coordinates},
            "properties": {"level": line.level, "closed": line.closed},
        })
    return {
        "type": "FeatureCollection",
        "crs_note": CRS_NOTE,
        "levels": list(contours.levels),
        "features": features,
    }


def _json_numbers(values: list) -> list[str]:
    """``values`` as ``json.dumps`` writes them inside a document: a float
    (a numpy float64 too) by ``float.__repr__``, anything else by
    ``json.dumps`` itself. A non-finite float is an InvalidValueError."""
    floats = values
    try:
        text = list(map(float.__repr__, values))
    except TypeError:  # not all floats
        text = [float.__repr__(v) if isinstance(v, float) else json.dumps(v)
                for v in values]
        floats = [v for v in values if isinstance(v, float)]
    if not all(map(math.isfinite, floats)):
        raise InvalidValueError("JSON cannot hold a non-finite number")
    return text


def _json_list(items: list[str], indent: str) -> str:
    """Items already in JSON text as a list laid out as by
    ``json.dumps(indent=2)``, its closing bracket at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# a feature's coordinates sit 8 spaces in: each [x, y] pair at 10, x and y at 12
_X_TO_Y = ",\n" + " " * 12
_PAIR_TO_PAIR = "\n" + " " * 10 + "],\n" + " " * 10 + "[\n" + " " * 12


def _coordinates_text(points: tuple, closed: bool) -> str:
    flat = list(itertools.chain.from_iterable(points))
    if len(flat) != 2 * len(points):
        raise ValueError("contour points must be (x, y) pairs")
    if not flat:
        return "[]"
    if closed:
        flat += flat[:2]  # GeoJSON rings repeat the start
    text = iter(_json_numbers(flat))
    pairs = _PAIR_TO_PAIR.join(map(_X_TO_Y.join, zip(text, text)))
    return f"[\n{' ' * 10}[\n{' ' * 12}{pairs}\n{' ' * 10}]\n{' ' * 8}]"


def _contours_text(contours: ContourSet) -> str:
    features = []
    for line in contours.lines:
        level, closed = _json_numbers([line.level, line.closed])
        features.append(
            '{\n      "type": "Feature",\n      "geometry": {\n'
            '        "type": "LineString",\n'
            f'        "coordinates": {_coordinates_text(line.points, line.closed)}\n'
            '      },\n      "properties": {\n'
            f'        "level": {level},\n'
            f'        "closed": {closed}\n'
            '      }\n    }')
    levels = _json_numbers(list(contours.levels))
    return ('{\n  "type": "FeatureCollection",\n'
            f'  "crs_note": {json.dumps(CRS_NOTE)},\n'
            f'  "levels": {_json_list(levels, "  ")},\n'
            f'  "features": {_json_list(features, "  ")}\n'
            '}\n')


def write_contours_geojson(contours: ContourSet, path: str) -> None:
    """Write ``contours`` as the bytes that ``write_json`` would write for
    :func:`contours_to_geojson`'s document, non-finite refusal included."""
    try:
        text = _contours_text(contours)
    except InvalidValueError:
        raise _non_finite_error(path) from None
    atomic_write_text(path, text)


def read_contours_geojson(path: str) -> ContourSet:
    with _text_file(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _format_error(path, f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise _format_error(path, "expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise _format_error(path, "features must be a list")
    lines = []
    seen_levels: list[float] = []
    for k, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise _format_error(path, f"feature #{k}: expected a GeoJSON Feature object")
        geometry = feature.get("geometry") or {}
        if not isinstance(geometry, dict) or geometry.get("type") != "LineString":
            raise _format_error(path, f"feature #{k}: expected a LineString")
        properties = feature.get("properties") or {}
        if not isinstance(properties, dict):
            raise _format_error(path, f"feature #{k}: properties must be an object")
        level = _require_finite(properties.get("level"), path, "feature #{} level", k)
        closed = bool(properties.get("closed", False))
        coordinates = geometry.get("coordinates")
        if not isinstance(coordinates, list) or not all(
                isinstance(point, list) and len(point) == 2 and all(map(_finite_number, point))
                for point in coordinates):
            raise _format_error(
                path, f"feature #{k}: coordinates must be [x, y] pairs of finite numbers")
        points = [(float(x), float(y)) for x, y in coordinates]
        if closed and len(points) > 1 and points[0] == points[-1]:
            points.pop()  # undo the GeoJSON ring closure
        lines.append(ContourLine(level=level, points=tuple(points), closed=closed))
        if level not in seen_levels:
            seen_levels.append(level)
    raw_levels = doc.get("levels", seen_levels)
    if not isinstance(raw_levels, list):
        raise _format_error(path, "levels must be a list of numbers")
    levels = tuple(_require_finite(lv, path, "levels #{}", i)
                   for i, lv in enumerate(raw_levels))
    return ContourSet(levels=levels, lines=tuple(lines))
