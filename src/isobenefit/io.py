"""File formats: scene ingestion, raster serialization, contour GeoJSON.

A command's data products are written by one call of :func:`write_all`,
all or none: every target is checked, each product is staged in a temp
file beside its target, and the staged files are renamed into place only
once all are staged; on any failure every temp file is removed. Floats are
written in shortest round-trip form, which makes every format lossless for
double precision and byte-for-byte deterministic. JSON reports refuse
non-finite numbers.

In one process, formatting a table is at the floor of ``repr``: a joined
``map(repr, row.tolist())`` beat ``ndarray.tofile(sep=...)`` and a numpy
string dtype. So :func:`write_all` puts a second CPU to work on a call's
large tables (raster rows, decay curves). It writes the second half of the
rows of each as raw float64 to a temp file and starts one helper
interpreter, ``python -I -S _rows.py``, which formats them, table after
table, into its stdout while this process formats the first halves. Both
use :func:`isobenefit._rows.format_rows`, so each file holds byte for byte
what one process writes. The helper's stdout is an unnamed temp file, not
a pipe, on which the helper would wait for this process to read; once the
helper has exited, this process copies each table's lines from that file
to its staged file as bytes. The helper is taken only for a float64 table
of two or more rows and at least ``_HELPER_MIN_VALUES`` (2**17) values,
when more than one CPU is usable and the interpreter's path is known.
That floor is the break-even point with a margin: on a shared 2-vCPU x86
host a bare ``python -I -S`` started in 7-80 ms, against about 0.75 us to
format a value. If the helper cannot start, exits non-zero, or
writes too few or too many lines, this process formats every row the helper
owed and writes the same bytes. Whatever happens, a KeyboardInterrupt
included, a helper still running is killed and reaped, and the temp files
removed. The helper is a fresh interpreter and not a fork: numpy may have
started threads by then, forking such a process is deprecated from Python
3.12 and unsafe on macOS, and Windows has no fork.

A write holds its tables and a bounded amount of text. Both processes
format a table in chunks of rows of about ``_rows.CHUNK_VALUES`` (2**12)
values, encode each chunk and write it; the raw halves are written, and
read by the helper, in the same chunks, and a product's text is encoded in
slices of ``_TEXT_SLICE`` characters. Chunks of 2**14 values kept the
whole text of a 128x128 raster alive at once, and the benchmark's
``dense_scene`` peaked 0.4 MB higher than with 2**12.

Scenes are read in two steps: the parser checks structure and types (a
bool or a numeric string is refused as a number), then
:func:`~isobenefit.scene.validate_scene` checks values (finite, with
distinct non-empty ids), profiles included. The parser checks each entry
and value as it reads it, so the first culprit is the one it names.
Validation checks a scene's amenities in bulk, and loops over them only
when that check fails, to name the culprit with the message of a
value-by-value check; profile values are few, and it checks them one by
one. The parser hands the scene its amenity ids and its (3, n) float
columns and builds no ``Amenity`` object; validation checks those columns.
A process parses a file's scene once (see below), so it pays the parser's
value-by-value check once.

:func:`load_scene` reads a file's bytes once and parses those bytes,
decoded as ``open()`` would decode them, so messages, JSON line numbers and
newline handling are those of reading the file as text. A process keeps
the last scene it returned, with the file's format (``.csv`` or not) and
its exact bytes. A later load of equal bytes in the same format returns
that scene without parsing or validating it; the scene is immutable, so
callers can share it. Bytes are compared, not sizes, times or paths, so a
file rewritten in place is parsed again, and a refused file is never kept.
Point queries run as many short calls on one scene: on a shared 2-vCPU x86
host, loading a 200-amenity scene took 0.63-0.92 ms, and reusing it
0.007-0.011 ms.

Rasters are read in one C pass, which holds the array and a few lines of
text: the data lines stream from the file, through a generator that skips
blank lines, into one ``np.loadtxt`` call, whose tokenizer converts each
cell as ``float()`` does, and shape and finiteness are checked in bulk.
Any refusal (a line numpy refuses, a failed bulk check, a format error,
bytes that are not UTF-8) ends that pass, and the per-line pass reads the
whole file again before it parses a line, so the messages and their order
are those of reading the file whole. Its parser, :func:`_parse_cells`,
reads each cell with ``float()`` and names the first culprit, so it also
reads what ``float()`` takes and numpy does not (``1_0``, non-ASCII
digits). A line holding ``\\x1c``-``\\x1f``, which numpy strips from around
a number and ``float()`` does not, is refused by the generator; zero data
lines are refused without the call, on which ``np.loadtxt`` warns. The
readers and the fields hand their fresh arrays to ``Raster._owning``,
which keeps them without a copy.

Contour GeoJSON bypasses :func:`json_product`: with ``indent`` set, CPython's
``json`` runs its pure-Python encoder, which took longer than extracting the
contours. :func:`write_contours_geojson` builds the same text directly, and
its bytes equal those of :func:`json_product` on :func:`contours_to_geojson`'s
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
  below/left of the origin; a header key given twice is refused. The NODATA
  value is declared but never emitted, and rejected on read.
* Contours: GeoJSON FeatureCollection of LineStrings with ``level`` and
  ``closed`` properties; closed rings repeat their first coordinate in the
  GeoJSON only. Coordinates are scene-local planar x,y (see ``crs_note``).
  On read, every coordinate and level must be a finite number, as on write,
  and ``closed``, where given, a JSON boolean.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import sys
import tempfile
from io import BytesIO, TextIOWrapper
from typing import Iterable

import numpy as np

from . import _rows
from .errors import InvalidValueError, SceneFormatError
from .isolines import ContourLine, ContourSet
from .scene import GridSpec, Profile, Raster, Scene, _finite_number, validate_scene

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
    "atomic_write_text",
    "write_all",
    "raster_product",
    "rows_product",
    "json_product",
    "contours_product",
]

ASC_NODATA = -9999.0

CRS_NOTE = "coordinates are scene-local planar x,y; no CRS is assumed"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically, as :func:`write_all` does."""
    write_all([(path, text, None, None)])


# a float64 table of at least this many values has the second half of its
# rows formatted by a helper interpreter (see the module docstring)
_HELPER_MIN_VALUES = 2 ** 17

# characters of a product's text encoded at a time: about the text of a
# chunk of table rows
_TEXT_SLICE = 2 ** 18


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _takes_helper(table: np.ndarray) -> bool:
    return (len(table) >= 2 and table.size >= _HELPER_MIN_VALUES
            and table.dtype == np.float64 and bool(sys.executable)
            and _usable_cpus() > 1)


def _start_helper(tables: list, raws: list):
    """A helper interpreter that formats each of ``tables``, ``(rows, sep)``
    pairs, one table after another, into its stdout, an unnamed temp file
    kept as its ``stdout``; None if it cannot start. Its raw input files
    are appended to ``raws``."""
    import subprocess  # here, so that a CLI call that writes no large table skips it
    argv, out = [sys.executable, "-I", "-S", _rows.__file__], None
    try:
        for rows, sep in tables:
            fd, raw = tempfile.mkstemp(prefix="isobenefit-rows-", suffix=".f64")
            raws.append(raw)
            with os.fdopen(fd, "wb") as handle:  # native float64, a chunk of rows at a time
                step = _rows.chunk_rows(rows.shape[1])
                for i in range(0, len(rows), step):
                    handle.write(rows[i:i + step].tobytes())
            argv += [raw, str(rows.shape[1]), sep]
        out = tempfile.TemporaryFile()
        helper = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                  stderr=subprocess.DEVNULL)
    except OSError:  # no temp space, or no interpreter to start
        if out is not None:
            out.close()
        return None
    helper.stdout = out  # a file and not a pipe, so the helper never waits for a reader
    return helper


def _copied(helper, owed: list) -> bool:
    """Whether the helper exited 0 having written exactly the lines of each
    owed table, ``(handle, offset, rows, sep)``. Each table's lines are
    copied to its handle as they are read, a line at a time, as bytes, so
    a False can leave some there."""
    if helper is None or helper.wait():
        return False
    helper.stdout.seek(0)
    for handle, _, rest, _ in owed:
        count, line = 0, b""
        for count, line in enumerate(itertools.islice(helper.stdout, len(rest)), 1):
            handle.write(line)
        if count < len(rest) or not line.endswith(b"\n"):
            return False
    return not helper.stdout.read(1)


def _stop(helper) -> None:
    if helper is not None:
        helper.kill()  # does nothing once the helper has been reaped
        helper.wait()
        helper.stdout.close()


def _format_into(handle, rows: np.ndarray, sep: str) -> None:
    # a chunk of rows at a time, so that only one chunk's text and one row's
    # Python floats are alive
    step = _rows.chunk_rows(rows.shape[1])
    for i in range(0, len(rows), step):
        lines = _rows.format_rows(map(np.ndarray.tolist, rows[i:i + step]), sep)
        handle.write("\n".join(lines).encode())
        handle.write(b"\n")


def write_all(products: Iterable[tuple]) -> None:
    """Write every product, ``(path, text, rows, sep)``, or none. The file
    at ``path`` holds ``text``, then, unless ``rows`` is None, one line per
    row of that 2-D float table: its values in shortest round-trip form,
    joined by ``sep``. One helper interpreter formats the second halves of
    the large tables; the bytes are the same either way. No file is
    renamed into place before every product is staged."""
    products = list(products)
    staged, raws, owed = [], [], []  # owed: (handle, offset, rows, sep) of the helper's rows
    helper = None
    try:
        for path, *_ in products:  # else os.replace would fail naming the temp file
            if not os.path.basename(path) or os.path.isdir(path):  # as open() refuses "dir/"
                import errno
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, *_ in products:
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                           prefix=".tmp-", suffix="~")
            except OSError as exc:  # name the target, not the temp file
                raise type(exc)(exc.errno, exc.strerror, path) from None
            staged.append((tmp, os.fdopen(fd, "wb")))
        halves = [len(rows) // 2 if rows is not None and _takes_helper(rows) else None
                  for _, _, rows, _ in products]
        large = [(rows[half:], sep) for (_, _, rows, sep), half in zip(products, halves)
                 if half is not None]
        if large:
            helper = _start_helper(large, raws)
        for (_, handle), (_, text, rows, sep), half in zip(staged, products, halves):
            for i in range(0, len(text), _TEXT_SLICE):  # encoded a slice at a time
                handle.write(text[i:i + _TEXT_SLICE].encode())
            if rows is not None:
                _format_into(handle, rows[:half], sep)  # every row if half is None
            if half is not None:
                owed.append((handle, handle.tell(), rows[half:], sep))
        # no helper, a failure, a short table or output beyond the last table:
        # every owed table is formatted here, in place of the helper's lines
        if not _copied(helper, owed):
            for handle, offset, rest, sep in owed:
                handle.seek(offset)
                handle.truncate()
                _format_into(handle, rest, sep)
        for tmp, handle in staged:
            handle.close()
        for (tmp, _), (path, *_) in zip(staged, products):
            os.replace(tmp, path)
    except BaseException:
        for tmp, handle in staged:
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    finally:
        _stop(helper)
        for raw in raws:
            os.unlink(raw)


def rows_product(path: str, header_lines: Iterable[str], table: np.ndarray,
                 sep: str = ",") -> tuple:
    """The product of :func:`write_rows`, for :func:`write_all`."""
    lines = list(header_lines)
    return (path, "\n".join(lines) + "\n" if lines or not len(table) else "", table, sep)


def write_rows(path: str, header_lines: Iterable[str], table: np.ndarray,
               sep: str = ",") -> None:
    """Write the header lines, then one line per row of the 2-D float
    ``table``: its values in shortest round-trip form, joined by ``sep``."""
    write_all([rows_product(path, header_lines, table, sep)])


def _non_finite_error(path: str) -> InvalidValueError:
    return InvalidValueError(
        f"{path}: JSON cannot hold a non-finite number (did a sum overflow?)")


def json_product(path: str, doc: object) -> tuple:
    """The product of ``doc`` as indented JSON; a non-finite number is an
    error, since JSON has no spelling for it."""
    try:
        return (path, json.dumps(doc, indent=2, allow_nan=False) + "\n", None, None)
    except ValueError:
        raise _non_finite_error(path) from None


# ---------------------------------------------------------------- scenes


def _format_error(path: str, message: str, line: int | None = None) -> SceneFormatError:
    where = f"{path}:{line}" if line is not None else path
    return SceneFormatError(f"{where}: {message}")


@contextlib.contextmanager
def _text_file(path: str, newline: str | None = None, raw: bytes | None = None):
    """``path`` opened for reading as UTF-8 text, or the bytes ``raw`` read
    from it, decoded as that text would be. Bytes that are not UTF-8, met
    while the block reads, are a format error naming the file."""
    if raw is None:
        handle = open(path, encoding="utf-8", newline=newline)
    else:
        handle = TextIOWrapper(BytesIO(raw), encoding="utf-8", newline=newline)
    with handle:
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


def _scene_from_json(path: str, raw: bytes) -> Scene:
    with _text_file(path, raw=raw) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _format_error(path, f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(doc, dict):
        raise _format_error(path, "scene document must be a JSON object")
    raw_amenities = doc.get("amenities")
    if not isinstance(raw_amenities, list):
        raise _format_error(path, 'scene needs an "amenities" list')

    ids, columns = _json_amenities(raw_amenities, path)

    raw_profiles = doc.get("profiles", {})
    if not isinstance(raw_profiles, dict):
        raise _format_error(path, '"profiles" must be an object mapping name to profile')
    profiles = _json_profiles(raw_profiles, path)

    majority = doc.get("majority")
    if majority is not None and not isinstance(majority, str):
        raise _format_error(path, f'"majority" must be a profile name, got {majority!r}')

    return Scene._from_columns(ids, columns, profiles, majority)


def _json_amenities(raw_amenities: list, path: str) -> tuple[list[str], np.ndarray]:
    """The ids and the (3, n) float columns x, y, A of a scene's JSON
    ``"amenities"`` list, each entry checked as it is read, each number by
    :func:`_require_number`, so that the first culprit is named with a
    format error; finiteness is left to
    :func:`~isobenefit.scene.validate_scene`."""
    ids, columns = [], ([], [], [])
    for k, entry in enumerate(raw_amenities):
        if not isinstance(entry, dict):
            raise _format_error(path, f"amenity #{k} must be an object, got {entry!r}")
        missing = [key for key in ("id", "x", "y", "A") if key not in entry]
        if missing:
            raise _format_error(path, f"amenity #{k} is missing {', '.join(missing)}")
        if not isinstance(entry["id"], str):
            raise _format_error(path, f"amenity #{k} id must be a string, got {entry['id']!r}")
        ids.append(entry["id"])
        for key, column in zip(("x", "y", "A"), columns):
            column.append(_require_number(entry[key], path, "amenity #{} " + key, k))
    return ids, np.array(columns, dtype=float)


def _json_profiles(raw_profiles: dict, path: str) -> dict[str, Profile]:
    """The profiles of a scene's JSON ``"profiles"`` object, each E value
    and override checked one by one by :func:`_require_number`, which names
    the first culprit."""
    profiles = {}
    for name, body in raw_profiles.items():
        if not isinstance(body, dict):
            raise _format_error(path, f"profile {name!r} must be an object, got {body!r}")
        efficiency = None
        if body.get("E") is not None:
            efficiency = _require_number(body["E"], path, "profile {!r} E", name)
        raw_overrides = body.get("overrides", {})
        if not isinstance(raw_overrides, dict):
            raise _format_error(path, f'profile {name!r} "overrides" must be an object')
        profiles[name] = Profile(name=name, efficiency=efficiency, overrides={
            target: _require_number(value, path, "profile {!r} override {!r}", name, target)
            for target, value in raw_overrides.items()
        })
    return profiles


def _scene_from_csv(path: str, raw: bytes) -> Scene:
    with _text_file(path, newline="", raw=raw) as handle:
        rows = [(n, row) for n, row in enumerate(csv.reader(handle), start=1)
                if row and any(cell.strip() for cell in row)]
    if not rows:
        raise _format_error(path, "empty scene file")
    header_line, header = rows[0]
    if [cell.strip() for cell in header] != ["id", "x", "y", "A"]:
        raise _format_error(path, 'header must be exactly "id,x,y,A"', header_line)
    ids, columns = [], ([], [], [])
    for n, row in rows[1:]:
        if len(row) != 4:
            raise _format_error(path, f"expected 4 fields, got {len(row)}", n)
        ids.append(row[0].strip())
        for cell, what, column in zip(row[1:], ("x", "y", "A"), columns):
            try:
                column.append(float(cell))
            except ValueError:
                raise _format_error(path, f"{what} is not a number: {cell.strip()!r}", n) from None
    return Scene._from_columns(ids, np.array(columns, dtype=float))


# the last scene load_scene returned, with its file's format and bytes:
# (is CSV, bytes, scene), one tuple so that no reader pairs a key with
# another file's scene
_last_scene: tuple[bool, bytes, Scene] | None = None


def load_scene(path: str) -> Scene:
    """Read a scene from JSON (by default) or amenity CSV (``.csv``), then
    run full validation.

    Malformed files raise :class:`SceneFormatError` with file and, where
    known, line context; well-formed files that break scene invariants raise
    :class:`~isobenefit.errors.SceneValidationError` listing every problem.

    The file is read once, as bytes, and those bytes are parsed. A file of
    the same format whose bytes equal those of the last scene returned
    gives that (immutable) scene again, unparsed; a refused file is never
    kept, so it is refused again, naming its path.
    """
    global _last_scene
    is_csv = path.lower().endswith(".csv")
    with open(path, "rb") as handle:
        raw = handle.read()
    last = _last_scene
    if last is not None and last[0] == is_csv and last[1] == raw:
        return last[2]
    scene = validate_scene(_scene_from_csv(path, raw) if is_csv else _scene_from_json(path, raw))
    _last_scene = (is_csv, raw, scene)
    return scene


# ---------------------------------------------------------------- rasters


def _grid_from_header(path: str, *args) -> GridSpec:
    try:
        return GridSpec(*args)
    except ValueError as exc:
        raise _format_error(path, f"bad grid header: {exc}") from None


def _parse_cells(cells: list[str], path: str, line: int) -> np.ndarray:
    """Float values of one line's cells; a cell that is not a finite number
    is a format error naming the line. An array, so that the Python floats
    of only one line are alive at a time."""
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise _format_error(path, f"bad value {cell.strip()!r}", line)
    return np.array(values)


# ASCII information separators: numpy's text reader strips them from a
# number, as str.strip() does, but float() does not
_NOT_STRIPPED_BY_FLOAT = "\x1c\x1d\x1e\x1f"


class _Refused(Exception):
    """The bulk pass of a raster reader cannot take the file: its per-line
    pass reads the file again and names the culprit."""


def _bulk_table(data, delimiter: str | None) -> np.ndarray:
    """The data lines, an iterator of non-blank ``(number, line)`` pairs,
    as a 2-D float array, one row a line (numpy skips only lines that
    ``str.strip`` empties), parsed as they stream into one call to numpy's
    C text reader; :class:`_Refused` unless they hold equally many cells
    and every cell is a finite number that ``float()`` reads the same. Zero
    lines are refused without the call, on which ``np.loadtxt`` warns."""
    first = next(data, None)
    if first is None:
        raise _Refused

    def lines():
        for _, line in itertools.chain([first], data):
            if any(char in line for char in _NOT_STRIPPED_BY_FLOAT):
                raise _Refused
            yield line
    try:
        table = np.loadtxt(lines(), dtype=np.float64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:  # ragged lines, or a cell that is not a number to numpy
        raise _Refused from None
    if not np.isfinite(table).all():
        raise _Refused
    return table


def _read_raster_file(path: str, read) -> Raster:
    """``read(path, numbered, stream)`` on the file's ``(number, line)``
    pairs, streamed into :func:`_bulk_table`; on any refusal, again on every
    line read first, parsed line by line: that pass names the culprit."""
    try:
        with _text_file(path) as handle:
            return read(path, enumerate(handle, start=1), True)
    except (_Refused, SceneFormatError):
        pass
    with _text_file(path) as handle:
        numbered = list(enumerate(handle, start=1))
    return read(path, iter(numbered), False)


def read_raster_csv(path: str) -> Raster:
    return _read_raster_file(path, _raster_csv)


def _raster_csv(path: str, numbered, stream: bool) -> Raster:
    first = next(numbered, (1, ""))[1].rstrip("\n")
    if not first.startswith("#"):
        raise _format_error(path, 'missing "# ncols,nrows,origin_x,origin_y,cell_size" header', 1)
    header = first.lstrip("#").strip().split(",")
    if len(header) != 5:
        raise _format_error(path, f"header needs 5 fields, got {len(header)}", 1)
    try:
        ncols, nrows = int(header[0]), int(header[1])
        origin_x, origin_y, cell_size = (float(h) for h in header[2:])
    except ValueError as exc:
        raise _format_error(path, f"bad header value: {exc}", 1) from None
    data = ((n, line.rstrip("\n")) for n, line in numbered if line.strip())
    rows = _bulk_table(data, ",") if stream else list(data)  # parsed, or lines to parse
    if len(rows) != nrows:
        raise _format_error(path, f"expected {nrows} data rows, got {len(rows)}")
    grid = _grid_from_header(path, origin_x, origin_y, cell_size, ncols, nrows)
    if not stream:
        parsed = []
        for n, line in rows:  # the culprit's line, or a number numpy refuses
            cells = line.split(",")
            if len(cells) != ncols:
                raise _format_error(path, f"expected {ncols} values, got {len(cells)}", n)
            parsed.append(_parse_cells(cells, path, n))
        rows = np.array(parsed)
    elif rows.shape[1] != ncols:
        raise _Refused
    return Raster._owning(grid, rows[::-1])  # the file lists the top row first


def read_raster_asc(path: str) -> Raster:
    return _read_raster_file(path, _raster_asc)


def _raster_asc(path: str, numbered, stream: bool) -> Raster:
    lines = ((n, line.strip()) for n, line in numbered if line.strip())
    header: dict[str, float] = {}
    for n, line in lines:
        parts = line.split()
        key = parts[0].upper()
        if len(parts) != 2 or key not in (
                "NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE", "NODATA_VALUE"):
            lines = itertools.chain([(n, line)], lines)  # the first data line
            break
        if key in header:
            raise _format_error(path, f"repeated {key} header", n)
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise _format_error(path, f"bad header value in {line!r}", n) from None
        if key in ("NCOLS", "NROWS") and not header[key].is_integer():
            raise _format_error(path, f"{key} must be a whole number, got {parts[1]!r}", n)
    for key in ("NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE"):
        if key not in header:
            raise _format_error(path, f"missing {key} header")
    ncols, nrows = int(header["NCOLS"]), int(header["NROWS"])
    cell_size = header["CELLSIZE"]
    nodata = header.get("NODATA_VALUE")
    grid = _grid_from_header(path, header["XLLCORNER"] + cell_size / 2.0,
                             header["YLLCORNER"] + cell_size / 2.0, cell_size, ncols, nrows)
    if stream:
        flat = _bulk_table(lines, None)
    else:  # the culprit's line, wrapped rows, or a number numpy refuses
        chunks = [_parse_cells(line.split(), path, n) for n, line in lines]
        flat = np.concatenate(chunks) if chunks else np.empty(0)
    if flat.size != grid.size:
        raise _format_error(path, f"expected {grid.size} values, got {flat.size}")
    values = flat.reshape(nrows, ncols)[::-1]  # the file lists the top row first
    if nodata is not None and (values == nodata).any():
        raise _format_error(
            path, "grid contains NODATA cells; benefit rasters must be complete")
    return Raster._owning(grid, values)


def _is_asc(path: str) -> bool:
    return path.lower().endswith(".asc")


def raster_product(raster: Raster, path: str, asc: bool | None = None) -> tuple:
    """The product of ``raster``'s file, for :func:`write_all`: ESRI ASCII if
    ``asc`` (by default, if ``path`` ends in .asc), else raster CSV."""
    grid = raster.grid
    if not (_is_asc(path) if asc is None else asc):
        header = "# {},{},{!r},{!r},{!r}".format(grid.ncols, grid.nrows, float(grid.origin_x),
                                                  float(grid.origin_y), float(grid.cell_size))
        return rows_product(path, [header], raster.as_grid()[::-1])  # top row first
    half = grid.cell_size / 2.0
    return rows_product(path, [
        f"NCOLS {grid.ncols}", f"NROWS {grid.nrows}",
        f"XLLCORNER {float(grid.origin_x - half)!r}", f"YLLCORNER {float(grid.origin_y - half)!r}",
        f"CELLSIZE {float(grid.cell_size)!r}", f"NODATA_VALUE {ASC_NODATA!r}",
    ], raster.as_grid()[::-1], " ")


def write_raster(raster: Raster, path: str) -> None:
    """Write a raster, picking the format from the extension (.asc vs CSV)."""
    write_all([raster_product(raster, path)])


def write_raster_csv(raster: Raster, path: str) -> None:
    write_all([raster_product(raster, path, asc=False)])


def write_raster_asc(raster: Raster, path: str) -> None:
    write_all([raster_product(raster, path, asc=True)])


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
        level, = _json_numbers([line.level])
        features.append(
            '{\n      "type": "Feature",\n      "geometry": {\n'
            '        "type": "LineString",\n'
            f'        "coordinates": {_coordinates_text(line.points, line.closed)}\n'
            '      },\n      "properties": {\n'
            f'        "level": {level},\n'
            f'        "closed": {json.dumps(line.closed)}\n'
            '      }\n    }')
    levels = _json_numbers(list(contours.levels))
    return ('{\n  "type": "FeatureCollection",\n'
            f'  "crs_note": {json.dumps(CRS_NOTE)},\n'
            f'  "levels": {_json_list(levels, "  ")},\n'
            f'  "features": {_json_list(features, "  ")}\n'
            '}\n')


def contours_product(contours: ContourSet, path: str) -> tuple:
    """The product of ``contours``: the bytes that :func:`json_product`
    gives :func:`contours_to_geojson`'s document, non-finite refusal
    included."""
    try:
        return (path, _contours_text(contours), None, None)
    except InvalidValueError:
        raise _non_finite_error(path) from None


def write_contours_geojson(contours: ContourSet, path: str) -> None:
    write_all([contours_product(contours, path)])


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
        closed = properties.get("closed", False)
        if not isinstance(closed, bool):  # "false" would read as a closed ring
            raise _format_error(path, f"feature #{k}: closed must be true or false, got {closed!r}")
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
