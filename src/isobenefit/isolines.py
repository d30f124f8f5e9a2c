"""Isobenefit line extraction: level contours of a benefit raster.

Marching squares over the raster's cell centers (the centers act as the
corners of the contouring lattice), with crossings placed by inverse linear
interpolation between the two corner values. Ambiguous saddle cells (both
diagonals crossing) are resolved by comparing the cell-center average to the
level: average above the level joins the two high corners, average at or
below keeps them separated. The whole pipeline is deterministic: identical
inputs give identical contour sets, vertex for vertex.

A contour either closes on itself (``closed=True``, first point not
repeated) or ends on the raster boundary (``closed=False``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, InvalidValueError, NoFiniteRangeError
from .scene import Raster

__all__ = ["ContourLine", "ContourSet", "extract_isolines"]

Point = tuple[float, float]
_EdgeId = tuple[int, int, int]  # (kind, i, j); kind 0 = horizontal, 1 = vertical


@dataclass(frozen=True)
class ContourLine:
    level: float
    points: tuple[Point, ...]
    closed: bool


@dataclass(frozen=True)
class ContourSet:
    """Isobenefit lines for a set of levels; ``lines`` may be empty for
    levels outside the raster's value range."""

    levels: tuple[float, ...]
    lines: tuple[ContourLine, ...]


# Segment table: case index -> local edge pairs to connect. Corner bits:
# 1 = bottom-left, 2 = bottom-right, 4 = top-right, 8 = top-left; a bit is
# set when the corner value is strictly above the level. Local edges:
# B(ottom), R(ight), T(op), L(eft). Cases 5 and 10 are the saddles.
_SEGMENTS: dict[int, tuple[tuple[str, str], ...]] = {
    1: (("L", "B"),),
    2: (("B", "R"),),
    3: (("L", "R"),),
    4: (("R", "T"),),
    6: (("B", "T"),),
    7: (("L", "T"),),
    8: (("T", "L"),),
    9: (("B", "T"),),
    11: (("R", "T"),),
    12: (("L", "R"),),
    13: (("B", "R"),),
    14: (("L", "B"),),
}
_SADDLE_JOINED = {  # cell average strictly above the level
    5: (("B", "R"), ("T", "L")),
    10: (("L", "B"), ("R", "T")),
}
_SADDLE_SEPARATE = {  # average at or below the level: high corners stay apart
    5: (("L", "B"), ("R", "T")),
    10: (("B", "R"), ("T", "L")),
}


def _edge_id(local: str, i: int, j: int) -> _EdgeId:
    if local == "B":
        return (0, i, j)
    if local == "T":
        return (0, i, j + 1)
    if local == "L":
        return (1, i, j)
    return (1, i + 1, j)  # R


def _crossing(edge: _EdgeId, V: np.ndarray, xs: np.ndarray, ys: np.ndarray,
              level: float) -> Point:
    kind, i, j = edge
    if kind == 0:  # horizontal: nodes (i, j) and (i+1, j)
        a = V[j, i]
        b = V[j, i + 1]
        t = (level - a) / (b - a)
        return (float(xs[i] * (1.0 - t) + xs[i + 1] * t), float(ys[j]))
    a = V[j, i]
    b = V[j + 1, i]
    t = (level - a) / (b - a)
    return (float(xs[i]), float(ys[j] * (1.0 - t) + ys[j + 1] * t))


def _walk(start: _EdgeId, first: _EdgeId | None,
          adjacency: dict[_EdgeId, list[_EdgeId]],
          visited: set[_EdgeId]) -> list[_EdgeId]:
    """Follow the degree-<=2 contour graph from ``start`` until it dead-ends
    or returns to ``start``; marks nodes visited."""
    chain = [start]
    visited.add(start)
    prev = start
    cur = first
    while cur is not None and cur != start:
        chain.append(cur)
        visited.add(cur)
        nxt = None
        for nb in adjacency[cur]:
            if nb != prev and (nb == start or nb not in visited):
                nxt = nb
                break
        prev, cur = cur, nxt
    return chain


def _dedupe(points: list[Point], closed: bool) -> list[Point]:
    out: list[Point] = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if closed and len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _extract_level(V: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                   level: float) -> list[ContourLine]:
    above = (V > level).astype(np.uint8)
    code = (above[:-1, :-1]
            | (above[:-1, 1:] << 1)
            | (above[1:, 1:] << 2)
            | (above[1:, :-1] << 3))
    crossing_cells = np.argwhere((code > 0) & (code < 15))

    adjacency: dict[_EdgeId, list[_EdgeId]] = {}
    points: dict[_EdgeId, Point] = {}
    for j, i in crossing_cells:
        j = int(j)
        i = int(i)
        c = int(code[j, i])
        if c in _SEGMENTS:
            pairs = _SEGMENTS[c]
        else:
            avg = (V[j, i] + V[j, i + 1] + V[j + 1, i] + V[j + 1, i + 1]) / 4.0
            pairs = (_SADDLE_JOINED if avg > level else _SADDLE_SEPARATE)[c]
        for la, lb in pairs:
            ea = _edge_id(la, i, j)
            eb = _edge_id(lb, i, j)
            for e in (ea, eb):
                if e not in points:
                    points[e] = _crossing(e, V, xs, ys, level)
            adjacency.setdefault(ea, []).append(eb)
            adjacency.setdefault(eb, []).append(ea)

    lines: list[ContourLine] = []
    visited: set[_EdgeId] = set()

    # Open contours start at degree-1 nodes (raster boundary).
    for start in sorted(e for e, nb in adjacency.items() if len(nb) == 1):
        if start in visited:
            continue
        chain = _walk(start, adjacency[start][0], adjacency, visited)
        pts = _dedupe([points[e] for e in chain], closed=False)
        if len(pts) >= 2:
            lines.append(ContourLine(level=level, points=tuple(pts), closed=False))

    # Whatever remains consists of cycles.
    for start in sorted(e for e in adjacency if e not in visited):
        if start in visited:
            continue
        chain = _walk(start, min(adjacency[start]), adjacency, visited)
        pts = _dedupe([points[e] for e in chain], closed=True)
        if len(pts) >= 2:
            lines.append(ContourLine(level=level, points=tuple(pts), closed=True))

    return lines


def extract_isolines(
    raster: Raster,
    levels=None,
    nlevels: int | None = None,
) -> ContourSet:
    """Extract isobenefit lines at explicit ``levels`` or at ``nlevels``
    evenly spaced levels strictly between the raster's min and max.

    Exactly one of ``levels``/``nlevels`` must be given. A level outside the
    raster's value range yields no lines for that level. A constant raster
    cannot host evenly spaced levels (:class:`NoFiniteRangeError`); asking
    for the constant itself as an explicit level warns and yields no lines,
    since a plateau has no contour.
    """
    grid = raster.grid
    if grid.ncols < 2 or grid.nrows < 2:
        raise GridTooSmallError(
            f"contour extraction needs at least a 2x2 raster, got {grid.ncols}x{grid.nrows}"
        )
    V = raster.as_grid()
    vmin = float(V.min())
    vmax = float(V.max())

    if (levels is None) == (nlevels is None):
        raise InvalidValueError("pass exactly one of levels= or nlevels=")
    if nlevels is not None:
        if nlevels < 1:
            raise InvalidValueError(f"nlevels must be >= 1, got {nlevels}")
        if vmin == vmax:
            raise NoFiniteRangeError(
                f"raster is constant at {vmin}; evenly spaced levels are undefined"
            )
        level_list = [float(v) for v in np.linspace(vmin, vmax, nlevels + 2)[1:-1]]
    else:
        level_list = [float(v) for v in levels]
        if not all(np.isfinite(level_list)):
            raise InvalidValueError(f"levels must be finite, got {level_list}")
        if vmin == vmax and any(lv == vmin for lv in level_list):
            warnings.warn(
                f"raster is constant at {vmin}; a plateau has no contour line",
                stacklevel=2,
            )

    xs = grid.x_coords()
    ys = grid.y_coords()
    all_lines: list[ContourLine] = []
    for level in level_list:
        all_lines.extend(_extract_level(V, xs, ys, level))
    return ContourSet(levels=tuple(level_list), lines=tuple(all_lines))
