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

Each level is contoured in array form, up to the joining of segments into
lines: the cells it crosses (found from each cell's corner range, computed
once for all levels), their case codes and saddle averages, each segment's
two edge ids, and one crossing per crossed edge. These use the same float
expressions, in the same order, as a loop over cells, so every bit is the
same. An edge id is an integer that sorts as the edge's ``(kind, i, j)``
tuple does, which fixes the order of the lines. Joining stays a Python walk
over integer neighbour lists, along with the removal of repeated points:
each step of the walk depends on the step before, so it has no array form,
and it costs one list lookup per vertex.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, InvalidValueError, NoFiniteRangeError
from .scene import MAX_GRID_CELLS, Raster

__all__ = ["ContourLine", "ContourSet", "extract_isolines"]

Point = tuple[float, float]


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


# Local edges in table order, and the (kind, di, dj) of each in the cell
# (i, j): kind 0 = horizontal edge from node (i, j), 1 = vertical.
_LOCAL = "BRTL"
_LOCAL_EDGE = ((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0))


def _case_table() -> np.ndarray:
    """The segment tables as one array: ``[joined, case, segment, end]`` is
    the local edge index (into ``_LOCAL``) of one segment end, -1 past a
    case's last segment. ``joined`` picks the saddle rule (the cell average
    above the level); the other cases read the same either way."""
    table = np.full((2, 16, 2, 2), -1, dtype=np.intp)
    for joined, saddles in ((0, _SADDLE_SEPARATE), (1, _SADDLE_JOINED)):
        for case, pairs in {**_SEGMENTS, **saddles}.items():
            for k, pair in enumerate(pairs):
                table[joined, case, k] = [_LOCAL.index(local) for local in pair]
    return table


_CASES = _case_table()


def _corner_range(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest corner value of every lattice cell, as two
    ``(nrows - 1, ncols - 1)`` arrays: computed once for all levels, they
    find the cells a level crosses with two comparisons per cell."""
    corners = (V[:-1, :-1], V[:-1, 1:], V[1:, 1:], V[1:, :-1])
    low = np.minimum(np.minimum(corners[0], corners[1]), np.minimum(corners[2], corners[3]))
    high = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    return low, high


def _segments(V: np.ndarray, low: np.ndarray, high: np.ndarray,
              level: float) -> np.ndarray:
    """Every contour segment at ``level`` as a row of two edge ids.

    The edge (kind, i, j) has the id ``kind * V.size + i * nrows + j``, so
    ids sort as the tuples do."""
    nrows, ncols = V.shape
    # a cell holds segments when some corner is above the level and some not
    j, i = np.divmod(np.flatnonzero((low <= level) & (high > level)), ncols - 1)
    bl = V[j, i]
    br = V[j, i + 1]
    tr = V[j + 1, i + 1]
    tl = V[j + 1, i]
    case = ((bl > level) * 1 | (br > level) * 2 | (tr > level) * 4 | (tl > level) * 8)
    joined = np.zeros(case.size, dtype=np.intp)
    saddle = np.flatnonzero((case == 5) | (case == 10))
    corners = bl[saddle], br[saddle], tl[saddle], tr[saddle]
    with np.errstate(over="ignore"):
        average = (corners[0] + corners[1] + corners[2] + corners[3]) / 4.0
    wide = ~np.isfinite(average)  # the sum overflowed: add the quarters instead
    if wide.any():
        average[wide] = sum(c[wide] / 4.0 for c in corners)
    joined[saddle] = average > level
    # id offset of each local edge from the cell's own (i, j)
    offset = np.array([kind * V.size + di * nrows + dj for kind, di, dj in _LOCAL_EDGE])
    local = _CASES[joined, case]  # (cells, segment, end)
    base = (i * nrows + j)[:, None]
    first = base + offset[local[:, 0]]
    second = base[saddle] + offset[local[saddle, 1]]  # saddles alone hold two
    return np.concatenate([first, second])


def _crossings(nodes: np.ndarray, V: np.ndarray, xs: np.ndarray, ys: np.ndarray,
               level: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the level crossing on each edge id in the sorted ``nodes``,
    by inverse linear interpolation from the edge's first node."""
    nrows = V.shape[0]
    n_horizontal = int(np.searchsorted(nodes, V.size))
    i, j = np.divmod(nodes[:n_horizontal], nrows)  # nodes (i, j) and (i+1, j)
    a = V[j, i]
    t = (level - a) / (V[j, i + 1] - a)
    hx = xs[i] * (1.0 - t) + xs[i + 1] * t
    hy = ys[j]
    i, j = np.divmod(nodes[n_horizontal:] - V.size, nrows)  # (i, j) and (i, j+1)
    a = V[j, i]
    t = (level - a) / (V[j + 1, i] - a)
    vx = xs[i]
    vy = ys[j] * (1.0 - t) + ys[j + 1] * t
    return np.concatenate([hx, vx]), np.concatenate([hy, vy])


def _walk(start: int, first: int, nb0: list[int], nb1: list[int],
          visited: list[bool]) -> list[int]:
    """Follow the degree-<=2 contour graph from ``start`` through ``first``
    until it dead-ends or returns to ``start``; marks nodes visited. A node's
    neighbours are ``nb0`` and ``nb1`` (-1 for none)."""
    chain = [start]
    visited[start] = True
    prev = start
    cur = first
    while cur != -1 and cur != start:
        chain.append(cur)
        visited[cur] = True
        nxt = nb0[cur]
        if nxt == prev:
            nxt = nb1[cur]
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


def _extract_level(V: np.ndarray, corner_range: tuple[np.ndarray, np.ndarray],
                   xs: np.ndarray, ys: np.ndarray, level: float) -> list[ContourLine]:
    segments = _segments(V, *corner_range, level)
    # graph nodes are the crossed edges, numbered in edge-id order
    nodes, ends = np.unique(segments, return_inverse=True)
    ends = ends.reshape(segments.shape)
    source = np.concatenate([ends[:, 0], ends[:, 1]])
    target = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(source)  # which neighbour is first does not matter
    source = source[order]
    target = target[order]
    repeat = np.zeros(source.size, dtype=bool)  # a node's second neighbour
    repeat[1:] = source[1:] == source[:-1]
    nb0 = target[~repeat]
    nb1 = np.full(nodes.size, -1, dtype=target.dtype)
    nb1[source[repeat]] = target[repeat]

    x, y = _crossings(nodes, V, xs, ys, level)
    points = list(zip(x.tolist(), y.tolist()))
    # a chain repeats a point only across a segment whose two crossings
    # coincide (a corner exactly at the level); elsewhere dedupe changes nothing
    a, b = ends[:, 0], ends[:, 1]
    repeats = bool(((x[a] == x[b]) & (y[a] == y[b])).any())
    ends_at = np.flatnonzero(nb1 < 0).tolist()
    nb0 = nb0.tolist()
    nb1 = nb1.tolist()
    visited = [False] * nodes.size
    lines: list[ContourLine] = []
    # Open contours start at degree-1 nodes (raster boundary), lowest edge id
    # first. Whatever remains consists of cycles, each entered from its
    # lowest node through that node's lower neighbour.
    for closed, starts in ((False, ends_at), (True, range(nodes.size))):
        for start in starts:
            if visited[start]:
                continue
            first = min(nb0[start], nb1[start]) if closed else nb0[start]
            pts = [points[k] for k in _walk(start, first, nb0, nb1, visited)]
            if repeats:
                pts = _dedupe(pts, closed)
            if len(pts) >= 2:
                lines.append(ContourLine(level=level, points=tuple(pts), closed=closed))
    return lines


def extract_isolines(
    raster: Raster,
    levels=None,
    nlevels: int | None = None,
) -> ContourSet:
    """Extract isobenefit lines at explicit ``levels`` or at ``nlevels``
    evenly spaced levels strictly between the raster's min and max.

    Exactly one of ``levels``/``nlevels`` must be given; ``nlevels`` must
    lie in [1, MAX_GRID_CELLS]. A level outside the raster's value range
    yields no lines for that level. A constant raster cannot host evenly
    spaced levels (:class:`NoFiniteRangeError`); asking for the constant
    itself as an explicit level warns and yields no lines, since a plateau
    has no contour. Nor can a raster whose values span more than the float
    range (:class:`NoFiniteRangeError`).
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
    if vmax - vmin == math.inf:  # crossings would divide by an overflowed span
        raise NoFiniteRangeError(
            f"raster values span {vmin!r} to {vmax!r}, wider than the float range")
    if nlevels is not None:
        if not 1 <= nlevels <= MAX_GRID_CELLS:
            raise InvalidValueError(
                f"nlevels must be between 1 and {MAX_GRID_CELLS}, got {nlevels}")
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
    corner_range = _corner_range(V)
    all_lines: list[ContourLine] = []
    for level in level_list:
        all_lines.extend(_extract_level(V, corner_range, xs, ys, level))
    return ContourSet(levels=tuple(level_list), lines=tuple(all_lines))
