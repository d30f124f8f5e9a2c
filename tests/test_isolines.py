import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isobenefit import (
    ContourLine,
    ContourSet,
    GridSpec,
    GridTooSmallError,
    NoFiniteRangeError,
    Raster,
    extract_isolines,
)
from isobenefit.isolines import _SADDLE_JOINED, _SADDLE_SEPARATE, _SEGMENTS


def raster(rows, origin=(0.0, 0.0), cell=1.0):
    """rows[0] is the bottom row, matching Raster's layout."""
    V = np.asarray(rows, dtype=float)
    grid = GridSpec(origin[0], origin[1], cell, V.shape[1], V.shape[0])
    return Raster(grid, V.reshape(-1))


def lines_as_sets(contours):
    return [(frozenset(line.points), line.closed) for line in contours.lines]


def test_grid_too_small():
    with pytest.raises(GridTooSmallError):
        extract_isolines(raster([[1.0]]), levels=[0.5])
    with pytest.raises(GridTooSmallError):
        extract_isolines(raster([[1.0, 2.0, 3.0]]), levels=[0.5])


def test_exactly_one_level_argument():
    r = raster([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        extract_isolines(r)
    with pytest.raises(ValueError):
        extract_isolines(r, levels=[0.5], nlevels=2)
    with pytest.raises(ValueError):
        extract_isolines(r, nlevels=0)


def test_single_cell_vertical_contour():
    r = raster([[0.0, 1.0], [0.0, 1.0]])
    contours = extract_isolines(r, levels=[0.25])
    assert contours.levels == (0.25,)
    (line,) = contours.lines
    assert not line.closed
    # inverse interpolation puts the crossing exactly a quarter of the way in
    assert line.points == ((0.25, 0.0), (0.25, 1.0))


def test_nlevels_are_spaced_inside_the_range():
    r = raster([[0.0, 0.0], [1.0, 1.0]])
    contours = extract_isolines(r, nlevels=1)
    assert contours.levels == (0.5,)
    (line,) = contours.lines
    assert frozenset(line.points) == {(0.0, 0.5), (1.0, 0.5)}
    three = extract_isolines(r, nlevels=3)
    assert three.levels == (0.25, 0.5, 0.75)


def test_closed_diamond_around_a_peak():
    r = raster([
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    contours = extract_isolines(r, levels=[0.5])
    (line,) = contours.lines
    assert line.closed
    assert len(line.points) == 4  # first point is not repeated
    assert frozenset(line.points) == {(0.5, 1.0), (1.0, 0.5), (1.5, 1.0), (1.0, 1.5)}


def test_saddle_tie_keeps_high_corners_separated():
    # alternating corners at the level's midpoint: cell average equals the
    # level, so the rule must pick the separated topology
    r = raster([[1.0, 0.0], [0.0, 1.0]])
    contours = extract_isolines(r, levels=[0.5])
    assert lines_as_sets(contours) == [
        (frozenset({(0.0, 0.5), (0.5, 0.0)}), False),
        (frozenset({(1.0, 0.5), (0.5, 1.0)}), False),
    ]


def test_saddle_joined_when_average_is_high():
    r = raster([[3.0, 0.0], [0.0, 3.0]])
    contours = extract_isolines(r, levels=[1.0])
    want_first = {(2.0 / 3.0, 0.0), (1.0, 1.0 / 3.0)}   # cuts off the low br corner
    want_second = {(1.0 / 3.0, 1.0), (0.0, 2.0 / 3.0)}  # cuts off the low tl corner
    assert lines_as_sets(contours) == [
        (frozenset(want_first), False),
        (frozenset(want_second), False),
    ]


def test_level_outside_range_yields_no_lines():
    r = raster([[0.0, 1.0], [0.0, 1.0]])
    contours = extract_isolines(r, levels=[5.0])
    assert contours.levels == (5.0,)
    assert contours.lines == ()


def test_constant_raster_with_nlevels_rejected():
    r = raster([[2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(NoFiniteRangeError):
        extract_isolines(r, nlevels=3)


@pytest.mark.parametrize("kwargs", [{"nlevels": 3}, {"levels": [0.0]}])
def test_range_wider_than_the_float_range_rejected(kwargs):
    r = raster([[-1e308, 1e308], [0.0, 1.7e308]])
    with pytest.raises(NoFiniteRangeError, match="wider than the float range"):
        extract_isolines(r, **kwargs)


@pytest.mark.parametrize("level", [1e308, 1e307])
def test_saddle_rule_survives_an_overflowing_corner_sum(level):
    # the four corners sum past the float range; scaling every value and the
    # level by a power of two changes no decision and no crossing
    V = np.array([[1.5e308, 0.0], [-1e307, 1.5e308]])
    scale = 2.0 ** -1000
    big = extract_isolines(raster(V), levels=[level])
    small = extract_isolines(raster(V * scale), levels=[level * scale])
    assert [(line.points, line.closed) for line in big.lines] == \
           [(line.points, line.closed) for line in small.lines]
    assert len(big.lines) == 2


def test_constant_raster_with_matching_level_warns():
    r = raster([[2.0, 2.0], [2.0, 2.0]])
    with pytest.warns(UserWarning):
        contours = extract_isolines(r, levels=[2.0])
    assert contours.lines == ()


def test_open_lines_end_on_the_lattice_hull():
    rng = np.random.default_rng(11)
    V = rng.uniform(-1.0, 1.0, size=(6, 7))
    r = raster(V, origin=(-2.0, 3.0), cell=0.5)
    grid = r.grid
    x_lo, x_hi = grid.origin_x, grid.origin_x + (grid.ncols - 1) * grid.cell_size
    y_lo, y_hi = grid.origin_y, grid.origin_y + (grid.nrows - 1) * grid.cell_size
    contours = extract_isolines(r, levels=[0.0, 0.3])
    assert contours.lines  # the draw is dense enough to cross both levels
    for line in contours.lines:
        assert len(line.points) >= 2
        if line.closed:
            continue
        for endpoint in (line.points[0], line.points[-1]):
            x, y = endpoint
            assert x in (x_lo, x_hi) or y in (y_lo, y_hi)


def test_negation_symmetry_away_from_ties():
    # continuous draws never hit corner==level or saddle-average==level, the
    # only configurations where the mirrored topology is allowed to differ
    rng = np.random.default_rng(7)
    grid = GridSpec(0.0, 0.0, 1.0, 6, 5)
    for _ in range(25):
        V = rng.uniform(-1.0, 1.0, size=(5, 6))
        level = float(rng.uniform(-0.4, 0.4))
        a = extract_isolines(Raster(grid, V.reshape(-1)), levels=[level])
        b = extract_isolines(Raster(grid, (-V).reshape(-1)), levels=[-level])
        assert [(line.points, line.closed) for line in a.lines] == \
               [(line.points, line.closed) for line in b.lines]


def test_extraction_is_deterministic():
    rng = np.random.default_rng(3)
    V = rng.uniform(0.0, 2.0, size=(8, 8))
    r = raster(V)
    first = extract_isolines(r, nlevels=4)
    second = extract_isolines(r, nlevels=4)
    assert first == second


def test_multiple_levels_keep_request_order():
    r = raster([[0.0, 1.0], [0.0, 1.0]])
    contours = extract_isolines(r, levels=[0.75, 0.25])
    assert contours.levels == (0.75, 0.25)
    assert [line.level for line in contours.lines] == [0.75, 0.25]


# -- per-cell reference: marching squares one cell at a time, on tuple edge
# ids, as the library did before it worked in array form


def _ref_edge_id(local, i, j):
    if local == "B":
        return (0, i, j)
    if local == "T":
        return (0, i, j + 1)
    if local == "L":
        return (1, i, j)
    return (1, i + 1, j)  # R


def _ref_crossing(edge, V, xs, ys, level):
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


def _ref_walk(start, first, adjacency, visited):
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


def _ref_dedupe(points, closed):
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if closed and len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _ref_extract_level(V, xs, ys, level):
    above = (V > level).astype(np.uint8)
    code = (above[:-1, :-1]
            | (above[:-1, 1:] << 1)
            | (above[1:, 1:] << 2)
            | (above[1:, :-1] << 3))
    adjacency = {}
    points = {}
    for j, i in np.argwhere((code > 0) & (code < 15)):
        j = int(j)
        i = int(i)
        c = int(code[j, i])
        if c in _SEGMENTS:
            pairs = _SEGMENTS[c]
        else:
            avg = (V[j, i] + V[j, i + 1] + V[j + 1, i] + V[j + 1, i + 1]) / 4.0
            pairs = (_SADDLE_JOINED if avg > level else _SADDLE_SEPARATE)[c]
        for la, lb in pairs:
            ea = _ref_edge_id(la, i, j)
            eb = _ref_edge_id(lb, i, j)
            for e in (ea, eb):
                if e not in points:
                    points[e] = _ref_crossing(e, V, xs, ys, level)
            adjacency.setdefault(ea, []).append(eb)
            adjacency.setdefault(eb, []).append(ea)

    lines = []
    visited = set()
    for start in sorted(e for e, nb in adjacency.items() if len(nb) == 1):
        if start in visited:
            continue
        chain = _ref_walk(start, adjacency[start][0], adjacency, visited)
        pts = _ref_dedupe([points[e] for e in chain], closed=False)
        if len(pts) >= 2:
            lines.append(ContourLine(level=level, points=tuple(pts), closed=False))
    for start in sorted(e for e in adjacency if e not in visited):
        if start in visited:
            continue
        chain = _ref_walk(start, min(adjacency[start]), adjacency, visited)
        pts = _ref_dedupe([points[e] for e in chain], closed=True)
        if len(pts) >= 2:
            lines.append(ContourLine(level=level, points=tuple(pts), closed=True))
    return lines


def reference_isolines(r, levels):
    V = r.as_grid()
    xs = r.grid.x_coords()
    ys = r.grid.y_coords()
    lines = []
    for level in levels:
        lines.extend(_ref_extract_level(V, xs, ys, float(level)))
    return ContourSet(levels=tuple(float(lv) for lv in levels), lines=tuple(lines))


@st.composite
def rasters_and_levels(draw):
    """Small rasters (2xN and Nx2 included) with integer cells half the
    time, for plateaus and tied saddles; levels are drawn from the cell
    values, from between them and from outside their range."""
    ncols = draw(st.integers(2, 9))
    nrows = draw(st.integers(2, 9))
    if draw(st.booleans()):
        cells = st.integers(-3, 3).map(float)
    else:
        cells = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cells, min_size=ncols * nrows, max_size=ncols * nrows))
    cell = draw(st.sampled_from([1.0, 0.25, 0.1, 3.0]))
    origin = draw(st.tuples(st.sampled_from([0.0, -2.5, 0.1, 1e3]),
                            st.sampled_from([0.0, -1.0, 0.3])))
    grid = GridSpec(origin[0], origin[1], cell, ncols, nrows)
    levels = draw(st.lists(
        st.sampled_from(values)
        | st.floats(-120.0, 120.0, allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.5, 0.5, 1.5, -1e3, 1e3]),
        min_size=1, max_size=4))
    return Raster(grid, values), levels


@pytest.mark.filterwarnings("ignore:raster is constant")
@given(rasters_and_levels())
def test_extraction_equals_the_per_cell_reference(case):
    r, levels = case
    assert extract_isolines(r, levels=levels) == reference_isolines(r, levels)


def test_reference_agrees_on_a_smooth_field_with_closed_rings():
    # many cells, closed rings around peaks and open lines on the hull
    x = np.linspace(-3.0, 3.0, 61)
    y = np.linspace(-2.0, 2.0, 41)
    V = np.sin(2.0 * x)[None, :] * np.cos(3.0 * y)[:, None] + 0.1 * x[None, :]
    r = raster(V, origin=(-3.0, -2.0), cell=0.1)
    levels = [-0.9, -0.3, 0.0, 0.45, 0.8]
    contours = extract_isolines(r, levels=levels)
    assert any(line.closed for line in contours.lines)
    assert any(not line.closed for line in contours.lines)
    assert contours == reference_isolines(r, levels)
