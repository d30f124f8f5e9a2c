import copy
import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobenefit import (
    MAX_GRID_CELLS,
    Amenity,
    GridSpec,
    InvalidValueError,
    Kernel,
    NegativeDistanceError,
    Profile,
    Scene,
    SceneValidationError,
    SumOverflowError,
    evaluate_field,
    evaluate_field_parts,
    kernel_benefit,
    pgg_field,
    point_benefit,
)
from isobenefit.field import (
    _BLOCK_SAMPLES,
    _MEMO_MAX_CELLS,
    _block_rows,
    _PointEvaluator,
)
from isobenefit.scene import _as_scene

families = st.sampled_from(("rational", "gaussian", "exponential"))
efficiencies = st.floats(0.05, 20)
distances = st.floats(0, 50)


# -- kernel_benefit


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
@pytest.mark.parametrize("efficiency", [0.25, 1.0, 3.0])
def test_zero_distance_returns_attractiveness(family, efficiency):
    assert kernel_benefit(3.0, 0.0, Kernel(family, efficiency)) == 3.0


def test_rational_halves_at_distance_e():
    # d = E makes the denominator 2 regardless of E
    assert kernel_benefit(3.0, 2.0, Kernel("rational", 2.0)) == 1.5


def test_gaussian_spot_value():
    got = kernel_benefit(3.0, 1.0, Kernel("gaussian", 0.5))
    assert got == pytest.approx(1.8195919791379003, rel=1e-12)


def test_exponential_spot_value_negative_a():
    got = kernel_benefit(-2.0, 1.0, Kernel("exponential", 1.0))
    assert got == pytest.approx(-0.7357588823428847, rel=1e-12)


def test_negative_distance_rejected():
    kernel = Kernel("rational", 1.0)
    with pytest.raises(NegativeDistanceError):
        kernel_benefit(3.0, -0.1, kernel)
    with pytest.raises(NegativeDistanceError):
        kernel_benefit(3.0, np.array([0.0, 1.0, -2.0]), kernel)


@pytest.mark.parametrize("attractiveness", [True, "2.5", None, math.nan, math.inf, -math.inf])
def test_attractiveness_that_is_not_a_finite_number_is_refused(attractiveness):
    message = f"attractiveness must be finite, got {re.escape(repr(attractiveness))}"
    with pytest.raises(InvalidValueError, match=message):
        kernel_benefit(attractiveness, 1.0, Kernel("rational", 1.0))


@pytest.mark.parametrize("distance", [math.nan, np.array([0.0, math.nan, -1.0])])
def test_nan_distance_is_refused(distance):
    with pytest.raises(InvalidValueError, match="distance must not be NaN, got"):
        kernel_benefit(3.0, distance, Kernel("rational", 1.0))


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
def test_infinite_distance_gives_zero(family):
    kernel = Kernel(family, 0.5)
    assert kernel_benefit(-3.0, math.inf, kernel) == 0.0
    assert kernel_benefit(3.0, np.array([0.0, math.inf]), kernel).tolist() == [3.0, 0.0]


def test_array_input_matches_scalar_loop():
    kernel = Kernel("exponential", 0.7)
    d = np.array([0.0, 0.5, 1.0, 4.0, 25.0])
    got = kernel_benefit(2.0, d, kernel)
    assert isinstance(got, np.ndarray)
    for k, dk in enumerate(d):
        assert got[k] == kernel_benefit(2.0, float(dk), kernel)


@given(families, efficiencies, st.floats(0.01, 10))
def test_literal_kernel_forms(family, efficiency, d):
    """Each family matches its closed form computed with math.exp directly."""
    a = 2.5
    got = kernel_benefit(a, d, Kernel(family, efficiency))
    if family == "rational":
        want = a / (1.0 + d / efficiency)
    elif family == "gaussian":
        want = a * math.exp(-efficiency * d * d)
    else:
        want = a * math.exp(-efficiency * d)
    assert got == pytest.approx(want, rel=1e-12)


@given(families, efficiencies,
       st.integers(min_value=0, max_value=4900),
       st.integers(min_value=1, max_value=99))
def test_monotone_decay_in_distance(family, efficiency, steps, extra):
    # distances on a 0.01 grid so consecutive draws differ by a representable
    # amount; adjacent floats can legitimately tie after rounding
    lo = steps * 0.01
    hi = (steps + extra) * 0.01
    kernel = Kernel(family, efficiency)
    b_lo = kernel_benefit(3.0, lo, kernel)
    b_hi = kernel_benefit(3.0, hi, kernel)
    assert b_lo >= b_hi
    if b_hi >= 1e-300:  # strict until the tail underflows
        assert b_lo > b_hi


@given(families, efficiencies, distances)
def test_positive_a_stays_in_zero_a_interval(family, efficiency, d):
    b = kernel_benefit(3.0, d, Kernel(family, efficiency))
    assert 0.0 <= b <= 3.0
    if family == "rational":
        assert b > 0.0  # rational never underflows to 0 on this range


# -- point_benefit


def test_empty_amenity_list_gives_zero():
    pb = point_benefit((), Kernel("rational", 1.0), 5.0, -3.0)
    assert pb.total == 0.0
    assert pb.positive_part == 0.0
    assert pb.negative_part == 0.0


def test_single_amenity_at_zero_distance():
    pb = point_benefit((Amenity("p", 1.0, 2.0, 3.0),), Kernel("gaussian", 1.0), 1.0, 2.0)
    assert pb.total == 3.0


def test_mixed_signs_partition():
    # both amenities at d = E so each contributes half its attractiveness
    amenities = (Amenity("park", 0.0, 0.0, 3.0), Amenity("dump", 2.0, 0.0, -1.0))
    pb = point_benefit(amenities, Kernel("rational", 1.0), 1.0, 0.0)
    assert pb.positive_part == 1.5
    assert pb.negative_part == -0.5
    assert pb.total == 1.0


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-4, 4)),
                max_size=8),
       families, st.floats(0.2, 5))
@settings(max_examples=60)
def test_parts_sum_to_total(entries, family, efficiency):
    amenities = tuple(Amenity(f"a{k}", x, y, a) for k, (x, y, a) in enumerate(entries))
    pb = point_benefit(amenities, Kernel(family, efficiency), 0.3, -0.7)
    assert pb.total == pytest.approx(pb.positive_part + pb.negative_part, rel=1e-12, abs=1e-12)


def test_zero_attractiveness_is_inert():
    amenities = (Amenity("p", 0.0, 0.0, 3.0), Amenity("z", 1.0, 1.0, 0.0))
    with_z = point_benefit(amenities, Kernel("rational", 1.0), 0.5, 0.5)
    without = point_benefit(amenities[:1], Kernel("rational", 1.0), 0.5, 0.5)
    assert with_z.total == without.total
    assert with_z.positive_part == without.positive_part
    assert with_z.negative_part == 0.0


# -- evaluate_field


def one_amenity_scene(a=3.0):
    return Scene(amenities=(Amenity("p", 0.0, 0.0, a),))


def test_three_by_three_oracle():
    """Hand-computed per-cell values: amenity at the center cell of a unit grid."""
    grid = GridSpec(-1.0, -1.0, 1.0, 3, 3)
    raster = evaluate_field(one_amenity_scene(), Kernel("rational", 1.0), grid)
    corner = 3.0 / (1.0 + math.sqrt(2.0))
    edge = 1.5
    want = np.array([
        [corner, edge, corner],
        [edge, 3.0, edge],
        [corner, edge, corner],
    ])
    assert np.array_equal(raster.as_grid(), want)


def test_peak_cell_holds_a_and_rings_decay():
    grid = GridSpec(-2.0, -2.0, 1.0, 5, 5)
    raster = evaluate_field(one_amenity_scene(), Kernel("rational", 1.0), grid)
    g = raster.as_grid()
    assert g[2, 2] == 3.0
    assert g.max() == 3.0
    # values fall with chebyshev ring distance from the center
    ring1 = [g[j, i] for j in range(1, 4) for i in range(1, 4) if (i, j) != (2, 2)]
    ring2 = [g[j, i] for j in range(5) for i in range(5)
             if max(abs(i - 2), abs(j - 2)) == 2]
    assert max(ring1) < 3.0
    assert max(ring2) < min(ring1)


def test_field_matches_point_benefit_bitwise():
    scene = Scene(amenities=(
        Amenity("a", -1.3, 0.4, 2.0),
        Amenity("b", 2.0, 1.0, -0.7),
        Amenity("c", 0.1, -2.2, 1.1),
    ))
    rng = np.random.default_rng(5)
    # 42 cells are summed in amenity blocks, 8192 one amenity at a time
    for family, (ncols, nrows) in itertools.product(
            ("rational", "gaussian", "exponential"), ((7, 6), (128, 64))):
        kernel = Kernel(family, 0.8)
        grid = GridSpec(-2.0, -2.0, 0.61 * 7 / ncols, ncols, nrows)
        raster = evaluate_field(scene, kernel, grid)
        parts = evaluate_field_parts(scene, kernel, grid)
        cells = [(i, j) for j in range(nrows) for i in range(ncols)]
        if len(cells) > 100:
            cells = [cells[k] for k in rng.choice(len(cells), 100)]
        for i, j in cells:
            x, y = grid.cell_center(i, j)
            want = point_benefit(scene.amenities, kernel, x, y)
            assert raster.value_at(i, j) == want.total
            assert parts.total.value_at(i, j) == want.total
            assert parts.positive.value_at(i, j) == want.positive_part
            assert parts.negative.value_at(i, j) == want.negative_part


def test_negated_scene_negates_field():
    scene = Scene(amenities=(Amenity("a", 0.2, 0.3, 2.0), Amenity("b", 1.0, -1.0, -0.5)))
    negated = Scene(amenities=tuple(
        Amenity(am.id, am.x, am.y, -am.attractiveness) for am in scene.amenities))
    grid = GridSpec(-1.0, -1.0, 0.5, 6, 6)
    kernel = Kernel("gaussian", 0.6)
    a = evaluate_field(scene, kernel, grid)
    b = evaluate_field(negated, kernel, grid)
    assert np.array_equal(a.values, -b.values)


def test_repeat_evaluation_is_bit_identical():
    scene = Scene(amenities=(Amenity("a", 0.0, 0.0, 3.0), Amenity("b", 2.0, 2.0, -1.0)))
    grid = GridSpec(-1.0, -1.0, 0.25, 17, 17)
    kernel = Kernel("rational", 1.4)
    first = evaluate_field(scene, kernel, grid)
    second = evaluate_field(scene, kernel, grid)
    assert first.values.tobytes() == second.values.tobytes()


def test_field_under_profile():
    scene = Scene(
        amenities=(Amenity("p", 0.0, 0.0, 3.0),),
        profiles={"alice": Profile("alice", efficiency=2.0, overrides={"p": 5.0})},
    )
    grid = GridSpec(0.0, 0.0, 1.0, 2, 1)
    raster = evaluate_field(scene, Kernel("rational", 1.0), grid, profile="alice")
    assert raster.value_at(0, 0) == 5.0
    assert raster.value_at(1, 0) == 5.0 / (1.0 + 1.0 / 2.0)


def test_parts_fields_decompose_total():
    scene = Scene(amenities=(
        Amenity("a", 0.0, 0.0, 3.0),
        Amenity("b", 1.0, 1.0, -1.0),
        Amenity("z", 2.0, 0.0, 0.0),
    ))
    grid = GridSpec(-1.0, -1.0, 0.5, 7, 7)
    parts = evaluate_field_parts(scene, Kernel("rational", 1.0), grid)
    assert np.allclose(parts.total.values,
                       parts.positive.values + parts.negative.values,
                       rtol=1e-12, atol=0)
    assert (parts.positive.values > 0).all()
    assert (parts.negative.values < 0).all()


# -- one accumulator: array queries and partitions


MIXED = (
    Amenity("a", -1.3, 0.4, 2.0),
    Amenity("b", 2.0, 1.0, -0.7),
    Amenity("z", 0.5, 0.5, 0.0),
    Amenity("c", 0.1, -2.2, 1.1),
)


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
def test_point_benefit_on_arrays_equals_scalar_calls_bitwise(family):
    kernel = Kernel(family, 0.8)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3.0, 3.0, 12)
    ys = rng.uniform(-3.0, 3.0, 12)
    for x, y in ((xs, ys), (xs.reshape(3, 4), ys.reshape(3, 4)),
                 (xs[np.newaxis, :5], ys[:4, np.newaxis])):
        got = point_benefit(MIXED, kernel, x, y)
        bx, by = np.broadcast_arrays(x, y)
        assert got.total.shape == bx.shape
        for field in ("total", "positive_part", "negative_part"):
            want = [getattr(point_benefit(MIXED, kernel, float(px), float(py)), field)
                    for px, py in zip(bx.ravel(), by.ravel())]
            assert getattr(got, field).ravel().tobytes() == np.array(want).tobytes()


def test_point_benefit_on_empty_arrays_is_empty():
    got = point_benefit(MIXED, Kernel("rational", 1.0), np.zeros(0), np.zeros((3, 0)))
    assert got.total.shape == got.positive_part.shape == (3, 0)


def test_scalar_point_benefit_returns_floats():
    got = point_benefit(MIXED, Kernel("rational", 1.0), 0.25, -0.5)
    assert all(type(v) is float for v in (got.total, got.positive_part, got.negative_part))


@pytest.mark.parametrize("attractiveness", [
    (1e308, 1e308),           # the total overflows
    (-1e308, 1e308, 1e308),   # the total stays 1e308, the positive part overflows
    (1e308, -1e308, -1e308),  # the negative part overflows
])
@pytest.mark.parametrize("x", [0.0, np.zeros(3)])
def test_overflowing_point_sum_is_a_named_error(attractiveness, x):
    amenities = [Amenity(f"a{k}", 0.0, 0.0, a) for k, a in enumerate(attractiveness)]
    with pytest.raises(SumOverflowError, match=f"the benefit sum over {len(amenities)} "
                       "amenities overflowed the float range"):
        point_benefit(amenities, Kernel("rational", 1.0), x, 0.0)


@pytest.mark.parametrize("amenities, x, y, message", [
    ((Amenity("a", 0.0, 0.0, 1.0),), math.nan, 0.0, "query point"),
    ((Amenity("a", 0.0, 0.0, 1.0),), np.zeros(3), np.array([0.0, math.inf, 1.0]), "query point"),
    ((Amenity("a", 0.0, 0.0, 1.0), Amenity("b", math.nan, 0.0, 1.0)), 0.0, 0.0,
     r"NonFiniteValue\('b'\): x is not a finite number: nan"),
    ((Amenity("a", 0.0, -math.inf, 1.0),), np.zeros(2), 0.0,
     r"NonFiniteValue\('a'\): y is not a finite number"),
    ((Amenity("a", 0.0, 0.0, math.nan),), 0.0, 0.0, r"NonFiniteValue\('a'\): attractiveness"),
    ((Amenity("a", 10**400, 0.0, 1.0),), 0.0, 0.0,
     r"NonFiniteValue\('a'\): x is not a finite number: 1000"),
])
def test_non_finite_input_is_invalid_not_an_overflow(amenities, x, y, message):
    # a bad query point is a bad argument; a bad amenity value makes the
    # scene built from the amenities invalid, so it never reaches a sum
    error = InvalidValueError if message == "query point" else SceneValidationError
    with pytest.raises(error, match=message):
        point_benefit(amenities, Kernel("rational", 1.0), x, y)
    if error is SceneValidationError:
        with pytest.raises(SceneValidationError, match=message):
            Scene(amenities=amenities)


@settings(max_examples=25, deadline=None)
@given(families, st.lists(st.integers(1, 10), min_size=1, max_size=4))
def test_any_row_partition_of_the_field_is_byte_identical(family, cuts):
    # A dyadic cell size keeps every sub-grid's cell centres exactly equal
    # to the full grid's, so only the partition itself varies.
    scene = Scene(amenities=MIXED)
    kernel = Kernel(family, 0.9)
    full = evaluate_field(scene, kernel, GridSpec(-2.0, -2.0, 0.25, 9, 11)).as_grid()
    bounds = [0] + sorted(set(cuts)) + [11]
    for j0, j1 in zip(bounds, bounds[1:]):
        part = evaluate_field(scene, kernel, GridSpec(-2.0, -2.0 + j0 * 0.25, 0.25, 9, j1 - j0))
        assert part.as_grid().tobytes() == full[j0:j1].tobytes()


# -- squared offsets and their range guard


def independent_benefit(amenities, family, efficiency, x, y):
    """math.hypot distances and an exactly rounded math.fsum; also returns
    the sum of the absolute terms, the scale of the 1e-12 tolerance."""
    terms = []
    for am in amenities:
        d = math.hypot(x - am.x, y - am.y)
        if family == "rational":
            terms.append(am.attractiveness / (1.0 + d / efficiency))
        elif family == "gaussian":
            terms.append(am.attractiveness * math.exp(-efficiency * d * d))
        else:
            terms.append(am.attractiveness * math.exp(-efficiency * d))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def tolerance(scale, terms):
    """1e-12 of the sum of |terms|, and at least a few subnormal ulps per
    term: where every term is subnormal, 1e-12 of their sum is below one
    ulp, and the rounding of each term alone can move the last bit."""
    return max(1e-12 * scale, 4 * terms * math.ulp(0.0))


def assert_matches_independent(amenities, family, efficiency, xs, ys):
    got = point_benefit(amenities, Kernel(family, efficiency),
                        np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)).total
    for k, (x, y) in enumerate(zip(xs, ys)):
        want, scale = independent_benefit(amenities, family, efficiency, x, y)
        scalar = point_benefit(amenities, Kernel(family, efficiency), x, y).total
        for value in (got[k], scalar):
            assert abs(value - want) <= tolerance(scale, len(amenities)), (x, y, value, want)


def corner_case(c):
    """Four amenities at (+-c, +-c), sampled at three corners and the origin."""
    signed = ((1, 1, 2.0), (-1, 1, 1.0), (1, -1, -0.5), (-1, -1, 3.0))
    amenities = tuple(Amenity(f"a{k}", sx * c, sy * c, a)
                      for k, (sx, sy, a) in enumerate(signed))
    return amenities, 1.0, [(c, c), (-c, c), (0.0, 0.0), (-c, -c)]


# (amenities, efficiency, sample points): the first four are points where
# squaring without the guard is wrong (the square of 1e200 overflows; the
# squares of 1e-200 and 5e-170 underflow while E is large or tiny enough for
# the distance to matter; in the rational, rational and exponential families
# the unguarded form gives 0.0, 2.0 and 2.0 instead of 2e-200, 2e-50 and
# 2*exp(-0.5); the rational offsets over E = 1e-100 reach 1e200, whose
# square overflows to give 0.0 instead of ~2e-200), two put coordinates on
# either side of 2**499, and in the last the gaussian term of "b" at the
# origin is exp(-361) * exp(-361): two normal factors whose product is
# subnormal. "a" holds the scale of that sample at ~5e-308, the smallest
# normal order: where every term is subnormal, 1e-12 of their sum is below
# one ulp, and neither the separable nor the plain exp(-E d^2) form matches
# the last bit of the independent form for certain.
EXTREME_CASES = {
    "far": ((Amenity("a", 1e200, 0.0, 2.0),), 1.0, [(0.0, 0.0)]),
    "near-tiny-e": ((Amenity("a", 1e-200, 0.0, 2.0),), 1e-250, [(0.0, 0.0)]),
    "near-huge-e": ((Amenity("a", 3e-170, 4e-170, 2.0),), 1e169, [(0.0, 0.0)]),
    "far-over-e": ((Amenity("a", 1e100, 0.0, 2.0), Amenity("b", -3e99, 4e99, 1.0)), 1e-100,
                   [(0.0, 0.0), (1e100, -1e100)]),
    "2**499": corner_case(2.0 ** 499),
    "2**501": corner_case(2.0 ** 501),
    "subnormal-product": ((Amenity("a", 26.6, 0.0, 1.0), Amenity("b", 19.0, 19.0, 2.0)), 1.0,
                          [(0.0, 0.0)]),
}


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_extreme_ranges_match_the_independent_form(family, case):
    amenities, efficiency, points = EXTREME_CASES[case]
    xs, ys = zip(*points)
    assert_matches_independent(amenities, family, efficiency, xs, ys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-5, 5)),
                min_size=1, max_size=12),
       families, st.floats(0.01, 30),
       st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60)), min_size=1, max_size=6))
# a sample whose only term is subnormal (5.3e-313): the program and the
# exactly rounded sum differ there by one subnormal ulp
@example([(0.0, -37.11964880759211, 1.0)], "exponential", 29.692577498903,
         [(24.145710541132047, -35.27363998234171)])
def test_squared_form_matches_the_independent_form(entries, family, efficiency, points):
    amenities = tuple(Amenity(f"a{k}", x, y, a) for k, (x, y, a) in enumerate(entries))
    xs, ys = zip(*points)
    assert_matches_independent(amenities, family, efficiency, xs, ys)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-5, 5)),
                min_size=1, max_size=8),
       families, st.floats(0.01, 30), st.floats(-60, 0), st.floats(-60, 0),
       st.floats(0.001, 60 / 128), st.sampled_from(((1, 1), (5, 3), (128, 64))),
       st.lists(st.tuples(st.integers(0, 127), st.integers(0, 63)), min_size=1, max_size=12))
# a cell where every term is subnormal (6.7e-312): the program and the
# exactly rounded sum differ there by four subnormal ulps
@example([(39.076812785530535, 6.444683324019742, 4.250672021084732)], "gaussian",
         0.13238052715881807, -6.1944350851255265, -53.53615889533699,
         0.022400373711724212, (128, 64), [(64, 36)])
def test_field_cells_match_the_independent_form(entries, family, efficiency, x0, y0,
                                                cell_size, shape, cells):
    # 128 x 64 = _BLOCK_SAMPLES cells are summed one amenity at a time. The
    # cells lie in the +-60 sample box of the point test above and are held
    # to the same tolerance: 1e-12 of the sum of |terms|, and a few subnormal
    # ulps per term where every term is subnormal, since 1e-12 of such a sum
    # is below one ulp. Such cells are rare in the box, but can be drawn
    amenities = tuple(Amenity(f"a{k}", x, y, a) for k, (x, y, a) in enumerate(entries))
    ncols, nrows = shape
    grid = GridSpec(x0, y0, cell_size, ncols, nrows)
    raster = evaluate_field(Scene(amenities), Kernel(family, efficiency), grid)
    for i, j in {(i % ncols, j % nrows) for i, j in cells}:
        want, scale = independent_benefit(amenities, family, efficiency, *grid.cell_center(i, j))
        assert abs(raster.value_at(i, j) - want) <= tolerance(scale, len(amenities)), \
            (i, j, want)


# -- amenity blocks


SAMPLE_COUNTS = (0, 1, 2, 103, _BLOCK_SAMPLES - 1, _BLOCK_SAMPLES, _BLOCK_SAMPLES + 1)


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
@pytest.mark.parametrize("far", [False, True])  # beyond 2**499 the hypot form is used
@settings(max_examples=15, deadline=None)
@given(entries=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                                  st.sampled_from((-2.5, -0.5, 0.0, 1.0, 3.0))),
                        max_size=40),
       # 1000 to 4096 points take blocks of 16 down to 4 amenities, so the
       # last block of up to 40 amenities is often a partial one
       samples=st.sampled_from(SAMPLE_COUNTS) | st.integers(0, 300) | st.integers(1000, 4096),
       layout=st.sampled_from(("scalar", "points", "grid")),
       split=st.booleans())
def test_blocked_sums_equal_one_by_one_sums_bitwise(family, far, entries, samples,
                                                    layout, split):
    scale = 2.0 ** 500 if far else 1.0
    columns = _as_scene([Amenity(f"a{k}", x * scale, y * scale, a)
                         for k, (x, y, a) in enumerate(entries)])._columns
    kernel = Kernel(family, 0.7)
    if layout == "scalar":
        x, y = 0.3 * scale, -1.1 * scale
    elif layout == "points":
        x = np.linspace(-12.0, 12.0, samples) * scale
        y = np.linspace(5.0, -7.0, samples) * scale
    else:
        x = np.linspace(-12.0, 12.0, samples)[np.newaxis, :] * scale
        y = np.array([-3.0, 0.5, 4.0])[:, np.newaxis] * scale
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    evaluate = _PointEvaluator(columns, kernel, math.prod(shape))
    if layout == "scalar":
        assert (abs(x) <= evaluate.limit and abs(y) <= evaluate.limit) is not far
    # built for _BLOCK_SAMPLES samples, an evaluator sums one amenity at a
    # time, whatever the shape of its query
    want = _PointEvaluator(columns, kernel, _BLOCK_SAMPLES)(x, y, split)
    for part, reference in zip(evaluate(x, y, split), want):
        if reference is not None:
            assert part.shape == shape
            assert part.tobytes() == reference.tobytes()


def test_evaluator_results_own_their_memory():
    # a block-summed result was a view of the evaluator's fold buffer, which
    # kept that whole buffer alive and was overwritten by the next call
    rng = np.random.default_rng(5)
    amenities = [Amenity(f"a{k}", float(ax), float(ay), a) for k, (ax, ay, a) in
                 enumerate(zip(rng.uniform(-5, 5, 200), rng.uniform(-5, 5, 200),
                               rng.choice((-1.5, 2.0), 200)))]
    kernel = Kernel("rational", 0.8)
    x, y = rng.uniform(-5, 5, 100), rng.uniform(-5, 5, 100)
    got = point_benefit(amenities, kernel, x, y)
    assert all(part.base is None for part in (got.total, got.positive_part, got.negative_part))
    evaluate = _PointEvaluator(_as_scene(amenities)._columns, kernel, 100)
    first = evaluate(x, y, split=True)
    kept = [part.copy() for part in first]
    evaluate(y, x, split=True)
    for part, before in zip(first, kept):
        assert part.base is None
        assert part.tobytes() == before.tobytes()


def test_one_evaluator_takes_each_query_on_its_own_side_of_the_range_guard():
    # the squares of offsets near 1e200 overflow, so there the squared form
    # would give 0.0 where the hypot form gives about 2e-200
    kernel = Kernel("rational", 1.0)
    evaluate = _PointEvaluator(_as_scene(MIXED)._columns, kernel, 1)
    for x, y in ((0.25, -0.5), (1e200, 3.0), (0.25, -0.5)):
        want = point_benefit(MIXED, kernel, x, y)
        got = np.array(evaluate(x, y, split=True))
        assert got.tobytes() == np.array([want.total, want.positive_part,
                                          want.negative_part]).tobytes()
        assert want.total != 0.0
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)):
        with pytest.raises(InvalidValueError, match="query point coordinates must be finite"):
            evaluate(x, y)


def mixed_columns(count, seed=5):
    """The columns of ``count`` amenities of both signs around the origin."""
    rng = np.random.default_rng(seed)
    return np.array([rng.uniform(-5, 5, count), rng.uniform(-5, 5, count),
                     rng.choice((-1.5, 2.0), count)])


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("samples, blocks", [(17, 1), (103, 2)])  # at 200 amenities
def test_one_evaluator_prepares_each_query_shape_afresh(monkeypatch, family, split, samples,
                                                        blocks):
    # shapes A, B, A, then A once more: each call gives the bytes of a fresh
    # evaluator, so no call runs on the views prepared for another shape,
    # and only a change of shape prepares views
    prepared, prepare = [], _PointEvaluator._prepare

    def counted(self, shape):
        prepared.append(shape)
        return prepare(self, shape)
    columns, kernel = mixed_columns(200), Kernel(family, 0.8)
    evaluate = _PointEvaluator(columns, kernel, samples)
    assert math.ceil(200 / evaluate.k) == blocks
    line = np.linspace(-6.0, 6.0, samples)
    queries = ((line, line / 3), (line[:, np.newaxis], np.array([[0.5]])),
               (line[::-1], line / 2), (line, line / 4))
    for x, y in queries:
        want = _PointEvaluator(columns, kernel, samples)(x, y, split)
        monkeypatch.setattr(_PointEvaluator, "_prepare", counted)
        got = evaluate(x, y, split)
        monkeypatch.undo()
        assert [part is None for part in got] == [False, not split, not split]
        for part, reference in zip(got, want):
            if part is not None:
                assert part.shape == np.broadcast_shapes(x.shape, y.shape)
                assert part.tobytes() == reference.tobytes()
    assert prepared == [(samples,), (samples, 1), (samples,)]


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
def test_repeated_query_shapes_take_no_new_memory(family):
    # once a shape is prepared, a call allocates its result and numpy's
    # iterator buffers alone, the same for every call, and keeps nothing
    # (but for a one-off numpy cache entry of 32 bytes, in any of them)
    evaluate = _PointEvaluator(mixed_columns(200), Kernel(family, 0.8), 17)
    x = np.linspace(-6.0, 6.0, 17)
    y = x / 3
    peaks, kept = [], []
    tracemalloc.start()
    try:
        for _ in range(10):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            evaluate(x, y)
            end, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - start)
            kept.append(end - start)
    finally:
        tracemalloc.stop()
    assert len({peak - held for peak, held in zip(peaks[1:], kept[1:])}) == 1, peaks
    assert sum(kept[1:]) <= 64 and max(peaks[1:]) <= 32 * 1024, (peaks, kept)


def test_a_prepared_shape_keeps_a_few_views_whatever_the_amenity_count():
    # 2,000 amenities at 4,096 samples are 500 blocks of 4: views kept for
    # each block would hold about 260 KiB beside the 290 KiB of buffers
    evaluate = _PointEvaluator(mixed_columns(2000), Kernel("rational", 0.8), 4096)
    x = np.linspace(-6.0, 6.0, 4096)
    y = x / 3
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate(x, y)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert math.ceil(2000 / evaluate.k) == 500
    assert kept <= 8 * 1024


@given(st.integers(_BLOCK_SAMPLES, MAX_GRID_CELLS))
def test_grids_of_block_size_or_more_sum_one_amenity_at_a_time(cells):
    assert _block_rows(cells) == 1


@given(st.integers(0, _BLOCK_SAMPLES))
def test_only_queries_with_blocks_of_two_or_more_get_doubled_blocks(samples):
    # a query of 2**12 + 1 to 2**13 samples stays one amenity at a time:
    # only blocks of at least two amenities were timed doubled
    single = _BLOCK_SAMPLES // max(samples, 1)
    assert _block_rows(samples) == (1 if single <= 1 else 2 * single)
    assert (_block_rows(samples) == 1) is (samples > _BLOCK_SAMPLES // 2)


@pytest.mark.parametrize("ncols, nrows", [(128, 128), (384, 384), (_BLOCK_SAMPLES, 1)])
def test_grid_fields_never_take_the_blocked_path(monkeypatch, ncols, nrows):
    def refuse(*args):
        raise AssertionError("a grid of at least _BLOCK_SAMPLES cells was summed in blocks")

    monkeypatch.setattr("isobenefit.field._PointEvaluator._blocks", refuse)
    evaluate_field_parts(Scene(MIXED), Kernel("gaussian", 0.8),
                         GridSpec(-2.0, -2.0, 0.01, ncols, nrows))


def test_field_rasters_keep_the_evaluators_arrays_read_only(monkeypatch):
    # a field's rasters hold the arrays that the evaluator returned, not copies
    returned = []
    call = _PointEvaluator.__call__

    def recorded(self, *args):
        parts = call(self, *args)
        returned.extend(part for part in parts if part is not None)
        return parts

    monkeypatch.setattr(_PointEvaluator, "__call__", recorded)
    grid = GridSpec(-2.0, -2.0, 0.1, 30, 20)
    parts = evaluate_field_parts(Scene(MIXED), Kernel("rational", 1.0), grid)
    field = evaluate_field(Scene(MIXED), Kernel("rational", 1.0), grid)
    rasters = (parts.total, parts.positive, parts.negative, field)
    assert len(returned) == len(rasters)  # two scenes: the second field is no memo hit
    for raster, array in zip(rasters, returned):
        assert np.shares_memory(raster.values, array)
        assert not raster.values.flags.writeable
        with pytest.raises(ValueError):
            raster.values[0] = 1.0


def test_field_parts_peak_at_four_grid_arrays():
    # the total, the two parts and one work array: no raster copies them
    grid = GridSpec(-2.0, -2.0, 0.02, 256, 256)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate_field_parts(Scene(MIXED), Kernel("rational", 1.0), grid)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * grid.size


# -- the scene's memo of its last field


FAMILIES = ("rational", "gaussian", "exponential")
# summed in amenity blocks, and one amenity at a time
MEMO_GRIDS = (GridSpec(-2.0, -2.0, 0.3, 9, 7), GridSpec(-2.0, -2.0, 0.05, 90, 80))
POSITIVE = tuple(am for am in MIXED if am.attractiveness > 0)


def fresh_bytes(kernel, grid, amenities=MIXED, profile=None, profiles=None):
    """The field's bytes from a scene built for this call alone."""
    scene = Scene(amenities, profiles=profiles or {})
    return evaluate_field(scene, kernel, grid, profile).values.tobytes()


@pytest.mark.parametrize("grid", MEMO_GRIDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_repeated_field_is_the_memo_and_the_same_bits(family, grid):
    scene, kernel = Scene(MIXED), Kernel(family, 0.8)
    first = evaluate_field(scene, kernel, grid)
    second = evaluate_field(scene, kernel, grid)
    assert np.shares_memory(first.values, second.values)  # a lookup, not a sum
    assert second.values.tobytes() == fresh_bytes(kernel, grid)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_field_under_a_profile_that_sets_only_e_is_remembered_at_that_e(family):
    profiles = {"fast": Profile("fast", efficiency=2.0)}
    scene, grid = Scene(MIXED, profiles=profiles), MEMO_GRIDS[1]
    mine = evaluate_field(scene, Kernel(family, 0.8), grid, profile="fast")
    plain = evaluate_field(scene, Kernel(family, 2.0), grid)  # the same resolved kernel
    assert np.shares_memory(mine.values, plain.values)
    want = fresh_bytes(Kernel(family, 0.8), grid, profile="fast", profiles=profiles)
    assert plain.values.tobytes() == mine.values.tobytes() == want
    assert want == fresh_bytes(Kernel(family, 2.0), grid)


@pytest.mark.parametrize("amenities", [MIXED, POSITIVE], ids=["mixed", "positive"])
@pytest.mark.parametrize("grid", MEMO_GRIDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_split_call_fills_the_memo_with_the_bits_of_the_total(family, grid, amenities):
    scene, kernel = Scene(amenities), Kernel(family, 0.8)
    parts = evaluate_field_parts(scene, kernel, grid)
    field = evaluate_field(scene, kernel, grid)
    assert np.shares_memory(field.values, parts.total.values)
    assert field.values.tobytes() == fresh_bytes(kernel, grid, amenities)
    # a split call is never served from the memo: it needs the parts
    again = evaluate_field_parts(scene, kernel, grid)
    assert not np.shares_memory(again.total.values, field.values)
    for new, old in zip((again.total, again.positive, again.negative),
                        (parts.total, parts.positive, parts.negative)):
        assert new.values.tobytes() == old.values.tobytes()


MISSES = {
    "E": (Kernel("rational", 1.6), MEMO_GRIDS[0], None),
    "family": (Kernel("gaussian", 0.8), MEMO_GRIDS[0], None),
    "grid-shape": (Kernel("rational", 0.8), GridSpec(-2.0, -2.0, 0.3, 9, 8), None),
    "grid-origin": (Kernel("rational", 0.8), GridSpec(-2.0, -1.9, 0.3, 9, 7), None),
    "grid-cell": (Kernel("rational", 0.8), GridSpec(-2.0, -2.0, 0.31, 9, 7), None),
    "overrides": (Kernel("rational", 0.8), MEMO_GRIDS[0], "keen"),
    "overrides-and-e": (Kernel("rational", 0.8), MEMO_GRIDS[0], "keen-fast"),
}


@pytest.mark.parametrize("case", MISSES)
def test_another_kernel_grid_or_overriding_profile_misses(case):
    profiles = {"keen": Profile("keen", overrides={"a": 5.0}),
                "keen-fast": Profile("keen-fast", efficiency=0.8, overrides={"a": 5.0})}
    scene = Scene(MIXED, profiles=profiles)
    kernel, grid = Kernel("rational", 0.8), MEMO_GRIDS[0]
    entry = evaluate_field(scene, kernel, grid)
    other_kernel, other_grid, profile = MISSES[case]
    other = evaluate_field(scene, other_kernel, other_grid, profile)
    assert not np.shares_memory(other.values, entry.values)
    assert other.values.tobytes() == fresh_bytes(other_kernel, other_grid, profile=profile,
                                                 profiles=profiles)
    # a profile with overrides sums a scene of its own, which keeps its own entry
    kept = evaluate_field(scene, kernel, grid)
    assert np.shares_memory(kept.values, entry.values) is (profile is not None)


def test_remembered_fields_are_read_only():
    scene, kernel, grid = Scene(MIXED), Kernel("exponential", 0.8), MEMO_GRIDS[1]
    parts = evaluate_field_parts(scene, kernel, grid)
    field = evaluate_field(scene, kernel, grid)
    for values in (parts.total.values, field.values, vars(scene)["_field_memo"][-1]):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert field.values.tobytes() == fresh_bytes(kernel, grid)


@pytest.mark.parametrize("copy_of", [
    lambda scene: pickle.loads(pickle.dumps(scene)), copy.copy, copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])
def test_a_copied_scene_compares_equal_and_starts_without_the_memo(copy_of):
    scene = Scene(MIXED, profiles={"fast": Profile("fast", efficiency=2.0)})
    kernel, grid = Kernel("gaussian", 0.8), MEMO_GRIDS[1]
    field = evaluate_field(scene, kernel, grid)
    other = copy_of(scene)
    assert other == scene and scene == Scene(scene.amenities, scene.profiles)
    assert "_field_memo" not in vars(other)
    again = evaluate_field(other, kernel, grid)
    assert not np.shares_memory(again.values, field.values)
    assert again.values.tobytes() == field.values.tobytes()
    assert np.shares_memory(evaluate_field(scene, kernel, grid).values, field.values)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_numpy_efficiency_is_the_float_it_equals(family):
    # equal kernels key the memo, so they must sum alike: a float32 E made
    # the scalar steps float32 ones, and overflowed the range guard's limit
    kernel = Kernel(family, np.float32(0.75))
    assert type(kernel.efficiency) is float and kernel == Kernel(family, 0.75)
    grid = MEMO_GRIDS[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_field(Scene(MIXED), kernel, grid)
    assert got.values.tobytes() == fresh_bytes(Kernel(family, 0.75), grid)


def traced_now() -> int:
    return tracemalloc.get_traced_memory()[0]


def test_a_live_scene_keeps_one_field_of_at_most_the_cap():
    at_cap = GridSpec(-2.0, -2.0, 0.01, 512, _MEMO_MAX_CELLS // 512)
    above = GridSpec(-2.0, -2.0, 0.01, 400, 400)
    assert at_cap.size == _MEMO_MAX_CELLS < above.size
    field_bytes = 8 * _MEMO_MAX_CELLS
    tracemalloc.start()
    try:
        start = traced_now()
        # a plain amenity sequence is a scene built for the call, dropped with its field
        evaluate_field(MIXED, Kernel("rational", 0.8), at_cap)
        assert traced_now() - start < 2 ** 15
        scene = Scene(MIXED, profiles={"keen": Profile("keen", overrides={"a": 5.0})})
        for family in FAMILIES:
            evaluate_field(scene, Kernel(family, 0.8), at_cap)
            assert field_bytes <= traced_now() - start < field_bytes + 2 ** 15
        evaluate_field_parts(scene, Kernel("rational", 0.8), at_cap)
        evaluate_field(scene, Kernel("rational", 0.8), above)  # not kept
        evaluate_field_parts(scene, Kernel("rational", 0.8), above)
        # the overriding profile's scene, and PGG's scenes of the changed amenities
        evaluate_field(scene, Kernel("rational", 0.8), at_cap, profile="keen")
        pgg_field(scene, Kernel("rational", 0.8), at_cap, person="keen")
        assert field_bytes <= traced_now() - start < field_bytes + 2 ** 15
        del scene  # a dropped scene takes its field with it
        assert traced_now() - start < 2 ** 15
    finally:
        tracemalloc.stop()
