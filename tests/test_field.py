import itertools
import math

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
    SumOverflowError,
    evaluate_field,
    evaluate_field_parts,
    kernel_benefit,
    point_benefit,
)
from isobenefit.field import (
    _BLOCK_SAMPLES,
    _amenity_columns,
    _benefit_sums,
    _block_rows,
    _squared_form_applies,
    _sum_in_blocks,
    _sum_one_by_one,
)

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
     "amenity 'b' x must be finite, got nan"),
    ((Amenity("a", 0.0, -math.inf, 1.0),), np.zeros(2), 0.0, "amenity 'a' y must be finite"),
    ((Amenity("a", 0.0, 0.0, math.nan),), 0.0, 0.0, "amenity 'a' attractiveness"),
    ((Amenity("a", 10**400, 0.0, 1.0),), 0.0, 0.0, "amenity 'a' x must be finite, got 1000"),
])
def test_non_finite_input_is_invalid_not_an_overflow(amenities, x, y, message):
    with pytest.raises(InvalidValueError, match=message):
        point_benefit(amenities, Kernel("rational", 1.0), x, y)
    if message.startswith("amenity"):  # an unvalidated scene reaches the field the same way
        with pytest.raises(InvalidValueError, match=message):
            evaluate_field(Scene(amenities=amenities), Kernel("rational", 1.0),
                           GridSpec(0.0, 0.0, 1.0, 2, 2))


def test_overflow_message_counts_one_amenity():
    # the only way one term can leave the float range: a NaN sample, which
    # point_benefit refuses before summing
    with pytest.raises(SumOverflowError, match="over 1 amenity overflowed"):
        _benefit_sums(_amenity_columns((Amenity("a", 0.0, 0.0, 1.0),)),
                      Kernel("rational", 1.0), math.nan, 0.0, split=False)


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
       samples=st.sampled_from(SAMPLE_COUNTS) | st.integers(0, 300),
       layout=st.sampled_from(("scalar", "points", "grid")),
       split=st.booleans(), data=st.data())
def test_blocked_sums_equal_one_by_one_sums_bitwise(family, far, entries, samples,
                                                    layout, split, data):
    scale = 2.0 ** 500 if far else 1.0
    columns = _amenity_columns([Amenity(f"a{k}", x * scale, y * scale, a)
                                for k, (x, y, a) in enumerate(entries)])
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
    squared = _squared_form_applies(columns, kernel, x, y)
    if layout == "scalar":
        assert squared is not far
    want = _sum_one_by_one(columns, kernel, x, y, squared, shape, split)
    k = data.draw(st.integers(1, len(entries) + 1), label="amenities per block")
    for got in (_benefit_sums(columns, kernel, x, y, split),
                _sum_in_blocks(columns, kernel, x, y, squared, shape, split, k)):
        for part, reference in zip(got, want):
            if reference is not None:
                assert part.shape == shape
                assert part.tobytes() == reference.tobytes()


@given(st.integers(_BLOCK_SAMPLES, MAX_GRID_CELLS))
def test_grids_of_block_size_or_more_sum_one_amenity_at_a_time(cells):
    assert _block_rows(cells) == 1


@pytest.mark.parametrize("ncols, nrows", [(128, 128), (384, 384), (_BLOCK_SAMPLES, 1)])
def test_grid_fields_never_take_the_blocked_path(monkeypatch, ncols, nrows):
    def refuse(*args):
        raise AssertionError("a grid of at least _BLOCK_SAMPLES cells was summed in blocks")

    monkeypatch.setattr("isobenefit.field._sum_in_blocks", refuse)
    evaluate_field_parts(Scene(MIXED), Kernel("gaussian", 0.8),
                         GridSpec(-2.0, -2.0, 0.01, ncols, nrows))
