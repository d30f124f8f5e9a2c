import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobenefit import (
    Amenity,
    CoincidentAmenitiesError,
    EmptyChoiceSetError,
    InvalidValueError,
    MAX_GRID_CELLS,
    Kernel,
    NoInteriorMinimumError,
    NonPositiveAttractivenessError,
    OriginOnAmenityError,
    Scene,
    SumOverflowError,
    huff_probabilities,
    numeric_breakpoint,
    point_benefit,
    reilly_breakpoint,
)


# -- Huff probabilities


def test_single_amenity_gets_probability_one():
    result = huff_probabilities((0.0, 0.0), [Amenity("only", 3.0, 4.0, 2.0)])
    assert result.probabilities == {"only": 1.0}


def test_symmetric_pair_splits_evenly():
    result = huff_probabilities((0.0, 0.0), [
        Amenity("west", -1.0, 0.0, 2.0),
        Amenity("east", 1.0, 0.0, 2.0),
    ])
    assert result.probabilities["west"] == 0.5
    assert result.probabilities["east"] == 0.5


def test_four_one_against_two_one():
    # A=4 at distance 1 vs A=2 at distance 1: weights 4 and 2
    result = huff_probabilities((0.0, 0.0), [
        Amenity("strong", 1.0, 0.0, 4.0),
        Amenity("weak", 0.0, 1.0, 2.0),
    ])
    assert result.probabilities["strong"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert result.probabilities["weak"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_empty_choice_set_rejected():
    with pytest.raises(EmptyChoiceSetError):
        huff_probabilities((0.0, 0.0), [])


def test_nonpositive_attractiveness_rejected():
    with pytest.raises(NonPositiveAttractivenessError):
        huff_probabilities((0.0, 0.0), [Amenity("bad", 1.0, 0.0, -2.0)])
    with pytest.raises(NonPositiveAttractivenessError):
        huff_probabilities((0.0, 0.0), [Amenity("zero", 1.0, 0.0, 0.0)])


def test_origin_on_amenity_rejected():
    with pytest.raises(OriginOnAmenityError):
        huff_probabilities((1.0, 2.0), [Amenity("here", 1.0, 2.0, 3.0)])


coordinate = st.floats(-50, 50)


@given(st.lists(st.tuples(coordinate, coordinate, st.floats(0.1, 20)),
                min_size=1, max_size=10),
       coordinate, coordinate)
@settings(max_examples=150)
@example(entries=[(0.0, 1.0, 1.0), (0.0, 2.225073858507e-311, 1.0)], ox=0.0, oy=0.0)
def test_probabilities_sum_to_one(entries, ox, oy):
    amenities = [Amenity(f"a{k}", x, y, a) for k, (x, y, a) in enumerate(entries)]
    distances = [math.hypot(ox - am.x, oy - am.y) for am in amenities]
    if 0.0 in distances:
        return
    probs = huff_probabilities((ox, oy), amenities).probabilities
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    # a share may truly underflow below 5e-324, but never the largest one
    assert all(p >= 0 for p in probs.values())
    best = max(zip(amenities, distances),
               key=lambda pair: math.log(pair[0].attractiveness) - math.log(pair[1]))
    assert probs[best[0].id] > 0


@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.25, 4))
def test_scale_invariance_in_attractiveness(a1, a2, c):
    amenities = [Amenity("p", 3.0, 0.0, a1), Amenity("q", 0.0, 5.0, a2)]
    scaled = [Amenity("p", 3.0, 0.0, c * a1), Amenity("q", 0.0, 5.0, c * a2)]
    base = huff_probabilities((0.0, 0.0), amenities).probabilities
    after = huff_probabilities((0.0, 0.0), scaled).probabilities
    assert after["p"] == pytest.approx(base["p"], abs=1e-12)


@given(st.floats(0.25, 4))
def test_scale_invariance_in_distance(c):
    amenities = [Amenity("p", 3.0, 0.0, 2.0), Amenity("q", 0.0, 5.0, 1.0)]
    stretched = [Amenity("p", 3.0 * c, 0.0, 2.0), Amenity("q", 0.0, 5.0 * c, 1.0)]
    base = huff_probabilities((0.0, 0.0), amenities).probabilities
    after = huff_probabilities((0.0, 0.0), stretched).probabilities
    assert after["p"] == pytest.approx(base["p"], rel=1e-12)


def test_distance_exponent_favors_the_near_amenity():
    amenities = [Amenity("near", 1.0, 0.0, 1.0), Amenity("far", 4.0, 0.0, 1.0)]
    plain = huff_probabilities((0.0, 0.0), amenities).probabilities
    sharp = huff_probabilities((0.0, 0.0), amenities, distance_exponent=2.0).probabilities
    assert sharp["near"] > plain["near"]


# -- Reilly breaking point


def test_reilly_four_to_one_over_three():
    bp = reilly_breakpoint(Amenity("big", 0.0, 0.0, 4.0), Amenity("small", 3.0, 0.0, 1.0))
    assert bp.distance_from_2 == 1.0
    assert bp.distance_from_1 == 2.0
    assert bp.position == (2.0, 0.0)
    assert bp.benefit_at_point is None


def test_reilly_symmetric_pair_hits_midpoint_exactly():
    bp = reilly_breakpoint(Amenity("a", -1.0, 2.0, 5.0), Amenity("b", 3.0, 2.0, 5.0))
    assert bp.distance_from_1 == bp.distance_from_2 == 2.0
    assert bp.position == (1.0, 2.0)


def test_reilly_rejects_bad_pairs():
    good = Amenity("g", 0.0, 0.0, 1.0)
    with pytest.raises(CoincidentAmenitiesError):
        reilly_breakpoint(good, Amenity("twin", 0.0, 0.0, 2.0))
    with pytest.raises(NonPositiveAttractivenessError):
        reilly_breakpoint(good, Amenity("void", 1.0, 0.0, -1.0))
    far = (Amenity("a", -1.7e308, 0.0, 1.0), Amenity("b", 1.7e308, 0.0, 1.0))
    for breakpoint in (reilly_breakpoint,
                       lambda *pair: numeric_breakpoint(*pair, Kernel("gaussian", 1.0))):
        with pytest.raises(InvalidValueError, match="amenities 'a' and 'b' are farther apart"):
            breakpoint(*far)


@given(st.floats(0.1, 10), st.floats(0.1, 10),
       st.floats(-20, 20), st.floats(-20, 20), st.floats(0.5, 40))
def test_reilly_complementarity(a1, a2, x, y, d):
    one = Amenity("one", x, y, a1)
    two = Amenity("two", x + d, y, a2)
    forward = reilly_breakpoint(one, two)
    backward = reilly_breakpoint(two, one)
    dist = math.hypot(two.x - one.x, 0.0)
    assert forward.distance_from_2 + backward.distance_from_2 == pytest.approx(dist, rel=1e-12)
    # the two conventions describe the same point
    assert forward.position[0] == pytest.approx(backward.position[0], rel=1e-9, abs=1e-9)


def test_reilly_position_sits_on_the_segment():
    bp = reilly_breakpoint(Amenity("a", 1.0, 1.0, 9.0), Amenity("b", 4.0, 5.0, 1.0))
    d1 = math.hypot(bp.position[0] - 1.0, bp.position[1] - 1.0)
    d2 = math.hypot(bp.position[0] - 4.0, bp.position[1] - 5.0)
    assert d1 == pytest.approx(bp.distance_from_1, rel=1e-12)
    assert d2 == pytest.approx(bp.distance_from_2, rel=1e-12)
    assert d1 + d2 == pytest.approx(5.0, rel=1e-12)


# -- numeric breaking point


@pytest.mark.parametrize("resolution", [3, 11, 101, 1001])
def test_symmetric_numeric_breakpoint_is_the_midpoint(resolution):
    a = Amenity("a", 0.0, 0.0, 2.0)
    b = Amenity("b", 4.0, 0.0, 2.0)
    for family, efficiency in [("rational", 1.0), ("gaussian", 0.5), ("exponential", 1.0)]:
        bp = numeric_breakpoint(a, b, Kernel(family, efficiency), resolution=resolution)
        assert bp.distance_from_1 == pytest.approx(2.0, abs=4e-6)  # within d/1e6
        assert bp.benefit_at_point is not None


@pytest.mark.parametrize("resolution", [3, 11, 101, 1001])
def test_exponential_breakpoint_matches_closed_form(resolution):
    # minimize 4 e^(-x) + e^(-(3-x)): stationary point at x = (3 + ln 4) / 2
    a = Amenity("big", 0.0, 0.0, 4.0)
    b = Amenity("small", 3.0, 0.0, 1.0)
    bp = numeric_breakpoint(a, b, Kernel("exponential", 1.0), resolution=resolution)
    want = (3.0 + math.log(4.0)) / 2.0
    assert bp.distance_from_1 == pytest.approx(want, abs=3e-6)
    assert bp.distance_from_1 + bp.distance_from_2 == pytest.approx(3.0, rel=1e-12)
    got = point_benefit((a, b), Kernel("exponential", 1.0),
                        bp.position[0], bp.position[1]).total
    assert bp.benefit_at_point == got


def test_monotone_profile_has_no_breakpoint():
    # strong amenity close to a weak one: benefit falls all the way to the
    # weak end, so the minimum sits on an amenity, not between them
    strong = Amenity("strong", 0.0, 0.0, 9.0)
    weak = Amenity("weak", 1.0, 0.0, 1.0)
    with pytest.raises(NoInteriorMinimumError):
        numeric_breakpoint(strong, weak, Kernel("rational", 1.0))


def test_overflowing_profile_is_a_named_error():
    # every sample of the profile is inf; argmin alone would report "no
    # interior minimum", a wrong answer
    pair = (Amenity("a", 0.0, 0.0, 1.7e308), Amenity("b", 1.0, 0.0, 1.7e308))
    context = pair + (Amenity("c", 0.5, 0.1, 1.7e308),)
    with pytest.raises(SumOverflowError, match="over 3 amenities overflowed"):
        numeric_breakpoint(*pair, Kernel("gaussian", 0.01), scene_context=context)


def test_non_finite_context_amenity_is_invalid_not_an_overflow():
    pair = (Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 1.0, 0.0, 1.0))
    context = pair + (Amenity("c", 0.5, math.nan, 1.0),)
    with pytest.raises(InvalidValueError, match="amenity 'c' y must be finite"):
        numeric_breakpoint(*pair, Kernel("rational", 1.0), scene_context=context)


def test_numeric_rejects_degenerate_input():
    a = Amenity("a", 0.0, 0.0, 2.0)
    with pytest.raises(CoincidentAmenitiesError):
        numeric_breakpoint(a, Amenity("b", 0.0, 0.0, 2.0), Kernel("rational", 1.0))
    with pytest.raises(ValueError):
        numeric_breakpoint(a, Amenity("b", 1.0, 0.0, 2.0), Kernel("rational", 1.0),
                           resolution=2)


def test_scene_context_shifts_the_minimum():
    a = Amenity("a", 0.0, 0.0, 3.0)
    b = Amenity("b", 6.0, 0.0, 3.0)
    side = Amenity("side", 1.0, 2.0, 1.5)  # near a's end, lifts that side
    kernel = Kernel("exponential", 1.0)
    plain = numeric_breakpoint(a, b, kernel)
    shifted = numeric_breakpoint(a, b, kernel, scene_context=(a, b, side))
    assert shifted.distance_from_1 > plain.distance_from_1
    got = point_benefit((a, b, side), kernel,
                        shifted.position[0], shifted.position[1]).total
    assert shifted.benefit_at_point == got


def test_off_axis_pair_geometry():
    a = Amenity("a", 1.0, 1.0, 2.0)
    b = Amenity("b", 4.0, 5.0, 2.0)
    bp = numeric_breakpoint(a, b, Kernel("gaussian", 0.3))
    assert bp.distance_from_1 + bp.distance_from_2 == pytest.approx(5.0, rel=1e-12)
    # symmetric pair: the breakpoint is the geometric midpoint
    assert bp.position[0] == pytest.approx(2.5, abs=1e-5)
    assert bp.position[1] == pytest.approx(3.0, abs=1e-5)


@given(st.floats(1.0, 3.0), st.floats(1.0, 3.0), st.floats(2.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_numeric_agrees_with_dense_sampling(a1, a2, d):
    one = Amenity("one", 0.0, 0.0, a1)
    two = Amenity("two", d, 0.0, a2)
    kernel = Kernel("rational", 1.0)
    bp = numeric_breakpoint(one, two, kernel)
    ts = np.linspace(0.0, 1.0, 20001)
    profile = a1 / (1.0 + ts * d / kernel.efficiency) \
        + a2 / (1.0 + (1.0 - ts) * d / kernel.efficiency)
    dense_t = float(ts[int(np.argmin(profile))])
    assert bp.distance_from_1 / d == pytest.approx(dense_t, abs=1e-4)


def test_coarse_samples_come_from_one_array_query(monkeypatch):
    from isobenefit.field import _PointEvaluator

    shapes = []
    evaluate = _PointEvaluator.__call__

    def counting(self, x, y, split=False):
        shapes.append(np.shape(x))
        return evaluate(self, x, y, split)

    monkeypatch.setattr(_PointEvaluator, "__call__", counting)
    a = Amenity("a", 0.0, 0.0, 3.0)
    b = Amenity("b", 5.0, 1.0, 2.0)
    bp = numeric_breakpoint(a, b, Kernel("exponential", 1.0), resolution=101)
    assert shapes[0] == (103,)  # the coarse profile over the whole segment
    assert all(shape == (103,) for shape in shapes)  # each pass is one array query
    assert len(shapes) <= 6
    assert all(type(v) is float for v in (*bp.position, bp.distance_from_1,
                                           bp.distance_from_2, bp.benefit_at_point))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                          st.sampled_from((-2.0, -0.5, 0.5, 1.0, 3.0))),
                min_size=2, max_size=30),
       st.sampled_from(("rational", "gaussian", "exponential")), st.floats(0.05, 5.0),
       st.integers(3, 500), st.booleans(), st.data())
def test_breakpoint_benefit_is_the_point_benefit_at_its_position(entries, family, efficiency,
                                                                 resolution, far, data):
    # far: coordinates beyond the 2**499 guard of the squared form, where the
    # sums take np.hypot distances
    scale = 2.0 ** 500 if far else 1.0
    context = [Amenity(f"a{k}", x * scale, y * scale, a) for k, (x, y, a) in enumerate(entries)]
    i, j = data.draw(st.lists(st.integers(0, len(context) - 1), min_size=2, max_size=2,
                              unique=True), label="pair")
    kernel = Kernel(family, efficiency)
    try:
        bp = numeric_breakpoint(context[i], context[j], kernel, context, resolution=resolution)
    except (NoInteriorMinimumError, CoincidentAmenitiesError):
        return
    want = point_benefit(context, kernel, *bp.position).total
    assert np.float64(bp.benefit_at_point).tobytes() == np.float64(want).tobytes()


def test_resolution_above_the_grid_cap_is_refused_before_sampling(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("samples were allocated for a refused resolution")

    monkeypatch.setattr(np, "arange", no_arange)
    a = Amenity("a", 0.0, 0.0, 2.0)
    b = Amenity("b", 4.0, 0.0, 2.0)
    with pytest.raises(InvalidValueError, match=f"between 3 and {MAX_GRID_CELLS}"):
        numeric_breakpoint(a, b, Kernel("rational", 1.0), resolution=MAX_GRID_CELLS + 1)


def test_subnormal_distance_does_not_overflow_the_weights():
    # 1 / 5e-324 overflows to inf; the shares must still come out finite
    near = Amenity("near", 0.0, 5e-324, 1.0)
    far = Amenity("far", 0.0, 1.0, 2.0)
    assert dict(huff_probabilities((0.0, 0.0), [near]).probabilities) == {"near": 1.0}
    probs = huff_probabilities((0.0, 0.0), [near, far]).probabilities
    # the far share, 2 * 5e-324, is itself subnormal but representable
    assert probs["near"] == 1.0 and probs["far"] == 1e-323


@pytest.mark.parametrize("near, far, exponent, near_share", [
    ((1e-200, 1.0), (1.0, 1.0), 2.0, 1.0),       # d ** 2 underflows to 0
    ((1e-200, 1.0), (1.0, 1.0), -2.0, 0.0),      # d ** -2 overflows
    ((1.0, 1.0), (1e200, 1.0), 2.0, 1.0),        # the far d ** 2 overflows
    ((1e-308, 1.0), (1.0, 1e308), 1.0, 0.5),     # the sum of weights overflows
    ((1e300, 1e-30), (1.5e300, 1e-30), 1.0, 0.6),  # every weight underflows
])
def test_extreme_distances_fall_back_to_log_weights(near, far, exponent, near_share):
    amenities = [Amenity("near", 0.0, *near), Amenity("far", 0.0, *far)]
    probs = huff_probabilities((0.0, 0.0), amenities,
                               distance_exponent=exponent).probabilities
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-15)
    assert probs["near"] == pytest.approx(near_share, abs=1e-12)


def test_plain_weights_keep_their_bits():
    amenities = [Amenity("a", 1.0, 2.0, 3.0), Amenity("b", -4.0, 0.5, 1.5)]
    weights = [3.0 / math.hypot(1.0, 2.0) ** 2.0, 1.5 / math.hypot(-4.0, 0.5) ** 2.0]
    probs = huff_probabilities((0.0, 0.0), amenities, distance_exponent=2.0).probabilities
    assert list(probs.values()) == [w / sum(weights) for w in weights]


@pytest.mark.parametrize("origin, exponent", [
    ((math.nan, 0.0), 1.0), ((0.0, math.inf), 1.0), ((0.0, 0.0), math.nan)])
def test_non_finite_huff_arguments_rejected(origin, exponent):
    with pytest.raises(InvalidValueError):
        huff_probabilities(origin, [Amenity("a", 1.0, 1.0, 1.0)], distance_exponent=exponent)


def test_a_huff_result_can_be_copied_and_stays_read_only():
    result = huff_probabilities((0.0, 0.0), [Amenity("west", -1.0, 0.0, 2.0),
                                             Amenity("east", 3.0, 0.0, 1.0)])
    assert dataclasses.asdict(result) == {"probabilities": dict(result.probabilities)}
    for copied in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert copied == result
        with pytest.raises(TypeError):
            copied.probabilities["west"] = 1.0
    with pytest.raises(TypeError):
        result.probabilities["west"] = 1.0


BREAKPOINTS = {
    "reilly": lambda a, b, context: reilly_breakpoint(a, b),
    "numeric": lambda a, b, context: numeric_breakpoint(a, b, Kernel("rational", 1.0)),
    # a context that does not hold the pair
    "numeric-in-context": lambda a, b, context: numeric_breakpoint(
        a, b, Kernel("rational", 1.0), scene_context=context),
}


@pytest.mark.parametrize("value", [True, "2.5", math.nan, math.inf, 10 ** 400],
                         ids=["bool", "text", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("name", ["x", "y", "attractiveness"])
@pytest.mark.parametrize("breakpoint", sorted(BREAKPOINTS))
def test_a_bad_value_of_the_pair_is_refused_naming_the_amenity(value, name, breakpoint):
    good = Amenity("a", 0.0, 0.0, 1.0)
    bad = dataclasses.replace(Amenity("b", 5.0, 1.0, 2.0), **{name: value})
    context = Scene((Amenity("c", 2.0, 3.0, 1.0), Amenity("d", 3.0, -3.0, 1.0)))
    message = f"amenity 'b' {name} must be finite, got {value!r}"
    with pytest.raises(InvalidValueError, match=re.escape(message)):
        BREAKPOINTS[breakpoint](good, bad, context)
