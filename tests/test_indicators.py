import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobenefit import indicators
from isobenefit import (
    Amenity,
    EmptyRasterError,
    GridSpec,
    Kernel,
    Profile,
    Raster,
    Scene,
    SumOverflowError,
    ZeroMeanError,
    evaluate_field,
    pgg_field,
    summary,
    uniformity,
)

U_123 = 1.0 - math.sqrt(2.0 / 3.0) / 2.0  # population sd of {1,2,3} over mean 2


def test_constant_raster_is_perfectly_uniform():
    assert uniformity([7.0] * 12).u == 1.0
    # also when the constant comes from an awkward float
    assert uniformity([0.1] * 1000).u == 1.0


def test_one_two_three_oracle():
    result = uniformity([1.0, 2.0, 3.0])
    assert result.u == pytest.approx(U_123, abs=1e-12)
    assert result.mean == 2.0
    assert result.stddev == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert result.count == 3
    assert not result.negative_mean


def test_zero_mean_is_undefined():
    with pytest.raises(ZeroMeanError):
        uniformity([0.0, 0.0, 0.0])
    with pytest.raises(ZeroMeanError):
        uniformity([-1.0, 1.0])


def test_empty_raster_rejected():
    with pytest.raises(EmptyRasterError):
        uniformity([])
    with pytest.raises(EmptyRasterError):
        summary([])


def test_negative_mean_flagged():
    result = uniformity([-1.0, -2.0, -3.0])
    assert result.negative_mean
    assert result.u > 1.0  # signed formula; the flag says interpret with care


def test_uniformity_accepts_raster_objects():
    grid = GridSpec(0.0, 0.0, 1.0, 3, 1)
    assert uniformity(Raster(grid, [1.0, 2.0, 3.0])).u == pytest.approx(U_123, abs=1e-12)


@given(st.lists(st.floats(0.1, 100), min_size=2, max_size=50),
       st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=100)
def test_scale_invariance(values, c):
    base = uniformity(values).u
    scaled = uniformity([c * v for v in values]).u
    assert scaled == pytest.approx(base, abs=1e-9)


def test_summary_exact_values():
    stats = summary([1.0, 2.0, 3.0, -2.0])
    assert stats.total == 4.0
    assert stats.mean == 1.0
    assert stats.min == -2.0
    assert stats.max == 3.0
    assert stats.count == 4


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_summary_mean_between_min_and_max(values):
    stats = summary(values)
    assert stats.min <= stats.mean <= stats.max


def test_overflowing_indicators_are_named_errors():
    with pytest.raises(SumOverflowError, match="total of 2 cells is inf"):
        summary([1e308, 1e308])
    # an overflowing mean; a finite mean whose squared deviations overflow
    for values in ([1e308, 1e308], [1e200, -1e200, 1e200, 3.0]):
        with pytest.raises(SumOverflowError) as excinfo:
            uniformity(values)
        assert isinstance(excinfo.value, ValueError)


# -- preference gap gain


def pgg_scene():
    return Scene(
        amenities=(Amenity("park", 0.0, 0.0, 3.0), Amenity("shop", 2.0, 1.0, 1.0)),
        profiles={
            "alice": Profile("alice", overrides={"park": 5.0}),
            "median": Profile("median"),
        },
        majority="median",
    )


GRID = GridSpec(-1.0, -1.0, 0.5, 9, 9)
KERNEL = Kernel("rational", 1.0)


def test_identical_profiles_give_exact_zero():
    raster = pgg_field(pgg_scene(), KERNEL, GRID, person="median", majority="median")
    assert (raster.values == 0.0).all()


def test_baseline_person_against_scene_majority_is_zero():
    # scene majority is "median" which is itself the baseline
    raster = pgg_field(pgg_scene(), KERNEL, GRID, person=None)
    assert (raster.values == 0.0).all()


def test_antisymmetry():
    forward = pgg_field(pgg_scene(), KERNEL, GRID, person="alice", majority="median")
    backward = pgg_field(pgg_scene(), KERNEL, GRID, person="median", majority="alice")
    assert np.array_equal(forward.values, -backward.values)


def test_single_override_matches_difference_construction():
    """Overriding one amenity's A shifts the field by exactly the field of a
    ghost amenity carrying the A difference (additivity of the sum)."""
    scene = pgg_scene()
    gap = pgg_field(scene, KERNEL, GRID, person="alice", majority="median")
    ghost = Scene(amenities=(Amenity("park", 0.0, 0.0, 5.0 - 3.0),))
    want = evaluate_field(ghost, KERNEL, GRID)
    assert np.allclose(gap.values, want.values, rtol=1e-12, atol=1e-15)


def test_explicit_majority_overrides_scene_default():
    scene = pgg_scene()
    against_alice = pgg_field(scene, KERNEL, GRID, person="alice", majority="alice")
    assert (against_alice.values == 0.0).all()


def wide_pgg_scene():
    """Six amenities; the alice and bob profiles both change two of them,
    and bob also sets its own E. "median" is the baseline and the scene's
    majority."""
    amenities = tuple(Amenity(f"a{k}", x, y, a) for k, (x, y, a) in enumerate(
        [(0.0, 0.0, 3.0), (2.0, 1.0, 1.0), (-1.5, 2.5, -0.8),
         (3.3, -2.1, 2.2), (-2.7, -0.4, 1.6), (0.9, 3.1, -1.1)]))
    overrides = {"a1": 2.5, "a4": 0.25}
    return Scene(amenities=amenities, majority="median", profiles={
        "alice": Profile("alice", overrides=overrides),
        "bob": Profile("bob", efficiency=1.7, overrides=overrides),
        "median": Profile("median"),
    })


@pytest.mark.parametrize("family", ["rational", "gaussian", "exponential"])
def test_shared_e_pgg_matches_the_two_full_field_difference(family):
    scene, kernel = wide_pgg_scene(), Kernel(family, 0.8)
    gap = pgg_field(scene, kernel, GRID, person="alice")
    mine = evaluate_field(scene, kernel, GRID, profile="alice").values
    theirs = evaluate_field(scene, kernel, GRID, profile="median").values
    scale = np.abs(mine) + np.abs(theirs)
    assert (np.abs(gap.values - (mine - theirs)) <= 1e-12 * scale).all()


@pytest.mark.parametrize("person", ["alice", "bob"])
def test_pgg_is_byte_antisymmetric_and_zero_against_itself(person):
    scene = wide_pgg_scene()
    forward = pgg_field(scene, KERNEL, GRID, person=person, majority="median")
    backward = pgg_field(scene, KERNEL, GRID, person="median", majority=person)
    assert (forward.values != 0.0).all()
    assert forward.values.tobytes() == (-backward.values).tobytes()
    same = pgg_field(scene, KERNEL, GRID, person=person, majority=person)
    assert same.values.tobytes() == np.zeros(GRID.size).tobytes()


def test_shared_e_pgg_sums_only_the_changed_amenities(monkeypatch):
    calls = []

    def recording(scene, kernel, grid, profile=None):
        calls.append(([am.id for am in scene.amenities], kernel, profile))
        return evaluate_field(scene, kernel, grid, profile)

    monkeypatch.setattr(indicators, "evaluate_field", recording)
    scene = wide_pgg_scene()
    pgg_field(scene, KERNEL, GRID, person="alice")
    assert calls == [(["a1", "a4"], KERNEL, None)] * 2
    calls.clear()
    pgg_field(scene, KERNEL, GRID, person="bob")
    everyone = [f"a{k}" for k in range(6)]
    assert calls == [(everyone, Kernel("rational", 1.7), None), (everyone, KERNEL, None)]
