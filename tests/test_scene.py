import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isobenefit import (
    MAX_GRID_CELLS,
    Amenity,
    GridSpec,
    InvalidValueError,
    Kernel,
    Profile,
    Raster,
    Scene,
    SceneValidationError,
    UnknownProfileError,
    resolve_profile,
    validate_scene,
)


def codes(excinfo) -> set:
    return {(v.code, v.subject) for v in excinfo.value.violations}


def test_minimal_scene_is_valid():
    scene = Scene(amenities=(Amenity("p", 0.0, 0.0, 3.0),))
    assert validate_scene(scene) is scene


def test_duplicate_id_reported():
    scene = Scene(amenities=(
        Amenity("p", 0.0, 0.0, 3.0),
        Amenity("p", 1.0, 1.0, 2.0),
    ))
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    assert ("DuplicateId", "p") in codes(excinfo)


def test_unknown_override_target_reported():
    scene = Scene(
        amenities=(Amenity("p", 0.0, 0.0, 3.0),),
        profiles={"alice": Profile("alice", overrides={"ghost": 5.0})},
    )
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    assert ("UnknownOverrideTarget", "ghost") in codes(excinfo)


def test_all_violations_collected_in_one_pass():
    scene = Scene(
        amenities=(
            Amenity("", 0.0, 0.0, 1.0),
            Amenity("q", math.nan, 0.0, math.inf),
        ),
        profiles={"bad": Profile("bad", efficiency=-1.0, overrides={"ghost": 1.0})},
        majority="nobody",
    )
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    found = codes(excinfo)
    assert ("EmptyId", "") in found
    assert ("NonFiniteValue", "q") in found
    assert ("NonPositiveEfficiency", "bad") in found
    assert ("UnknownOverrideTarget", "ghost") in found
    assert ("UnknownProfile", "nobody") in found
    # both the nan x and the inf attractiveness of "q" are reported
    assert sum(1 for c, s in found if c == "NonFiniteValue" and s == "q") == 1
    q_violations = [v for v in excinfo.value.violations
                    if v.code == "NonFiniteValue" and v.subject == "q"]
    assert len(q_violations) == 2


def test_validate_is_idempotent():
    scene = Scene(
        amenities=(Amenity("p", 0.0, 0.0, 3.0), Amenity("q", 1.0, 0.0, -1.0)),
        profiles={"alice": Profile("alice", efficiency=2.0, overrides={"p": 5.0})},
        majority="alice",
    )
    assert validate_scene(validate_scene(scene)) is scene


def test_resolve_without_profile_is_identity():
    scene = Scene(amenities=(Amenity("p", 0.0, 0.0, 3.0),))
    kernel = Kernel("rational", 1.0)
    amenities, kern = resolve_profile(scene, kernel)
    assert amenities == scene.amenities
    assert kern == kernel


def test_resolve_empty_profile_is_identity():
    scene = Scene(
        amenities=(Amenity("p", 0.0, 0.0, 3.0),),
        profiles={"median": Profile("median")},
    )
    amenities, kern = resolve_profile(scene, Kernel("rational", 1.0), "median")
    assert amenities == scene.amenities
    assert kern == Kernel("rational", 1.0)


def test_resolve_applies_overrides_and_personal_efficiency():
    scene = Scene(
        amenities=(Amenity("p", 0.0, 0.0, 3.0), Amenity("q", 1.0, 2.0, -1.0)),
        profiles={"alice": Profile("alice", efficiency=2.0, overrides={"p": 5.0})},
    )
    amenities, kern = resolve_profile(scene, Kernel("rational", 1.0), "alice")
    assert amenities[0].attractiveness == 5.0
    assert amenities[1] == scene.amenities[1]
    assert kern.efficiency == 2.0
    assert kern.family == "rational"


def test_resolve_unknown_profile():
    scene = Scene(amenities=(Amenity("p", 0.0, 0.0, 3.0),))
    with pytest.raises(UnknownProfileError):
        resolve_profile(scene, Kernel("rational", 1.0), "missing")


@given(st.floats(-100, 100), st.floats(-100, 100),
       st.floats(0.1, 50), st.floats(-10, 10))
def test_resolution_never_moves_amenities(x, y, override, base_a):
    scene = Scene(
        amenities=(Amenity("p", x, y, base_a),),
        profiles={"who": Profile("who", overrides={"p": override})},
    )
    amenities, _ = resolve_profile(scene, Kernel("rational", 1.0), "who")
    assert amenities[0].x == x and amenities[0].y == y
    assert amenities[0].id == "p"
    assert amenities[0].attractiveness == override


# -- plumbing types reject bad values immediately


def test_kernel_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        Kernel("linear", 1.0)


@pytest.mark.parametrize("e", [0.0, -1.0, math.nan, math.inf,
                               pytest.param(10 ** 400, id="int-beyond-float")])
def test_kernel_rejects_bad_efficiency(e):
    with pytest.raises(ValueError):
        Kernel("rational", e)


def test_gridspec_rejects_bad_shape_and_cell():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 0.0, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 1.0, 0, 4)


def test_gridspec_caps_the_cell_count():
    # constructing a GridSpec allocates nothing, so the cap is safe to probe
    side = int(math.isqrt(MAX_GRID_CELLS))
    assert MAX_GRID_CELLS == 2 ** 26
    assert GridSpec(0.0, 0.0, 1.0, side, side).size == MAX_GRID_CELLS
    for ncols, nrows in ((side, side + 1), (100000, 100000), (MAX_GRID_CELLS + 1, 1)):
        with pytest.raises(InvalidValueError, match="exceeds the limit"):
            GridSpec(0.0, 0.0, 1.0, ncols, nrows)


@pytest.mark.parametrize("origin, cell, n", [
    (1e308, 1e308, 2), (-1e308, 1e308, 3), (0.0, 1e308, 3), (1.7e308, 1e307, 2)])
def test_gridspec_refuses_cell_centers_beyond_the_float_range(origin, cell, n):
    # numpy would compute the overflowing centers with a RuntimeWarning
    for args in ((origin, 0.0, cell, n, 1), (0.0, origin, cell, 1, n)):
        with pytest.raises(InvalidValueError, match="grid cell centers must be finite"):
            GridSpec(*args)
    assert GridSpec(origin, origin, cell, 1, 1).size == 1
    assert GridSpec(-1e308, 0.0, 1e308, 2, 1).x_coords().tolist() == [-1e308, 0.0]


def test_gridspec_cell_centers():
    grid = GridSpec(origin_x=-1.0, origin_y=2.0, cell_size=0.5, ncols=3, nrows=2)
    assert grid.cell_center(0, 0) == (-1.0, 2.0)
    assert grid.cell_center(2, 1) == (0.0, 2.5)
    assert grid.size == 6
    assert list(grid.x_coords()) == [-1.0, -0.5, 0.0]
    assert list(grid.y_coords()) == [2.0, 2.5]


def test_raster_layout_and_immutability():
    grid = GridSpec(0.0, 0.0, 1.0, 3, 2)
    raster = Raster(grid, [1, 2, 3, 4, 5, 6])
    assert raster.value_at(0, 0) == 1.0  # bottom-left
    assert raster.value_at(2, 1) == 6.0  # top-right
    assert raster.as_grid().shape == (2, 3)
    with pytest.raises(ValueError):
        raster.values[0] = 99.0


def test_raster_rejects_wrong_size_and_nonfinite():
    grid = GridSpec(0.0, 0.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        Raster(grid, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Raster(grid, [1.0, 2.0, 3.0, math.nan])


def test_raster_copies_its_input():
    grid = GridSpec(0.0, 0.0, 1.0, 2, 1)
    source = np.array([1.0, 2.0])
    raster = Raster(grid, source)
    source[0] = 99.0
    assert raster.value_at(0, 0) == 1.0


def test_scene_containers_are_immutable():
    scene = Scene(
        amenities=[Amenity("p", 0.0, 0.0, 3.0)],  # list on purpose
        profiles={"a": Profile("a")},
    )
    assert isinstance(scene.amenities, tuple)
    with pytest.raises(TypeError):
        scene.profiles["b"] = Profile("b")
    with pytest.raises(dataclasses.FrozenInstanceError):
        scene.majority = "a"


def test_bool_is_not_a_number():
    with pytest.raises(ValueError):
        Kernel("rational", True)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, True, 2, 2)
    scene = Scene(amenities=(Amenity("a", 0, 0, True),),
                  profiles={"p": Profile("p", efficiency=False)})
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    assert codes(excinfo) == {("NonFiniteValue", "a"), ("NonPositiveEfficiency", "p")}


def test_numpy_scalars_and_huge_ints_in_a_scene():
    # numpy scalars pass the finite-number check like floats; an int beyond
    # the float range is reported, not raised from math.isfinite
    scene = Scene(amenities=(Amenity("a", np.float32(1.5), np.int64(2), np.float64(3.0)),
                             Amenity("b", 10 ** 400, 0.0, 1.0)))
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    assert codes(excinfo) == {("NonFiniteValue", "b")}
