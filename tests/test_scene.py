import copy
import dataclasses
import json
import math
import pickle
import re
import tracemalloc

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
    evaluate_field,
    evaluate_field_parts,
    huff_probabilities,
    load_scene,
    numeric_breakpoint,
    pgg_field,
    point_benefit,
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


# -- a scene carries its amenity columns: loaded and eager scenes agree


AMENITY_ROWS = [("park", 0, 0.5, 3), ("dump", 2.5, -1, -0.5), ("shop", -4, 7.25, 1)]


def three_scenes(tmp_path):
    """The same amenities loaded from JSON (ints where the file has them),
    loaded from CSV, and built as ``Amenity`` objects."""
    json_path = tmp_path / "scene.json"
    json_path.write_text(json.dumps({"amenities": [
        {"id": i, "x": x, "y": y, "A": a} for i, x, y, a in AMENITY_ROWS]}))
    csv_path = tmp_path / "scene.csv"
    csv_path.write_text("id,x,y,A\n" + "".join(f"{i},{x},{y},{a}\n" for i, x, y, a in AMENITY_ROWS))
    eager = Scene(amenities=tuple(Amenity(i, float(x), float(y), float(a))
                                  for i, x, y, a in AMENITY_ROWS))
    return {"json": load_scene(str(json_path)), "csv": load_scene(str(csv_path)), "eager": eager}


def test_loaded_and_eager_scenes_are_equal_with_the_same_repr(tmp_path):
    scenes = three_scenes(tmp_path)
    first = scenes["eager"]
    for scene in scenes.values():
        assert scene == first and repr(scene) == repr(first)
        assert scene.amenities == first.amenities
        assert isinstance(scene.amenities, tuple)
        assert all(type(value) is float for am in scene.amenities
                   for value in (am.x, am.y, am.attractiveness))
    assert Scene(first.amenities) == first  # positional amenities


def test_replace_asdict_and_copies_work_on_every_scene(tmp_path):
    profile = Profile("alice", efficiency=2.0, overrides={"park": 5.0})
    for name, scene in three_scenes(tmp_path).items():
        changed = dataclasses.replace(scene, profiles={"alice": profile}, majority="alice")
        assert validate_scene(changed) is changed, name
        assert changed.amenities == scene.amenities and changed.majority == "alice"
        assert dataclasses.asdict(changed) == {
            "amenities": tuple({"id": i, "x": x, "y": y, "attractiveness": a}
                               for i, x, y, a in AMENITY_ROWS),
            "profiles": {"alice": {"name": "alice", "efficiency": 2.0,
                                   "overrides": {"park": 5.0}}},
            "majority": "alice",
        }
        for copied in (copy.copy(scene), copy.deepcopy(changed), pickle.loads(pickle.dumps(scene))):
            assert copied in (scene, changed)
            assert not copied._columns.flags.writeable
        with pytest.raises(TypeError):
            changed.profiles["alice"].overrides["park"] = 1.0


def test_the_cached_columns_are_read_only(tmp_path):
    for scene in three_scenes(tmp_path).values():
        columns = scene._columns
        assert columns.shape == (3, len(AMENITY_ROWS)) and columns.dtype == float
        with pytest.raises(ValueError):
            columns[0, 0] = 1.0
        with pytest.raises(ValueError):
            columns[2] += 1.0
        assert scene._columns.tolist() == [list(row) for row in zip(*AMENITY_ROWS)][1:]


def test_an_invalid_library_scene_is_refused_naming_the_amenity():
    good = (Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0))
    scene = Scene(amenities=good + (Amenity("c", 1.0, math.inf, 1.0),))
    with pytest.raises(SceneValidationError) as excinfo:
        validate_scene(scene)
    assert codes(excinfo) == {("NonFiniteValue", "c")}
    message = "amenity 'c' y must be finite, got inf"
    with pytest.raises(InvalidValueError, match=message):
        evaluate_field(scene, Kernel("rational", 1.0), GridSpec(0.0, 0.0, 1.0, 2, 2))
    with pytest.raises(InvalidValueError, match=message):
        huff_probabilities((1.0, 1.0), scene)
    with pytest.raises(InvalidValueError, match=message):
        numeric_breakpoint(*good, Kernel("rational", 1.0), scene_context=scene)
    # a profile's override values are checked once they are applied
    scene = Scene(amenities=good, profiles={"p": Profile("p", overrides={"b": math.nan})})
    with pytest.raises(InvalidValueError, match="amenity 'b' attractiveness must be finite"):
        evaluate_field(scene, Kernel("rational", 1.0), GridSpec(0.0, 0.0, 1.0, 2, 2), "p")


@pytest.mark.parametrize("value", [True, "2.5", np.float64(2.5), np.int64(2)],
                         ids=["bool", "text", "float64", "int64"])
@pytest.mark.parametrize("name", ["x", "y", "attractiveness"])
@pytest.mark.parametrize("where", [1, 2])  # in the pair, in the context only
def test_every_reader_of_amenity_values_follows_the_rule_of_validate_scene(value, name, where):
    # a finite real number, bools excluded: numpy scalars are read as the
    # floats they equal, True and text are refused naming the amenity
    plain = [Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 10.0, 0.0, 1.0),
             Amenity("c", 5.0, 8.0, 1.0)]
    mixed = list(plain)
    mixed[where] = dataclasses.replace(plain[where], **{name: value})
    kernel, grid = Kernel("rational", 1.0), GridSpec(0.0, 0.0, 1.0, 3, 2)
    readers = [lambda ams: point_benefit(ams, kernel, 1.0, np.array([1.0, -2.0])).total.tolist(),
               lambda ams: evaluate_field(Scene(ams), kernel, grid).values.tolist(),
               lambda ams: numeric_breakpoint(ams[0], ams[1], kernel, scene_context=ams),
               lambda ams: huff_probabilities((1.0, 1.0), ams).probabilities]
    if type(value) in (bool, str):
        with pytest.raises(SceneValidationError):
            validate_scene(Scene(mixed))
        message = f"amenity {mixed[where].id!r} {name} must be finite, got {value!r}"
        for read in readers:
            with pytest.raises(InvalidValueError, match=re.escape(message)):
                read(mixed)
    else:
        validate_scene(Scene(mixed))
        plain[where] = dataclasses.replace(plain[where], **{name: float(value)})
        for read in readers:
            assert read(mixed) == read(plain)


def test_a_raster_copies_a_file_view_once_and_decouples_the_callers_array():
    grid = GridSpec(0.0, 0.0, 1.0, 256, 128)
    table = np.random.default_rng(3).normal(size=(128, 256))
    tracemalloc.start()
    try:
        raster = Raster(grid, table[::-1])  # as the raster readers pass a file's rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes  # one copy of the table, not two
    assert raster.as_grid().tolist() == table[::-1].tolist()
    values = table.reshape(-1)
    raster = Raster(grid, values)
    values[0] += 1.0
    assert raster.values[0] == values[0] - 1.0
    assert not np.shares_memory(raster.values, table)


# every reader that applies a profile: the two fields, pgg with the profile
# as the person and as the majority, and resolve_profile
PROFILE_READERS = [
    lambda scene, kernel, grid: evaluate_field(scene, kernel, grid, "p").values.tolist(),
    lambda scene, kernel, grid: [getattr(evaluate_field_parts(scene, kernel, grid, "p"),
                                         part).values.tolist()
                                 for part in ("total", "positive", "negative")],
    lambda scene, kernel, grid: pgg_field(scene, kernel, grid, "p").values.tolist(),
    lambda scene, kernel, grid: pgg_field(scene, kernel, grid, None, "p").values.tolist(),
    lambda scene, kernel, grid: resolve_profile(scene, kernel, "p"),
]


@pytest.mark.parametrize("profile, message", [
    (Profile("p", overrides={"b": "2.5"}),
     "profile 'p': amenity 'b' attractiveness must be finite, got '2.5'"),
    (Profile("p", overrides={"b": True}),
     "profile 'p': amenity 'b' attractiveness must be finite, got True"),
    (Profile("p", overrides={"b": math.nan}),
     "profile 'p': amenity 'b' attractiveness must be finite, got nan"),
    (Profile("p", efficiency=True), "profile 'p' efficiency must be finite and > 0, got True"),
    (Profile("p", efficiency="2"), "profile 'p' efficiency must be finite and > 0, got '2'"),
    (Profile("p", efficiency=0), "profile 'p' efficiency must be finite and > 0, got 0"),
    (Profile("p", efficiency=math.nan),
     "profile 'p' efficiency must be finite and > 0, got nan"),
], ids=["override-text", "override-bool", "override-nan", "E-bool", "E-text", "E-zero", "E-nan"])
@pytest.mark.parametrize("read", PROFILE_READERS,
                         ids=["field", "parts", "pgg-person", "pgg-majority", "resolve"])
def test_a_profile_value_that_validate_scene_refuses_is_refused_by_every_resolver(
        profile, message, read):
    scene = Scene(amenities=(Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0)),
                  profiles={"p": profile})
    with pytest.raises(SceneValidationError):
        validate_scene(scene)
    with pytest.raises(InvalidValueError, match=re.escape(message)):
        read(scene, Kernel("rational", 1.0), GridSpec(0.0, 0.0, 1.0, 3, 2))


@pytest.mark.parametrize("value", [np.float64(2.5), np.int64(2)], ids=["float64", "int64"])
@pytest.mark.parametrize("read", PROFILE_READERS,
                         ids=["field", "parts", "pgg-person", "pgg-majority", "resolve"])
def test_numpy_profile_values_resolve_to_the_floats_they_equal(value, read):
    def scene_of(v):
        return Scene(amenities=(Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0)),
                     profiles={"p": Profile("p", efficiency=v, overrides={"b": v})})
    validate_scene(scene_of(value))
    kernel, grid = Kernel("gaussian", 0.5), GridSpec(0.0, 0.0, 1.0, 3, 2)
    assert read(scene_of(value), kernel, grid) == read(scene_of(float(value)), kernel, grid)
    amenities, kern = resolve_profile(scene_of(value), kernel, "p")
    assert type(amenities[1].attractiveness) is float and type(kern.efficiency) is float
