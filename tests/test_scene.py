import copy
import dataclasses
import fractions
import json
import math
import pickle
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
    extract_isolines,
    huff_probabilities,
    kernel_benefit,
    load_scene,
    numeric_breakpoint,
    pgg_field,
    point_benefit,
    reilly_breakpoint,
    resolve_profile,
    summary,
    uniformity,
    validate_scene,
)
from isobenefit.scene import _finite_number


def codes(excinfo) -> set:
    return {(v.code, v.subject) for v in excinfo.value.violations}


def test_minimal_scene_is_valid():
    scene = Scene(amenities=(Amenity("p", 0.0, 0.0, 3.0),))
    assert validate_scene(scene) is scene


def test_duplicate_id_reported():
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(amenities=(
            Amenity("p", 0.0, 0.0, 3.0),
            Amenity("p", 1.0, 1.0, 2.0),
        ))
    assert ("DuplicateId", "p") in codes(excinfo)


def test_unknown_override_target_reported():
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(
            amenities=(Amenity("p", 0.0, 0.0, 3.0),),
            profiles={"alice": Profile("alice", overrides={"ghost": 5.0})},
        )
    assert ("UnknownOverrideTarget", "ghost") in codes(excinfo)


def test_all_violations_collected_in_one_pass():
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(
            amenities=(
                Amenity("", 0.0, 0.0, 1.0),
                Amenity("q", math.nan, 0.0, math.inf),
            ),
            profiles={"bad": Profile("bad", efficiency=-1.0, overrides={"ghost": 1.0})},
            majority="nobody",
        )
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


def test_gridspec_refuses_neighbouring_centers_that_coincide():
    # at 4e149 one float spacing is ~5e133, so every center rounds to the origin
    big = 4.0917382598701773e+149
    for args in ((big, 0.0, 1.0, 3, 1), (0.0, big, 1.0, 1, 3)):
        with pytest.raises(InvalidValueError, match="neighbouring cells would share a center"):
            GridSpec(*args)
    assert GridSpec(big, big, 1.0, 1, 1).size == 1  # a lone center has no neighbour
    fine = GridSpec(1e6, 1e6, 1e-9, 3, 3)
    assert len(set(fine.x_coords().tolist())) == len(set(fine.y_coords().tolist())) == 3


@pytest.mark.parametrize("count", [2.5, 2.0, True, np.float64(2.0), np.True_, "2", None])
def test_gridspec_refuses_a_cell_count_that_is_not_an_integer(count):
    # GridSpec(0, 0, 1, 2.5, 2) had 3 x centers for a size of 5.0, and a
    # bool was taken as one column
    for args, name in (((0.0, 0.0, 1.0, count, 2), "ncols"), ((0.0, 0.0, 1.0, 2, count), "nrows")):
        with pytest.raises(InvalidValueError, match=f"^{name} must be an integer, got "):
            GridSpec(*args)


@pytest.mark.parametrize("count", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_gridspec_takes_python_and_numpy_integer_counts(count):
    grid = GridSpec(0.0, 0.0, 1.0, count, count)
    assert grid.size == 9
    assert len(grid.x_coords()) == len(grid.y_coords()) == 3


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
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(amenities=(Amenity("a", 0, 0, True),),
              profiles={"p": Profile("p", efficiency=False)})
    assert codes(excinfo) == {("NonFiniteValue", "a"), ("NonPositiveEfficiency", "p")}


def test_numpy_scalars_and_huge_ints_in_a_scene():
    # numpy scalars pass the finite-number check like floats; an int beyond
    # the float range is reported, not raised from math.isfinite
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(amenities=(Amenity("a", np.float32(1.5), np.int64(2), np.float64(3.0)),
                         Amenity("b", 10 ** 400, 0.0, 1.0)))
    assert codes(excinfo) == {("NonFiniteValue", "b")}


# scenes that break invariants, with the violations validate_scene reported
# for each before a scene was checked when built: (code, subject, message),
# in order
_A, _B = Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0)
_GHOST = "profile {!r} overrides amenity 'ghost' which is not in the scene"
_E = "profile efficiency must be finite and > 0, got {}"
VIOLATION_CASES = {
    "duplicate-id": (
        dict(amenities=(Amenity("p", 0.0, 0.0, 3.0), Amenity("p", 1.0, 1.0, 2.0))),
        [("DuplicateId", "p", "amenity id appears more than once")]),
    "unknown-override": (
        dict(amenities=(Amenity("p", 0.0, 0.0, 3.0),),
             profiles={"alice": Profile("alice", overrides={"ghost": 5.0})}),
        [("UnknownOverrideTarget", "ghost", _GHOST.format("alice"))]),
    "all-in-one-pass": (
        dict(amenities=(Amenity("", 0.0, 0.0, 1.0), Amenity("q", math.nan, 0.0, math.inf)),
             profiles={"bad": Profile("bad", efficiency=-1.0, overrides={"ghost": 1.0})},
             majority="nobody"),
        [("EmptyId", "", "amenity id must be non-empty text"),
         ("NonFiniteValue", "q", "attractiveness is not a finite number: inf"),
         ("NonFiniteValue", "q", "x is not a finite number: nan"),
         ("NonPositiveEfficiency", "bad", _E.format(-1.0)),
         ("UnknownOverrideTarget", "ghost", _GHOST.format("bad")),
         ("UnknownProfile", "nobody", "majority names a profile that does not exist")]),
    "bool": (
        dict(amenities=(Amenity("a", 0, 0, True),),
             profiles={"p": Profile("p", efficiency=False)}),
        [("NonFiniteValue", "a", "attractiveness is not a finite number: True"),
         ("NonPositiveEfficiency", "p", _E.format(False))]),
    "huge-int": (
        dict(amenities=(Amenity("a", np.float32(1.5), np.int64(2), np.float64(3.0)),
                        Amenity("b", 10 ** 400, 0.0, 1.0))),
        [("NonFiniteValue", "b", f"x is not a finite number: {10 ** 400}")]),
    "non-text-id": (
        dict(amenities=(Amenity(7, 0.0, 0.0, 1.0), _A, Amenity("a", 1.0, "2", -math.inf))),
        [("NonTextId", "7", "amenity id must be text, got 7"),
         ("DuplicateId", "a", "amenity id appears more than once"),
         ("NonFiniteValue", "a", "attractiveness is not a finite number: -inf"),
         ("NonFiniteValue", "a", "y is not a finite number: '2'")]),
    "inf-y": (
        dict(amenities=(_A, _B, Amenity("c", 1.0, math.inf, 1.0))),
        [("NonFiniteValue", "c", "y is not a finite number: inf")]),
    **{f"override-{label}": (
        dict(amenities=(_A, _B), profiles={"p": Profile("p", overrides={"b": value})}),
        [("NonFiniteValue", "p:b", f"override value is not a finite number: {value!r}")])
       for label, value in (("text", "2.5"), ("bool", True), ("nan", math.nan))},
    **{f"E-{label}": (
        dict(amenities=(_A, _B), profiles={"p": Profile("p", efficiency=value)}),
        [("NonPositiveEfficiency", "p", _E.format(repr(value)))])
       for label, value in (("bool", True), ("text", "2"), ("zero", 0), ("nan", math.nan))},
    "unknown-majority": (
        dict(amenities=(_A, _B), profiles={"p": Profile("p")}, majority="q"),
        [("UnknownProfile", "q", "majority names a profile that does not exist")]),
}


@pytest.mark.parametrize("case", VIOLATION_CASES)
def test_building_a_scene_reports_what_validate_scene_reports(case):
    fields, want = VIOLATION_CASES[case]
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(**fields)
    assert [(v.code, v.subject, v.message) for v in excinfo.value.violations] == want
    if "profiles" not in fields and "majority" not in fields:  # a sequence reads as that scene
        with pytest.raises(SceneValidationError) as excinfo:
            validate_scene(list(fields["amenities"]))
        assert [(v.code, v.subject, v.message) for v in excinfo.value.violations] == want


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


def test_a_public_scene_holds_its_ids_and_columns_once_built():
    scene = Scene(amenities=tuple(Amenity(i, float(x), float(y), float(a))
                                  for i, x, y, a in AMENITY_ROWS))
    ids = tuple(row[0] for row in AMENITY_ROWS)
    want = [list(row) for row in zip(*AMENITY_ROWS)][1:]
    for built in (scene, copy.deepcopy(scene), pickle.loads(pickle.dumps(scene)),
                  dataclasses.replace(scene, majority=None)):
        state = vars(built)  # set, not computed on first read
        assert state["_ids"] == ids
        assert state["_columns"].tolist() == want and not state["_columns"].flags.writeable
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(amenities=(Amenity("a", 0.0, math.nan, 1.0),))
    assert codes(excinfo) == {("NonFiniteValue", "a")}


def test_an_invalid_library_scene_is_refused_naming_the_amenity():
    # the scene is refused when it is built, from Amenity objects or by an
    # entry that takes their sequence
    good = (Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0))
    amenities = good + (Amenity("c", 1.0, math.inf, 1.0),)
    for build in (Scene, lambda ams: validate_scene(ams),
                  lambda ams: evaluate_field(ams, Kernel("rational", 1.0),
                                             GridSpec(0.0, 0.0, 1.0, 2, 2)),
                  lambda ams: huff_probabilities((1.0, 1.0), ams),
                  lambda ams: numeric_breakpoint(*good, Kernel("rational", 1.0),
                                                 scene_context=ams)):
        with pytest.raises(SceneValidationError) as excinfo:
            build(amenities)
        assert [str(v) for v in excinfo.value.violations] == [
            "NonFiniteValue('c'): y is not a finite number: inf"]
    # so is a profile's override value, naming the profile and the amenity
    with pytest.raises(SceneValidationError) as excinfo:
        Scene(amenities=good, profiles={"p": Profile("p", overrides={"b": math.nan})})
    assert codes(excinfo) == {("NonFiniteValue", "p:b")}


@pytest.mark.parametrize("value", [True, "2.5", np.float64(2.5), np.int64(2)],
                         ids=["bool", "text", "float64", "int64"])
@pytest.mark.parametrize("name", ["x", "y", "attractiveness"])
@pytest.mark.parametrize("where", [1, 2])  # in the pair, in the context only
def test_every_reader_of_amenity_values_follows_the_rule_of_validate_scene(value, name, where):
    # a finite real number, bools excluded: numpy scalars are read as the
    # floats they equal, True and text are refused naming the amenity, by
    # the scene built from them, or as a breakpoint's pair argument
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
        violation = (f"NonFiniteValue({mixed[where].id!r}): "
                     f"{name} is not a finite number: {value!r}")
        with pytest.raises(SceneValidationError) as excinfo:
            Scene(mixed)
        assert [str(v) for v in excinfo.value.violations] == [violation]
        message = f"amenity {mixed[where].id!r} {name} must be finite, got {value!r}"
        for read in readers:
            with pytest.raises((SceneValidationError, InvalidValueError)) as excinfo:
                read(mixed)
            if isinstance(excinfo.value, SceneValidationError):
                assert [str(v) for v in excinfo.value.violations] == [violation]
            else:
                assert read is readers[2] and where == 1 and str(excinfo.value) == message
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


@pytest.mark.parametrize("profile, violation", [
    (Profile("p", overrides={"b": "2.5"}),
     "NonFiniteValue('p:b'): override value is not a finite number: '2.5'"),
    (Profile("p", overrides={"b": True}),
     "NonFiniteValue('p:b'): override value is not a finite number: True"),
    (Profile("p", overrides={"b": math.nan}),
     "NonFiniteValue('p:b'): override value is not a finite number: nan"),
    (Profile("p", efficiency=True),
     "NonPositiveEfficiency('p'): profile efficiency must be finite and > 0, got True"),
    (Profile("p", efficiency="2"),
     "NonPositiveEfficiency('p'): profile efficiency must be finite and > 0, got '2'"),
    (Profile("p", efficiency=0),
     "NonPositiveEfficiency('p'): profile efficiency must be finite and > 0, got 0"),
    (Profile("p", efficiency=math.nan),
     "NonPositiveEfficiency('p'): profile efficiency must be finite and > 0, got nan"),
], ids=["override-text", "override-bool", "override-nan", "E-bool", "E-text", "E-zero", "E-nan"])
@pytest.mark.parametrize("read", PROFILE_READERS,
                         ids=["field", "parts", "pgg-person", "pgg-majority", "resolve"])
def test_a_profile_value_that_validate_scene_refuses_is_refused_by_every_resolver(
        profile, violation, read):
    # no resolver is handed the profile: the scene that would hold it is
    # refused when it is built, naming the profile (and the amenity)
    scene = Scene(amenities=(Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0)),
                  profiles={"p": Profile("p", efficiency=2.0, overrides={"b": 3.0})})
    kernel, grid = Kernel("rational", 1.0), GridSpec(0.0, 0.0, 1.0, 3, 2)
    read(scene, kernel, grid)
    with pytest.raises(SceneValidationError) as excinfo:
        read(dataclasses.replace(scene, profiles={"p": profile}), kernel, grid)
    assert [str(v) for v in excinfo.value.violations] == [violation]


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


# every library argument that takes a number, by the name its refusal
# gives it, with a call that passes it one value: each follows the rule of
# validate_scene, a finite real number with bools excluded
PAIR = (Amenity("a", 0.0, 0.0, 1.0), Amenity("b", 4.0, 0.0, 2.0))
RATIONAL = Kernel("rational", 1.0)
RAMP = Raster(GridSpec(0.0, 0.0, 1.0, 2, 2), [0.0, 1.0, 0.0, 1.0])
NUMBER_ARGUMENTS = {
    "kernel efficiency": lambda v: Kernel("rational", v),
    "cell_size": lambda v: GridSpec(0.0, 0.0, v, 2, 2),
    "grid origin": lambda v: GridSpec(0.0, v, 1.0, 2, 2),
    "raster values": lambda v: Raster(GridSpec(0.0, 0.0, 1.0, 2, 1), [1.0, v]),
    "attractiveness": lambda v: kernel_benefit(v, 1.0, RATIONAL),
    "distance": lambda v: kernel_benefit(1.0, v, RATIONAL),
    "query point x": lambda v: point_benefit(PAIR, RATIONAL, v, 0.0),
    "query point y": lambda v: point_benefit(PAIR, RATIONAL, 1.0, [v, 0.0]),
    "origin": lambda v: huff_probabilities((1.0, v), PAIR),
    "distance exponent": lambda v: huff_probabilities((1.0, 1.0), PAIR, v),
    "levels": lambda v: extract_isolines(RAMP, levels=[0.5, v]),
}
# the arguments that also take an array, with a call that passes one
ARRAY_ARGUMENTS = [
    ("raster values", lambda a: Raster(GridSpec(0.0, 0.0, 1.0, 2, 1), a)),
    ("raster values", uniformity),  # a bare array
    ("raster values", summary),
    ("distance", lambda a: kernel_benefit(1.0, a, RATIONAL)),
    ("query point x", lambda a: point_benefit(PAIR, RATIONAL, a, 0.0)),
    ("query point y", lambda a: point_benefit(PAIR, RATIONAL, 1.0, a)),
    ("origin", lambda a: huff_probabilities(a, PAIR)),
    ("levels", lambda a: extract_isolines(RAMP, levels=a)),
]
BAD_NUMBERS = {"bool": True, "text": "2.5", "None": None, "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "huge-int": 10 ** 400}
BAD_ARRAYS = {"bool-array": np.array([True, False]), "text-array": np.array(["1", "2"]),
              "object-array": np.array([1.0, 2.0], dtype=object),
              "complex-array": np.array([1.0, 2.0j]), "nan-array": np.array([1.0, math.nan])}
# arguments of the wrong type, by the name and the rule of their refusal,
# with a call that passes one: an item that is not an Amenity is named by
# its index, and query shapes by both shapes. A scene argument is a Scene
# or a sequence of Amenity, which is a scene without profiles: a row that
# names a third item expects that error instead of an InvalidValueError
SCENE = Scene(PAIR, profiles={"p": Profile("p", efficiency=2.0, overrides={"a": 3.0})})
GRID = GridSpec(0.0, 0.0, 1.0, 2, 2)
TUPLE_GRID = (0.0, 0.0, 1.0, 2, 2)
WRONG_TYPES = {
    "Scene-item": ("amenity #1 must be of type Amenity, got 2", lambda: Scene([PAIR[0], 2])),
    "point_benefit-amenities": ("amenity #0 must be of type Amenity, got 'x'",
                                lambda: point_benefit(["x"], RATIONAL, 0.0, 0.0)),
    "huff-amenities": ("amenity #0 must be of type Amenity, got 1",
                       lambda: huff_probabilities((5, 5), [1, 2])),
    "numeric-context": ("amenity #0 must be of type Amenity, got 1",
                        lambda: numeric_breakpoint(*PAIR, RATIONAL, scene_context=[1])),
    "reilly-pair": ("amenity #0 must be of type Amenity, got 1", lambda: reilly_breakpoint(1, 2)),
    "reilly-second": ("amenity #1 must be of type Amenity, got 2",
                      lambda: reilly_breakpoint(PAIR[0], 2)),
    "numeric-pair": ("amenity #0 must be of type Amenity, got 1",
                     lambda: numeric_breakpoint(1, 2, RATIONAL)),
    "field-grid": ("grid must be of type GridSpec",
                   lambda: evaluate_field(SCENE, RATIONAL, TUPLE_GRID)),
    "parts-grid": ("grid must be of type GridSpec",
                   lambda: evaluate_field_parts(SCENE, RATIONAL, TUPLE_GRID)),
    "pgg-grid": ("grid must be of type GridSpec",
                 lambda: pgg_field(SCENE, RATIONAL, TUPLE_GRID, "p")),
    "kernel_benefit-kernel": ("kernel must be of type Kernel",
                              lambda: kernel_benefit(1.0, 1.0, "rational")),
    "point_benefit-kernel": ("kernel must be of type Kernel",
                             lambda: point_benefit(SCENE, "rational", 0.0, 0.0)),
    "field-kernel": ("kernel must be of type Kernel",
                     lambda: evaluate_field(SCENE, "rational", GRID)),
    "numeric-kernel": ("kernel must be of type Kernel",
                       lambda: numeric_breakpoint(*PAIR, "rational")),
    "resolve-kernel": ("kernel must be of type Kernel",
                       lambda: resolve_profile(SCENE, "rational")),
    "resolve-profile-kernel": ("kernel must be of type Kernel",
                               lambda: resolve_profile(SCENE, "rational", "p")),
    "pgg-kernel": ("kernel must be of type Kernel",
                   lambda: pgg_field(SCENE, "rational", GRID, "p")),
    "point_benefit-shapes": ("query point shapes must be broadcastable together, "
                             "got ((2,), (3,))",
                             lambda: point_benefit(SCENE, RATIONAL, np.zeros(2), np.zeros(3))),
    "Scene-amenities": ("amenities must be a sequence of Amenity, got 5", lambda: Scene(5)),
    "point_benefit-scene": ("amenities must be a sequence of Amenity, got 5",
                            lambda: point_benefit(5, RATIONAL, 0.0, 0.0)),
    "field-scene": ("amenities must be a sequence of Amenity, got 5",
                    lambda: evaluate_field(5, RATIONAL, GRID)),
    "field-None": ("amenities must be a sequence of Amenity, got None",
                   lambda: evaluate_field(None, RATIONAL, GRID)),
    "huff-None": ("amenities must be a sequence of Amenity, got None",
                  lambda: huff_probabilities((1.0, 1.0), None)),
    "numeric-context-scene": ("amenities must be a sequence of Amenity, got 5",
                              lambda: numeric_breakpoint(*PAIR, RATIONAL, scene_context=5)),
    "pgg-scene": ("amenities must be a sequence of Amenity, got 5",
                  lambda: pgg_field(5, RATIONAL, GRID, None)),
    "validate-None": ("amenities must be a sequence of Amenity, got None",
                      lambda: validate_scene(None)),
    "field-sequence-profile": ("profile 'p' not found; scene has no profiles",
                               lambda: evaluate_field(list(PAIR), RATIONAL, GRID, "p"),
                               UnknownProfileError),
    "resolve-sequence-profile": ("profile 'p' not found; scene has no profiles",
                                 lambda: resolve_profile(list(PAIR), RATIONAL, "p"),
                                 UnknownProfileError),
    "Scene-profiles": ("profiles must be of type Mapping, got 5",
                       lambda: Scene(PAIR, profiles=5)),
    "Scene-profile-list": ("profiles must be of type Mapping, got [Profile(",
                           lambda: Scene(PAIR, profiles=[Profile("p")])),
    "Scene-profile": ("profile 'p' must be of type Profile, got 5",
                      lambda: Scene(PAIR, profiles={"p": 5})),
    "Profile-overrides": ("profile 'p' overrides must be of type Mapping, got 5",
                          lambda: Profile("p", overrides=5)),
    "Profile-overrides-list": ("profile 'p' overrides must be of type Mapping, got [1]",
                               lambda: Profile("p", overrides=[1])),
    "Scene-majority": ("majority must be of type str, got ['p']",
                       lambda: Scene(PAIR, majority=["p"])),
    "Scene-profile-name": ("profile name must be of type str, got 5",
                           lambda: Scene(PAIR, profiles={5: Profile("p")})),
    "Scene-profile-other-name": ("profile 'x' name must be 'x', got 'y'",
                                 lambda: Scene(PAIR, profiles={"x": Profile("y", 2.0)},
                                               majority="x")),
    "Scene-profile-non-text-name": ("profile 'p' name must be 'p', got 5",
                                    lambda: Scene(PAIR, profiles={"p": Profile(5)})),
    "field-profile-name": ("profile name must be of type str, got ['p']",
                           lambda: evaluate_field(SCENE, RATIONAL, GRID, ["p"])),
    "pgg-majority-name": ("profile name must be of type str, got ['p']",
                          lambda: pgg_field(SCENE, RATIONAL, GRID, None, ["p"])),
    "resolve-profile-name": ("profile name must be of type str, got {}",
                             lambda: resolve_profile(SCENE, RATIONAL, {})),
}


# an infinite distance gives 0.0, and a negative one has its own error
@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{label}")
    for name in NUMBER_ARGUMENTS for label, value in BAD_NUMBERS.items()
    if not (name == "distance" and label in ("inf", "-inf"))])
def test_a_number_argument_refuses_what_is_not_a_finite_real_number(name, value):
    with pytest.raises(InvalidValueError) as excinfo:
        NUMBER_ARGUMENTS[name](value)
    assert str(excinfo.value).startswith(f"{name} must ")


# a NaN distance has its own message, which test_field.py pins
@pytest.mark.parametrize("name, call, array", [
    pytest.param(name, call, array, id=f"{name}-{label}")
    for name, call in ARRAY_ARGUMENTS for label, array in BAD_ARRAYS.items()
    if not (name == "distance" and label == "nan-array")])
def test_an_array_argument_refuses_arrays_that_are_not_finite_real_numbers(name, call, array):
    with pytest.raises(InvalidValueError) as excinfo:
        call(array)
    message = str(excinfo.value)
    assert message.startswith(f"{name} must ")
    assert "\n" not in message and "array(" not in message  # one value or dtype, not the array


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_an_argument_of_the_wrong_type_is_refused_by_name(case):
    message, call, *error = WRONG_TYPES[case]
    with pytest.raises(error[0] if error else InvalidValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(message)


# every entry that takes a scene, with a call that reads one into bytes (a
# repr of shortest round-trip floats for the Python results)
CONTEXT = PAIR + (Amenity("c", 2.0, 3.0, 0.5),)
POINTS = (np.linspace(-1.0, 5.0, 7), np.linspace(2.0, -1.0, 7))
SCENE_READERS = {
    "point_benefit": lambda s: [part.tobytes() for part in
                                dataclasses.astuple(point_benefit(s, RATIONAL, *POINTS))],
    "evaluate_field": lambda s: evaluate_field(s, RATIONAL, GRID).values.tobytes(),
    "evaluate_field_parts": lambda s: [getattr(evaluate_field_parts(s, RATIONAL, GRID),
                                               part).values.tobytes()
                                       for part in ("total", "positive", "negative")],
    "pgg_field": lambda s: pgg_field(s, RATIONAL, GRID, None).values.tobytes(),
    "huff_probabilities": lambda s: repr(huff_probabilities((1.0, 5.0), s)),
    "breakpoint-context": lambda s: repr(numeric_breakpoint(*PAIR, RATIONAL, scene_context=s)),
    "validate_scene": lambda s: repr(validate_scene(s)),
    "resolve_profile": lambda s: repr(resolve_profile(s, RATIONAL)),
}


@pytest.mark.parametrize("read", SCENE_READERS.values(), ids=SCENE_READERS)
def test_a_sequence_of_amenities_reads_as_the_scene_made_from_it(read):
    assert read(list(CONTEXT)) == read(Scene(CONTEXT))


# a repeated id was summed twice, and Huff's probabilities added up to less
# than 1: every entry now refuses the scene it builds from such a sequence
@pytest.mark.parametrize("read", SCENE_READERS.values(), ids=SCENE_READERS)
def test_every_entry_refuses_a_sequence_that_repeats_an_id(read):
    with pytest.raises(SceneValidationError) as excinfo:
        read(list(CONTEXT) + [Amenity("a", 2.0, 0.0, 1.0)])
    assert codes(excinfo) == {("DuplicateId", "a")}


# a public scene's columns take what _finite_number takes, and building the
# scene names each value they refuse
@pytest.mark.parametrize("value, taken", [
    (np.float32(1.5), True), (np.int64(2), True), (fractions.Fraction(3, 2), True),
    (10 ** 300, True), (10 ** 400, False), (True, False), ("1.5", False),
    (math.nan, False), (math.inf, False), (-math.inf, False)],
    ids=["float32", "int64", "Fraction", "int-1e300", "int-1e400", "bool", "text", "nan",
         "inf", "-inf"])
@pytest.mark.parametrize("what", ["x", "y", "attractiveness"])
def test_a_public_scene_has_columns_exactly_when_every_value_is_a_finite_number(
        value, taken, what):
    values = {"x": 1.0, "y": 2.0, "attractiveness": 3.0, what: value}
    assert bool(_finite_number(value)) is taken
    if taken:
        scene = Scene((PAIR[0], Amenity("v", **values)))
        assert scene._columns[:, 1].tolist() == [float(values[k]) for k in ("x", "y",
                                                                        "attractiveness")]
        assert validate_scene(scene) is scene
    else:
        with pytest.raises(SceneValidationError) as excinfo:
            Scene((PAIR[0], Amenity("v", **values)))
        assert [v.message for v in excinfo.value.violations] == [
            f"{what} is not a finite number: {value!r}"]


def test_a_scalar_argument_refuses_an_array_even_of_finite_numbers():
    for name in ("kernel efficiency", "cell_size", "grid origin", "attractiveness",
                 "distance exponent"):
        with pytest.raises(InvalidValueError, match=f"^{name} must "):
            NUMBER_ARGUMENTS[name](np.array([2.0]))


def test_a_large_refused_raster_is_named_in_one_line():
    values = np.ones(384 * 384)
    values[1000] = math.nan
    with pytest.raises(InvalidValueError) as excinfo:
        Raster(GridSpec(0.0, 0.0, 1.0, 384, 384), values)
    assert str(excinfo.value) == "raster values must be finite, got nan"
    with pytest.raises(InvalidValueError) as excinfo:
        Raster(GridSpec(0.0, 0.0, 1.0, 384, 384), values > 0)
    assert str(excinfo.value) == "raster values must be finite, got dtype('bool')"


@pytest.mark.parametrize("count", [2.5, True, "7", np.float64(7.0)])
def test_a_count_argument_refuses_what_is_not_an_integer(count):
    with pytest.raises(InvalidValueError, match="^resolution must be an integer, got "):
        numeric_breakpoint(*PAIR, RATIONAL, resolution=count)
    with pytest.raises(InvalidValueError, match="^nlevels must be an integer, got "):
        extract_isolines(RAMP, nlevels=count)


@pytest.mark.parametrize("name, call, low", [
    ("resolution", lambda n: numeric_breakpoint(*PAIR, RATIONAL, resolution=n), 3),
    ("nlevels", lambda n: extract_isolines(RAMP, nlevels=n), 1),
])
def test_a_count_argument_refuses_a_count_out_of_its_range(name, call, low):
    for count in (low - 1, MAX_GRID_CELLS + 1):
        message = f"{name} must be between {low} and {MAX_GRID_CELLS}, got {count}"
        with pytest.raises(InvalidValueError, match=f"^{message}$"):
            call(count)


def test_numpy_numbers_and_integer_arrays_are_taken_as_the_floats_they_equal():
    grid = GridSpec(np.float32(0.5), np.int64(0), np.float64(1.0), np.int32(2), np.uint8(1))
    assert grid == GridSpec(0.5, 0.0, 1.0, 2, 1)
    assert Raster(grid, np.array([1, 2])).values.tolist() == [1.0, 2.0]
    assert Kernel("rational", np.float64(2.0)).efficiency == 2.0
    assert kernel_benefit(np.int64(2), np.array([0, 1]), RATIONAL).tolist() == [2.0, 1.0]
    assert kernel_benefit(2.0, [0, math.inf], RATIONAL).tolist() == [2.0, 0.0]
    int_query = point_benefit(PAIR, RATIONAL, np.array([1, 2]), np.int64(1))
    float_query = point_benefit(PAIR, RATIONAL, np.array([1.0, 2.0]), 1.0)
    assert int_query.total.tolist() == float_query.total.tolist()
    assert (huff_probabilities(np.array([1, 1]), PAIR, np.float64(2.0))
            == huff_probabilities((1.0, 1.0), PAIR, 2.0))
    assert (extract_isolines(RAMP, levels=np.array([0, 1]))
            == extract_isolines(RAMP, levels=[0.0, 1.0]))
    assert extract_isolines(RAMP, nlevels=np.int32(2)) == extract_isolines(RAMP, nlevels=2)
    assert (numeric_breakpoint(*PAIR, RATIONAL, resolution=np.int64(11))
            == numeric_breakpoint(*PAIR, RATIONAL, resolution=11))
    assert summary(np.array([1, 2, 3])) == summary([1.0, 2.0, 3.0])
    assert uniformity(np.array([[1, 2], [3, 4]])) == uniformity([1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("levels", [0.5, np.array([[0.5, 1.0]])])
def test_levels_must_be_one_dimensional(levels):
    with pytest.raises(InvalidValueError, match="^levels must be a 1-D sequence, got "):
        extract_isolines(RAMP, levels=levels)


@pytest.mark.parametrize("origin", [(1.0,), (1.0, 2.0, 3.0), 1.0, np.array([[1.0, 2.0]])])
def test_a_huff_origin_is_exactly_one_pair(origin):
    with pytest.raises(InvalidValueError, match=r"^origin must be one \(x, y\) pair, got "):
        huff_probabilities(origin, PAIR)
