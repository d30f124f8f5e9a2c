"""Domain model: amenities, decay kernels, grids, rasters, preference profiles.

All types are immutable after construction and safe to share across threads.
``Amenity``/``Profile``/``Scene`` accept whatever they are given so that
:func:`validate_scene` can report *every* violation in one pass; ``Kernel``,
``GridSpec`` and ``Raster`` are plumbing types and reject bad values
immediately.

A ``Scene`` carries its amenities as their ids and one read-only (3, n)
float array whose rows are x, y and attractiveness. Validation, fields,
Huff, breakpoint contexts and PGG read the numbers from that array. The
scene loaders build it straight from the file, and build no
``Amenity`` object: ``scene.amenities`` is made from the columns when it is
first read, and then kept. A scene built the public way,
``Scene(amenities=...)``, holds its ``Amenity`` objects and makes its
columns when they are first read. One rule decides which values a scene's
columns can hold, that of :func:`validate_scene`: finite real numbers,
bools excluded. The columns of a public scene are None if some coordinate
or attractiveness breaks it; :func:`validate_scene` then reports every
culprit. Either cache is filled at most once, with values computed from
the scene's own immutable fields, so two threads that fill it at once store
equal values. A scene's ``profiles`` and a profile's ``overrides`` are
read-only dicts, which ``dataclasses.asdict`` and ``copy.deepcopy`` can
copy.

This module is also the one gate between a scene's values and the
arithmetic of the other modules, under the same rule:

- ``_checked_columns`` hands out a scene's columns, and
  ``_refuse_bad_values`` is the one culprit-namer: the fields, point
  queries, Huff and both breakpoints (whose pair it checks first) refuse
  the first bad value with an :class:`~isobenefit.errors.InvalidValueError`
  naming the amenity.
- ``_resolved_scene`` is the one profile resolver, behind the fields, PGG
  and :func:`resolve_profile`: it applies the overrides to a copy of the
  columns and the personal E to the kernel, and refuses a value that
  :func:`validate_scene` would refuse, naming the profile (and the
  amenity).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidValueError, SceneValidationError, UnknownProfileError, Violation

KERNEL_FAMILIES = ("rational", "gaussian", "exponential")

# Largest GridSpec accepted (8192 x 8192 cells): one float raster of this
# size takes 512 MiB, and a field evaluation holds a few of them at once.
MAX_GRID_CELLS = 2 ** 26


def _finite_number(value: object, positive: bool = False) -> bool:
    """True for a finite real number (> 0 if ``positive``); bools excluded."""
    kind = type(value)
    # exact float and int skip the slow ABC check; bool is its own type
    if kind is not float and kind is not int and (
            kind is bool or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value) and (value > 0 or not positive)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Amenity:
    """A point attraction (positive attractiveness) or repulsion (negative).

    Zero attractiveness is allowed and inert. Coordinates are planar
    Euclidean in any consistent length unit.
    """

    id: str
    x: float
    y: float
    attractiveness: float


@dataclass(frozen=True)
class Kernel:
    """Distance-decay law: family plus moving-efficiency coefficient E.

    Careful with E: the ``rational`` family decays *slower* for larger E,
    while ``gaussian`` and ``exponential`` decay *faster* for larger E. The
    three families deliberately keep these opposite conventions; see
    :func:`isobenefit.field.kernel_benefit`.
    """

    family: str
    efficiency: float

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise InvalidValueError(
                f"unknown kernel family {self.family!r}; "
                f"expected one of {', '.join(KERNEL_FAMILIES)}"
            )
        e = self.efficiency
        if not _finite_number(e, positive=True):
            raise InvalidValueError(f"kernel efficiency must be finite and > 0, got {e!r}")


@dataclass(frozen=True)
class GridSpec:
    """Evaluation lattice: cell (i, j) has center
    (origin_x + i*cell_size, origin_y + j*cell_size), i counting columns
    left to right and j counting rows bottom to top."""

    origin_x: float
    origin_y: float
    cell_size: float
    ncols: int
    nrows: int

    def __post_init__(self) -> None:
        if not _finite_number(self.cell_size, positive=True):
            raise InvalidValueError(f"cell_size must be finite and > 0, got {self.cell_size!r}")
        if self.ncols < 1 or self.nrows < 1:
            raise InvalidValueError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if self.ncols * self.nrows > MAX_GRID_CELLS:
            raise InvalidValueError(
                f"grid of {self.ncols}x{self.nrows} = {self.ncols * self.nrows} cells "
                f"exceeds the limit of {MAX_GRID_CELLS} cells")
        if not (_finite_number(self.origin_x) and _finite_number(self.origin_y)):
            raise InvalidValueError("grid origin must be finite")
        # the last cell centers, computed as x_coords and y_coords compute them
        last_x = self.origin_x + (self.ncols - 1) * self.cell_size
        last_y = self.origin_y + (self.nrows - 1) * self.cell_size
        if not (math.isfinite(last_x) and math.isfinite(last_y)):
            raise InvalidValueError(
                f"grid cell centers must be finite, got a last center of ({last_x!r}, {last_y!r})")

    @property
    def size(self) -> int:
        return self.ncols * self.nrows

    def x_coords(self) -> np.ndarray:
        """Cell-center x coordinates, length ncols."""
        return self.origin_x + np.arange(self.ncols, dtype=float) * self.cell_size

    def y_coords(self) -> np.ndarray:
        """Cell-center y coordinates, length nrows (bottom row first)."""
        return self.origin_y + np.arange(self.nrows, dtype=float) * self.cell_size

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (
            self.origin_x + i * self.cell_size,
            self.origin_y + j * self.cell_size,
        )


@dataclass(frozen=True, eq=False)
class Raster:
    """Benefit values sampled on a grid.

    ``values`` is a read-only float64 array of length ncols*nrows, row-major
    from the bottom row upward: cell (i, j) lives at index j*ncols + i.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.size:
            raise InvalidValueError(
                f"raster has {v.size} values but grid is "
                f"{self.grid.ncols}x{self.grid.nrows} = {self.grid.size} cells"
            )
        if not np.isfinite(v).all():
            raise InvalidValueError("raster values must all be finite")
        if np.may_share_memory(v, self.values):  # decouple from the caller's buffer
            v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def as_grid(self) -> np.ndarray:
        """Values as a (nrows, ncols) read-only view, row 0 = bottom row."""
        return self.values.reshape(self.grid.nrows, self.grid.ncols)

    def value_at(self, i: int, j: int) -> float:
        return float(self.values[j * self.grid.ncols + i])


class _ReadOnlyDict(dict):
    """A dict that refuses every change after construction."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} does not support item assignment")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it whole, not item by item
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Profile:
    """A named preference set: optional personal efficiency E and per-amenity
    attractiveness overrides (amenity id -> personal value)."""

    name: str
    efficiency: float | None = None
    overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", _ReadOnlyDict(self.overrides))


@dataclass(frozen=True)
class Scene:
    """All amenities of a study area plus any preference profiles.

    ``majority`` optionally names the profile that stands for the baseline
    preferences of most citizens; when unset, the unmodified scene is the
    baseline. The amenity ids and columns are cached as the module
    docstring describes.
    """

    amenities: tuple[Amenity, ...]
    profiles: Mapping[str, Profile] = field(default_factory=dict)
    majority: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "amenities", tuple(self.amenities))
        object.__setattr__(self, "profiles", _ReadOnlyDict(self.profiles))

    @classmethod
    def _from_columns(cls, ids, columns: np.ndarray,
                      profiles: Mapping[str, Profile] = _ReadOnlyDict(),
                      majority: str | None = None) -> Scene:
        """A scene of the amenities with these ids whose x, y and
        attractiveness are the rows of ``columns``, a (3, n) float array
        that the scene makes read-only and keeps. Its ``Amenity`` objects
        are built when ``amenities`` is first read."""
        scene = object.__new__(cls)
        columns.flags.writeable = False
        for name, value in (("_ids", tuple(ids)), ("_columns", columns),
                            ("profiles", _ReadOnlyDict(profiles)), ("majority", majority)):
            object.__setattr__(scene, name, value)
        return scene

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled scene keeps its columns read-only
        for name, value in state.items():
            object.__setattr__(self, name, value)
        if state.get("_columns") is not None:
            self._columns.flags.writeable = False

    def __getattr__(self, name: str):
        # reached only for an attribute not set yet: a part built on first use
        state = self.__dict__
        if name == "amenities" and "_columns" in state:
            value = tuple(map(Amenity, state["_ids"], *state["_columns"].tolist()))
        elif name == "_ids" and "amenities" in state:
            value = tuple(am.id for am in state["amenities"])
        elif name == "_columns" and "amenities" in state:
            value = _float_columns(state["amenities"])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value


def _check_finite(code: str, subject: str, what: str, value: object,
                  out: list[Violation]) -> None:
    if not _finite_number(value):
        out.append(Violation(code, subject, f"{what} is not a finite number: {value!r}"))


def _float_columns(amenities: tuple[Amenity, ...]) -> np.ndarray | None:
    """x, y and attractiveness of the amenities as the rows of a read-only
    (3, n) float array, or None unless :func:`_finite_number` accepts every
    value. numpy would convert ``True`` and ``"1.5"`` too, so the values
    are checked first: in bulk by type when all are exact floats and ints,
    else one by one (numpy scalars, for example)."""
    values = ([am.x for am in amenities], [am.y for am in amenities],
              [am.attractiveness for am in amenities])
    if not (set(map(type, itertools.chain(*values))) <= {float, int}
            or all(map(_finite_number, itertools.chain(*values)))):
        return None
    try:
        columns = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(columns).all():
        return None
    columns.flags.writeable = False
    return columns


def _sound_amenity_ids(scene: Scene) -> set[str] | None:
    """The set of amenity ids if every id is distinct non-empty text and
    every coordinate and attractiveness a finite real number, else None.
    Checked in bulk on the scene's ids and columns."""
    ids = scene._ids
    columns = scene._columns
    if columns is None or not set(map(type, ids)) <= {str}:
        return None
    seen = set(ids)
    if len(seen) != len(ids) or "" in seen or not np.isfinite(columns).all():
        return None
    return seen


def _sound_profiles(profiles: Mapping[str, Profile], ids: set[str]) -> bool:
    """True if every profile efficiency is a finite float or int > 0, and
    every override a finite float or int for an amenity in ``ids``. Checked
    in bulk: types and targets first, then one ``np.isfinite`` for all."""
    efficiencies = [p.efficiency for p in profiles.values() if p.efficiency is not None]
    overrides = [p.overrides for p in profiles.values()]
    values = efficiencies + [v for table in overrides for v in table.values()]
    if not (set(map(type, values)) <= {float, int}
            and all(table.keys() <= ids for table in overrides)):
        return False
    try:
        numbers = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return False
    return bool(np.isfinite(numbers).all() and (numbers[:len(efficiencies)] > 0).all())


def validate_scene(scene: Scene) -> Scene:
    """Check every scene invariant; return the scene unchanged if all hold.

    Raises :class:`SceneValidationError` carrying one :class:`Violation` per
    problem found: duplicate or empty amenity ids, non-finite coordinates or
    attractiveness, profile overrides naming unknown amenities, non-positive
    profile efficiencies, and a majority name that matches no profile.
    """
    violations: list[Violation] = []

    seen = _sound_amenity_ids(scene)
    if seen is None:  # some amenity is at fault: name every culprit, in order
        seen = set()
        for am in scene.amenities:
            if not isinstance(am.id, str) or not am.id:
                violations.append(Violation(
                    "EmptyId", str(am.id), "amenity id must be non-empty text"))
            elif am.id in seen:
                violations.append(Violation(
                    "DuplicateId", am.id, "amenity id appears more than once"))
            else:
                seen.add(am.id)
            subject = am.id if isinstance(am.id, str) else str(am.id)
            _check_finite("NonFiniteValue", subject, "attractiveness", am.attractiveness,
                          violations)
            _check_finite("NonFiniteValue", subject, "x", am.x, violations)
            _check_finite("NonFiniteValue", subject, "y", am.y, violations)

    if not _sound_profiles(scene.profiles, seen):  # name every culprit, in order
        for name, prof in scene.profiles.items():
            if prof.efficiency is not None and not _finite_number(prof.efficiency, positive=True):
                violations.append(Violation(
                    "NonPositiveEfficiency", name,
                    f"profile efficiency must be finite and > 0, got {prof.efficiency!r}"))
            for target, value in prof.overrides.items():
                if target not in seen:
                    violations.append(Violation(
                        "UnknownOverrideTarget", target,
                        f"profile {name!r} overrides amenity {target!r} which is not in the scene"))
                _check_finite("NonFiniteValue", f"{name}:{target}", "override value", value,
                              violations)

    if scene.majority is not None and scene.majority not in scene.profiles:
        violations.append(Violation(
            "UnknownProfile", scene.majority,
            "majority names a profile that does not exist"))

    if violations:
        raise SceneValidationError(violations)
    return scene


def resolve_profile(
    scene: Scene,
    kernel: Kernel,
    profile_name: str | None = None,
) -> tuple[tuple[Amenity, ...], Kernel]:
    """Apply a profile to the scene: per-amenity attractiveness overrides and
    the personal efficiency, where present, as :func:`_resolved_scene`
    checks and applies them.

    ``profile_name=None`` (or a profile with no overrides and no personal E)
    returns the baseline unchanged. Positions and the set of amenity ids are
    never altered.
    """
    resolved, kernel = _resolved_scene(scene, kernel, profile_name)
    return resolved.amenities, kernel


def _refuse_bad_values(amenities) -> None:
    """Raise :class:`InvalidValueError` naming the first amenity with an x,
    y or attractiveness that :func:`_finite_number` refuses: non-finite, a
    bool, text, or an integer beyond the float range."""
    for am in amenities:
        for name in ("x", "y", "attractiveness"):
            value = getattr(am, name)
            if not _finite_number(value):
                raise InvalidValueError(f"amenity {am.id!r} {name} must be finite, got {value!r}")


def _checked_columns(scene: Scene) -> np.ndarray:
    """The scene's read-only (3, n) columns of x, y and attractiveness, once
    every value is finite; else the first culprit is refused by
    :func:`_refuse_bad_values`."""
    columns = scene._columns
    if columns is not None and np.isfinite(columns).all():
        return columns
    _refuse_bad_values(scene.amenities)
    raise AssertionError("a non-finite amenity column without a non-finite value")


def _resolved_scene(scene: Scene, kernel: Kernel,
                    profile_name: str | None) -> tuple[Scene, Kernel]:
    """The amenities and the kernel of ``scene`` under a profile, with the
    amenities as a scene of columns: each override replaces the
    attractiveness of the amenities with its id, in a copy of the scene's
    columns, and a personal E replaces the kernel's. Without overrides the
    scene is ``scene`` itself. A personal E or an override value that
    :func:`validate_scene` would refuse raises :class:`InvalidValueError`
    naming the profile (and the amenity); an override of an id the scene
    does not hold is ignored."""
    if profile_name is None:
        return scene, kernel
    profile = scene.profiles.get(profile_name)
    if profile is None:
        raise UnknownProfileError(
            f"profile {profile_name!r} not found; scene has "
            f"{sorted(scene.profiles) or 'no profiles'}"
        )
    efficiency = profile.efficiency
    if efficiency is not None:
        if not _finite_number(efficiency, positive=True):
            raise InvalidValueError(f"profile {profile_name!r} efficiency must be finite "
                                    f"and > 0, got {efficiency!r}")
        kernel = dataclasses.replace(kernel, efficiency=float(efficiency))
    overrides = profile.overrides
    if not overrides:
        return scene, kernel
    columns = _checked_columns(scene).copy()
    for k, ident in enumerate(scene._ids):
        if ident in overrides:
            value = overrides[ident]
            if not _finite_number(value):
                raise InvalidValueError(f"profile {profile_name!r}: amenity {ident!r} "
                                        f"attractiveness must be finite, got {value!r}")
            columns[2, k] = float(value)
    return Scene._from_columns(scene._ids, columns), kernel
