"""Domain model: amenities, decay kernels, grids, rasters, preference profiles.

All types are immutable after construction and safe to share across threads;
a scene's private caches (its amenities, built on first read, and its field
memo) hold only values computed from its own columns.
A ``Scene`` is valid once built: its constructor ends by running
:func:`validate_scene`, which raises one
:class:`~isobenefit.errors.SceneValidationError` listing *every* violation
of the scene, its amenities and its profiles. ``Amenity`` and ``Profile``
accept whatever values they are given, so that the scene holding them can
report them all. A container of the wrong type is an argument problem,
refused first with an :class:`~isobenefit.errors.InvalidValueError`:
amenities that are not a sequence of ``Amenity`` (naming the first other
item by its index), profiles that are not a mapping of text to
``Profile``, a ``Profile`` whose name is not its key, a majority that is
not text, and a profile's overrides that are not a mapping. ``Kernel``,
``GridSpec`` and ``Raster`` are plumbing types and reject bad values
immediately.

Every public entry that takes a scene (the fields, point queries, PGG,
Huff, the breakpoint context, :func:`validate_scene` and
:func:`resolve_profile`) takes a ``Scene``, or a sequence of ``Amenity``
as a scene without profiles or a majority. ``_as_scene`` is the one
converter, called once per entry: it returns a ``Scene`` unchanged and
builds ``Scene(value)`` from anything else, which refuses it as above.

A ``Scene`` carries its amenities as their ids and one read-only (3, n)
float array whose rows are x, y and attractiveness. Validation, fields,
Huff, breakpoint contexts and PGG read the numbers from that array. A
scene built the public way, ``Scene(amenities=...)``, makes both from its
``Amenity`` objects when it is built. The scene loaders build them straight
from the file, and build no ``Amenity`` object: a loaded scene's
``amenities`` is made from the columns when it is first read, and then
kept. That cache is filled at most once, with values computed from the
scene's own immutable fields, so two threads that fill it at once store
equal values. One rule decides which values a scene's columns can hold,
that of :func:`validate_scene`: finite real numbers, bools excluded. A
public scene is checked when built, the loaders pass every scene they build
to :func:`validate_scene`, and the profile resolver and PGG build theirs
from a valid scene's columns; so every scene's columns and profile values
keep that rule, and the other modules read them unchecked. A scene's
``profiles`` and a profile's ``overrides`` are read-only dicts, which
``dataclasses.asdict`` and ``copy.deepcopy`` can copy.

This module is also the one gate between the numbers a caller supplies
and the arithmetic of the other modules, under the same rule:

- Library arguments. ``_finite_value`` refuses a number (E, a cell size,
  an attractiveness, a distance exponent) unless it is one finite real
  number. ``_real_array`` returns an argument that may be an array (raster
  values, query points, a Huff origin, levels, a distance) as a float
  ndarray, once it is a real number, a list or tuple of them, or an
  integer or float ndarray, with every value finite (a distance may be
  infinite). ``_count_value`` refuses a count (``resolution``,
  ``nlevels``, a grid's columns and rows) unless it is an integer in its
  range, and ``_type_value`` a kernel, a grid or an amenity unless it is a
  ``Kernel``, a ``GridSpec`` or an ``Amenity``. Each refusal is an
  :class:`~isobenefit.errors.InvalidValueError` of one shape,
  ``_refuse``'s: the argument's name, the rule, and the refused value (for
  an ndarray its first non-finite value or its dtype, so that the message
  stays one line).
- ``_refuse_bad_values`` checks the two ``Amenity`` arguments of both
  breakpoints, which are arguments, not a scene: it refuses the first bad
  value with an :class:`~isobenefit.errors.InvalidValueError` naming the
  amenity.
- ``_resolved_scene`` is the one profile resolver, behind the fields, PGG
  and :func:`resolve_profile`: it applies the overrides of a valid scene's
  profile to a copy of the columns and the personal E to the kernel.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, SceneValidationError, UnknownProfileError, Violation

KERNEL_FAMILIES = ("rational", "gaussian", "exponential")

# Largest GridSpec accepted (8192 x 8192 cells): one float raster of this
# size takes 512 MiB, and a field evaluation holds a few of them at once.
MAX_GRID_CELLS = 2 ** 26


def _real_number(value: object, finite: bool = False) -> bool:
    """True for a real number in the float range (finite if ``finite``),
    Python's or numpy's; bools excluded."""
    kind = type(value)
    # exact float and int skip the slow ABC check; bool is its own type
    if kind is bool or not (kind is float or kind is int or isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value) or not finite
    except OverflowError:  # an int beyond the float range
        return False


def _finite_number(value: object, positive: bool = False) -> bool:
    """True for a finite real number (> 0 if ``positive``); bools excluded."""
    return _real_number(value, finite=True) and (value > 0 or not positive)


def _real_values(values, finite: bool) -> bool:
    """True for a real number as :func:`_real_number` takes it, a list or
    tuple of them, or an ndarray of integer or float dtype; each finite if
    ``finite``. numpy would also convert bools, text and None, and
    sometimes complex numbers."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf" and (not finite or bool(np.isfinite(values).all()))
    items = values if isinstance(values, (list, tuple)) else (values,)
    return all(_real_number(item, finite) for item in items)


def _refuse(name: str, rule: str, value: object) -> None:
    """Raise the one message shape of a refused argument: ``name`` must be
    ``rule``, got ``value``."""
    raise InvalidValueError(f"{name} must be {rule}, got {value!r}")


def _finite_value(name: str, value: object, positive: bool = False) -> None:
    """Refuse the argument ``name`` unless it is one finite real number (> 0
    if ``positive``), bools excluded."""
    if not _finite_number(value, positive):
        _refuse(name, "finite and > 0" if positive else "finite", value)


def _real_array(name: str, values, finite: bool = True) -> np.ndarray:
    """The argument ``name`` as a float ndarray, once :func:`_real_values`
    takes it (with every value finite unless ``finite`` is False); else it
    is refused. A refused ndarray is named by its first non-finite value, or
    by its dtype if that is not integer or float, so that the message stays
    one line; anything else by its whole value."""
    if not _real_values(values, finite):
        if isinstance(values, np.ndarray):
            real = values.dtype.kind in "iuf"
            values = values.item(int(np.argmin(np.isfinite(values)))) if real else values.dtype
        _refuse(name, "finite" if finite else "a real number", values)
    return np.asarray(values, dtype=float)


def _count_value(name: str, value, low: int | None) -> None:
    """Refuse the argument ``name`` unless it is an integer, Python's or
    numpy's (bools excluded), in [low, MAX_GRID_CELLS]; with ``low`` None,
    any integer (a grid bounds its counts by their product)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        _refuse(name, "an integer", value)
    if low is not None and not low <= value <= MAX_GRID_CELLS:
        _refuse(name, f"between {low} and {MAX_GRID_CELLS}", int(value))


def _type_value(name: str, value: object, kind: type) -> None:
    """Refuse the argument ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        _refuse(name, f"of type {kind.__name__}", value)


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
    :func:`isobenefit.field.kernel_benefit`. E is kept as the float it
    equals, so equal kernels give the same arithmetic: a float32 E would
    otherwise make the scalar steps float32 ones.
    """

    family: str
    efficiency: float

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise InvalidValueError(
                f"unknown kernel family {self.family!r}; "
                f"expected one of {', '.join(KERNEL_FAMILIES)}"
            )
        _finite_value("kernel efficiency", self.efficiency, positive=True)
        object.__setattr__(self, "efficiency", float(self.efficiency))


@dataclass(frozen=True)
class GridSpec:
    """Evaluation lattice: cell (i, j) has center
    (origin_x + i*cell_size, origin_y + j*cell_size), i counting columns
    left to right and j counting rows bottom to top. The origin and the
    cell size are kept as the floats they equal, and the counts as ints."""

    origin_x: float
    origin_y: float
    cell_size: float
    ncols: int
    nrows: int

    def __post_init__(self) -> None:
        _finite_value("cell_size", self.cell_size, positive=True)
        # a float count would give np.arange(2.5) three centers for a size of 5.0
        _count_value("ncols", self.ncols, None)
        _count_value("nrows", self.nrows, None)
        # numpy integers are read as the ints they equal: a uint8 size wraps
        object.__setattr__(self, "ncols", int(self.ncols))
        object.__setattr__(self, "nrows", int(self.nrows))
        if self.ncols < 1 or self.nrows < 1:
            raise InvalidValueError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if self.ncols * self.nrows > MAX_GRID_CELLS:
            raise InvalidValueError(
                f"grid of {self.ncols}x{self.nrows} = {self.ncols * self.nrows} cells "
                f"exceeds the limit of {MAX_GRID_CELLS} cells")
        _real_array("grid origin", (self.origin_x, self.origin_y))
        # numpy numbers are read as the floats they equal, as Kernel reads E:
        # a float32 origin would otherwise make the checks below float32 ones
        for name in ("origin_x", "origin_y", "cell_size"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # the last cell centers, computed as x_coords and y_coords compute them
        last_x = self.origin_x + (self.ncols - 1) * self.cell_size
        last_y = self.origin_y + (self.nrows - 1) * self.cell_size
        if not (math.isfinite(last_x) and math.isfinite(last_y)):
            raise InvalidValueError(
                f"grid cell centers must be finite, got a last center of ({last_x!r}, {last_y!r})")
        # a cell wider than 4 float spacings at the axis's largest magnitude
        # keeps the rounded centers origin + k*cell_size of neighbours apart
        for axis, n, first, last in (("x", self.ncols, self.origin_x, last_x),
                                     ("y", self.nrows, self.origin_y, last_y)):
            largest = max(abs(first), abs(last), (n - 1) * self.cell_size)
            if n > 1 and not self.cell_size > 4 * math.ulp(largest):
                raise InvalidValueError(
                    f"cell_size {self.cell_size!r} is too small beside {axis} values of "
                    f"magnitude {largest!r}: neighbouring cells would share a center")

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
    It is made from finite real numbers, as :func:`_real_array` takes them.
    ``Raster(grid, values)`` checks them and keeps its own copy. The package
    builds the rasters it computes or reads with :meth:`_owning`, which
    neither checks nor copies.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _real_array("raster values", self.values).reshape(-1)
        if v.size != self.grid.size:
            raise InvalidValueError(
                f"raster has {v.size} values but grid is "
                f"{self.grid.ncols}x{self.grid.nrows} = {self.grid.size} cells"
            )
        if np.may_share_memory(v, self.values):  # decouple from the caller's buffer
            v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _owning(cls, grid: GridSpec, values: np.ndarray) -> Raster:
        """A raster that keeps ``values``, flattened as ``reshape(-1)``
        flattens it (a view of a C-contiguous array; the readers'
        row-reversed tables are copied there, once), and makes it read-only.
        Nothing is checked: the caller guarantees a float64 array of
        ``grid.size`` finite values that nothing else writes, as the fields,
        PGG and the raster readers make; a field may be a scene's remembered
        one, which is read-only already."""
        raster = object.__new__(cls)
        values = values.reshape(-1)
        values.flags.writeable = False
        object.__setattr__(raster, "grid", grid)
        object.__setattr__(raster, "values", values)
        return raster

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
        _type_value(f"profile {self.name!r} overrides", self.overrides, Mapping)
        object.__setattr__(self, "overrides", _ReadOnlyDict(self.overrides))


@dataclass(frozen=True)
class Scene:
    """All amenities of a study area plus any preference profiles.

    ``majority`` optionally names the profile that stands for the baseline
    preferences of most citizens; when unset, the unmodified scene is the
    baseline. The scene holds its amenity ids and columns as the module
    docstring describes. Building one, or ``dataclasses.replace`` on one,
    raises :class:`SceneValidationError` with every violation that
    :func:`validate_scene` finds, so no invalid scene exists.

    A scene also keeps a private memo of the last grid field evaluated from
    its columns (see :mod:`isobenefit.field`). Equality ignores it, and a
    copied or unpickled scene starts without it.
    """

    amenities: tuple[Amenity, ...]
    profiles: Mapping[str, Profile] = field(default_factory=dict)
    majority: str | None = None

    def __post_init__(self) -> None:
        try:
            amenities = tuple(self.amenities)
            ids, columns = tuple(am.id for am in amenities), _float_columns(amenities)
        except TypeError:  # amenities that are not iterable
            _refuse("amenities", "a sequence of Amenity", self.amenities)
        except AttributeError:  # name the first item that is not an Amenity
            for k, am in enumerate(amenities):
                _type_value(f"amenity #{k}", am, Amenity)
            raise
        _type_value("profiles", self.profiles, Mapping)
        for name, profile in self.profiles.items():
            _type_value("profile name", name, str)
            _type_value(f"profile {name!r}", profile, Profile)
            if not (isinstance(profile.name, str) and profile.name == name):
                _refuse(f"profile {name!r} name", repr(name), profile.name)
        if self.majority is not None:
            _type_value("majority", self.majority, str)
        for name, value in (("amenities", amenities), ("profiles", _ReadOnlyDict(self.profiles)),
                            ("_ids", ids), ("_columns", columns)):
            object.__setattr__(self, name, value)
        validate_scene(self)

    @classmethod
    def _from_columns(cls, ids, columns: np.ndarray,
                      profiles: Mapping[str, Profile] = _ReadOnlyDict(),
                      majority: str | None = None) -> Scene:
        """A scene of the amenities with these ids whose x, y and
        attractiveness are the rows of ``columns``, a (3, n) float array
        that the scene makes read-only and keeps. Its ``Amenity`` objects
        are built when ``amenities`` is first read. Nothing is checked: the
        caller guarantees a valid scene, as the loaders do by passing it to
        :func:`validate_scene`, or builds it from the ids and columns of a
        valid one."""
        scene = object.__new__(cls)
        columns.flags.writeable = False
        for name, value in (("_ids", tuple(ids)), ("_columns", columns),
                            ("profiles", _ReadOnlyDict(profiles)), ("majority", majority)):
            object.__setattr__(scene, name, value)
        return scene

    def __getstate__(self) -> dict:
        # the field memo stays with this scene
        state = dict(self.__dict__)
        state.pop("_field_memo", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled scene keeps its columns read-only
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._columns.flags.writeable = False

    def __getattr__(self, name: str):
        # reached only for an attribute not set yet: a loaded scene's
        # amenities, built on first read
        state = self.__dict__
        if name != "amenities" or "_columns" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = tuple(map(Amenity, state["_ids"], *state["_columns"].tolist()))
        object.__setattr__(self, name, value)
        return value


def _as_scene(value) -> Scene:
    """``value`` if it is a :class:`Scene`, else ``Scene(value)``: a
    sequence of :class:`Amenity` becomes a scene without profiles or a
    majority, and anything else is refused as a :class:`Scene` refuses it."""
    return value if isinstance(value, Scene) else Scene(value)


def _check_finite(subject: str, what: str, value: object, out: list[Violation]) -> None:
    if not _finite_number(value):
        out.append(Violation("NonFiniteValue", subject,
                             f"{what} is not a finite number: {value!r}"))


def _float_columns(amenities: tuple[Amenity, ...]) -> np.ndarray | None:
    """x, y and attractiveness of the amenities as the rows of a read-only
    (3, n) float array, or None unless :func:`_finite_number` accepts every
    value, one by one. numpy would convert ``True`` and ``"1.5"`` too."""
    values = ([am.x for am in amenities], [am.y for am in amenities],
              [am.attractiveness for am in amenities])
    if not all(map(_finite_number, itertools.chain(*values))):
        return None
    columns = np.array(values, dtype=float)
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


def validate_scene(scene: Scene) -> Scene:
    """Check every scene invariant of ``scene``, a :class:`Scene`, or a
    sequence of :class:`Amenity` as a scene without profiles; return the
    scene (the one built from a sequence) unchanged if all hold.

    Raises :class:`SceneValidationError` carrying one :class:`Violation` per
    problem found: duplicate, empty or non-text amenity ids, non-finite
    coordinates or attractiveness, profile overrides naming unknown
    amenities, non-positive profile efficiencies, and a majority name that
    matches no profile.
    ``Scene`` runs this check when it is built, so a scene that exists has
    passed it, and a sequence is refused by the ``Scene`` built from it;
    the loaders run it on the scenes they build from their files.
    """
    scene = _as_scene(scene)
    violations: list[Violation] = []

    seen = _sound_amenity_ids(scene)
    if seen is None:  # some amenity is at fault: name every culprit, in order
        seen = set()
        for am in scene.amenities:
            if not isinstance(am.id, str):
                violations.append(Violation(
                    "NonTextId", str(am.id), f"amenity id must be text, got {am.id!r}"))
            elif not am.id:
                violations.append(Violation("EmptyId", am.id, "amenity id must be non-empty text"))
            elif am.id in seen:
                violations.append(Violation(
                    "DuplicateId", am.id, "amenity id appears more than once"))
            else:
                seen.add(am.id)
            for what in ("attractiveness", "x", "y"):
                _check_finite(str(am.id), what, getattr(am, what), violations)

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
            _check_finite(f"{name}:{target}", "override value", value, violations)

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
    """Apply a profile to ``scene``, a :class:`Scene`, or a sequence of
    :class:`Amenity` as a scene without profiles: per-amenity
    attractiveness overrides and the personal efficiency, where present, as
    :func:`_resolved_scene` applies them.

    ``profile_name=None`` (or a profile with no overrides and no personal E)
    returns the baseline unchanged. Positions and the set of amenity ids are
    never altered.
    """
    resolved, kernel = _resolved_scene(scene, kernel, profile_name)
    return resolved.amenities, kernel


def _refuse_bad_values(amenities) -> None:
    """Raise :class:`InvalidValueError` naming the first of the amenity
    arguments with an x, y or attractiveness that :func:`_finite_number`
    refuses: non-finite, a bool, text, or an integer beyond the float
    range; or the first that is not an :class:`Amenity`, by its index."""
    for k, am in enumerate(amenities):
        _type_value(f"amenity #{k}", am, Amenity)
        for name in ("x", "y", "attractiveness"):
            value = getattr(am, name)
            if not _finite_number(value):  # the label is formatted for a culprit only
                _finite_value(f"amenity {am.id!r} {name}", value)


def _resolved_scene(scene: Scene, kernel: Kernel,
                    profile_name: str | None) -> tuple[Scene, Kernel]:
    """The amenities and the kernel of ``scene`` (through :func:`_as_scene`)
    under a profile, with the amenities as a scene of columns: each
    override replaces the attractiveness of the amenities with its id, in a
    copy of the scene's columns, and a personal E replaces the kernel's.
    Without overrides the scene is the one ``_as_scene`` returns. A valid
    scene holds valid profile values, so they are applied unchecked."""
    scene = _as_scene(scene)
    _type_value("kernel", kernel, Kernel)
    if profile_name is None:
        return scene, kernel
    _type_value("profile name", profile_name, str)
    profile = scene.profiles.get(profile_name)
    if profile is None:
        raise UnknownProfileError(
            f"profile {profile_name!r} not found; scene has "
            f"{sorted(scene.profiles) or 'no profiles'}"
        )
    efficiency = profile.efficiency
    if efficiency is not None:
        kernel = dataclasses.replace(kernel, efficiency=efficiency)
    overrides = profile.overrides
    if not overrides:
        return scene, kernel
    columns = scene._columns.copy()
    for k, ident in enumerate(scene._ids):
        if ident in overrides:
            columns[2, k] = float(overrides[ident])
    return Scene._from_columns(scene._ids, columns), kernel
