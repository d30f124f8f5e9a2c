"""Domain model: amenities, decay kernels, grids, rasters, preference profiles.

All types are immutable after construction and safe to share across threads.
``Amenity``/``Profile``/``Scene`` accept whatever they are given so that
:func:`validate_scene` can report *every* violation in one pass; ``Kernel``,
``GridSpec`` and ``Raster`` are plumbing types and reject bad values
immediately.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
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
        v = v.copy()  # decouple from the caller's buffer before freezing
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def as_grid(self) -> np.ndarray:
        """Values as a (nrows, ncols) read-only view, row 0 = bottom row."""
        return self.values.reshape(self.grid.nrows, self.grid.ncols)

    def value_at(self, i: int, j: int) -> float:
        return float(self.values[j * self.grid.ncols + i])


@dataclass(frozen=True)
class Profile:
    """A named preference set: optional personal efficiency E and per-amenity
    attractiveness overrides (amenity id -> personal value)."""

    name: str
    efficiency: float | None = None
    overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides)))


@dataclass(frozen=True)
class Scene:
    """All amenities of a study area plus any preference profiles.

    ``majority`` optionally names the profile that stands for the baseline
    preferences of most citizens; when unset, the unmodified scene is the
    baseline.
    """

    amenities: tuple[Amenity, ...]
    profiles: Mapping[str, Profile] = field(default_factory=dict)
    majority: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "amenities", tuple(self.amenities))
        object.__setattr__(self, "profiles", MappingProxyType(dict(self.profiles)))


def _check_finite(code: str, subject: str, what: str, value: object,
                  out: list[Violation]) -> None:
    if not _finite_number(value):
        out.append(Violation(code, subject, f"{what} is not a finite number: {value!r}"))


def validate_scene(scene: Scene) -> Scene:
    """Check every scene invariant; return the scene unchanged if all hold.

    Raises :class:`SceneValidationError` carrying one :class:`Violation` per
    problem found: duplicate or empty amenity ids, non-finite coordinates or
    attractiveness, profile overrides naming unknown amenities, non-positive
    profile efficiencies, and a majority name that matches no profile.
    """
    violations: list[Violation] = []

    seen: set[str] = set()
    for am in scene.amenities:
        if not isinstance(am.id, str) or not am.id:
            violations.append(Violation("EmptyId", str(am.id), "amenity id must be non-empty text"))
        elif am.id in seen:
            violations.append(Violation("DuplicateId", am.id, "amenity id appears more than once"))
        else:
            seen.add(am.id)
        subject = am.id if isinstance(am.id, str) else str(am.id)
        _check_finite("NonFiniteValue", subject, "attractiveness", am.attractiveness, violations)
        _check_finite("NonFiniteValue", subject, "x", am.x, violations)
        _check_finite("NonFiniteValue", subject, "y", am.y, violations)

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
            _check_finite("NonFiniteValue", f"{name}:{target}", "override value", value, violations)

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
    the personal efficiency, where present.

    ``profile_name=None`` (or a profile with no overrides and no personal E)
    returns the baseline unchanged. Positions and the set of amenity ids are
    never altered.
    """
    if profile_name is None:
        return scene.amenities, kernel
    profile = scene.profiles.get(profile_name)
    if profile is None:
        raise UnknownProfileError(
            f"profile {profile_name!r} not found; scene has "
            f"{sorted(scene.profiles) or 'no profiles'}"
        )
    amenities = tuple(
        dataclasses.replace(am, attractiveness=float(profile.overrides[am.id]))
        if am.id in profile.overrides else am
        for am in scene.amenities
    )
    if profile.efficiency is not None:
        kernel = dataclasses.replace(kernel, efficiency=float(profile.efficiency))
    return amenities, kernel
