"""Uniformity coefficient, summary statistics, and preference-gap fields.

The uniformity coefficient U of a benefit raster is 1 minus its coefficient
of variation,

    U = 1 - stddev(B) / mean(B)

with the *population* standard deviation (divide by the cell count m, no
sample correction). U <= 1 whenever the mean is positive; U = 1 means every
cell enjoys the same positional advantage. Amenity and disamenity effects
should be judged separately: compute U on the positive-only and
negative-only companion rasters, not just the total. For a raster whose
mean is negative the same signed formula is applied; treat that value with
care (it exceeds 1 by construction), and check
:attr:`UniformityResult.negative_mean` before comparing scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRasterError, SumOverflowError, ZeroMeanError
from .field import evaluate_field
from .scene import GridSpec, Kernel, Raster, Scene, _as_scene, _real_array, _resolved_scene

__all__ = [
    "SummaryStats",
    "UniformityResult",
    "uniformity",
    "summary",
    "pgg_field",
]


@dataclass(frozen=True)
class SummaryStats:
    """Total / mean / min / max benefit over the m cells of a raster."""

    total: float
    mean: float
    min: float
    max: float
    count: int


@dataclass(frozen=True)
class UniformityResult:
    u: float
    mean: float
    stddev: float
    count: int

    @property
    def negative_mean(self) -> bool:
        """True when U was computed against a negative mean (pure disamenity
        fields); the signed formula then yields U > 1, so interpret with care."""
        return self.mean < 0


def _values(raster) -> np.ndarray:
    """A raster's values, or a bare array's, once every one is a finite
    real number."""
    if isinstance(raster, Raster):
        return raster.values
    return _real_array("raster values", raster).reshape(-1)


def _finite(name: str, value: float, count: int) -> float:
    if not np.isfinite(value):
        raise SumOverflowError(
            f"the {name} of {count} cells is {value!r}: the cell values leave "
            f"the float range when summed")
    return value


def uniformity(raster) -> UniformityResult:
    """Uniformity coefficient of a raster (or bare value array).

    To judge amenities and disamenities separately, call this on the
    positive/negative companion rasters from
    :func:`isobenefit.field.evaluate_field_parts`.

    A bare array whose values are not all finite real numbers raises
    :class:`~isobenefit.errors.InvalidValueError`. Raises
    :class:`EmptyRasterError` on zero cells,
    :class:`ZeroMeanError` when the mean benefit is exactly 0 (the
    coefficient of variation is undefined there, e.g. an all-zero raster),
    and :class:`SumOverflowError` when the mean or the standard deviation
    is not finite.
    """
    v = _values(raster)
    m = v.size
    if m == 0:
        raise EmptyRasterError("uniformity needs at least one cell")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _finite("mean", float(np.mean(v)), m)
        if mean == 0.0:
            raise ZeroMeanError("mean benefit is 0; uniformity coefficient undefined")
        if v.min() == v.max():
            # A constant raster has zero deviation by definition; bypass the
            # float mean so U comes out exactly 1.
            sd = 0.0
        else:
            sd = _finite("standard deviation", float(np.std(v)), m)
    return UniformityResult(u=1.0 - sd / mean, mean=mean, stddev=sd, count=m)


def summary(raster) -> SummaryStats:
    """Exact total/mean/min/max over all cells.

    The mean is total/count clamped into [min, max]; the clamp only ever
    absorbs last-ulp rounding of the division. A bare array is checked as
    :func:`uniformity` checks it. A total that is not finite raises
    :class:`SumOverflowError`.
    """
    v = _values(raster)
    if v.size == 0:
        raise EmptyRasterError("summary needs at least one cell")
    with np.errstate(over="ignore", invalid="ignore"):
        total = _finite("total", float(np.sum(v)), v.size)
    vmin = float(v.min())
    vmax = float(v.max())
    mean = min(max(total / v.size, vmin), vmax)
    return SummaryStats(total=total, mean=mean, min=vmin, max=vmax, count=v.size)


def pgg_field(
    scene: Scene,
    kernel: Kernel,
    grid: GridSpec,
    person: str | None,
    majority: str | None = None,
) -> Raster:
    """Preference Gap Gain raster: the person's benefit field minus the
    majority's, cell by cell. ``scene`` is a
    :class:`~isobenefit.scene.Scene`, or a sequence of
    :class:`~isobenefit.scene.Amenity` as a scene without profiles.

    Positive cells are locations the person values above the majority (a
    candidate economic gain when prices follow majority preferences);
    negative cells the reverse. ``majority=None`` falls back to the scene's
    designated majority profile, or to the unmodified baseline when none is
    designated. ``person=None`` likewise means the baseline.

    When both resolved profiles have the same kernel (no personal E, or
    equal ones), an amenity both weight alike adds the same term to both
    fields, so only the amenities whose attractiveness differs are summed:
    the cost is O(changed) instead of O(all amenities), identical profiles
    give exactly 0, and the result agrees with the difference of the two
    full fields within 1e-12 of their magnitude. With different E every
    amenity counts and both full fields are evaluated; a full field may
    come from the scene's memo of its last field (see
    :mod:`isobenefit.field`), with the same bits. Either way swapping
    the person and the majority negates the raster exactly. A difference
    that leaves the float range raises :class:`SumOverflowError`.
    """
    scene = _as_scene(scene)
    if majority is None:
        majority = scene.majority
    mine, my_kernel = _resolved_scene(scene, kernel, person)
    theirs, their_kernel = _resolved_scene(scene, kernel, majority)
    if my_kernel == their_kernel:
        my_columns, their_columns = mine._columns, theirs._columns
        changed = np.flatnonzero(my_columns[2] != their_columns[2])
        ids = [scene._ids[k] for k in changed]
        mine = Scene._from_columns(ids, my_columns[:, changed])
        theirs = Scene._from_columns(ids, their_columns[:, changed])
    person_field = evaluate_field(mine, my_kernel, grid)
    majority_field = evaluate_field(theirs, their_kernel, grid)
    with np.errstate(over="ignore"):
        gap = person_field.values - majority_field.values
    if not np.isfinite(gap).all():
        raise SumOverflowError(
            "the preference gap leaves the float range: the person's and the "
            "majority's benefit differ by more than the largest float")
    return Raster._owning(grid, gap)
