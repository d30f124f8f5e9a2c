"""Benefit evaluation: decay kernels, point benefit, and grid fields.

The benefit a point k receives from amenity i with attractiveness A at
Euclidean distance d, under moving efficiency E, is

    rational:     A / (1 + d / E)
    gaussian:     A * exp(-E * d^2)
    exponential:  A * exp(-E * d)

and the benefit of a point is the plain sum of these over all amenities.

E convention trap: the three families use the same letter with opposite
decay semantics. For the rational family a larger E means *slower* decay
(moving is easier, the amenity reaches farther); for the gaussian and
exponential families a larger E means *faster* decay. Both conventions are
kept exactly as stated above; do not port an E value across families.

One accumulator serves every caller: it adds the amenities' contributions
in index order, in double precision, over the broadcast of the sample
coordinates (a grid's x row against its y column, or point coordinates).
Each sample sees the same additions in the same order however samples are
grouped, so identical inputs give bit-identical values for any grid
partition and for points queried one by one or as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeDistanceError
from .scene import GridSpec, Kernel, Raster, Scene, resolve_profile

__all__ = [
    "PointBenefit",
    "FieldParts",
    "kernel_benefit",
    "point_benefit",
    "evaluate_field",
    "evaluate_field_parts",
]


@dataclass(frozen=True)
class PointBenefit:
    """Benefit at a point (or array of points), with the amenity/disamenity split.

    ``positive_part`` sums contributions of amenities with attractiveness
    > 0, ``negative_part`` those with attractiveness < 0. ``total`` is the
    straight sum over all amenities in order, so it equals
    positive_part + negative_part up to float rounding (1e-12 relative).
    """

    total: float
    positive_part: float
    negative_part: float


@dataclass(frozen=True)
class FieldParts:
    """A benefit raster together with its positive/negative companions."""

    total: Raster
    positive: Raster
    negative: Raster


def _kernel_values(attractiveness: float, d, kernel: Kernel):
    # d: scalar or ndarray of nonnegative distances; caller guarantees the sign.
    if kernel.family == "rational":
        return attractiveness / (1.0 + d / kernel.efficiency)
    if kernel.family == "gaussian":
        return attractiveness * np.exp(-kernel.efficiency * d * d)
    return attractiveness * np.exp(-kernel.efficiency * d)


def kernel_benefit(attractiveness: float, distance, kernel: Kernel):
    """Benefit from a single amenity at the given distance(s).

    ``distance`` may be a scalar or an ndarray; the result matches. At
    distance 0 every family returns ``attractiveness`` exactly. Negative
    distances raise :class:`NegativeDistanceError`.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise NegativeDistanceError(f"distance must be >= 0, got {distance!r}")
    out = _kernel_values(float(attractiveness), d, kernel)
    if d.ndim == 0:
        return float(out)
    return out


def _benefit_sums(amenities, kernel: Kernel, x, y, split: bool):
    """Sum of every amenity's contribution at the points (x, y), where x and
    y broadcast together. With ``split`` also returns the sums over the
    amenities with attractiveness > 0 and < 0; otherwise those are None."""
    total = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    pos = np.zeros_like(total) if split else None
    neg = np.zeros_like(total) if split else None
    for am in amenities:
        a = float(am.attractiveness)
        contrib = _kernel_values(a, np.hypot(x - am.x, y - am.y), kernel)
        total += contrib
        if split and a > 0:
            pos += contrib
        elif split and a < 0:
            neg += contrib
    return total, pos, neg


def point_benefit(amenities, kernel: Kernel, x, y) -> PointBenefit:
    """Total benefit at (x, y): the sum of kernel_benefit over all amenities,
    split into positive (attractiveness > 0) and negative parts.

    ``x`` and ``y`` may be scalars, giving float fields, or arrays that
    broadcast together, giving fields of that shape whose elements equal
    the scalar queries bit for bit.
    """
    total, pos, neg = _benefit_sums(amenities, kernel, x, y, split=True)
    if total.ndim == 0:
        return PointBenefit(total=float(total), positive_part=float(pos),
                            negative_part=float(neg))
    return PointBenefit(total=total, positive_part=pos, negative_part=neg)


def _grid_sums(scene: Scene, kernel: Kernel, grid: GridSpec,
               profile: str | None, split: bool):
    amenities, kern = resolve_profile(scene, kernel, profile)
    return _benefit_sums(amenities, kern, grid.x_coords()[np.newaxis, :],
                         grid.y_coords()[:, np.newaxis], split)


def evaluate_field(
    scene: Scene,
    kernel: Kernel,
    grid: GridSpec,
    profile: str | None = None,
) -> Raster:
    """Evaluate the benefit field on a grid under an optional profile.

    Cell (i, j) of the result is the point benefit at that cell's center
    with the profile's attractiveness overrides and personal E applied.
    Every amenity contributes to every cell; there is no cutoff radius.
    """
    total, _, _ = _grid_sums(scene, kernel, grid, profile, split=False)
    return Raster(grid, total)


def evaluate_field_parts(
    scene: Scene,
    kernel: Kernel,
    grid: GridSpec,
    profile: str | None = None,
) -> FieldParts:
    """Like :func:`evaluate_field` but also returns the positive-only and
    negative-only companion rasters (inert amenities contribute to neither).
    """
    total, pos, neg = _grid_sums(scene, kernel, grid, profile, split=True)
    return FieldParts(total=Raster(grid, total), positive=Raster(grid, pos),
                      negative=Raster(grid, neg))
