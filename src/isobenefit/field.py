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
It reads the amenities as three float columns (x, y, A) built once per
call; a non-finite column value is refused up front, so that an error from
the sum means overflow only.

A call with few samples spends its time in per-amenity numpy calls, not in
arithmetic, so it sums k = max(1, 2**13 // samples) amenities per block: it
evaluates a block's terms as one (k, *shape) array, copies them into rows
1..k of a buffer whose row 0 holds the running total, and reduces that
buffer over its leading axis into row 0. The positive and negative parts
fold their own rows (A > 0, A < 0) the same way. A reduce over the leading
axis of a C-contiguous buffer adds whole rows one after another, so every
sample gets the same additions in the same order as one amenity at a time;
numpy sums pairwise only along the innermost axis, which is why no other
axis is reduced, and why a single-sample query (whose rows are one value
each) accumulates instead. When k is 1, i.e. for every grid of at least
2**13 cells, the terms go straight into the total one amenity at a time,
without a block buffer: there the per-call overhead is small against the
arithmetic, and a buffer would only add copies (a budget of 2**15, k = 2
on a 128x128 grid, doubled the field's evaluation time). The budget keeps
each block's temporaries at 64 KiB: at 2**14 samples they reach 128 KiB,
glibc's default mmap threshold, and a 103-sample query took ~120 minor
page faults per call. When every A > 0 the positive part is a copy of the
total (the same additions in the same order) and is not summed again.

Per amenity (or block) it forms the offsets dx = x - x_i and dy = y - y_i
(on a grid still a 1-D row and column) and evaluates each family with as
few passes over the broadcast shape as it allows:

    rational:     A / (1 + sqrt((dx*c)^2 + (dy*c)^2)),  c = 1/E
    gaussian:     ((2**(64 - r*dx*dx) * 2**(64 - r*dy*dy)) * 2**-128) * A,
                  r = E * log2(e)
    exponential:  A * exp(-E * sqrt(dx*dx + dy*dy))

The rational offsets are scaled by 1/E before they are squared, so no cell
is divided by E. The gaussian is separable: a grid takes nx + ny
exponentials and three multiplies per cell instead of nx * ny exponentials
(numpy's exp and exp2 are also slow where their result is subnormal, and
now run on few values). Its factors carry 2**64 each, so neither is
subnormal where their product is a nonzero term; 2**-128 then rounds the
product once, as exp rounds exp(-E d^2), and A multiplies the result, as
in the plain form A * exp(-E d^2). Where terms are subnormal only their
last bits differ, and there this keeps as close to the independent form
(math.hypot, math.exp) as the plain form does: on 164k random samples of
that range each differed from it in ~0.13% of them, against 36% with A
multiplied first and 0.8% with unscaled factors. exp2 returns exactly
2**64 at dx = 0, so a sample on an amenity still gets exactly A.
The full-shape steps (the squares of the row copied in and those of the
column added, sqrt, exp, the multiplies or the divide) run in place in one
work buffer allocated per call, of the grid's shape or, for point queries,
of a block's; copying the row and adding the column was faster than a
broadcast add, and no amenity allocates a temporary of the grid's size.

These squared forms are used only when every sample and amenity
coordinate has magnitude <= 2**499 and 2**-400 <= E <= 2**400, and, for
the rational family with E < 1, magnitude <= 2**499 * E, since its
squared offsets are over E: there no square can overflow, and an offset
whose square underflows is too small to move any kernel by an ulp.
Outside that range the call falls back to np.hypot distances and the
forms at the top. The choice is made once per call from its inputs, so
every sample of one call sees the same arithmetic.

Each sample sees the same additions in the same order however samples are
grouped, so identical inputs give bit-identical values for any grid
partition and for points queried one by one or as arrays (as long as the
partitions or points all fall on the same side of the range guard). The
exponential terms are those of dx*dx + dy*dy computed out of place, bit
for bit. The rational terms (1/E is rounded once) and the gaussian terms
(two rounded factors) differ from exact hypot distances by a few ulps,
well inside the 1e-12 relative tolerance of the kernel forms, which the
tests pin on points and grids. At a sample whose every term is subnormal,
1e-12 of their sum is below one ulp, and no form meets it for certain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError, NegativeDistanceError, SumOverflowError
from .scene import GridSpec, Kernel, Raster, Scene, _finite_number, resolve_profile

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


# Range guard of the squared form (see the module docstring).
_SQUARED_MAX_COORDINATE = 2.0 ** 499
_SQUARED_MIN_EFFICIENCY = 2.0 ** -400
_SQUARED_MAX_EFFICIENCY = 2.0 ** 400

# exp(x) = 2**(x * log2(e)): the gaussian factors come from exp2 (see the
# module docstring)
_LOG2_E = math.log2(math.e)

# Samples per block of amenities summed at once (see the module docstring).
_BLOCK_SAMPLES = 2 ** 13


def _squared_form_applies(columns: np.ndarray, kernel: Kernel, x, y) -> bool:
    # every test is written as "<=" so that a NaN coordinate takes the hypot form
    limit = _SQUARED_MAX_COORDINATE
    if kernel.family == "rational":  # it squares the offsets over E
        limit *= min(kernel.efficiency, 1.0)
    return (_SQUARED_MIN_EFFICIENCY <= kernel.efficiency <= _SQUARED_MAX_EFFICIENCY
            and np.max(np.abs(x), initial=0.0) <= limit
            and np.max(np.abs(y), initial=0.0) <= limit
            and np.max(np.abs(columns[:2]), initial=0.0) <= limit)


def kernel_benefit(attractiveness: float, distance, kernel: Kernel):
    """Benefit from a single amenity at the given distance(s).

    ``distance`` may be a scalar or an ndarray; the result matches. At
    distance 0 every family returns ``attractiveness`` exactly. Negative
    distances raise :class:`NegativeDistanceError`.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise NegativeDistanceError(f"distance must be >= 0, got {distance!r}")
    # E*d*d may overflow to inf on the way to an exact 0.0
    with np.errstate(over="ignore"):
        out = _kernel_values(float(attractiveness), d, kernel)
    if d.ndim == 0:
        return float(out)
    return out


def _amenity_columns(amenities) -> np.ndarray:
    """x, y and attractiveness of the amenities as the rows of a (3, n)
    float array. Raises :class:`InvalidValueError` naming the first amenity
    with a value that is not a finite float: non-finite, or an integer
    beyond the float range."""
    try:
        columns = np.array([[am.x for am in amenities], [am.y for am in amenities],
                            [am.attractiveness for am in amenities]], dtype=float)
        if np.isfinite(columns).all():
            return columns
    except OverflowError:  # an integer beyond the float range
        pass
    for am in amenities:
        for name in ("x", "y", "attractiveness"):
            value = getattr(am, name)
            if not _finite_number(value):
                raise InvalidValueError(f"amenity {am.id!r} {name} must be finite, got {value!r}")
    raise AssertionError("a non-finite amenity column without a non-finite value")


def _block_rows(samples: int) -> int:
    """Amenities summed per block for a query of ``samples`` points."""
    return max(1, _BLOCK_SAMPLES // max(samples, 1))


def _contributions(ax, ay, a, kernel: Kernel, x, y, squared: bool, out: np.ndarray):
    # one amenity's terms from scalars, or a block's from columns shaped to
    # broadcast ahead of the samples, written into ``out`` (of the broadcast
    # shape) except on the hypot path
    dx = x - ax
    dy = y - ay
    if not squared:
        return _kernel_values(a, np.hypot(dx, dy), kernel)
    efficiency = kernel.efficiency
    if kernel.family == "gaussian":
        rate = efficiency * _LOG2_E
        np.multiply(np.exp2(64.0 - rate * dx * dx), np.exp2(64.0 - rate * dy * dy), out=out)
        out *= 2.0 ** -128
        out *= a
        return out
    if kernel.family == "rational":
        scale = 1.0 / efficiency
        dx = dx * scale
        dy = dy * scale
    out[...] = dx * dx
    out += dy * dy
    np.sqrt(out, out=out)
    if kernel.family == "rational":
        out += 1.0
        return np.divide(a, out, out=out)
    out *= -efficiency
    np.exp(out, out=out)
    out *= a
    return out


def _fold(rows: np.ndarray) -> None:
    """Add rows[1], rows[2], ... to rows[0] in that order, sample by sample.

    Reducing over the leading axis of a C-contiguous array adds whole rows
    one after another; a reduce along the only axis left when each row holds
    a single sample would sum pairwise, so that case accumulates instead."""
    if rows[0].size == 1:
        rows[0] = np.add.accumulate(rows, axis=0)[-1]
    else:
        np.add.reduce(rows, axis=0, out=rows[0])


def _sum_one_by_one(columns, kernel, x, y, squared, shape, parts):
    total = np.zeros(shape)
    pos = np.zeros(shape) if parts else None
    neg = np.zeros(shape) if parts else None
    work = np.empty(shape)
    for ax, ay, a in zip(*columns.tolist()):
        contrib = _contributions(ax, ay, a, kernel, x, y, squared, work)
        total += contrib
        if parts and a > 0:
            pos += contrib
        elif parts and a < 0:
            neg += contrib
    return total, pos, neg


def _sum_in_blocks(columns, kernel, x, y, squared, shape, parts, k):
    n = columns.shape[1]
    k = max(1, min(k, n))
    a = columns[2]
    selections = (None, a > 0, a < 0)[:3 if parts else 1]
    sums = [np.zeros((k + 1,) + shape) for _ in selections]
    work = np.empty((k,) + shape)
    for i in range(0, n, k):
        block = columns[:, i:i + k].reshape((3, -1) + (1,) * len(shape))
        contrib = _contributions(*block, kernel, x, y, squared, work[:block.shape[1]])
        for rows, keep in zip(sums, selections):
            picked = contrib if keep is None else contrib[keep[i:i + k]]
            rows[1:len(picked) + 1] = picked
            _fold(rows[:len(picked) + 1])
    return tuple(rows[0] for rows in sums) if parts else (sums[0][0], None, None)


def _benefit_sums(columns: np.ndarray, kernel: Kernel, x, y, split: bool):
    """Sum of every amenity's contribution at the points (x, y), where x and
    y broadcast together and ``columns`` is :func:`_amenity_columns` of the
    amenities. With ``split`` also returns the sums over the amenities with
    attractiveness > 0 and < 0; otherwise those are None. Raises
    :class:`SumOverflowError` if any of the sums is not finite."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    k = _block_rows(math.prod(shape))
    squared = _squared_form_applies(columns, kernel, x, y)
    # with every A > 0 the positive part is the total, added in the same order
    parts = split and not (columns[2] > 0).all()
    # an overflowing sum is a named error below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 1:
            total, pos, neg = _sum_one_by_one(columns, kernel, x, y, squared, shape, parts)
        else:
            total, pos, neg = _sum_in_blocks(columns, kernel, x, y, squared, shape, parts, k)
    if split and not parts:
        pos, neg = total.copy(), np.zeros(shape)
    if not all(np.isfinite(part).all() for part in (total, pos, neg) if part is not None):
        n = columns.shape[1]
        raise SumOverflowError(
            f"the benefit sum over {n} amenit{'y' if n == 1 else 'ies'} overflowed "
            f"the float range")
    return total, pos, neg


def point_benefit(amenities, kernel: Kernel, x, y) -> PointBenefit:
    """Total benefit at (x, y): the sum of kernel_benefit over all amenities,
    split into positive (attractiveness > 0) and negative parts.

    ``x`` and ``y`` may be scalars, giving float fields, or arrays that
    broadcast together, giving fields of that shape whose elements equal
    the scalar queries bit for bit. A non-finite query coordinate, or
    amenity position or attractiveness, raises :class:`InvalidValueError`;
    a sum that overflows the float range raises :class:`SumOverflowError`.
    """
    columns = _amenity_columns(amenities)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidValueError("query point coordinates must be finite")
    total, pos, neg = _benefit_sums(columns, kernel, x, y, split=True)
    if total.ndim == 0:
        return PointBenefit(total=float(total), positive_part=float(pos),
                            negative_part=float(neg))
    return PointBenefit(total=total, positive_part=pos, negative_part=neg)


def _grid_sums(scene: Scene, kernel: Kernel, grid: GridSpec,
               profile: str | None, split: bool):
    amenities, kern = resolve_profile(scene, kernel, profile)
    return _benefit_sums(_amenity_columns(amenities), kern, grid.x_coords()[np.newaxis, :],
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
