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

One accumulator serves every caller, grids and points alike: it adds the
amenities' terms in index order, in double precision, over the broadcast of
the sample coordinates (a grid's x row against its y column, or point
coordinates). This module only sums. It reads the amenities as three float
columns (x, y, A), a scene's own read-only array, and a field under a
profile reads the columns and the kernel that the profile resolves to; the
scene module resolves profiles and checks the public arguments, the query
points included (see :mod:`isobenefit.scene`, which also states the one
rule for the values they may hold). Every entry takes a scene or a plain
sequence of amenities, which ``scene._as_scene`` makes a scene without
profiles once per call. A scene is valid once built, so its columns hold
finite values only, and an error from the sum means overflow only.

The terms come from one function, ``_terms``, which branches once, on
where the offsets dx = x - x_i and dy = y - y_i live:

- for one amenity they are temporaries of the samples' shapes, on a grid a
  1-D row and a column;
- for a block of amenities they fill the block's buffers, dx in the output.

Every later step is shared and runs in place, with as few passes over the
broadcast shape as each family allows:

    rational:     A / (1 + sqrt((dx*c)^2 + (dy*c)^2)),  c = 1/E
    gaussian:     ((2**(64 - r*dx*dx) * 2**(64 - r*dy*dy)) * 2**-128) * A,
                  r = E * log2(e)
    exponential:  A * exp(-E * sqrt(dx*dx + dy*dy))

The squares of dx are copied into the output unless they are already there,
and those of dy are added. On a grid the row is squared before it is copied
in, and the column is added: at 128x128 a broadcast row copy took about
half the time of a row-broadcast multiply, and copy-then-add-column less
than an outer add. No amenity allocates a temporary of the grid's size.

The rational offsets are scaled by 1/E before they are squared, so no cell
is divided by E. The gaussian is separable: a grid takes nx + ny
exponentials and three multiplies per cell instead of nx * ny exponentials
(numpy's exp and exp2 are also slow where their result is subnormal, and
now run on few values). Each offset becomes its factor in place, with r*d
in a spare buffer or a temporary. The factors carry 2**64 each, so neither
is subnormal where their product is a nonzero term; 2**-128 then rounds the
product once, as exp rounds exp(-E d^2), and A multiplies the result, as
in the plain form A * exp(-E d^2). Where terms are subnormal only their
last bits differ, and there this keeps as close to the independent form
(math.hypot, math.exp) as the plain form does: on 164k random samples of
that range each differed from it in ~0.13% of them, against 36% with A
multiplied first and 0.8% with unscaled factors. exp2 returns exactly
2**64 at dx = 0, so a sample on an amenity still gets exactly A.

These squared forms are used only when every sample and amenity
coordinate has magnitude <= 2**499 and 2**-400 <= E <= 2**400, and, for
the rational family with E < 1, magnitude <= 2**499 * E, since its
squared offsets are over E: there no square can overflow, and an offset
whose square underflows is too small to move any kernel by an ulp.
Outside that range ``_terms`` falls back to np.hypot distances and the
forms at the top. The choice is made once per call, so every sample of one
call sees the same arithmetic. The half that does not depend on the
samples is settled when the evaluator below is built: E and the amenity
coordinates give one limit on sample magnitudes, 2**499 (times E) as above,
or -1.0 if no sample can take the squared forms. A call compares the
largest magnitude of its x, and that of its y, with the limit; the same two
magnitudes refuse a NaN or infinite coordinate.

Summing. A point evaluator (``_PointEvaluator``), built from the amenity
columns, the kernel and the sample count, serves every caller, grids
included, through one call. It works out the range limit, whether every
A > 0 and its block buffers once, when it is built. It prepares a query
shape once: the first call of a shape builds the views that shape needs
(the buffers and the amenity columns reshaped to it, and the term, spare
and fold rows of a full block and of a partial last one) and keeps them,
and a later call of that shape reuses them, so it pays for its
arithmetic, its range guard and its finiteness checks and little else. It
keeps one prepared shape, replaced when the shape changes. The views add
no buffer, and their number does not grow with the amenities: views kept
for every block took 2.6 MB beside 0.3 MB of buffers at 20,000 amenities
and 4,096 samples, and were no faster. ``numeric_breakpoint`` builds one
evaluator for its first pass over the whole segment and one for its later
17-sample passes, and calls the second once per pass. Every array a call
returns is its own: a sum folded in a block buffer is copied out of it, so
no result keeps a buffer alive or changes on the next call.

- A query of more than 2**12 samples (more cells than a 64x64 grid) is
  summed one amenity at a time (``_sum_one_by_one``): each amenity's terms
  go into one work buffer and are added to the total. There the per-call
  overhead is small against the arithmetic, and a block buffer would only
  add copies: blocks of 2 doubled the evaluation time of a 128x128 field.
- A smaller query spends its time in per-amenity numpy calls, not in
  arithmetic, so it is summed in blocks of k = 2 * (2**13 // samples)
  amenities, or all of them if fewer. The evaluator builds its buffers
  once: a fold buffer of k + 1 sample rows and one spare block of k rows
  (two for the gaussian, whose r*d is alive beside both offsets). A block's
  terms go into rows 1..k of the fold buffer, whose row 0 holds the running
  total, and that buffer is reduced over its leading axis into row 0. The
  positive and negative parts compress their terms (A > 0, A < 0) into fold
  buffers of their own and fold them the same way. The buffers hold at most
  4 (gaussian: 6) times 2**13 values plus one row, so a breakpoint's peak
  traced memory stays at or below that of blocks of 2**13 // samples
  amenities built from temporaries, at every resolution (its two
  evaluators are not alive at once); one block of all amenities was a few
  percent faster still, but would exceed that bound. A block's offsets are
  formed by copying the sample row in and subtracting the amenity column:
  faster than one broadcast subtract into the buffer, for which numpy's
  iterator allocates two 64 KiB buffers instead of one.

A reduce over the leading axis of a C-contiguous buffer adds whole rows one
after another, so every sample gets the same additions in the same order as
one amenity at a time; numpy sums pairwise only along the innermost axis,
which is why no other axis is reduced, and why a single-sample query (whose
rows are one value each) accumulates instead. When every A > 0 the positive
part is a copy of the total (the same additions in the same order) and is
not summed again.

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

Reuse. A scene remembers the last grid field evaluated from its own
columns: a private one-entry memo, keyed by the resolved kernel and the
grid. ``_grid_sums`` resolves the profile first, so the entry sits on the
scene whose columns were summed: the caller's scene, or for a profile with
overrides the scene built from it, which is dropped with its entry. A call
for the total alone whose kernel and grid equal the entry's returns the
entry's array; any other call evaluates the field and replaces the entry
with its total. A split call stores its total too: the amenities are added
to the total in the same order whether or not the parts are also summed,
so that total is the same bits as an unsplit call's. A kernel's E is a
float, and equal grids give equal cell centers, so an equal key means the
same arithmetic, and a hit changes no output byte. Only totals of at most
``_MEMO_MAX_CELLS`` cells are kept, so a live scene holds at most 1 MiB
for its memo. The entry is read-only, like every raster's values, and
replaced whole, so threads that share a scene read either entry. A scene
that is copied, pickled or rebuilt starts without one. The CLI keeps the
last scene it loaded (see :func:`isobenefit.io.load_scene`), so successive
commands on one scene file in one process share its entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError, NegativeDistanceError, SumOverflowError
from .scene import (GridSpec, Kernel, Raster, Scene, _as_scene, _finite_value, _real_array,
                    _refuse, _resolved_scene, _type_value)

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

# Queries of more than half this many samples (more cells than a 64x64
# grid) are summed one amenity at a time, smaller ones in blocks (see the
# module docstring).
_BLOCK_SAMPLES = 2 ** 13

# Largest grid field a scene keeps as its memo, 1 MiB (see the module
# docstring): a 362x362 grid, say, but not a 384x384 one.
_MEMO_MAX_CELLS = 2 ** 17


def kernel_benefit(attractiveness: float, distance, kernel: Kernel):
    """Benefit from a single amenity at the given distance(s).

    ``distance`` may be a scalar or an ndarray; the result matches. At
    distance 0 every family returns ``attractiveness`` exactly, and at an
    infinite distance 0.0. An ``attractiveness`` that is not a finite real
    number, a distance that is not a real number (a bool, text, or a bool
    or text array, say) or NaN, raises :class:`InvalidValueError`; negative
    distances raise :class:`NegativeDistanceError`.
    """
    _type_value("kernel", kernel, Kernel)
    _finite_value("attractiveness", attractiveness)
    d = _real_array("distance", distance, finite=False)
    if np.isnan(d).any():
        raise InvalidValueError(f"distance must not be NaN, got {distance!r}")
    if np.any(d < 0):
        raise NegativeDistanceError(f"distance must be >= 0, got {distance!r}")
    # E*d*d may overflow to inf on the way to an exact 0.0
    with np.errstate(over="ignore"):
        out = _kernel_values(float(attractiveness), d, kernel)
    if d.ndim == 0:
        return float(out)
    return out


def _block_rows(samples: int) -> int:
    """Amenities summed per block for a query of ``samples`` points; 1
    means one amenity at a time."""
    k = _BLOCK_SAMPLES // max(samples, 1)
    return 1 if k <= 1 else 2 * k


def _terms(ax, ay, a, kernel: Kernel, x, y, squared: bool, out: np.ndarray, spares=None):
    # the terms of one amenity (scalars ax, ay, a) or of a block (columns
    # shaped to broadcast ahead of the samples) at the samples (x, y),
    # written into ``out`` of the broadcast shape; a block also brings its
    # spare buffers of that shape (see the module docstring)
    if not squared:
        out[...] = _kernel_values(a, np.hypot(x - ax, y - ay), kernel)
        return
    if spares is None:  # the offsets are temporaries: on a grid a 1-D row and column
        # (arrays also for a scalar query, for the in-place steps)
        dx, dy, spare = np.asarray(x - ax), np.asarray(y - ay), None
    else:  # the offsets fill the block's buffers, dx in ``out``
        dx, dy, spare = out, spares[0], spares[-1]
        np.copyto(dx, x)
        dx -= ax
        np.copyto(dy, y)
        dy -= ay
    efficiency = kernel.efficiency
    if kernel.family == "gaussian":
        # each offset becomes its factor 2**(64 - rate*d*d) in place, with
        # rate*d in the last spare or a temporary: d * (rate*d) equals
        # (rate*d) * d bit for bit
        rate = efficiency * _LOG2_E
        for d in (dx, dy):
            d *= np.multiply(rate, d, out=spare)
            np.subtract(64.0, d, out=d)
            np.exp2(d, out=d)
        np.multiply(dx, dy, out=out)
        out *= 2.0 ** -128
        out *= a
        return
    if kernel.family == "rational":
        scale = 1.0 / efficiency
        dx *= scale
        dy *= scale
    dx *= dx
    dy *= dy
    if dx is not out:
        out[...] = dx
    out += dy
    np.sqrt(out, out=out)
    if kernel.family == "rational":
        out += 1.0
        np.divide(a, out, out=out)
        return
    out *= -efficiency
    np.exp(out, out=out)
    out *= a


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
        _terms(ax, ay, a, kernel, x, y, squared, work)
        total += work
        if parts and a > 0:
            pos += work
        elif parts and a < 0:
            neg += work
    return total, pos, neg


class _PointEvaluator:
    """Benefit sums of one amenity set under one kernel, at ``samples``
    points a call (x and y broadcast to that many), with the half of the
    range guard that does not depend on the samples, and the block buffers,
    worked out once (see the module docstring). The views of those buffers
    that a query shape needs are prepared on the first call of that shape
    and kept until a call of another shape replaces them. A query of more
    than _BLOCK_SAMPLES // 2 samples, or with at most one amenity, is summed
    one amenity at a time and uses no block buffer."""

    def __init__(self, columns: np.ndarray, kernel: Kernel, samples: int):
        _type_value("kernel", kernel, Kernel)
        self.columns = columns
        self.kernel = kernel
        self._all_positive = bool((columns[2] > 0).all())
        # the squared forms apply to samples of magnitude <= limit, and to
        # none (-1.0) if the kernel or an amenity is out of their range
        limit = _SQUARED_MAX_COORDINATE
        if kernel.family == "rational":  # it squares the offsets over E
            limit *= min(kernel.efficiency, 1.0)
        in_range = (_SQUARED_MIN_EFFICIENCY <= kernel.efficiency <= _SQUARED_MAX_EFFICIENCY
                    and np.max(np.abs(columns[:2]), initial=0.0) <= limit)
        self.limit = limit if in_range else -1.0
        self.k = max(1, min(_block_rows(samples), columns.shape[1]))  # amenities per block
        if self.k > 1:
            # rows 1..k take a block's terms and row 0 the running total;
            # the gaussian needs a second spare for its y factor
            self._rows = np.empty((self.k + 1) * samples)
            spares = 2 if kernel.family == "gaussian" else 1
            self._spares = [np.empty(self.k * samples) for _ in range(spares)]
            self._prepared = (None,)  # no query shape yet

    def __call__(self, x, y, split: bool = False):
        """Sum of every amenity's contribution at the points (x, y). With
        ``split`` also returns the sums over the amenities with
        attractiveness > 0 and < 0; otherwise those are None. The arrays
        returned are the caller's: no later call writes them. Raises
        :class:`InvalidValueError` if a coordinate is not finite, and
        :class:`SumOverflowError` if any of the sums is not finite."""
        mx = np.maximum.reduce(np.abs(x), axis=None, initial=0.0)
        my = np.maximum.reduce(np.abs(y), axis=None, initial=0.0)
        # each on its own: NaN fails "<" and "<=", but max(1.0, nan) is 1.0
        if not (mx < math.inf and my < math.inf):
            raise InvalidValueError("query point coordinates must be finite")
        squared = mx <= self.limit and my <= self.limit
        shape = np.shape(x)
        if np.shape(y) != shape:
            shape = np.broadcast_shapes(shape, np.shape(y))
        # with every A > 0 the positive part is the total, added in the same order
        parts = split and not self._all_positive
        # an overflowing sum is a named error below, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.k == 1:
                total, pos, neg = _sum_one_by_one(self.columns, self.kernel, x, y, squared,
                                                  shape, parts)
            else:
                total, pos, neg = self._blocks(x, y, squared, shape, parts)
        if not (np.isfinite(total).all()
                and (not parts or np.isfinite(pos).all() and np.isfinite(neg).all())):
            # one amenity's term is at most |A|, so this takes two or more
            raise SumOverflowError(f"the benefit sum over {self.columns.shape[1]} amenities "
                                   f"overflowed the float range")
        if split and not parts:
            pos, neg = total.copy(), np.zeros(shape)
        return total, pos, neg

    def _prepare(self, shape):
        # the buffer views of queries of ``shape``: the amenity columns shaped
        # to broadcast ahead of the samples, the term, spare and fold rows of
        # a full block, and those of the last block if it is a partial one
        k, m = self.k, self.columns.shape[1] % self.k
        rows = self._rows.reshape((k + 1,) + shape)
        spares = [spare.reshape((k,) + shape) for spare in self._spares]
        columns = self.columns.reshape((3, -1) + (1,) * len(shape))
        last = (rows[1:m + 1], [s[:m] for s in spares], rows[:m + 1]) if m else None
        self._prepared = (shape, columns, (rows[1:], spares, rows), last)
        return self._prepared

    def _blocks(self, x, y, squared, shape, parts):
        prepared = self._prepared
        if prepared[0] != shape:
            prepared = self._prepare(shape)
        _, columns, full, last = prepared
        rows = full[2]
        rows[0] = 0.0
        attractiveness = self.columns[2]
        selections = (attractiveness > 0, attractiveness < 0) if parts else ()
        part_rows = [np.zeros(rows.shape) for _ in selections]
        k, n = self.k, columns.shape[1]
        for i in range(0, n, k):
            terms, spares, fold = full if i + k <= n else last
            _terms(*columns[:, i:i + k], self.kernel, x, y, squared, terms, spares)
            _fold(fold)
            for sums, keep in zip(part_rows, selections):
                kept = keep[i:i + k]
                picked = np.count_nonzero(kept)
                np.compress(kept, terms, axis=0, out=sums[1:picked + 1])
                _fold(sums[:picked + 1])
        # copies, so that no result keeps a fold buffer alive or changes on
        # the next call
        total = rows[0].copy()
        return (total, *(sums[0].copy() for sums in part_rows)) if parts else (total, None, None)


def point_benefit(amenities, kernel: Kernel, x, y) -> PointBenefit:
    """Total benefit at (x, y): the sum of kernel_benefit over all amenities,
    split into positive (attractiveness > 0) and negative parts.

    ``x`` and ``y`` may be scalars, giving float fields, or arrays (or
    lists) that broadcast together, giving fields of that shape whose
    elements equal the scalar queries bit for bit. A query coordinate that
    is not a finite real number, and query shapes that do not broadcast
    together, raise :class:`InvalidValueError`; amenities that make an
    invalid scene raise :class:`~isobenefit.errors.SceneValidationError`;
    a sum that overflows the float range raises :class:`SumOverflowError`.
    """
    x, y = _real_array("query point x", x), _real_array("query point y", y)
    try:
        samples = math.prod(np.broadcast_shapes(x.shape, y.shape))
    except ValueError:
        _refuse("query point shapes", "broadcastable together", (x.shape, y.shape))
    evaluate = _PointEvaluator(_as_scene(amenities)._columns, kernel, samples)
    total, pos, neg = evaluate(x, y, split=True)
    if total.ndim == 0:
        total, pos, neg = float(total), float(pos), float(neg)
    return PointBenefit(total=total, positive_part=pos, negative_part=neg)


def _grid_sums(scene: Scene, kernel: Kernel, grid: GridSpec,
               profile: str | None, split: bool):
    _type_value("grid", grid, GridSpec)
    resolved, kern = _resolved_scene(scene, kernel, profile)
    # the scene's memo of its last field (see the module docstring)
    memo = getattr(resolved, "_field_memo", None)
    if not split and memo is not None and memo[0] == kern and memo[1] == grid:
        return memo[2], None, None
    evaluate = _PointEvaluator(resolved._columns, kern, grid.size)
    total, pos, neg = evaluate(grid.x_coords()[np.newaxis, :], grid.y_coords()[:, np.newaxis],
                               split)
    if grid.size <= _MEMO_MAX_CELLS:
        total.flags.writeable = False
        object.__setattr__(resolved, "_field_memo", (kern, grid, total))
    return total, pos, neg


def evaluate_field(
    scene: Scene,
    kernel: Kernel,
    grid: GridSpec,
    profile: str | None = None,
) -> Raster:
    """Evaluate the benefit field of ``scene`` on a grid under an optional
    profile. ``scene`` is a :class:`~isobenefit.scene.Scene`, or a sequence
    of :class:`~isobenefit.scene.Amenity` as a scene without profiles.

    Cell (i, j) of the result is the point benefit at that cell's center
    with the profile's attractiveness overrides and personal E applied.
    Every amenity contributes to every cell; there is no cutoff radius.
    """
    total, _, _ = _grid_sums(scene, kernel, grid, profile, split=False)
    return Raster._owning(grid, total)


def evaluate_field_parts(
    scene: Scene,
    kernel: Kernel,
    grid: GridSpec,
    profile: str | None = None,
) -> FieldParts:
    """Like :func:`evaluate_field` but also returns the positive-only and
    negative-only companion rasters (inert amenities contribute to neither).
    ``scene`` is a :class:`~isobenefit.scene.Scene`, or a sequence of
    :class:`~isobenefit.scene.Amenity` as a scene without profiles.
    """
    total, pos, neg = _grid_sums(scene, kernel, grid, profile, split=True)
    return FieldParts(total=Raster._owning(grid, total), positive=Raster._owning(grid, pos),
                      negative=Raster._owning(grid, neg))
