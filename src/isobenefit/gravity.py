"""Gravity-model views of a scene: Huff visit probabilities and the breaking
point of equal attraction between two amenities.

The breaking point comes in two flavors that are worth comparing side by
side: the analytic Reilly point

    Br = d / (1 + sqrt(A1 / A2))      (distance measured from amenity 2)

and the numerical one read off the benefit surface itself: the minimum of
the summed benefit along the segment joining the two amenities, i.e. the
point where a marble resting on the benefit surface would settle. It is
found by one sampling loop: each pass evaluates evenly spaced points of an
interval in one array query, and the next pass zooms in on the lowest
sample. One point evaluator of the field module serves every pass of a
breakpoint: the block buffers are built once, and each pass asks for the
total only. The two do not coincide in general; both are reported.

Both the Huff probabilities and the breakpoint's context take a
:class:`~isobenefit.scene.Scene` as well as a sequence of amenities, and
read a scene's own amenity columns: a call on a loaded scene builds no
``Amenity`` object for the amenities it only sums over. A sequence is
converted to columns once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoincidentAmenitiesError,
    EmptyChoiceSetError,
    InvalidValueError,
    NoInteriorMinimumError,
    NonPositiveAttractivenessError,
    OriginOnAmenityError,
)
from . import field
from .field import point_benefit  # noqa: F401  (perfbench/tracing.py wraps it by name)
from .scene import MAX_GRID_CELLS, Amenity, Kernel, Scene, _ReadOnlyDict, _refuse_bad_values

__all__ = [
    "HuffResult",
    "BreakPoint",
    "huff_probabilities",
    "reilly_breakpoint",
    "numeric_breakpoint",
]


@dataclass(frozen=True)
class HuffResult:
    """Visit probabilities by amenity id; they sum to 1. ``probabilities``
    is a read-only dict, which ``dataclasses.asdict``, ``copy.deepcopy`` and
    pickle can copy."""

    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _ReadOnlyDict(self.probabilities))


@dataclass(frozen=True)
class BreakPoint:
    """A point of equal attraction on the segment between two amenities.

    ``benefit_at_point`` is filled only by the numerical variant (the value
    of the benefit surface at its minimum); the Reilly point is purely
    geometric.
    """

    position: tuple[float, float]
    distance_from_1: float
    distance_from_2: float
    benefit_at_point: float | None = None


def huff_probabilities(
    origin: tuple[float, float],
    amenities: Scene | Sequence[Amenity],
    distance_exponent: float = 1.0,
) -> HuffResult:
    """Probability that a citizen at ``origin`` visits each amenity:
    attractiveness over distance, normalized over the choice set,

        P_j = (A_j / d_j) / sum_k (A_k / d_k).

    ``distance_exponent`` generalizes d_j to d_j**exponent as an
    experimentation hook; the default of 1 is the model itself. All
    attractiveness values must be strictly positive and the origin must not
    sit on an amenity. ``amenities`` is a scene or a sequence of amenities;
    a non-finite amenity value raises :class:`InvalidValueError`.
    """
    scene = amenities if isinstance(amenities, Scene) else Scene(amenities)
    ids = scene._ids
    if len(ids) == 0:
        raise EmptyChoiceSetError("huff probabilities need at least one amenity")
    ox, oy = float(origin[0]), float(origin[1])
    g = float(distance_exponent)
    if not (math.isfinite(ox) and math.isfinite(oy)):
        raise InvalidValueError(f"origin must be finite, got {origin!r}")
    if not math.isfinite(g):
        raise InvalidValueError(f"distance exponent must be finite, got {distance_exponent!r}")
    xs, ys, attractiveness = field._amenity_columns(scene).tolist()
    distances: list[float] = []
    for ident, x, y, a in zip(ids, xs, ys, attractiveness):
        if not a > 0:
            raise NonPositiveAttractivenessError(
                f"amenity {ident!r} has attractiveness {a}; "
                "the probability model needs A > 0"
            )
        d = math.hypot(ox - x, oy - y)
        if d == 0.0:
            raise OriginOnAmenityError(
                f"origin {origin!r} coincides with amenity {ident!r}"
            )
        distances.append(d)
    try:
        weights = [a / d ** g for a, d in zip(attractiveness, distances)]
        if not 0.0 < sum(weights) < math.inf:
            raise OverflowError("every weight underflowed, or their sum overflowed")
    except (ZeroDivisionError, OverflowError):
        # d ** g or A / d ** g left the float range at an extreme distance:
        # take the weights in log form, shifted so that the largest is 1
        logs = [math.log(a) - g * math.log(d) for a, d in zip(attractiveness, distances)]
        top = max(logs)
        if not math.isfinite(top):
            raise InvalidValueError(
                f"Huff weights overflow even in log form (distance exponent {g!r})"
            ) from None
        weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return HuffResult(probabilities={
        ident: w / total for ident, w in zip(ids, weights)
    })


def _pair_geometry(amenity1: Amenity, amenity2: Amenity) -> float:
    d = math.hypot(amenity1.x - amenity2.x, amenity1.y - amenity2.y)
    if d == 0.0:
        raise CoincidentAmenitiesError(
            f"amenities {amenity1.id!r} and {amenity2.id!r} share a position"
        )
    if d == math.inf:  # no point between them could be computed
        raise InvalidValueError(
            f"amenities {amenity1.id!r} and {amenity2.id!r} are farther apart "
            f"than the float range"
        )
    return d


def _point_between(amenity1: Amenity, amenity2: Amenity, t: float) -> tuple[float, float]:
    # t = 0 at amenity 1, t = 1 at amenity 2.
    return (
        amenity1.x + t * (amenity2.x - amenity1.x),
        amenity1.y + t * (amenity2.y - amenity1.y),
    )


def reilly_breakpoint(amenity1: Amenity, amenity2: Amenity) -> BreakPoint:
    """Analytic breaking point between two positive amenities.

    Br = d / (1 + sqrt(A1/A2)), reported as the distance from amenity 2
    (the classical convention: the boundary sits nearer the weaker
    attraction). Swapping the arguments gives the complementary distance;
    the two always add up to d. A coordinate or attractiveness that is not
    a finite real number raises :class:`InvalidValueError` naming the
    amenity.
    """
    _refuse_bad_values((amenity1, amenity2))
    for am in (amenity1, amenity2):
        if not am.attractiveness > 0:
            raise NonPositiveAttractivenessError(
                f"amenity {am.id!r} has attractiveness {am.attractiveness}; "
                "the breaking point needs A > 0"
            )
    d = _pair_geometry(amenity1, amenity2)
    br = d / (1.0 + math.sqrt(amenity1.attractiveness / amenity2.attractiveness))
    return BreakPoint(
        position=_point_between(amenity1, amenity2, 1.0 - br / d),
        distance_from_1=d - br,
        distance_from_2=br,
    )


def numeric_breakpoint(
    amenity1: Amenity,
    amenity2: Amenity,
    kernel: Kernel,
    scene_context: Scene | Sequence[Amenity] | None = None,
    resolution: int = 101,
) -> BreakPoint:
    """Breaking point as the minimum of the benefit surface along the
    segment between the two amenities.

    The benefit profile is sampled at ``resolution`` evenly spaced points
    strictly inside the segment, plus its two ends, in one array query (the
    profile may be multimodal once ``scene_context`` adds the rest of the
    scene's amenities to the sum, so sample first, then refine). When the
    lowest sample is an end, i.e. the profile falls all the way to one of
    the amenities, there is no breaking point and
    :class:`NoInteriorMinimumError` is raised. Otherwise each further pass
    samples the interval between the two neighbours of the lowest sample
    the same way, until the samples are at most 5e-8 of the pair distance
    apart. The breaking point is the lowest sample of the last pass; its
    distance from the true minimum is within 1e-6 of the pair distance.

    ``scene_context``, when given, is used as the complete amenity list for
    the benefit sum (it should include the pair): a scene, whose own amenity
    columns are summed, or a sequence of amenities. Otherwise only the two
    amenities contribute. ``resolution`` must lie in [3, MAX_GRID_CELLS].
    A coordinate or attractiveness of the pair or the context that is not a
    finite real number raises :class:`InvalidValueError` naming the amenity.
    """
    # before the pair geometry, so that a bad value of the pair is named as such
    _refuse_bad_values((amenity1, amenity2))
    if not 3 <= resolution <= MAX_GRID_CELLS:
        raise InvalidValueError(
            f"resolution must be between 3 and {MAX_GRID_CELLS}, got {resolution}")
    contributors = scene_context if scene_context is not None else (amenity1, amenity2)
    columns = field._amenity_columns(contributors)
    d = _pair_geometry(amenity1, amenity2)
    n = resolution + 1  # intervals per pass
    evaluate = field._PointEvaluator(columns, kernel, n + 1)

    def lowest_sample(lo, hi):
        ts = lo + (hi - lo) * (np.arange(n + 1) / n)
        x, y = _point_between(amenity1, amenity2, ts)
        profile = evaluate(x, y)[0]
        k = int(np.argmin(profile))  # first of equal minima
        return ts, profile, k

    ts, profile, k = lowest_sample(0.0, 1.0)
    if k == 0 or k == n:
        raise NoInteriorMinimumError(
            "benefit along the segment is lowest at an amenity, not between "
            "them; no interior breaking point"
        )
    while (ts[n] - ts[0]) / n > 5e-8:
        ts, profile, k = lowest_sample(ts[max(k - 1, 0)], ts[min(k + 1, n)])
    t_star = float(ts[k])
    return BreakPoint(
        position=_point_between(amenity1, amenity2, t_star),
        distance_from_1=t_star * d,
        distance_from_2=(1.0 - t_star) * d,
        benefit_at_point=float(profile[k]),
    )
