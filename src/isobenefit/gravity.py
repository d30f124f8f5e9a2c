"""Gravity-model views of a scene: Huff visit probabilities and the breaking
point of equal attraction between two amenities.

The breaking point comes in two flavors that are worth comparing side by
side: the analytic Reilly point

    Br = d / (1 + sqrt(A1 / A2))      (distance measured from amenity 2)

and the numerical one read off the benefit surface itself: the minimum of
the summed benefit along the segment joining the two amenities, i.e. the
point where a marble resting on the benefit surface would settle. The two
do not coincide in general; both are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoincidentAmenitiesError,
    EmptyChoiceSetError,
    InvalidValueError,
    NoInteriorMinimumError,
    NonPositiveAttractivenessError,
    OriginOnAmenityError,
    SumOverflowError,
)
from .field import point_benefit
from .scene import Amenity, Kernel

__all__ = [
    "HuffResult",
    "BreakPoint",
    "huff_probabilities",
    "reilly_breakpoint",
    "numeric_breakpoint",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HuffResult:
    """Visit probabilities by amenity id; they sum to 1."""

    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities",
                           MappingProxyType(dict(self.probabilities)))


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
    amenities: Sequence[Amenity],
    distance_exponent: float = 1.0,
) -> HuffResult:
    """Probability that a citizen at ``origin`` visits each amenity:
    attractiveness over distance, normalized over the choice set,

        P_j = (A_j / d_j) / sum_k (A_k / d_k).

    ``distance_exponent`` generalizes d_j to d_j**exponent as an
    experimentation hook; the default of 1 is the model itself. All
    attractiveness values must be strictly positive and the origin must not
    sit on an amenity.
    """
    if len(amenities) == 0:
        raise EmptyChoiceSetError("huff probabilities need at least one amenity")
    ox, oy = float(origin[0]), float(origin[1])
    g = float(distance_exponent)
    if not (math.isfinite(ox) and math.isfinite(oy)):
        raise InvalidValueError(f"origin must be finite, got {origin!r}")
    if not math.isfinite(g):
        raise InvalidValueError(f"distance exponent must be finite, got {distance_exponent!r}")
    distances: list[float] = []
    for am in amenities:
        if not am.attractiveness > 0:
            raise NonPositiveAttractivenessError(
                f"amenity {am.id!r} has attractiveness {am.attractiveness}; "
                "the probability model needs A > 0"
            )
        d = math.hypot(ox - am.x, oy - am.y)
        if d == 0.0:
            raise OriginOnAmenityError(
                f"origin {origin!r} coincides with amenity {am.id!r}"
            )
        distances.append(d)
    try:
        weights = [am.attractiveness / d ** g for am, d in zip(amenities, distances)]
        if not 0.0 < sum(weights) < math.inf:
            raise OverflowError("every weight underflowed, or their sum overflowed")
    except (ZeroDivisionError, OverflowError):
        # d ** g or A / d ** g left the float range at an extreme distance:
        # take the weights in log form, shifted so that the largest is 1
        logs = [math.log(am.attractiveness) - g * math.log(d)
                for am, d in zip(amenities, distances)]
        top = max(logs)
        if not math.isfinite(top):
            raise InvalidValueError(
                f"Huff weights overflow even in log form (distance exponent {g!r})"
            ) from None
        weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return HuffResult(probabilities={
        am.id: w / total for am, w in zip(amenities, weights)
    })


def _pair_geometry(amenity1: Amenity, amenity2: Amenity) -> float:
    d = math.hypot(amenity1.x - amenity2.x, amenity1.y - amenity2.y)
    if d == 0.0:
        raise CoincidentAmenitiesError(
            f"amenities {amenity1.id!r} and {amenity2.id!r} share a position"
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
    the two always add up to d.
    """
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


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    """Argmin of f on [lo, hi] by golden-section search; final bracket width
    <= tol. Assumes a single interior minimum inside the bracket."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def numeric_breakpoint(
    amenity1: Amenity,
    amenity2: Amenity,
    kernel: Kernel,
    scene_context: Sequence[Amenity] | None = None,
    resolution: int = 101,
) -> BreakPoint:
    """Breaking point as the minimum of the benefit surface along the
    segment between the two amenities.

    The benefit profile is sampled at ``resolution`` evenly spaced points
    strictly inside the segment (the profile may be multimodal once
    ``scene_context`` adds the rest of the scene's amenities to the sum, so
    sample first, then refine). The bracket around the best sample is
    narrowed by golden-section search to within 1e-6 of the pair distance.
    When the sampled profile is monotone, i.e. the minimum sits at one of
    the amenities rather than between them, there is no breaking point and
    :class:`NoInteriorMinimumError` is raised.

    ``scene_context``, when given, is used as the complete amenity list for
    the benefit sum (it should include the pair); otherwise only the two
    amenities contribute.
    """
    if resolution < 3:
        raise InvalidValueError(f"resolution must be >= 3, got {resolution}")
    d = _pair_geometry(amenity1, amenity2)
    contributors = tuple(scene_context) if scene_context is not None else (amenity1, amenity2)

    def profile(t):
        x, y = _point_between(amenity1, amenity2, t)
        return point_benefit(contributors, kernel, x, y).total

    ts = np.arange(resolution + 2) / (resolution + 1)
    coarse = profile(ts)
    k_min = int(np.argmin(coarse))  # first of equal minima (or the first NaN)
    if not math.isfinite(coarse[k_min]):
        raise SumOverflowError(
            f"the benefit sum over {len(contributors)} amenities overflowed the "
            f"float range along the segment")
    if k_min == 0 or k_min == len(ts) - 1:
        raise NoInteriorMinimumError(
            "benefit along the segment is lowest at an amenity, not between "
            "them; no interior breaking point"
        )

    t_star = _golden_section_min(profile, *ts[[k_min - 1, k_min + 1]].tolist(), tol=1e-7)
    return BreakPoint(
        position=_point_between(amenity1, amenity2, t_star),
        distance_from_1=t_star * d,
        distance_from_2=(1.0 - t_star) * d,
        benefit_at_point=profile(t_star),
    )
