"""Benefit fields, isobenefit lines, and gravity indicators for urban scenes.

A scene is a set of point amenities (or disamenities, with negative
attractiveness). Attractiveness decays with distance under one of three
kernels; summing the decayed contributions over a grid gives the benefit
field, whose level sets are the isobenefit lines. On top of the field sit
the uniformity coefficient, Huff visit probabilities, breaking points
between competing amenities, and preference-gap maps between a personal
profile and the majority baseline.

Mind the moving-efficiency coefficient E: the rational kernel decays slower
for larger E, while the gaussian and exponential kernels decay faster. See
:class:`Kernel` and :func:`kernel_benefit`.
"""

from __future__ import annotations

from .errors import (
    CoincidentAmenitiesError,
    EmptyChoiceSetError,
    EmptyRasterError,
    GridTooSmallError,
    InvalidValueError,
    IsobenefitError,
    NegativeDistanceError,
    NoFiniteRangeError,
    NoInteriorMinimumError,
    NonPositiveAttractivenessError,
    OriginOnAmenityError,
    SceneFormatError,
    SceneValidationError,
    UnknownProfileError,
    Violation,
    ZeroMeanError,
)
from .field import (
    FieldParts,
    PointBenefit,
    evaluate_field,
    evaluate_field_parts,
    kernel_benefit,
    point_benefit,
)
from .gravity import (
    BreakPoint,
    HuffResult,
    huff_probabilities,
    numeric_breakpoint,
    reilly_breakpoint,
)
from .indicators import (
    SummaryStats,
    UniformityResult,
    pgg_field,
    summary,
    uniformity,
)
from .io import (
    load_scene,
    read_contours_geojson,
    read_raster,
    read_raster_asc,
    read_raster_csv,
    write_contours_geojson,
    write_raster,
    write_raster_asc,
    write_raster_csv,
)
from .isolines import ContourLine, ContourSet, extract_isolines
from .scene import (
    KERNEL_FAMILIES,
    Amenity,
    GridSpec,
    Kernel,
    Profile,
    Raster,
    Scene,
    resolve_profile,
    validate_scene,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scene
    "KERNEL_FAMILIES",
    "Amenity",
    "Kernel",
    "GridSpec",
    "Raster",
    "Profile",
    "Scene",
    "validate_scene",
    "resolve_profile",
    # field
    "PointBenefit",
    "FieldParts",
    "kernel_benefit",
    "point_benefit",
    "evaluate_field",
    "evaluate_field_parts",
    # indicators
    "SummaryStats",
    "UniformityResult",
    "uniformity",
    "summary",
    "pgg_field",
    # isolines
    "ContourLine",
    "ContourSet",
    "extract_isolines",
    # gravity
    "HuffResult",
    "BreakPoint",
    "huff_probabilities",
    "reilly_breakpoint",
    "numeric_breakpoint",
    # io
    "load_scene",
    "write_raster",
    "read_raster",
    "write_raster_csv",
    "read_raster_csv",
    "write_raster_asc",
    "read_raster_asc",
    "write_contours_geojson",
    "read_contours_geojson",
    # errors
    "IsobenefitError",
    "InvalidValueError",
    "Violation",
    "SceneValidationError",
    "UnknownProfileError",
    "NegativeDistanceError",
    "EmptyRasterError",
    "ZeroMeanError",
    "GridTooSmallError",
    "NoFiniteRangeError",
    "OriginOnAmenityError",
    "NonPositiveAttractivenessError",
    "EmptyChoiceSetError",
    "CoincidentAmenitiesError",
    "NoInteriorMinimumError",
    "SceneFormatError",
]
