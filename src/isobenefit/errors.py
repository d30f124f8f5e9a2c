"""Exception types shared across the package.

Scene validation collects every problem it finds into one
:class:`SceneValidationError` instead of stopping at the first; all other
errors are raised at the point of failure.
"""

from __future__ import annotations

from dataclasses import dataclass


class IsobenefitError(Exception):
    """Base class for all errors raised by this package."""


@dataclass(frozen=True)
class Violation:
    """One scene-invariant violation found during validation.

    ``code`` is a stable machine-readable kind ("DuplicateId",
    "NonFiniteValue", "UnknownOverrideTarget", "NonPositiveEfficiency",
    "EmptyId", "UnknownProfile"); ``subject`` names the offending amenity or
    profile.
    """

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject!r}): {self.message}"


class SceneValidationError(IsobenefitError):
    """A scene breaks one or more invariants; carries the full report."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__(
            "; ".join(str(v) for v in self.violations) or "invalid scene"
        )


class InvalidValueError(IsobenefitError, ValueError):
    """A value is out of range or not finite: a bad argument (kernel
    efficiency, grid, contour levels, ...), or a result that cannot be
    represented (an overflowed raster, a non-finite number bound for JSON)."""


class UnknownProfileError(IsobenefitError):
    """A profile name does not exist in the scene."""


class NegativeDistanceError(IsobenefitError):
    """Distances fed to a decay kernel must be >= 0."""


class EmptyRasterError(IsobenefitError):
    """The operation needs at least one cell."""


class ZeroMeanError(IsobenefitError):
    """The uniformity coefficient is undefined when the mean benefit is 0."""


class GridTooSmallError(IsobenefitError):
    """Contour extraction needs a raster of at least 2x2 cells."""


class NoFiniteRangeError(IsobenefitError):
    """Evenly spaced levels cannot be placed on a constant raster."""


class OriginOnAmenityError(IsobenefitError):
    """Huff probabilities are undefined for an origin on an amenity (d=0)."""


class NonPositiveAttractivenessError(IsobenefitError):
    """Gravity operations require strictly positive attractiveness."""


class EmptyChoiceSetError(IsobenefitError):
    """Huff probabilities need at least one amenity to choose from."""


class CoincidentAmenitiesError(IsobenefitError):
    """Breaking points are undefined for two amenities at the same point."""


class NoInteriorMinimumError(IsobenefitError):
    """The benefit profile between the two amenities is monotone."""


class SceneFormatError(IsobenefitError):
    """A scene or raster file could not be parsed; message carries context."""
