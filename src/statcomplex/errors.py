"""Exception types shared across the package.

All derive from ValueError so callers that do not care about the fine
distinction can catch one base class.  The CLI maps these onto exit codes
(config errors vs. data-shape errors), which is why sample-data problems
get their own class.
"""


class DimensionError(ValueError):
    """A distribution (or pair of distributions) has an unusable dimension."""


class FamilyError(ValueError):
    """A two-level family point lies outside the valid parameter set."""


class RangeError(ValueError):
    """A scalar parameter lies outside its documented range."""


class AliasingError(ValueError):
    """A component frequency is at or above the Nyquist limit."""


class DataShapeError(ValueError):
    """Sample data has the wrong length or layout for the requested analysis."""
