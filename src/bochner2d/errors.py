"""Exception types shared across the toolkit."""


class GeometryError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(GeometryError):
    """Surface shape parameters violate their constraints."""


class DegenerateMetricError(GeometryError):
    """Chart metric is singular at the requested point (det g below threshold),
    or det g is too large for the curvature formula, or NaN."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ZeroFieldPointError(GeometryError):
    """A field that must be nowhere zero dips below the working floor."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points if points is not None else []


class NotUnitFieldError(GeometryError):
    """An operation requiring a unit field received a non-unit one."""


class RankDeficientFitError(GeometryError):
    """Polynomial fit system is degenerate beyond recovery."""


class BudgetNotMetError(GeometryError):
    """Degree escalation exhausted without certifying the error budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ChiIndeterminateError(GeometryError):
    """Euler-characteristic estimate too far from an integer to round safely."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(GeometryError):
    """Run configuration rejected before any computation."""
