"""Exception types shared across the package."""


class BwviError(Exception):
    """Base class for all bwvi errors."""


class DimensionMismatch(BwviError):
    """Operands have incompatible dimensions."""


class NotPositiveDefinite(BwviError):
    """A matrix required to be positive definite is not (numerically)."""


class InvalidParameters(BwviError):
    """A scalar or structural argument violates its contract."""


class ParseError(BwviError):
    """A dataset file contains malformed numeric data."""


class LabelError(BwviError):
    """A dataset label is outside {0, 1}."""
