"""Exception hierarchy shared across the package."""


class DephaserError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DephaserError):
    """An input object violates one of its structural invariants."""


class ShapeError(ValidationError):
    """Dimension or shape mismatch between operands."""


class SizeCapError(DephaserError):
    """A computation would exceed a configured combinatorial/dimension cap."""


class TimeOrderError(ValidationError):
    """A time argument violates the required non-decreasing ordering."""
