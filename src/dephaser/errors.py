"""Exception hierarchy shared across the package, and the one rule for scalar arguments.

Every count, order, position, outcome or index that a library function takes
passes :func:`_integer` (any ``numbers.Integral`` but ``bool``, returned as an
``int``), and every real-valued scalar :func:`_real` (any finite ``numbers.Real``
but ``bool``, returned as a ``float``), each with its bounds, before any
arithmetic; anything else raises ``ValidationError`` naming caller and argument.
"""

import math
import numbers
import operator


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


def _integer(caller: str, name: str, value, low: int, high=None) -> int:
    """``value`` as a Python ``int`` >= ``low`` (and <= ``high`` if given)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{caller}: {name} must be an integer, got {value!r}")
        value = operator.index(value)
    return _bounded(caller, name, value, low, high)


def _real(caller: str, name: str, value, low=None, high=None) -> float:
    """``value`` as a finite ``float`` >= ``low`` (and <= ``high``) where given."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{caller}: {name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the double range
            raise ValidationError(f"{caller}: {name} must be finite, got a value past the double range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{caller}: {name} must be finite, got {value!r}")
    return _bounded(caller, name, value, low, high)


def _bounded(caller: str, name: str, value, low, high):
    if high is not None:
        if not low <= value <= high:
            raise ValidationError(f"{caller}: {name} {_shown(value)} out of range {low}..{high}")
    elif low is not None and value < low:
        raise ValidationError(f"{caller}: {name} must be >= {low}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``, or an int of over 1000 bits by its size: repr raises past 4300 digits."""
    return f"an integer of {value.bit_length()} bits" if type(value) is int and value.bit_length() > 1000 else repr(value)
