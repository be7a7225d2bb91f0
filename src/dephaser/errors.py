"""The package's exceptions, and its one rule each for arguments, the order of times and size caps.

Every count, order, position, outcome or index that a library function takes passes
:func:`_integer` (any ``numbers.Integral`` but ``bool``, returned as an ``int``), every
real-valued scalar :func:`_real` (any finite ``numbers.Real`` but ``bool``, returned as a
``float``), each with its bounds, and every array of reals :func:`_reals` (times, pools,
angles, phases, weights: each entry as :func:`_real`), one-dimensional where a sequence
is taken (:func:`_sequence`), before any arithmetic; anything else raises
``ValidationError`` naming caller and argument, and quoting the value by :func:`_shown`.
Every size cap is checked by :func:`_capped`, the one place that raises ``SizeCapError``.
"""

import math
import numbers
import operator

import numpy as np

SHOWN_CHARS = 40  #: longest repr of a value that an error message quotes


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
            raise ValidationError(f"{caller}: {name} must be an integer, got {_shown(value)}")
        value = operator.index(value)
    return _bounded(caller, name, value, low, high)


def _real(caller: str, name: str, value, low=None, high=None) -> float:
    """``value`` as a finite ``float`` >= ``low`` (and <= ``high``) where given."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{caller}: {name} must be a real number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:  # an int past the double range
            raise ValidationError(f"{caller}: {name} must be finite, got a value past the double range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{caller}: {name} must be finite, got {_shown(value)}")
    return _bounded(caller, name, value, low, high)


def _reals(caller: str, name: str, values) -> np.ndarray:
    """``values`` as a finite float ndarray: an int or float array checked whole, a real scalar as
    a 0-d array, any other iterable entry by entry (each but a finite float through :func:`_real`)."""
    if isinstance(values, numbers.Number):
        return np.array(_real(caller, name, values))
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        values = values.astype(float, copy=False)
        if not np.isfinite(values).all():
            raise ValidationError(f"{caller}: {name} must be finite, got {_shown(values)}")
        return values
    try:
        return np.array([v if type(v) is float and math.isfinite(v) else _real(caller, name, v) for v in values])
    except TypeError:  # not iterable
        raise ValidationError(f"{caller}: {name} must be real numbers, got {_shown(values)}") from None


def _sequence(caller: str, name: str, values) -> np.ndarray:
    """``values`` as :func:`_reals` gives them, and one-dimensional: a scalar or a table is refused."""
    values = _reals(caller, name, values)
    if values.ndim != 1:
        raise ValidationError(f"{caller}: {name} must be a 1-d sequence of reals, got shape {values.shape}")
    return values


def _ordered(caller: str, name: str, *times) -> list:
    """``times`` as arrays broadcast together (else ``ShapeError``), each no earlier than the one
    before it, entry by entry (else ``TimeOrderError``, quoting the first pair out of order)."""
    try:
        shape = np.broadcast(*times).shape
    except ValueError:
        raise ShapeError(f"{caller}: {name} of shapes {[np.shape(t) for t in times]} do not broadcast") from None
    times = [t if getattr(t, "shape", None) == shape else np.broadcast_to(t, shape) for t in times]
    for earlier, later in zip(times, times[1:]):
        if (wrong := np.less(later, earlier)).any():
            pair = (_shown(float(np.ravel(t)[wrong.argmax()])) for t in (earlier, later))  # the first, in C order
            raise TimeOrderError(f"{caller}: {name} must not decrease, got {' then '.join(pair)}")
    return times


def _capped(caller: str, what: str, size, cap: int):
    """``size``, an int or an iterable of running totals read only until one passes ``cap``; a
    size past ``cap`` raises ``SizeCapError`` in one line, a partial total quoted as "at least N"."""
    partial, total = not isinstance(size, numbers.Integral), 0
    for total in size if partial else [size]:
        if total > cap:
            raise SizeCapError(f"{caller}: {'at least ' * partial}{_shown(total)} {what} exceed cap {cap}")
    return total


def _bounded(caller: str, name: str, value, low, high):
    if high is not None:
        if not low <= value <= high:
            raise ValidationError(f"{caller}: {name} {_shown(value)} out of range {low}..{high}")
    elif low is not None and value < low:
        raise ValidationError(f"{caller}: {name} must be >= {low}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)`` with its middle cut out past ``SHOWN_CHARS``, or an int of over 1000 bits
    by its size: repr raises past 4300 digits."""
    if type(value) is int and value.bit_length() > 1000:
        return f"an integer of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:  # a container holding such an int
        return f"a {type(value).__name__} too large to print"
    half = (SHOWN_CHARS - 3) // 2
    return text if len(text) <= SHOWN_CHARS else f"{text[:half]}...{text[-half:]}"
