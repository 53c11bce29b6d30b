"""Argument validation helpers shared across the library.

All helpers raise :class:`repro.errors.ValidationError` (a ``ValueError``
subclass) with a message naming the offending parameter, and return the
validated value so they can be used inline::

    self.epsilon = check_epsilon(epsilon)
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_bool",
    "check_epsilon",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_int_array",
    "check_integer",
]


def check_epsilon(epsilon: float) -> float:
    """Validate a differential-privacy budget: finite and strictly positive."""
    value = _as_float("epsilon", epsilon)
    if value <= 0:
        raise ValidationError(f"epsilon must be > 0, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate a probability in the closed interval [0, 1]."""
    result = _as_float(name, value)
    if not 0.0 <= result <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {result}")
    return result


def check_positive(name: str, value: float) -> float:
    """Validate a finite, strictly positive float."""
    result = _as_float(name, value)
    if result <= 0:
        raise ValidationError(f"{name} must be > 0, got {result}")
    return result


def check_non_negative(name: str, value: float) -> float:
    """Validate a finite float that is >= 0."""
    result = _as_float(name, value)
    if result < 0:
        raise ValidationError(f"{name} must be >= 0, got {result}")
    return result


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate that ``low <= value <= high``."""
    result = _as_float(name, value)
    if not low <= result <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {result}")
    return result


def check_integer(name: str, value: int, minimum: int | None = None) -> int:
    """Validate a Python or numpy integer (not a bool), returned as ``int``.

    Optionally bounded below by ``minimum``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_bool(name: str, value: bool) -> bool:
    """Validate a Python or numpy bool, returned as ``bool``.

    Anything else (``"false"``, ``None``, ``0``) is refused instead of
    being read by its truthiness.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_int_array(name: str, values) -> np.ndarray:
    """``values`` as an ``int`` array, refusing a bool or non-integer dtype.

    The refusal reads the dtype only, so it is O(1) on an array: an int
    array converts as ``np.asarray(values, dtype=int)`` would, while a
    float or bool one raises :class:`~repro.errors.ValidationError` naming
    ``name`` instead of being truncated.  Any other iterable is read
    through ``np.asarray`` first, after its items are checked for bools
    (numpy reads ``[True, 3]`` as the ints ``[1, 3]``); an empty one is an
    empty int array (numpy reads ``[]`` as float64).  Range checks stay
    with the caller.
    """
    if isinstance(values, np.ndarray):
        array = values
    else:
        items = list(values)
        if any(isinstance(item, (bool, np.bool_)) for item in items):
            raise ValidationError(f"{name} must be integers, got a bool in {items[:5]!r}")
        array = np.asarray(items)
    if array.dtype.kind not in "iu" and array.size:
        raise ValidationError(f"{name} must be integers, got dtype {array.dtype}")
    return array.astype(int, copy=False)


def _as_float(name: str, value: float) -> float:
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if math.isnan(result) or math.isinf(result):
        raise ValidationError(f"{name} must be finite, got {result}")
    return result
