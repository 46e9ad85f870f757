"""The one rule for scalar settings: an int is a Python or numpy integer
that is not a bool, and a real is a finite int or float. Configs check
their fields by it when constructed; a failed check raises ValueError."""

import math

import numpy as np


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    return is_int(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))


def check_int(name: str, value, low: int = None) -> None:
    """ValueError unless `value` is an int, and at least `low` when given."""
    if not (is_int(value) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an int{bound}, got {value!r}")


def check_positive(name: str, value) -> None:
    """ValueError unless `value` is a real greater than 0."""
    if not (is_real(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
