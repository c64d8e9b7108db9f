"""Checks of scalar parameters, shared by every module.

They need no numpy, so the exact-rational entry points (``optimal``) load
none: a numpy bool can only reach :func:`_as_count` in a process that has
imported numpy already.
"""

from __future__ import annotations

import math
import numbers
import sys


def _check_real(name: str, *values) -> None:
    """Raise unless every value is a real number, such as a float or a
    ``Fraction``.  Call it before ``float()``: True and False would pass as
    1 and 0, and a string such as "0.5" as a number."""
    for v in values:
        if type(v) is not float and (isinstance(v, bool)  # np.bool_ is not Real
                                     or not isinstance(v, numbers.Real)):
            raise ValueError(f"{name} must be a number, got {v!r}")


def _check_unit_params(name: str, *values) -> None:
    """Raise unless every parameter is a real number (:func:`_check_real`)
    in [0, 1] (see Conventions in ``dists``)."""
    _check_real(name, *values)
    if any(not 0 <= v <= 1 for v in values):  # NaN included
        raise ValueError(f"{name} outside [0, 1]")


def _unit_interval(name: str, lo, hi, names: str = "lo < hi") -> tuple[float, float]:
    """``(lo, hi)`` as floats, or ValueError unless both are parameters
    (:func:`_check_unit_params`) with ``0 <= lo < hi <= 1``, worded by ``names``."""
    _check_unit_params(name, lo, hi)
    lo, hi = float(lo), float(hi)
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= {names} <= 1")
    return lo, hi


def _check_nonnegative(name: str, value) -> None:
    """Raise unless ``value``, a tolerance or an error, is finite and >= 0."""
    if not 0.0 <= value < math.inf:  # NaN included
        raise ValueError(f"{name} must be finite and nonnegative")


def _as_count(value, name: str) -> int:
    """``value`` as an int, or ValueError unless it is a whole number:
    ``int`` alone would truncate 2.5 to another count, and True would pass
    as 1, as would a numpy bool, which exists only once numpy is loaded."""
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or (np is not None and isinstance(value, np.bool_)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")
