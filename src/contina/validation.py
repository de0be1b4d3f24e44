"""Small input-validation helpers shared across the package."""

import math
from dataclasses import MISSING, fields

import numpy as np


def check_finite(value, name):
    """Coerce to float and reject NaN/inf; the error names ``name``.

    Booleans are refused, though ``float(True) == 1.0``: YAML reads ``yes`` as true.
    """
    try:
        v = float(None if isinstance(value, (bool, np.bool_)) else value)
    except (TypeError, ValueError, OverflowError):  # such as None, "abc" or 10**400
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_in_range(value, name, low, high):
    """A finite number strictly between ``low`` and ``high``; the error names ``name``."""
    v = check_finite(value, name)
    if not (low < v < high):
        raise ValueError(f"{name} must be in ({low}, {high}), got {v}")
    return v


def check_positive(value, name):
    v = check_finite(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be > 0, got {v}")
    return v


def check_int(value, name, low):
    """Return ``value`` as an int; it must equal that int and be >= ``low``.

    Booleans are refused, though ``True == 1``: YAML reads ``yes`` as true.
    """
    try:
        v = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):  # such as None, "abc" or inf
        v = None
    if v is None or v != value or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return v


# The largest count or size a setting may hold: the largest index numpy can use.
MAX_SIZE = int(np.iinfo(np.intp).max)


def check_positive_int(value, name):
    """``check_int`` with ``low`` 1, for a count or size: it must also be at most ``MAX_SIZE``."""
    v = check_int(value, name, 1)
    if v > MAX_SIZE:
        raise ValueError(f"{name} must be at most {MAX_SIZE}, got {value!r}")
    return v


def check_bool(value, name):
    """Refuse anything but True and False, such as the string 'false'."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def check_mapping(value, name):
    """Refuse a config section that is not a mapping, such as a list or a string."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a mapping, got {value!r}")
    return value


def check_section(value, name, cls):
    """A copy of config section ``name``, whose keys are the fields of the dataclass ``cls``.

    Refuses a value that is not a mapping, and names its unknown keys and the
    fields without a default that it leaves out.
    """
    known = fields(cls)
    unknown = set(check_mapping(value, name)) - {f.name for f in known}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    missing = [f.name for f in known if f.name not in value
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {name} keys: {missing}")
    return dict(value)
