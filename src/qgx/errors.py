"""Exception hierarchy shared by all modules, and the checks on run parameters:
`check_count`, `check_rate` and `check_finite` for each number passed in from
outside, `check_choice` for each name that picks a registry entry (family, suite,
problem, symmetric function, GA mode, base metric). Each raises `ParameterError`,
which the CLI reports in one line with exit 2."""

import sys


class QgxError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(QgxError):
    """Operands have mismatched lengths, sizes, or alphabets."""


class ParameterError(QgxError):
    """A parameter value is outside its allowed range."""


class InputError(QgxError):
    """Malformed input data: bad matrix, bad label, bad text format."""


class OrbitTooLargeError(QgxError):
    """Enumerating the group would exceed `quotient.DEFAULT_ORBIT_CAP`."""


class SizeCapError(QgxError):
    """Instance exceeds the size cap of an exact algorithm."""


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """`value` is an int (never a bool) in [low, high]; no upper bound when `high` is None."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(f"{name} must be at most {high}, got {value}")


def check_rate(name: str, value) -> None:
    """`value` is an int or float (never a bool) in [0, 1]."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be a number in [0, 1], got {value!r}")


def check_finite(name: str, value) -> None:
    """`value` is an int or float (never a bool) of finite float size."""
    # NaN fails the comparison, and so does an int too large for a float
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{name} must be a finite number, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """`value` is a str in `choices`, a tuple or a dict of names."""
    if not isinstance(value, str) or value not in choices:
        raise ParameterError(f"unknown {name} {value!r}; choose from {tuple(choices)}")
