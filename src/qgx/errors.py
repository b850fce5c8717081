"""Exception hierarchy shared by all modules."""


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
