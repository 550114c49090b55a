"""Exception types, and the count check and deprecation warning shared across the package."""

import numbers
import warnings


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or invariant."""


class DataError(ValueError):
    """Malformed or unusable input data (CSV parsing, empty files)."""


class NumericalError(RuntimeError):
    """A numerical routine failed beyond its documented fallbacks."""


def check_count(name, value, low):
    """int(value); InvalidInputError unless value is an integer >= low, which is 0 or 1
    (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidInputError(f"{name} must be a {('nonnegative', 'positive')[low]} integer, "
                                f"got {value!r}")
    return int(value)


def warn_deprecated(old, new, stacklevel=2):
    """DeprecationWarning "<old> is deprecated; call <new>", stacklevel as if the caller warned."""
    warnings.warn(f"{old} is deprecated; call {new}", DeprecationWarning, stacklevel + 1)
