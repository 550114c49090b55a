"""Exception types and the deprecation warning shared across the package."""

import warnings


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or invariant."""


class DataError(ValueError):
    """Malformed or unusable input data (CSV parsing, empty files)."""


class NumericalError(RuntimeError):
    """A numerical routine failed beyond its documented fallbacks."""


def warn_deprecated(old, new, stacklevel=2):
    """DeprecationWarning "<old> is deprecated; call <new>", stacklevel as if the caller warned."""
    warnings.warn(f"{old} is deprecated; call {new}", DeprecationWarning, stacklevel + 1)
