"""Exception types shared across the package, and the seed and count checks."""

import numbers

__all__ = ["DomainError", "ConfigError", "ProtocolError", "StatisticalCheckError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""


class ProtocolError(RuntimeError):
    """A protocol session cannot produce a well-defined result."""


class StatisticalCheckError(AssertionError):
    """A Monte-Carlo self-check fell outside its tolerance band."""


def check_seed(seed, name: str = "seed") -> None:
    """Raise DomainError unless seed is a non-negative int; package-internal."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {seed!r}")


def check_count(value, name: str, minimum: int) -> None:
    """Raise DomainError unless value is an int of at least minimum; package-internal.

    numpy integers pass; bools and floats, integral ones included, do not.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
