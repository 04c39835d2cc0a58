"""Exception types shared across the package, and the seed check."""

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
