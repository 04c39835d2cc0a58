"""Exception types shared across the package."""

__all__ = ["DomainError", "ConfigError", "ProtocolError", "StatisticalCheckError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""


class ProtocolError(RuntimeError):
    """A protocol session cannot produce a well-defined result."""


class StatisticalCheckError(AssertionError):
    """A Monte-Carlo self-check fell outside its tolerance band."""
