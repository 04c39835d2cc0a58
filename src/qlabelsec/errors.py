"""The package's exception types and its seed, count, trial, grid, interval and noise checks."""

import math
import numbers

__all__ = ["DomainError", "ConfigError", "ProtocolError", "StatisticalCheckError"]

# Fewest trials a halting-probability estimate and its interval accept.
MIN_TRIALS = 30


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


def check_trial_count(count: int) -> None:
    """Raise DomainError unless count reaches MIN_TRIALS; package-internal."""
    if count < MIN_TRIALS:
        raise DomainError(f"need at least {MIN_TRIALS} trials for interval estimates, got {count}")


def check_grid(values) -> list[int]:
    """values as a list of ints; raise DomainError unless they are one or more
    positive integers in strictly increasing order; package-internal."""
    grid = list(values)
    if not grid:
        raise DomainError("sample grid is empty; give at least one sample count")
    for n in grid:
        check_count(n, "sample grid point", 1)
    grid = [int(n) for n in grid]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError("sample grid must be strictly increasing positive integers")
    return grid


def check_interval(value, name: str, low: float, high: float, ends: str = "[]") -> None:
    """Raise DomainError unless value lies between low and high; package-internal.

    ends holds the brackets, "[" or "(" then "]" or ")", of a closed or an open
    end.  NaN lies in no interval.
    """
    if (low <= value if ends[0] == "[" else low < value) and (
        value <= high if ends[1] == "]" else value < high
    ):
        return
    if (low, high, ends) == (0.0, math.inf, "()"):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    low_text, high_text = ("1/2" if x == 0.5 else f"{x:g}" for x in (low, high))
    raise DomainError(f"{name} must lie in {ends[0]}{low_text}, {high_text}{ends[1]}, got {value}")


def check_noise(eta: float) -> None:
    """Raise DomainError unless the label noise rate eta lies in [0, 1/2); package-internal."""
    if eta >= 0.5:
        raise DomainError(f"noise at or above one-half is unlearnable: eta={eta}")
    check_interval(eta, "noise rate", 0.0, 0.5, "[)")
