"""Binomial-proportion statistics: the 95% Wilson interval and the sigma-pull.

Every rate the package estimates by Monte Carlo, the learning probability
included, is a binomial proportion.  Like pac_bounds, this is plain float
arithmetic.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_count, check_interval

__all__ = ["wilson_interval", "binomial_pull"]

_WILSON_Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    check_count(trials, "trials", 1)
    check_count(successes, "successes", 0)
    if successes > trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    z = _WILSON_Z_95
    zz = z * z
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials))
        / denom
    )
    # the score equation has an exact root at the boundary for degenerate counts
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def binomial_pull(observed: float, n: int, p: float) -> float:
    """|observed - p| in standard errors sqrt(p (1 - p) / n) of a rate over n trials.

    At p = 0 or 1 the rate is exact: the pull is 0.0 when observed equals p
    and infinite otherwise.
    """
    check_count(n, "n", 1)
    check_interval(observed, "observed rate", 0.0, 1.0)
    check_interval(p, "p rate", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0 if observed == p else math.inf
    return abs(observed - p) / math.sqrt(p * (1.0 - p) / n)
