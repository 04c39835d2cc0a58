"""Binomial-proportion statistics: the 95% Wilson interval, the sigma-pull
and the exact binomial tails.

Every rate the package estimates by Monte Carlo, the learning probability
included, is a binomial proportion.  Like pac_bounds, this is plain float
arithmetic.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_count, check_interval

__all__ = ["wilson_interval", "binomial_pull", "binomial_tails"]

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


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for a count X ~ Binomial(n, p), as exact pmf sums.

    The tail on the far side of k from the mean n p is summed from k
    outward: the pmf at k from ``math.lgamma``, each next term by the pmf
    ratio, until the terms no longer change the sum.  That side's terms
    shrink, so the sum stops early.  The near tail is one minus the far
    tail plus the pmf at k.  At p = 0 or 1 the count is exactly n p.
    """
    check_count(n, "n", 1)
    check_count(k, "k", 0)
    if k > n:
        raise DomainError(f"count {k} outside [0, {n}]")
    check_interval(p, "p rate", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        exact = n if p == 1.0 else 0
        return float(k >= exact), float(k <= exact)
    pmf = math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    upper = k >= n * p
    if upper:  # pmf(j + 1) / pmf(j), j = k ... n - 1
        ratios = ((n - j) / (j + 1) * (p / (1.0 - p)) for j in range(k, n))
    else:  # pmf(j - 1) / pmf(j), j = k ... 1
        ratios = (j / (n - j + 1) * ((1.0 - p) / p) for j in range(k, 0, -1))
    far = term = pmf
    for ratio in ratios:
        term *= ratio
        if far + term == far:
            break
        far += term
    near = min(1.0, 1.0 - far + pmf)
    return (near, far) if upper else (far, near)
