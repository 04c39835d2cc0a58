"""Sample-complexity algebra for finite hypothesis classes under label noise.

Everything here is closed-form arithmetic on floats.  Hypothesis-class sizes
enter only through their natural logarithm so that astronomically large
classes (|H| ~ 32**P for P parameters) never overflow.  Confidence floors are
kept in log-space for the same reason; the linear value is materialized on
demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_count, check_noise

__all__ = [
    "DeltaFloor",
    "ExclusivityVerdict",
    "sample_bound_noiseless",
    "sample_bound_noisy",
    "gamma",
    "delta_floor",
    "search_rate",
    "random_search_curve",
    "pac_condition_met",
    "exclusivity_verdict",
    "equalizing_epsilon",
]

# Tolerance for snapping a real-valued bound to an adjacent integer before
# taking the ceiling, so that float noise cannot add a spurious +1 at exact
# integer boundaries.
_CEIL_SNAP = 1e-9


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"accuracy epsilon must lie in (0, 1), got {epsilon}")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"confidence delta must lie in (0, 1), got {delta}")


def _check_log_count(log_hypothesis_count: float) -> None:
    if not 0.0 < log_hypothesis_count < math.inf:
        raise DomainError(
            f"log hypothesis count must be positive and finite, got {log_hypothesis_count}"
        )


def _ceil_snapped(value: float) -> int:
    if not math.isfinite(value):
        raise DomainError(f"sample bound {value} is not a finite number")
    nearest = round(value)
    if abs(value - nearest) <= _CEIL_SNAP * max(1.0, abs(value)):
        return int(nearest)
    return math.ceil(value)


def _noiseless_raw(epsilon: float, delta: float, log_hypothesis_count: float) -> float:
    return (log_hypothesis_count - math.log(delta)) / epsilon


def _noisy_raw(
    epsilon: float, delta: float, log_hypothesis_count: float, eta: float
) -> float:
    scale = epsilon**2 * (1.0 - 2.0 * eta) ** 2
    # a scale that underflows to 0.0 means an unbounded sample count
    slowdown = 2.0 / scale if scale > 0.0 else math.inf
    return slowdown * (math.log(2.0) + log_hypothesis_count - math.log(delta))


def sample_bound_noiseless(
    epsilon: float, delta: float, log_hypothesis_count: float
) -> int:
    """Samples sufficient to (epsilon, delta)-learn a consistent hypothesis.

    Least integer >= (1/epsilon) * (ln|H| - ln delta).
    """
    _check_epsilon(epsilon)
    _check_delta(delta)
    _check_log_count(log_hypothesis_count)
    return _ceil_snapped(_noiseless_raw(epsilon, delta, log_hypothesis_count))


def sample_bound_noisy(
    epsilon: float, delta: float, log_hypothesis_count: float, eta: float
) -> int:
    """Sample bound under symmetric label noise of rate eta.

    Least integer >= 2 / (epsilon^2 (1-2 eta)^2) * (ln 2 + ln|H| - ln delta).
    Reduces to a quadratically worse version of the noiseless bound at
    eta = 0; the bound is sufficient, not tight.
    """
    _check_epsilon(epsilon)
    _check_delta(delta)
    _check_log_count(log_hypothesis_count)
    check_noise(eta)
    return _ceil_snapped(_noisy_raw(epsilon, delta, log_hypothesis_count, eta))


def gamma(epsilon: float, eta: float) -> float:
    """Exponent rate epsilon^2 (1-2 eta)^2 / 2 governing the confidence floor."""
    _check_epsilon(epsilon)
    check_noise(eta)
    return epsilon**2 * (1.0 - 2.0 * eta) ** 2 / 2.0


@dataclass(frozen=True)
class DeltaFloor:
    """Best achievable confidence for a fixed dataset size.

    The floor is exp(-gamma * n).  Only the log value is stored; for large n
    the linear value underflows to 0.0, which is fine for display but useless
    for comparison, so comparisons go through log_delta_star.
    """

    gamma: float
    n: int
    log_delta_star: float

    @property
    def delta_star(self) -> float:
        return math.exp(self.log_delta_star)

    def __lt__(self, other: "DeltaFloor") -> bool:
        return self.log_delta_star < other.log_delta_star


def delta_floor(epsilon: float, eta: float, n: int) -> DeltaFloor:
    """Floor on the achievable confidence delta given n noisy samples."""
    check_count(n, "n", 0)
    g = gamma(epsilon, eta)
    return DeltaFloor(gamma=g, n=n, log_delta_star=-g * n)


def search_rate(p: float) -> float:
    """Exponential rate xi = -ln(1-p) of the random-search halting law."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"per-draw success probability must lie in [0, 1], got {p}")
    if p == 1.0:
        return math.inf
    return -math.log1p(-p)


def random_search_curve(p: float, n: int) -> float:
    """Probability that i.i.d. search with per-draw success p halts within n draws.

    Equals sum_{k=1..n} p (1-p)^(k-1) = 1 - (1-p)^n, evaluated in log-space.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"per-draw success probability must lie in [0, 1], got {p}")
    check_count(n, "n", 0)
    if n == 0 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def pac_condition_met(learning_probability: float, delta: float) -> bool:
    """Whether an observed learning probability certifies confidence delta."""
    if not 0.0 <= learning_probability <= 1.0:
        raise DomainError(
            f"learning probability must lie in [0, 1], got {learning_probability}"
        )
    _check_delta(delta)
    return learning_probability >= 1.0 - delta


@dataclass(frozen=True)
class ExclusivityVerdict:
    """Outcome of comparing authorized and eavesdropper confidence floors.

    ensured is True when the authorized party's estimated noise sits below
    the strategy threshold eta_star and its floor is strictly below the
    eavesdropper's.  The guarantee is one-directional: above eta_star nothing
    is claimed either way, so ensured=False means "not certified", not
    "certified insecure".
    """

    ensured: bool
    floor_authorized: DeltaFloor
    floor_eavesdropper: DeltaFloor
    eta_star: float
    explanation: str


def exclusivity_verdict(
    epsilon: float,
    eta_a: float,
    n_a: int,
    eta_e: float,
    n_e: int,
    eta_star: float,
) -> ExclusivityVerdict:
    """Decide whether learning is exclusive to the authorized party.

    Both parties are scored at the same accuracy target epsilon.  The
    eavesdropper never holds more examples than the authorized party; a
    larger n_e is rejected outright.
    """
    check_noise(eta_a)
    check_noise(eta_e)
    check_count(n_a, "n_a", 0)
    check_count(n_e, "n_e", 0)
    if not 0.0 < eta_star < 0.5:
        raise DomainError(f"eta_star must lie in (0, 1/2), got {eta_star}")
    if n_e > n_a:
        raise DomainError(
            f"size ordering violated: eavesdropper holds {n_e} examples "
            f"but the authorized dataset has only {n_a}"
        )
    floor_a = delta_floor(epsilon, eta_a, n_a)
    floor_e = delta_floor(epsilon, eta_e, n_e)
    below_threshold = eta_a < eta_star
    floor_strictly_lower = floor_a.log_delta_star < floor_e.log_delta_star
    ensured = below_threshold and floor_strictly_lower
    if ensured:
        explanation = (
            f"eta_a={eta_a:.6g} < eta_star={eta_star:.6g} and the authorized "
            f"confidence floor is strictly lower "
            f"(log {floor_a.log_delta_star:.6g} < {floor_e.log_delta_star:.6g})"
        )
    elif not below_threshold:
        explanation = (
            f"observed noise eta_a={eta_a:.6g} is not below the strategy "
            f"threshold eta_star={eta_star:.6g}; no guarantee is made"
        )
    else:
        explanation = (
            f"confidence floors do not separate: log floor_a="
            f"{floor_a.log_delta_star:.6g} vs log floor_e="
            f"{floor_e.log_delta_star:.6g}"
        )
    return ExclusivityVerdict(
        ensured=ensured,
        floor_authorized=floor_a,
        floor_eavesdropper=floor_e,
        eta_star=eta_star,
        explanation=explanation,
    )


def equalizing_epsilon(
    epsilon_a: float, eta_a: float, n_a: int, eta_e: float, n_e: int
) -> float:
    """Minimal accuracy target the eavesdropper would need to match floors.

    Solves gamma(eps_e, eta_e) * n_e = gamma(eps_a, eta_a) * n_a for eps_e.
    Exceeds epsilon_a whenever the eavesdropper is noisier and no better
    stocked with examples, i.e. matching the floor costs accuracy.
    """
    _check_epsilon(epsilon_a)
    check_noise(eta_a)
    check_noise(eta_e)
    check_count(n_a, "n_a", 0)
    check_count(n_e, "n_e", 0)
    if n_e == 0:
        raise DomainError("cannot equalize floors against an empty dataset")
    return (
        epsilon_a
        * ((1.0 - 2.0 * eta_a) / (1.0 - 2.0 * eta_e))
        * math.sqrt(n_a / n_e)
    )
