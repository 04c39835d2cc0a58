"""Binary-entropy bookkeeping for label channels and their noise thresholds.

The authorized receiver sees the true label through a binary symmetric
channel of flip rate eta, so its information rate is 1 - h(eta).  What the
eavesdropper can extract depends on the attack class:

* ``individual``: per-round measurement, rate 1 - h(1/2 + sqrt(eta (1-eta)))
* ``collective``: joint measurement of all rounds, rate h(eta)
* ``memoryless``: no closed-form curve; only its tabulated threshold is known

The threshold eta_star of a class is the flip rate at which the two rates
meet; below it the authorized party holds a strict information advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_interval

__all__ = [
    "CURVE_KINDS",
    "ATTACK_KINDS",
    "InfoCurve",
    "binary_entropy",
    "entropy_inverse",
    "mutual_info_authorized",
    "mutual_info_eve",
    "holevo_gap",
    "eta_star",
    "info_curve",
    "eve_noise_from_disturbance",
]

# Attack classes with an information curve, then every class.
CURVE_KINDS = ("collective", "individual")
ATTACK_KINDS = (*CURVE_KINDS, "memoryless")

# No analytic curve is known for memoryless attacks; the threshold itself is
# a published numerical value and is kept as a constant.
_ETA_STAR_MEMORYLESS = 0.154
# How each class's threshold is obtained (see InfoCurve.method).
_METHODS = {"collective": "bisection", "individual": "closed-form", "memoryless": "tabulated"}

_BISECT_LO = 1e-9
_BISECT_HI = 0.5 - 1e-9
_BISECT_TOL = 1e-10


def _check_kind(kind: str) -> None:
    if kind not in ATTACK_KINDS:
        raise DomainError(f"unknown attack kind {kind!r}; expected one of {ATTACK_KINDS}")


def _bisect(goes_right, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] until it is at most tol wide; return its midpoint.

    Each step keeps the right half where goes_right(mid) holds, else the left.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if goes_right(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _h(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _h_inverse(y: float) -> float:
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return _bisect(lambda x: _h(x) < y, 0.0, 0.5, 1e-15)


def _eve_rate(kind: str, eta: float) -> float:
    if kind == "collective":
        return _h(eta)
    if kind == "individual":
        return 1.0 - _h(0.5 + math.sqrt(eta * (1.0 - eta)))
    raise DomainError(
        "no closed form: the memoryless attack class has a tabulated "
        "threshold but no analytic information curve"
    )


def binary_entropy(x: float) -> float:
    """Shannon entropy of a coin with bias x, in bits.  h(0) = h(1) = 0."""
    check_interval(x, "entropy argument", 0.0, 1.0)
    return _h(x)


def entropy_inverse(y: float) -> float:
    """Inverse of binary_entropy on the branch [0, 1/2], by bisection."""
    check_interval(y, "entropy value", 0.0, 1.0)
    return _h_inverse(y)


def mutual_info_authorized(eta: float) -> float:
    """Information rate of the authorized label channel: 1 - h(eta)."""
    check_interval(eta, "flip rate", 0.0, 1.0)
    return 1.0 - _h(eta)


def mutual_info_eve(kind: str, eta: float) -> float:
    """Eavesdropper information rate for the given attack class at flip rate eta."""
    _check_kind(kind)
    check_interval(eta, "flip rate", 0.0, 0.5)
    return _eve_rate(kind, eta)


def holevo_gap(kind: str, eta: float) -> float:
    """Advantage of the authorized party: its rate minus the eavesdropper's."""
    return mutual_info_authorized(eta) - mutual_info_eve(kind, eta)


def _bisect_gap_root(kind: str) -> float:
    def gap(eta: float) -> float:  # holevo_gap, unchecked
        return (1.0 - _h(eta)) - _eve_rate(kind, eta)

    if gap(_BISECT_LO) <= 0.0 or gap(_BISECT_HI) >= 0.0:
        raise DomainError(f"gap for {kind!r} does not change sign on the bracket")
    return _bisect(lambda eta: gap(eta) > 0.0, _BISECT_LO, _BISECT_HI, _BISECT_TOL)


def eta_star(kind: str) -> float:
    """Noise threshold at which the eavesdropper's rate catches up."""
    _check_kind(kind)
    if kind == "collective":
        return _bisect_gap_root(kind)
    if kind == "individual":
        return (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    return _ETA_STAR_MEMORYLESS


@dataclass(frozen=True)
class InfoCurve:
    """An attack class's threshold and how it was obtained.

    method is "bisection" when the threshold is the numerical root of the
    gap, "closed-form" when it has an exact expression, and "tabulated" when
    only the constant is known.  residual is |gap(eta_star)| where a curve
    exists, None otherwise.
    """

    eta_star: float
    method: str
    residual: float | None


def info_curve(kind: str) -> InfoCurve:
    """Summarize an attack class: threshold, derivation method, residual."""
    _check_kind(kind)
    threshold = eta_star(kind)
    residual = None if kind == "memoryless" else abs(holevo_gap(kind, threshold))
    return InfoCurve(eta_star=threshold, method=_METHODS[kind], residual=residual)


def eve_noise_from_disturbance(kind: str, eta_a: float) -> float:
    """Effective label-flip rate of the eavesdropper's channel.

    Models the eavesdropper's extractable information as if it came through
    a binary symmetric channel: the flip rate eta_e is the one whose channel
    capacity equals the attack curve's rate, i.e. h(eta_e) = 1 - I_eve(eta_a).
    This is a modeling choice, not an identity of the attack itself; it is
    confined to this function so callers share a single definition.
    """
    residual_entropy = 1.0 - mutual_info_eve(kind, eta_a)
    if not 0.0 <= residual_entropy <= 1.0:
        raise DomainError(
            f"inversion failure: residual entropy {residual_entropy} outside [0, 1]"
        )
    return _h_inverse(residual_entropy)
