"""Eavesdropping strategies against the label-delivery channel.

Two families are modeled.  ``InterceptResend`` is simulated at the level of
individual qubits: the attacker measures a traversing state in a basis chosen
by policy and resends the collapsed eigenstate.  ``AnalyticAttack`` is never
simulated; it stands for the individual/collective attack classes whose
effect is known only through their information curves, and sessions model it
as a pair of classical flip channels.  ``protocol`` runs both; this module
holds their parameters and the closed-form trade-off points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError, check_interval
from .info_theory import CURVE_KINDS, eve_noise_from_disturbance

__all__ = [
    "BasisPolicy",
    "NoAttack",
    "InterceptResend",
    "AnalyticAttack",
    "tradeoff_point",
]

BOTH_LEGS = (1, 2)


class BasisPolicy(str, enum.Enum):
    ALWAYS_Z = "alwaysZ"
    RANDOM_PER_LEG = "randomPerLeg"

    @property
    def z_probability(self) -> float:
        """Eve's per-leg chance q of measuring in Z; she measures in X otherwise."""
        return 1.0 if self is BasisPolicy.ALWAYS_Z else 0.5


@dataclass(frozen=True)
class NoAttack:
    """Passive placeholder: the channel is untouched and Eve only guesses."""


@dataclass(frozen=True)
class InterceptResend:
    """Measure-and-resend attack on the configured channel legs.

    attack_probability gates whole rounds: with probability f the round is
    intercepted on every configured leg, otherwise it passes untouched.  The
    basis policy is applied per leg, so randomPerLeg can measure the two legs
    of one round in different bases.
    """

    attack_probability: float = 1.0
    basis_policy: BasisPolicy = BasisPolicy.ALWAYS_Z
    legs: tuple[int, ...] = BOTH_LEGS

    def __post_init__(self) -> None:
        check_interval(self.attack_probability, "attack probability", 0.0, 1.0)
        object.__setattr__(self, "basis_policy", BasisPolicy(self.basis_policy))
        legs = tuple(sorted(set(self.legs)))
        if not legs or any(leg not in (1, 2) for leg in legs):
            raise DomainError(f"legs must be a nonempty subset of (1, 2), got {self.legs}")
        object.__setattr__(self, "legs", legs)


@dataclass(frozen=True)
class AnalyticAttack:
    """Attack class known only through its information curve.

    disturbance is the label-flip rate the attack induces on the authorized
    channel; the matching eavesdropper flip rate comes from the curve.
    """

    curve_kind: str
    disturbance: float

    def __post_init__(self) -> None:
        if self.curve_kind not in CURVE_KINDS:
            raise DomainError(
                f"analytic attacks require an information curve; "
                f"got kind {self.curve_kind!r}"
            )
        check_interval(self.disturbance, "disturbance", 0.0, 0.5)

    @property
    def eve_noise(self) -> float:
        return eve_noise_from_disturbance(self.curve_kind, self.disturbance)


def tradeoff_point(strategy) -> tuple[float, float]:
    """Exact (eta_a, eta_e) pair for the strategy's configured parameter.

    eta_a is the check-round error rate the attack induces; eta_e is the
    flip rate of Eve's resulting label channel.  Both are closed-form:
    intercept-resend values, in f and the policy's Z probability q, come from
    enumerating the measurement branches, analytic values from the information curve.
    """
    if isinstance(strategy, InterceptResend):
        f, q = strategy.attack_probability, strategy.basis_policy.z_probability
        if strategy.legs == BOTH_LEGS:
            # the exact factor 4 q (2 - q) first: 3 f / 8 rounds as one product
            return 4.0 * q * (2.0 - q) * f / 8.0, (1.0 - f * q * q) / 2.0
        return f * q / 2.0, 0.5
    if isinstance(strategy, AnalyticAttack):
        return strategy.disturbance, strategy.eve_noise
    raise DomainError(f"no trade-off is defined for strategy {strategy!r}")

