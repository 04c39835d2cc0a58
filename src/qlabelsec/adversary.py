"""Eavesdropping strategies against the label-delivery channel.

Two families are modeled.  ``InterceptResend`` is simulated at the level of
individual qubits: the attacker measures a traversing state in a basis chosen
by policy and resends the collapsed eigenstate.  ``AnalyticAttack`` is never
simulated; it stands for the individual/collective attack classes whose
effect is known only through their information curves, and sessions model it
as a pair of classical flip channels.  ``protocol`` runs both; this module
holds their parameters, Eve's per-round records and the closed-form
trade-off points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import DomainError
from .info_theory import eve_noise_from_disturbance
from .qubit import Basis

__all__ = [
    "BasisPolicy",
    "NoAttack",
    "InterceptResend",
    "AnalyticAttack",
    "LegRecord",
    "EveRoundRecord",
    "tradeoff_point",
]

BOTH_LEGS = (1, 2)


class BasisPolicy(str, enum.Enum):
    ALWAYS_Z = "alwaysZ"
    RANDOM_PER_LEG = "randomPerLeg"


@dataclass(frozen=True)
class NoAttack:
    """Passive placeholder: the channel is untouched and Eve only guesses."""

    kind: str = field(default="none", init=False)


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
    kind: str = field(default="intercept-resend", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_probability <= 1.0:
            raise DomainError(
                f"attack probability must lie in [0, 1], got {self.attack_probability}"
            )
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
    kind: str = field(default="analytic", init=False)

    def __post_init__(self) -> None:
        if self.curve_kind not in ("individual", "collective"):
            raise DomainError(
                f"analytic attacks require an information curve; "
                f"got kind {self.curve_kind!r}"
            )
        if not 0.0 <= self.disturbance <= 0.5:
            raise DomainError(
                f"disturbance must lie in [0, 1/2], got {self.disturbance}"
            )

    @property
    def eve_noise(self) -> float:
        return eve_noise_from_disturbance(self.curve_kind, self.disturbance)


@dataclass(frozen=True)
class LegRecord:
    """One interception: which leg, which basis, what came out."""

    leg: int
    basis: Basis
    outcome: int


@dataclass(frozen=True)
class EveRoundRecord:
    """Everything Eve holds about one round (either leg may be missing)."""

    leg1: LegRecord | None = None
    leg2: LegRecord | None = None


def tradeoff_point(strategy) -> tuple[float, float]:
    """Exact (eta_a, eta_e) pair for the strategy's configured parameter.

    eta_a is the check-round error rate the attack induces; eta_e is the
    flip rate of Eve's resulting label channel.  Both are closed-form:
    intercept-resend values come from enumerating the measurement branches,
    analytic values from the information curve.
    """
    if isinstance(strategy, InterceptResend):
        f = strategy.attack_probability
        both = strategy.legs == BOTH_LEGS
        if strategy.basis_policy is BasisPolicy.ALWAYS_Z:
            eta_a = f / 2.0
            eta_e = (1.0 - f) / 2.0 if both else 0.5
        else:
            eta_a = 3.0 * f / 8.0 if both else f / 4.0
            eta_e = 0.5 - f / 8.0 if both else 0.5
        return eta_a, eta_e
    if isinstance(strategy, AnalyticAttack):
        return strategy.disturbance, strategy.eve_noise
    raise DomainError(f"no trade-off is defined for strategy {strategy!r}")

