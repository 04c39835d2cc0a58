"""The four protocol states, the conditional flip, and projective measurement.

The protocol needs exactly four preparations (the computational pair and the
Hadamard pair), one conditional bit-flip, and destructive measurements in the
two matching bases.  That set is closed: the flip maps it onto itself and a
measurement collapses onto it, so a state *is* its ``Preparation`` and every
operation here is a lookup.  Every Born probability is 0, 1/2 or 1.
Randomness is never drawn internally: ``measure`` takes one uniform variate
from the caller so that sessions are bit-reproducible.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "Basis",
    "Preparation",
    "MeasurementResult",
    "apply_oracle",
    "measure",
    "fidelity",
]


class Basis(str, enum.Enum):
    Z = "Z"
    X = "X"


class Preparation(str, enum.Enum):
    """The four protocol preparations.

    Z0/Z1 carry a data bit in the computational basis; X+/X- are the check
    states that any basis-blind interceptor cannot leave undisturbed.
    """

    Z0 = "Z0"
    Z1 = "Z1"
    XPLUS = "X+"
    XMINUS = "X-"

    @property
    def basis(self) -> Basis:
        return _BASIS_AND_BIT[self][0]

    @property
    def bit(self) -> int:
        """Deterministic outcome when measured in the preparation's own basis."""
        return _BASIS_AND_BIT[self][1]

    @property
    def is_check(self) -> bool:
        return self.basis is Basis.X


# Measurement eigenstates per basis, indexed by outcome bit.
_EIGENSTATES = {
    Basis.Z: (Preparation.Z0, Preparation.Z1),
    Basis.X: (Preparation.XPLUS, Preparation.XMINUS),
}

# Each preparation's own basis and the outcome it gives when measured there.
_BASIS_AND_BIT = {
    state: (basis, bit)
    for basis, eigenstates in _EIGENSTATES.items()
    for bit, state in enumerate(eigenstates)
}

# Each state after the oracle, indexed by label bit (X|-> is -|->: the same state).
_ORACLE_IMAGES = {
    Preparation.Z0: (Preparation.Z0, Preparation.Z1),
    Preparation.Z1: (Preparation.Z1, Preparation.Z0),
    Preparation.XPLUS: (Preparation.XPLUS, Preparation.XPLUS),
    Preparation.XMINUS: (Preparation.XMINUS, Preparation.XMINUS),
}


class MeasurementResult(NamedTuple):
    outcome: int
    post_state: Preparation


def _lookup(table: dict, key, what: str):
    """table[key], with a key outside the table reported as a DomainError."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise DomainError(f"unknown {what} {key!r}") from None


def apply_oracle(state: Preparation, label_bit: int) -> Preparation:
    """Conditional bit flip: X applied when label_bit is 1, identity otherwise.

    Only the computational pair toggles; X+ and X- are eigenstates of X.
    """
    images = _lookup(_ORACLE_IMAGES, state, "preparation")
    if label_bit not in (0, 1):
        raise DomainError(f"label bit must be 0 or 1, got {label_bit!r}")
    return images[label_bit]


def measure(state: Preparation, basis: Basis, randomness: float) -> MeasurementResult:
    """Projective measurement in the Z or X basis.

    ``randomness`` is one uniform variate in [0, 1) from the caller, always
    consumed.  In the state's own basis the outcome is the state's bit; in
    the other basis each outcome has probability 1/2 and the outcome is 0
    exactly when the variate falls below 1/2.  The post-measurement state is
    the outcome's eigenstate (Z0/Z1 in Z, X+/X- in X), so measuring it again
    in the same basis is deterministic.
    """
    own_basis, bit = _lookup(_BASIS_AND_BIT, state, "preparation")
    eigenstates = _lookup(_EIGENSTATES, basis, "basis")
    if not 0.0 <= randomness < 1.0:
        raise DomainError(f"randomness must lie in [0, 1), got {randomness}")
    outcome = bit if own_basis == basis else int(randomness >= 0.5)
    return MeasurementResult(outcome, eigenstates[outcome])


def fidelity(state: Preparation, reference: Preparation) -> float:
    """Overlap |<reference|state>|^2 of two protocol states.

    1 or 0 for two states of one basis, 1/2 for states of different bases.
    """
    state_basis, state_bit = _lookup(_BASIS_AND_BIT, state, "preparation")
    reference_basis, reference_bit = _lookup(_BASIS_AND_BIT, reference, "preparation")
    if state_basis != reference_basis:
        return 0.5
    return 1.0 if state_bit == reference_bit else 0.0
