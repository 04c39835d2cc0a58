"""The four protocol states, the conditional flip, and projective measurement.

The protocol needs exactly four preparations (the computational pair and the
Hadamard pair), one conditional bit-flip, and destructive measurements in the
two matching bases.  That set is closed: the flip maps it onto itself and a
measurement collapses onto it, so a state *is* its ``Preparation`` and every
operation here reads a table below.  Every Born probability is 0, 1/2 or 1.
Randomness is never drawn internally: ``measure`` takes one uniform variate
from the caller so that sessions are bit-reproducible.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_interval

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
        return _BASES[BASIS[_STATE_INDEX[self]]]

    @property
    def bit(self) -> int:
        """Deterministic outcome when measured in the preparation's own basis."""
        return int(BIT[_STATE_INDEX[self]])

    @property
    def is_check(self) -> bool:
        return bool(IS_CHECK[_STATE_INDEX[self]])


_PREPARATIONS = tuple(Preparation)
_BASES = tuple(Basis)
_STATE_INDEX = {k: i for i, k in enumerate(_PREPARATIONS)}
_BASIS_INDEX = {b: i for i, b in enumerate(_BASES)}

# The rules as read-only tables, indexed by state (Preparation order, where a
# state's index is 2 * basis + bit) and basis (Basis order); sessions read
# them too.  The check states are the X pair.
_PAIR = np.arange(2)  # the values of a basis, a label bit or a coin
BASIS, BIT = np.divmod(np.arange(4), 2)
IS_CHECK = BASIS == 1
# ORACLE[state, label bit]: a 1 flips the computational pair's bit and leaves
# X+ and X- (eigenstates of X, X|-> being -|->) in place.
ORACLE = np.arange(4)[:, None] ^ (~IS_CHECK[:, None] * _PAIR)
# OUTCOME and POST_STATE[state, basis, coin]: the state's bit in its own basis,
# else the coin (1 for a variate >= 1/2); the post-state is the outcome's eigenstate.
OUTCOME = np.where(BASIS[:, None, None] == _PAIR[:, None], BIT[:, None, None], _PAIR)
POST_STATE = 2 * _PAIR[:, None] + OUTCOME
# FIDELITY[state, reference]: 1 or 0 within one basis, 1/2 across the bases.
FIDELITY = np.where(BASIS[:, None] == BASIS, (BIT[:, None] == BIT) * 1.0, 0.5)
# Each table becomes a view of immutable bytes, so it cannot be made writable again.
BASIS, BIT, IS_CHECK, ORACLE, OUTCOME, POST_STATE, FIDELITY = (
    np.frombuffer(t.tobytes(), t.dtype).reshape(t.shape)
    for t in (BASIS, BIT, IS_CHECK, ORACLE, OUTCOME, POST_STATE, FIDELITY)
)


class MeasurementResult(NamedTuple):
    outcome: int
    post_state: Preparation


def _index(positions: dict, key, what: str) -> int:
    """positions[key], with a key outside the tables reported as a DomainError."""
    try:
        return positions[key]
    except (KeyError, TypeError):
        raise DomainError(f"unknown {what} {key!r}") from None


def apply_oracle(state: Preparation, label_bit: int) -> Preparation:
    """Conditional bit flip: X applied when label_bit is 1, identity otherwise.

    Only the computational pair toggles; X+ and X- are eigenstates of X.
    """
    row = _index(_STATE_INDEX, state, "preparation")
    if label_bit not in (0, 1):
        raise DomainError(f"label bit must be 0 or 1, got {label_bit!r}")
    return _PREPARATIONS[ORACLE[row, int(label_bit)]]


def measure(state: Preparation, basis: Basis, randomness: float) -> MeasurementResult:
    """Projective measurement in the Z or X basis.

    ``randomness`` is one uniform variate in [0, 1) from the caller, always
    consumed.  In the state's own basis the outcome is the state's bit; in
    the other basis each outcome has probability 1/2 and the outcome is 0
    exactly when the variate falls below 1/2.  The post-measurement state is
    the outcome's eigenstate (Z0/Z1 in Z, X+/X- in X), so measuring it again
    in the same basis is deterministic.
    """
    row = _index(_STATE_INDEX, state, "preparation")
    column = _index(_BASIS_INDEX, basis, "basis")
    check_interval(randomness, "randomness", 0.0, 1.0, "[)")
    key = row, column, int(randomness >= 0.5)
    return MeasurementResult(int(OUTCOME[key]), _PREPARATIONS[POST_STATE[key]])


def fidelity(state: Preparation, reference: Preparation) -> float:
    """Overlap |<reference|state>|^2 of two protocol states.

    1 or 0 for two states of one basis, 1/2 for states of different bases.
    """
    row = _index(_STATE_INDEX, state, "preparation")
    return float(FIDELITY[row, _index(_STATE_INDEX, reference, "preparation")])
