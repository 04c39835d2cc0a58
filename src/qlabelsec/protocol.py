"""The label-delivery protocol: sessions, datasets, and the noise estimate.

One round moves a single qubit from the authorized party through the labeling
oracle and back.  Data rounds (computational preparations) deliver one label;
check rounds (Hadamard preparations) only probe the channel, and their error
rate is the session's noise estimate.  Eavesdropping on data rounds is
invisible in the Z basis, which is exactly why half the rounds are checks.

Eve records a guess on every data round, attacked or not, so her dataset is
always the same size as the authorized one and comparisons at equal sample
counts need no reweighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adversary import (
    AnalyticAttack,
    EveRoundRecord,
    InterceptResend,
    NoAttack,
    infer_label,
    intercept,
)
from .errors import DomainError, ProtocolError
from .qubit import Preparation, apply_oracle, fidelity, measure
from .reports import write_jsonl

__all__ = [
    "ConceptSource",
    "ProtocolRound",
    "SessionResult",
    "run_session",
    "estimate_eta_a",
    "export_transcript",
]

_PREPARATIONS = (Preparation.Z0, Preparation.Z1, Preparation.XPLUS, Preparation.XMINUS)

# Hard ceiling on rounds per target example; check rounds consume half the
# budget in expectation, so 20x cannot be hit by chance at any real size.
_ROUND_CAP_FACTOR = 20


@dataclass(frozen=True)
class ConceptSource:
    """Where inputs come from and what their true labels are.

    sampler draws one feature vector given the session generator; labeler is
    a deterministic map from feature vector to bit.  Both are called once per
    round, check rounds included (their input is drawn and discarded).
    """

    sampler: Callable[[np.random.Generator], np.ndarray]
    labeler: Callable[[np.ndarray], int]


@dataclass(frozen=True)
class ProtocolRound:
    round_id: int
    preparation: Preparation
    is_check: bool
    input_x: np.ndarray | None
    outcome: int
    attacked: bool
    check_error: bool | None
    eve_record: EveRoundRecord | None
    eve_label: int | None


@dataclass
class SessionResult:
    """Everything one session produced.

    The two datasets are lists of (feature vector, label bit).  Label-error
    rates are measured against the concept's true labels and exist for
    diagnostics; a real eavesdropper's victim could not compute them.
    """

    authorized_dataset: list[tuple[np.ndarray, int]]
    eavesdropper_dataset: list[tuple[np.ndarray, int]]
    check_count: int
    check_error_count: int
    eta_a_estimate: float
    aborted: bool
    abort_threshold: float | None
    authorized_label_error_rate: float
    eve_label_error_rate: float
    ensemble_fidelity: float
    rounds: list[ProtocolRound] = field(repr=False)
    seed: int = 0

    @property
    def sizes_ordered(self) -> bool:
        return len(self.eavesdropper_dataset) <= len(self.authorized_dataset)


def estimate_eta_a(check_count: int, check_error_count: int) -> float:
    """Observed check-round error fraction."""
    if check_count <= 0:
        raise ProtocolError(
            "insufficient check rounds: the noise estimate needs at least one"
        )
    if not 0 <= check_error_count <= check_count:
        raise DomainError(
            f"error count {check_error_count} outside [0, {check_count}]"
        )
    return check_error_count / check_count


def run_session(
    concept_source: ConceptSource,
    target_data_count: int,
    attack=NoAttack(),
    abort_threshold: float | None = None,
    seed: int = 0,
    strict_abort: bool = False,
    keep_rounds: bool = True,
) -> SessionResult:
    """Run rounds until the authorized dataset holds target_data_count labels.

    The round type is drawn uniformly over the four preparations, so half of
    all rounds are checks in expectation and the session runs roughly twice
    the target count.  A single generator seeded here drives every draw:
    preparations, inputs, attack coins, Born outcomes, and Eve's guesses.

    When an abort threshold is set and the final noise estimate exceeds it,
    the result is flagged; with strict_abort the datasets are additionally
    emptied so a pipeline cannot train on data the check rounds condemned.
    """
    if target_data_count < 1:
        raise DomainError(f"target data count must be >= 1, got {target_data_count}")
    if abort_threshold is not None and not 0.0 < abort_threshold <= 0.5:
        raise DomainError(
            f"abort threshold must lie in (0, 1/2], got {abort_threshold}"
        )
    if not isinstance(attack, (NoAttack, InterceptResend, AnalyticAttack)):
        raise DomainError(f"unknown attack strategy {attack!r}")

    rng = np.random.default_rng(seed)
    analytic = isinstance(attack, AnalyticAttack)
    intercepting = isinstance(attack, InterceptResend)
    eve_eta = attack.eve_noise if analytic else None

    authorized: list[tuple[np.ndarray, int]] = []
    eavesdropped: list[tuple[np.ndarray, int]] = []
    rounds: list[ProtocolRound] = []
    checks = 0
    check_errors = 0
    auth_errors = 0
    eve_errors = 0
    fidelity_sum = 0.0
    round_cap = _ROUND_CAP_FACTOR * target_data_count
    round_id = 0

    while len(authorized) < target_data_count:
        if round_id >= round_cap:
            raise ProtocolError(
                f"round cap exceeded: {round_cap} rounds produced only "
                f"{len(authorized)} of {target_data_count} examples"
            )
        k = _PREPARATIONS[rng.integers(4)]
        is_check = k.is_check
        x = concept_source.sampler(rng)
        c = int(concept_source.labeler(x))
        if c not in (0, 1):
            raise DomainError(f"labeler must return a bit, got {c!r}")

        eve_record = None
        eve_label = None
        attacked = False

        if analytic:
            # No quantum traversal: the attack is a pair of flip channels.
            attacked = True
            if is_check:
                outcome = k.bit ^ int(rng.random() < attack.disturbance)
            else:
                outcome_label = c ^ int(rng.random() < attack.disturbance)
                outcome = outcome_label ^ k.bit
        else:
            state = k
            if intercepting:
                attacked = rng.random() < attack.attack_probability
            if attacked:
                state, rec1 = intercept(state, 1, attack, rng)
            state = apply_oracle(state, c)
            if attacked:
                state, rec2 = intercept(state, 2, attack, rng)
                eve_record = EveRoundRecord(leg1=rec1, leg2=rec2)
            if not is_check:
                fidelity_sum += fidelity(state, _PREPARATIONS[c ^ k.bit])
            outcome = measure(state, k.basis, rng.random()).outcome

        check_error = None
        if is_check:
            checks += 1
            check_error = outcome != k.bit
            check_errors += int(check_error)
        else:
            label = outcome ^ k.bit
            authorized.append((x, label))
            auth_errors += int(label != c)
            if analytic:
                eve_label = c ^ int(rng.random() < eve_eta)
                fidelity_sum += 1.0 - float(label != c)
            else:
                eve_label = infer_label(eve_record, rng)
            eavesdropped.append((x, eve_label))
            eve_errors += int(eve_label != c)

        if keep_rounds:
            rounds.append(
                ProtocolRound(
                    round_id=round_id,
                    preparation=k,
                    is_check=is_check,
                    input_x=None if is_check else x,
                    outcome=outcome,
                    attacked=attacked,
                    check_error=check_error,
                    eve_record=eve_record,
                    eve_label=eve_label,
                )
            )
        round_id += 1

    eta_a = estimate_eta_a(checks, check_errors)
    aborted = abort_threshold is not None and eta_a > abort_threshold
    data_count = len(authorized)
    result = SessionResult(
        authorized_dataset=authorized,
        eavesdropper_dataset=eavesdropped,
        check_count=checks,
        check_error_count=check_errors,
        eta_a_estimate=eta_a,
        aborted=aborted,
        abort_threshold=abort_threshold,
        authorized_label_error_rate=auth_errors / data_count,
        eve_label_error_rate=eve_errors / data_count,
        ensemble_fidelity=fidelity_sum / data_count,
        rounds=rounds,
        seed=seed,
    )
    if aborted and strict_abort:
        result.authorized_dataset = []
        result.eavesdropper_dataset = []
    return result


def _round_to_json(rnd: ProtocolRound) -> dict:
    eve_basis = None
    if rnd.eve_record is not None:
        eve_basis = [
            rnd.eve_record.leg1.basis.value if rnd.eve_record.leg1 else None,
            rnd.eve_record.leg2.basis.value if rnd.eve_record.leg2 else None,
        ]
    return {
        "round_id": rnd.round_id,
        "k": rnd.preparation.value,
        "is_check": rnd.is_check,
        "outcome": rnd.outcome,
        "eve_basis": eve_basis,
        "flags": {"attacked": rnd.attacked, "check_error": rnd.check_error},
    }


def export_transcript(session: SessionResult, path) -> None:
    """Write one JSON object per round, in round order, newline-delimited."""
    write_jsonl(path, (_round_to_json(rnd) for rnd in session.rounds))
