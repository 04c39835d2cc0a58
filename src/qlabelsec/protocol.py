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

from .adversary import AnalyticAttack, InterceptResend, NoAttack
from .errors import DomainError, ProtocolError, check_count, check_interval, check_seed
from .qubit import (
    BASIS, BIT, FIDELITY, IS_CHECK, ORACLE, OUTCOME, POST_STATE, Basis, Preparation
)

__all__ = [
    "Dataset",
    "Rounds",
    "SessionResult",
    "run_session",
    "estimate_eta_a",
    "export_transcript",
]

_IS_DATA_ROUND = tuple((~IS_CHECK).tolist())

# Hard ceiling on rounds per target example; check rounds consume half the
# budget in expectation, so 20x cannot be hit by chance at any real size.
_ROUND_CAP_FACTOR = 20


def _read_only(column: np.ndarray) -> np.ndarray:
    """column as a read-only view whose owner is locked first, so that
    neither can be made writable again (a view of a writable owner could
    be).  No data is copied; a column that is a view already is returned
    itself, locked."""
    owner = column
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    owner.flags.writeable = False
    if column is owner:
        column = column.view()
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Dataset:
    """One party's data from a session as read-only arrays.

    inputs is the session's (n, d) input array, which both parties share,
    and labels the party's n label bits, one per input row.  Each array is
    stored as a read-only view, and the array that owns its memory is made
    read-only too: Dataset(X[:100], y[:100]) locks the caller's X and y.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", _read_only(self.inputs))
        object.__setattr__(self, "labels", _read_only(self.labels))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Rounds:
    """A session's rounds as read-only columns, one entry per round in order.

    preparations holds each round's preparation as its index in Preparation
    order (Z0, Z1, X+, X-), outcomes the receiver's measured bit, and
    attacked whether Eve touched the round (every round under an analytic
    attack, none without an attack).  legs is a pair indexed by leg - 1:
    legs[leg - 1] is a configured intercept-resend leg's (basis index in
    Basis order, outcome) pair of arrays over the attacked rounds, and None
    for a leg Eve leaves alone (both under an analytic attack or none).  As
    in Dataset, every column is stored as a read-only view and the array
    that owns its memory is made read-only too.
    """

    preparations: np.ndarray
    outcomes: np.ndarray
    attacked: np.ndarray
    legs: tuple

    def __post_init__(self) -> None:
        for name in ("preparations", "outcomes", "attacked"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        legs = tuple(None if pair is None else tuple(map(_read_only, pair)) for pair in self.legs)
        object.__setattr__(self, "legs", legs)


@dataclass(frozen=True)
class SessionResult:
    """Everything one session produced.

    The two Dataset records share one input array.  rounds is the session's
    Rounds record, or None for a session run with keep_rounds=False.
    Label-error rates are measured against the concept's true labels and
    exist for diagnostics; a real eavesdropper's victim could not compute
    them.
    """

    authorized_dataset: Dataset
    eavesdropper_dataset: Dataset
    check_count: int
    check_error_count: int
    eta_a_estimate: float
    aborted: bool
    abort_threshold: float | None
    authorized_label_error_rate: float
    eve_label_error_rate: float
    ensemble_fidelity: float
    rounds: Rounds | None = field(repr=False)
    seed: int = 0


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
    concept_source: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    target_data_count: int,
    attack=NoAttack(),
    abort_threshold: float | None = None,
    seed: int = 0,
    strict_abort: bool = False,
    keep_rounds: bool = True,
) -> SessionResult:
    """Run rounds until the authorized dataset holds target_data_count labels.

    concept_source(seed, count) gives the session's inputs and true labels:
    the (count, d) inputs and count label bits of rounds 0 ... count - 1 of
    the session with that seed, check rounds included (their rows are
    discarded).  Row r must not depend on count, and the rows come from a
    stream of the source's own, never default_rng(seed), which drives the
    rounds.  A bit may have any numeric type but must equal 0 or 1.

    The round type is drawn uniformly over the four preparations, so half of
    all rounds are checks in expectation and the session runs roughly twice
    the target count.  A single generator seeded here drives every draw, and
    its stream is a contract (the session pins in the tests guard it): the
    words each round consumes, in this order.  The preparation and Eve's
    guess each take the word ``integers(4)`` or ``integers(2)`` takes: one
    32-bit word, whose top 2 or 1 bits are the value (read here through a
    float32 ``random()``, which takes the same word, the buffered half-word
    included).

    1. the word ``integers(4)`` takes: the preparation;
    2. under an analytic attack, ``random()`` for the channel flip and, on
       data rounds, ``random()`` for Eve's flip;
    3. otherwise: ``random()`` for the attack coin under intercept-resend;
       on attacked rounds, for leg 1 and then leg 2 where configured, the
       basis ``random() < q``, q the policy's Z probability (only for
       0 < q < 1), and the measurement ``random()``; the receiver's
       measurement ``random()``; and on data rounds the word ``integers(2)``
       takes for Eve's guess, unless she measured both legs in Z.

    The draw pattern depends only on the preparation, the attack coin and
    Eve's bases, so one loop records the variates.  After the last round one
    ``concept_source(seed, rounds)`` call gives every round's input and
    label, and a table pass over the ``qubit`` lookup tables computes every
    outcome.

    When an abort threshold is set and the final noise estimate exceeds it,
    the result is flagged; with strict_abort the authorized dataset is
    additionally emptied so a pipeline cannot train on data the check rounds
    condemned.  Eve's dataset keeps every label: she measured during
    delivery, and the abort comes after it.
    keep_rounds=False keeps no round columns: the result's rounds is None
    (so ``export_transcript`` refuses it), its datasets and rates the same.
    """
    check_count(target_data_count, "target data count", 1)
    if abort_threshold is not None:
        check_interval(abort_threshold, "abort threshold", 0.0, 0.5, "(]")
    if not isinstance(attack, (NoAttack, InterceptResend, AnalyticAttack)):
        raise DomainError(f"unknown attack strategy {attack!r}")
    check_seed(seed)

    draws = _draw_rounds(concept_source, target_data_count, attack, seed)
    if isinstance(attack, AnalyticAttack):
        table = _analytic_pass(draws, attack)
    else:
        table = _qubit_pass(draws)

    prep, inputs = draws.preparations, _read_only(draws.inputs)
    data = ~IS_CHECK[prep]
    truth = draws.labels[data]
    labels = table.outcomes[data] ^ BIT[prep[data]]
    check_errors = int((table.outcomes[~data] != BIT[prep[~data]]).sum())
    data_count = len(inputs)
    checks = len(prep) - data_count
    eta_a = estimate_eta_a(checks, check_errors)
    aborted = abort_threshold is not None and eta_a > abort_threshold
    eavesdropper = Dataset(inputs, table.eve_labels)
    if aborted and strict_abort:
        authorized = Dataset(inputs[:0], labels[:0])
    else:
        authorized = Dataset(inputs, labels)
    return SessionResult(
        authorized_dataset=authorized,
        eavesdropper_dataset=eavesdropper,
        check_count=checks,
        check_error_count=check_errors,
        eta_a_estimate=eta_a,
        aborted=aborted,
        abort_threshold=abort_threshold,
        authorized_label_error_rate=int((labels != truth).sum()) / data_count,
        eve_label_error_rate=int((table.eve_labels != truth).sum()) / data_count,
        ensemble_fidelity=table.fidelity_sum / data_count,
        rounds=(
            Rounds(draws.preparations, table.outcomes, draws.attacked, table.legs)
            if keep_rounds
            else None
        ),
        seed=seed,
    )


@dataclass
class _Draws:
    """One session's variates in round order, a column each.

    preparations, labels, finals (the receiver's measurement variate, or the
    analytic channel variate) and attacked (the attack coin under
    intercept-resend; every round under an analytic attack, none without an
    attack) hold one entry per round, inputs (an (n, d) array) one
    row per data round, eve one entry per data round that drew for Eve.  For
    each configured leg z_bases[leg] and variates[leg] hold, per attacked
    round, whether Eve measured in Z and her measurement variate.
    """

    preparations: np.ndarray
    labels: np.ndarray
    inputs: np.ndarray
    finals: np.ndarray
    eve: np.ndarray
    attacked: np.ndarray
    z_bases: dict[int, np.ndarray] = field(default_factory=dict)
    variates: dict[int, np.ndarray] = field(default_factory=dict)


def _draw_rounds(
    concept_source: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    target_data_count: int,
    attack,
    seed: int,
) -> _Draws:
    """Make the session's generator calls (see ``run_session``) and keep them,
    then read the rounds' inputs and labels from the concept source's rows.
    """
    random, float32 = np.random.default_rng(seed).random, np.float32
    analytic = isinstance(attack, AnalyticAttack)
    intercepting = isinstance(attack, InterceptResend)
    if intercepting:
        f, q = attack.attack_probability, attack.basis_policy.z_probability
        draw_basis, fixed_z = 0.0 < q < 1.0, q == 1.0  # a fixed basis draws nothing
        leg1, leg2 = 1 in attack.legs, 2 in attack.legs

    preparations, finals, eve = [], [], []
    attacked_col, z1_col, u1_col, z2_col, u2_col = [], [], [], [], []
    data = 0
    round_cap = _ROUND_CAP_FACTOR * target_data_count
    for _ in range(round_cap):
        # int(random(None, float32) * 4.0) is integers(4): the top 2 bits of one word
        k = int(random(None, float32) * 4.0)
        preparations.append(k)
        is_data = _IS_DATA_ROUND[k]
        if analytic:
            finals.append(random())
            if is_data:
                eve.append(random())
        else:
            eve_reads = False
            if intercepting:
                attacked = random() < f
                attacked_col.append(attacked)
                if attacked:
                    z1 = z2 = fixed_z
                    if leg1:
                        if draw_basis:
                            z1 = random() < q
                            z1_col.append(z1)
                        u1_col.append(random())
                    if leg2:
                        if draw_basis:
                            z2 = random() < q
                            z2_col.append(z2)
                        u2_col.append(random())
                    eve_reads = leg1 and leg2 and z1 and z2
            finals.append(random())
            if is_data and not eve_reads:
                eve.append(int(random(None, float32) * 2.0))  # integers(2)
        if is_data:
            data += 1
            if data == target_data_count:
                break
    else:
        raise ProtocolError(
            f"round cap exceeded: {round_cap} rounds produced only "
            f"{data} of {target_data_count} examples"
        )

    prep = np.array(preparations, dtype=np.intp)
    inputs, labels = _source_rows(concept_source, seed, len(prep))
    if not intercepting:  # an analytic attack hits every round, no attack none
        attacked_col = np.full(len(prep), analytic)
    draws = _Draws(
        preparations=prep,
        labels=labels,
        inputs=inputs[~IS_CHECK[prep]],
        finals=np.array(finals),
        eve=np.array(eve),
        attacked=np.array(attacked_col, dtype=bool),
    )
    if intercepting:
        fixed = np.full(int(draws.attacked.sum()), fixed_z)
        for leg, z_col, u_col in ((1, z1_col, u1_col), (2, z2_col, u2_col)):
            if leg in attack.legs:
                draws.z_bases[leg] = np.array(z_col, dtype=bool) if draw_basis else fixed
                draws.variates[leg] = np.array(u_col)
    return draws


def _source_rows(rows, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """rows(seed, count), checked to be a (count, d) input array and count
    bits, 0 or 1; the bits as intp."""
    inputs, bits = rows(seed, count)
    inputs, bits = np.asarray(inputs), np.asarray(bits)
    if inputs.ndim != 2 or len(inputs) != count or bits.shape != (count,):
        raise DomainError(
            f"concept source rows must be {count} (n, d) inputs and {count} bits, "
            f"got shapes {inputs.shape} and {bits.shape}"
        )
    bad = (bits != 0) & (bits != 1)
    if bad.any():
        raise DomainError(f"concept source rows must hold bits, got {bits.item(bad.argmax())!r}")
    return inputs, bits.astype(np.intp)


@dataclass
class _Table:
    """What the table pass computed from one session's draws.

    outcomes holds the receiver's outcome per round, eve_labels Eve's label
    per data round; legs is the Rounds record's legs pair.
    """

    outcomes: np.ndarray
    eve_labels: np.ndarray
    fidelity_sum: float
    legs: tuple = (None, None)


def _analytic_pass(draws: _Draws, attack: AnalyticAttack) -> _Table:
    """Two flip channels: one on the returned outcome, one on Eve's copy of c."""
    data = ~IS_CHECK[draws.preparations]
    flips = draws.finals < attack.disturbance
    outcomes = BIT[ORACLE[draws.preparations, draws.labels]] ^ flips
    eve_labels = draws.labels[data] ^ (draws.eve < attack.eve_noise)
    # a data round's fidelity is 1 when its label arrived intact, 0 otherwise
    return _Table(outcomes, eve_labels, float((~flips[data]).sum()))


def _qubit_pass(draws: _Draws) -> _Table:
    """Every round's state walked through the qubit tables at once."""
    prep, labels = draws.preparations, draws.labels
    data = ~IS_CHECK[prep]
    attacked = np.flatnonzero(draws.attacked)
    state = prep.copy()
    leg1 = _intercept(state, attacked, draws, 1)
    state = ORACLE[state, labels]
    leg2 = _intercept(state, attacked, draws, 2)
    fidelity_sum = float(FIDELITY[state[data], ORACLE[prep[data], labels[data]]].sum())
    outcomes = _measure(state, slice(None), BASIS[prep], draws.finals)

    eve = np.zeros(len(prep), dtype=np.intp)
    guessed = data.copy()
    if leg1 and leg2:
        # two Z outcomes XOR to the label; every other data round is a guess
        reads = draws.z_bases[1] & draws.z_bases[2]
        eve[attacked[reads]] = leg1[1][reads] ^ leg2[1][reads]
        guessed[attacked[reads]] = False
    eve[guessed] = draws.eve
    return _Table(outcomes, eve[data], fidelity_sum, (leg1, leg2))


def _intercept(state, attacked, draws: _Draws, leg: int):
    """Eve's measure-and-resend on one leg of every attacked round: the leg's
    (basis index, outcome) pair, or None when the leg is not configured."""
    if leg not in draws.variates:
        return None
    basis = (~draws.z_bases[leg]).astype(np.intp)  # Basis order: Z, X
    return basis, _measure(state, attacked, basis, draws.variates[leg])


def _measure(state: np.ndarray, rounds, basis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """qubit.measure on state[rounds]: collapse them in place, return outcomes."""
    key = (state[rounds], basis, (u >= 0.5).astype(np.intp))
    state[rounds] = POST_STATE[key]
    return OUTCOME[key]


# A transcript line (compact, key-sorted JSON) is a head set by the attack
# (quiet; attacked with no record; attacked with each leg's basis index, 2 for
# an unconfigured leg), a tail set by 2 * k + outcome, and the round id.
_JSON_BOOL = ("false", "true")
_JSON_BASES = tuple(f'"{b.value}"' for b in Basis) + ("null",)
_HEADS = tuple(
    f'{{"eve_basis":{basis},"flags":{{"attacked":{attacked},"check_error":'
    for basis, attacked in [("null", "false"), ("null", "true")]
    + [(f"[{b1},{b2}]", "true") for b1 in _JSON_BASES for b2 in _JSON_BASES]
)
_TAILS = tuple(
    f'{_JSON_BOOL[o != k.bit] if k.is_check else "null"}}},'
    f'"is_check":{_JSON_BOOL[k.is_check]},"k":"{k.value}","outcome":{o},"round_id":'
    for k in Preparation
    for o in (0, 1)
)


def export_transcript(session: SessionResult, path) -> None:
    """Write one JSON object per round, in round order, newline-delimited.

    Lines are compact and key-sorted, formatted straight from the session's
    round columns.  A session run with keep_rounds=False has no rounds to
    write and raises ProtocolError rather than leave an empty transcript.
    """
    rounds = session.rounds
    if rounds is None:
        raise ProtocolError("the session kept no rounds; run it with keep_rounds=True")
    heads = rounds.attacked.astype(np.intp)
    if rounds.legs != (None, None):
        basis1, basis2 = (2 if pair is None else pair[0] for pair in rounds.legs)
        heads[rounds.attacked] = 2 + 3 * basis1 + basis2
    tails = 2 * rounds.preparations + rounds.outcomes
    with open(path, "w") as fh:
        fh.writelines(
            f"{_HEADS[h]}{_TAILS[t]}{i}}}\n"
            for i, (h, t) in enumerate(zip(heads.tolist(), tails.tolist()))
        )
