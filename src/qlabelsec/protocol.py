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

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adversary import (
    AnalyticAttack,
    BasisPolicy,
    EveRoundRecord,
    InterceptResend,
    LegRecord,
    NoAttack,
)
from .errors import DomainError, ProtocolError, check_count, check_seed
from .qubit import Basis, Preparation, apply_oracle, fidelity, measure

__all__ = [
    "ConceptSource",
    "ProtocolRound",
    "SessionResult",
    "run_session",
    "estimate_eta_a",
    "export_transcript",
]

_PREPARATIONS = (Preparation.Z0, Preparation.Z1, Preparation.XPLUS, Preparation.XMINUS)
_BASES = (Basis.Z, Basis.X)

# qubit's rules as arrays over preparation indices (_PREPARATIONS order) and
# basis indices (_BASES order), filled by calling qubit's own functions.
# measure() reads its variate only as a fair coin, 0 below 1/2 and 1 above,
# so _OUTCOME and _POST_STATE are indexed [state, basis, coin].
_INDEX = {k: i for i, k in enumerate(_PREPARATIONS)}
_IS_DATA_ROUND = tuple(not k.is_check for k in _PREPARATIONS)
_IS_CHECK = np.array([k.is_check for k in _PREPARATIONS])
_BIT = np.array([k.bit for k in _PREPARATIONS])
_BASIS = np.array([_BASES.index(k.basis) for k in _PREPARATIONS])
_ORACLE = np.array(
    [[_INDEX[apply_oracle(k, c)] for c in (0, 1)] for k in _PREPARATIONS]
)
_FIDELITY = np.array([[fidelity(k, r) for r in _PREPARATIONS] for k in _PREPARATIONS])
_MEASURED = [
    [[measure(k, b, u) for u in (0.0, 0.5)] for b in _BASES] for k in _PREPARATIONS
]
_OUTCOME = np.array([[[m.outcome for m in ms] for ms in row] for row in _MEASURED])
_POST_STATE = np.array(
    [[[_INDEX[m.post_state] for m in ms] for ms in row] for row in _MEASURED]
)

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

    The two datasets are read-only sequences of (feature vector, label bit):
    rows of one read-only (n, d) input array that both share, and Python int
    labels.  rounds builds each ProtocolRound when it is read, and is empty
    for a session run with keep_rounds=False.  Label-error rates are
    measured against the concept's true labels and exist for diagnostics; a
    real eavesdropper's victim could not compute them.
    """

    authorized_dataset: Sequence[tuple[np.ndarray, int]]
    eavesdropper_dataset: Sequence[tuple[np.ndarray, int]]
    check_count: int
    check_error_count: int
    eta_a_estimate: float
    aborted: bool
    abort_threshold: float | None
    authorized_label_error_rate: float
    eve_label_error_rate: float
    ensemble_fidelity: float
    rounds: Sequence[ProtocolRound] = field(repr=False)
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
    the target count.  A single generator seeded here drives every draw, and
    its stream is a contract (the session pins in the tests guard it).  Each
    round makes these calls, in this order:

    1. ``integers(4)``: the preparation;
    2. ``sampler(rng)``, then ``labeler(x)`` (check rounds too);
    3. under an analytic attack, ``random()`` for the channel flip and, on
       data rounds, ``random()`` for Eve's flip;
    4. otherwise: ``random()`` for the attack coin under intercept-resend;
       on attacked rounds, for leg 1 and then leg 2 where configured, the
       policy basis ``random()`` (randomPerLeg only) and the measurement
       ``random()``; the receiver's measurement ``random()``; and on data
       rounds Eve's guess ``integers(2)``, unless she measured both legs in Z.

    The draw pattern depends only on the preparation, the attack coin and
    Eve's bases, so one loop records the variates and a table pass over the
    ``qubit`` lookup tables computes every outcome afterwards.

    When an abort threshold is set and the final noise estimate exceeds it,
    the result is flagged; with strict_abort the datasets are additionally
    emptied so a pipeline cannot train on data the check rounds condemned.
    keep_rounds=False keeps no round columns: the result has no rounds (so
    ``export_transcript`` refuses it) and the same datasets and rates.
    """
    check_count(target_data_count, "target data count", 1)
    if abort_threshold is not None and not 0.0 < abort_threshold <= 0.5:
        raise DomainError(
            f"abort threshold must lie in (0, 1/2], got {abort_threshold}"
        )
    if not isinstance(attack, (NoAttack, InterceptResend, AnalyticAttack)):
        raise DomainError(f"unknown attack strategy {attack!r}")
    check_seed(seed)

    draws = _draw_rounds(
        concept_source, target_data_count, attack, np.random.default_rng(seed)
    )
    if isinstance(attack, AnalyticAttack):
        table = _analytic_pass(draws, attack)
    else:
        table = _qubit_pass(draws)

    prep, inputs = draws.preparations, draws.inputs
    data = ~_IS_CHECK[prep]
    truth = draws.labels[data]
    labels = table.outcomes[data] ^ _BIT[prep[data]]
    check_errors = int((table.outcomes[~data] != _BIT[prep[~data]]).sum())
    data_count = len(inputs)
    checks = len(prep) - data_count
    eta_a = estimate_eta_a(checks, check_errors)
    aborted = abort_threshold is not None and eta_a > abort_threshold
    result = SessionResult(
        authorized_dataset=_Dataset(inputs, labels),
        eavesdropper_dataset=_Dataset(inputs, table.eve_labels),
        check_count=checks,
        check_error_count=check_errors,
        eta_a_estimate=eta_a,
        aborted=aborted,
        abort_threshold=abort_threshold,
        authorized_label_error_rate=int((labels != truth).sum()) / data_count,
        eve_label_error_rate=int((table.eve_labels != truth).sum()) / data_count,
        ensemble_fidelity=table.fidelity_sum / data_count,
        rounds=_Rounds(draws, table) if keep_rounds else (),
        seed=seed,
    )
    if aborted and strict_abort:
        result.authorized_dataset = _Dataset(inputs[:0], labels[:0])
        result.eavesdropper_dataset = result.authorized_dataset
    return result


@dataclass
class _Draws:
    """One session's variates in round order, a column each.

    preparations, labels, finals (the receiver's measurement variate, or the
    analytic channel variate) and attacked (the attack coin under
    intercept-resend; every round under an analytic attack, none without an
    attack) hold one entry per round, inputs (a read-only (n, d) array) one
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
    concept_source: ConceptSource,
    target_data_count: int,
    attack,
    rng: np.random.Generator,
) -> _Draws:
    """Make the session's generator calls (see ``run_session``) and keep them."""
    integers, random = rng.integers, rng.random
    sampler, labeler = concept_source.sampler, concept_source.labeler
    analytic = isinstance(attack, AnalyticAttack)
    intercepting = isinstance(attack, InterceptResend)
    if intercepting:
        f = attack.attack_probability
        random_policy = attack.basis_policy is BasisPolicy.RANDOM_PER_LEG
        leg1, leg2 = 1 in attack.legs, 2 in attack.legs

    preparations, labels, finals, eve = [], [], [], []
    attacked_col, z1_col, u1_col, z2_col, u2_col = [], [], [], [], []
    data = 0
    round_cap = _ROUND_CAP_FACTOR * target_data_count
    for _ in range(round_cap):
        k = integers(4)
        x = sampler(rng)
        c = labeler(x)
        if c not in (0, 1):
            raise DomainError(f"labeler must return a bit, got {c!r}")
        preparations.append(k)
        labels.append(c)
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
                    z1 = z2 = True
                    if leg1:
                        if random_policy:
                            z1 = random() < 0.5
                            z1_col.append(z1)
                        u1_col.append(random())
                    if leg2:
                        if random_policy:
                            z2 = random() < 0.5
                            z2_col.append(z2)
                        u2_col.append(random())
                    eve_reads = leg1 and leg2 and z1 and z2
            finals.append(random())
            if is_data and not eve_reads:
                eve.append(integers(2))
        if is_data:
            if data == 0:  # one array for every input, with the first one's shape
                inputs = np.empty((target_data_count, *np.shape(x)), np.asarray(x).dtype)
            inputs[data] = x
            data += 1
            if data == target_data_count:
                break
    else:
        raise ProtocolError(
            f"round cap exceeded: {round_cap} rounds produced only "
            f"{data} of {target_data_count} examples"
        )

    inputs.flags.writeable = False
    if not intercepting:  # an analytic attack hits every round, no attack none
        attacked_col = np.full(len(preparations), analytic)
    draws = _Draws(
        preparations=np.array(preparations, dtype=np.intp),
        labels=np.array(labels, dtype=np.intp),
        inputs=inputs,
        finals=np.array(finals),
        eve=np.array(eve),
        attacked=np.array(attacked_col, dtype=bool),
    )
    if intercepting:
        always_z = np.ones(int(draws.attacked.sum()), dtype=bool)
        for leg, z_col, u_col in ((1, z1_col, u1_col), (2, z2_col, u2_col)):
            if leg in attack.legs:
                z_bases = np.array(z_col, dtype=bool) if random_policy else always_z
                draws.z_bases[leg] = z_bases
                draws.variates[leg] = np.array(u_col)
    return draws


@dataclass
class _Table:
    """What the table pass computed from one session's draws.

    outcomes holds the receiver's outcome per round, eve_labels Eve's label
    per data round; legs[leg] holds, per attacked round, the basis index and
    outcome of Eve's measurement on each configured leg.
    """

    outcomes: np.ndarray
    eve_labels: np.ndarray
    fidelity_sum: float
    legs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _analytic_pass(draws: _Draws, attack: AnalyticAttack) -> _Table:
    """Two flip channels: one on the returned outcome, one on Eve's copy of c."""
    data = ~_IS_CHECK[draws.preparations]
    flips = draws.finals < attack.disturbance
    outcomes = _BIT[draws.preparations] ^ flips ^ (draws.labels & data)
    eve_labels = draws.labels[data] ^ (draws.eve < attack.eve_noise)
    # a data round's fidelity is 1 when its label arrived intact, 0 otherwise
    return _Table(outcomes, eve_labels, float((~flips[data]).sum()))


def _qubit_pass(draws: _Draws) -> _Table:
    """Every round's state walked through the qubit tables at once."""
    prep, labels = draws.preparations, draws.labels
    data = ~_IS_CHECK[prep]
    attacked = np.flatnonzero(draws.attacked)
    state = prep.copy()
    legs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    _intercept(state, attacked, draws, 1, legs)
    state = _ORACLE[state, labels]
    _intercept(state, attacked, draws, 2, legs)
    fidelity_sum = float(_FIDELITY[state[data], labels[data] ^ _BIT[prep[data]]].sum())
    outcomes = _measure(state, slice(None), _BASIS[prep], draws.finals)

    eve = np.zeros(len(prep), dtype=np.intp)
    guessed = data.copy()
    if len(legs) == 2:
        # two Z outcomes XOR to the label; every other data round is a guess
        reads = draws.z_bases[1] & draws.z_bases[2]
        eve[attacked[reads]] = legs[1][1][reads] ^ legs[2][1][reads]
        guessed[attacked[reads]] = False
    eve[guessed] = draws.eve
    return _Table(outcomes, eve[data], fidelity_sum, legs)


def _intercept(state, attacked, draws: _Draws, leg: int, legs: dict) -> None:
    """Eve's measure-and-resend on one configured leg of every attacked round."""
    if leg in draws.variates:
        basis = (~draws.z_bases[leg]).astype(np.intp)  # _BASES order: Z, X
        legs[leg] = basis, _measure(state, attacked, basis, draws.variates[leg])


def _measure(state: np.ndarray, rounds, basis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """qubit.measure on state[rounds]: collapse them in place, return outcomes."""
    key = (state[rounds], basis, (u >= 0.5).astype(np.intp))
    state[rounds] = _POST_STATE[key]
    return _OUTCOME[key]


class _Dataset(Sequence):
    """(feature vector, label) pairs over a read-only (n, d) input array.

    Both parties' datasets share the one input array, so a row is a read-only
    view; labels come out as Python ints.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        self._inputs, self._labels = inputs, labels

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._inputs[i], int(self._labels[i])

    def __iter__(self):
        return zip(self._inputs, self._labels.tolist())

    def __eq__(self, other):
        return list(self) == other if isinstance(other, list) else NotImplemented


class _Rounds(Sequence):
    """A session's rounds, each ProtocolRound built from the columns when read.

    It keeps the columns it reads (see ``_Draws`` and ``_Table``), not the
    draws' variates.
    """

    def __init__(self, draws: _Draws, table: _Table):
        self.preparations, self.outcomes = draws.preparations, table.outcomes
        self.attacked, self.legs = draws.attacked, table.legs
        self.inputs, self.eve_labels = draws.inputs, table.eve_labels

    def __len__(self) -> int:
        return len(self.preparations)

    @functools.cached_property
    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per round, its index among the data rounds and among the attacked ones."""
        data = ~_IS_CHECK[self.preparations]
        return np.cumsum(data) - 1, np.cumsum(self.attacked) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # a Python int; negatives count from the end
        preparation = _PREPARATIONS[self.preparations[i]]
        is_check, outcome = preparation.is_check, int(self.outcomes[i])
        d, a = (positions[i] for positions in self._positions)
        eve_record = None
        if self.attacked[i] and self.legs:  # an analytic attack leaves no record
            legs = {  # and an unconfigured leg none
                leg: LegRecord(leg=leg, basis=_BASES[basis[a]], outcome=int(outcome[a]))
                for leg, (basis, outcome) in self.legs.items()
            }
            eve_record = EveRoundRecord(leg1=legs.get(1), leg2=legs.get(2))
        return ProtocolRound(
            round_id=i,
            preparation=preparation,
            is_check=is_check,
            input_x=None if is_check else self.inputs[d],
            outcome=outcome,
            attacked=bool(self.attacked[i]),
            check_error=outcome != preparation.bit if is_check else None,
            eve_record=eve_record,
            eve_label=None if is_check else int(self.eve_labels[d]),
        )


# A transcript line (compact, key-sorted JSON) is a head set by the attack
# (quiet; attacked with no record; attacked with each leg's basis index, 2 for
# an unconfigured leg), a tail set by 2 * k + outcome, and the round id.
_JSON_BOOL = ("false", "true")
_JSON_BASES = tuple(f'"{b.value}"' for b in _BASES) + ("null",)
_HEADS = tuple(
    f'{{"eve_basis":{basis},"flags":{{"attacked":{attacked},"check_error":'
    for basis, attacked in [("null", "false"), ("null", "true")]
    + [(f"[{b1},{b2}]", "true") for b1 in _JSON_BASES for b2 in _JSON_BASES]
)
_TAILS = tuple(
    f'{_JSON_BOOL[o != k.bit] if k.is_check else "null"}}},'
    f'"is_check":{_JSON_BOOL[k.is_check]},"k":"{k.value}","outcome":{o},"round_id":'
    for k in _PREPARATIONS
    for o in (0, 1)
)


def export_transcript(session: SessionResult, path) -> None:
    """Write one JSON object per round, in round order, newline-delimited.

    Lines are compact and key-sorted, formatted straight from the session's
    round columns.  A session run with keep_rounds=False has no rounds to
    write and raises ProtocolError rather than leave an empty transcript.
    """
    rounds = session.rounds
    if not rounds:
        raise ProtocolError("the session kept no rounds; run it with keep_rounds=True")
    heads = rounds.attacked.astype(np.intp)
    if rounds.legs:
        basis1, basis2 = (rounds.legs[leg][0] if leg in rounds.legs else 2 for leg in (1, 2))
        heads[rounds.attacked] = 2 + 3 * basis1 + basis2
    tails = 2 * rounds.preparations + rounds.outcomes
    with open(path, "w") as fh:
        fh.writelines(
            f"{_HEADS[h]}{_TAILS[t]}{i}}}\n"
            for i, (h, t) in enumerate(zip(heads.tolist(), tails.tolist()))
        )
