"""Independent reference computations used to freeze expected test values.

Bound algebra is redone in mpmath at 50 significant digits; protocol physics
is redone by exhaustive state-vector branch enumeration with explicit integer
kets and the Pauli X matrix, exact in floating point.  The package itself
never builds a vector: its states are the four preparations and its physics
is a lookup table, so agreement is a genuine cross-check, not a tautology.
``tests/test_qubit.py`` checks every table entry against ``_KETS``,
``_PAULI_X`` and ``_measure_branches``.

Five referees use the package.  ``reference_session`` is the scalar per-round
session loop, one ``qubit`` call or interception step per round, kept as the
referee for ``protocol.run_session``'s draw loop and table pass, with
``intercept``, ``pick_policy_basis`` and ``infer_label`` as its per-round
attack steps; ``reference_columns`` turns its round objects into the
``protocol.Rounds`` columns that ``run_session`` keeps.
``reference_transcript`` formats those rounds one ``json.dumps`` each, the
referee for ``protocol.export_transcript``'s column writer.
``reference_trial`` is the per-trial SGD loop with one-model
predict/sgd_step methods over a stream of (x, y) pairs, kept as the referee
for ``learn_harness``'s lockstep trial engine.
``reference_search`` is the per-draw random-search loop, one sampler call and
one held-out evaluation per draw, kept as the referee for the lockstep
random-search engine.  ``reference_task`` is ``generate_task`` built in one
pass, kept as its referee; ``reference_overlap_probe`` is a one-shot
Monte-Carlo estimate of the cluster overlap, the cross-check of the exact
``analytic_overlap`` that ``generate_task``'s rejection rule reads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from qlabelsec import protocol
from qlabelsec.adversary import AnalyticAttack, BasisPolicy, InterceptResend, NoAttack
from qlabelsec.errors import DomainError, ProtocolError, check_seed
from qlabelsec.learn_harness import LearningTrial, SyntheticTask
from qlabelsec.protocol import Dataset, Rounds, SessionResult, estimate_eta_a
from qlabelsec.qubit import Basis, Preparation, apply_oracle, fidelity, measure

mp.mp.dps = 50

LN2 = mp.log(2)


# ---------------------------------------------------------------------------
# bound algebra, high precision
# ---------------------------------------------------------------------------

def bound_noiseless_raw(epsilon, delta, log_h) -> mp.mpf:
    return (mp.mpf(log_h) - mp.log(mp.mpf(delta))) / mp.mpf(epsilon)


def bound_noisy_raw(epsilon, delta, log_h, eta) -> mp.mpf:
    eps = mp.mpf(epsilon)
    slowdown = 2 / (eps**2 * (1 - 2 * mp.mpf(eta)) ** 2)
    return slowdown * (LN2 + mp.mpf(log_h) - mp.log(mp.mpf(delta)))


def gamma_hp(epsilon, eta) -> mp.mpf:
    return mp.mpf(epsilon) ** 2 * (1 - 2 * mp.mpf(eta)) ** 2 / 2


def delta_floor_hp(epsilon, eta, n) -> mp.mpf:
    return mp.e ** (-gamma_hp(epsilon, eta) * n)


def random_search_hp(p, n) -> mp.mpf:
    return 1 - (1 - mp.mpf(p)) ** n


def random_search_brute(p, n) -> mp.mpf:
    p = mp.mpf(p)
    return mp.fsum(p * (1 - p) ** (k - 1) for k in range(1, n + 1))


def binary_entropy_hp(x) -> mp.mpf:
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def entropy_inverse_hp(y) -> mp.mpf:
    """Inverse of the binary entropy restricted to [0, 1/2], by bisection."""
    y = mp.mpf(y)
    if y <= 0:
        return mp.mpf(0)
    if y >= 1:
        return mp.mpf("0.5")
    lo, hi = mp.mpf(0), mp.mpf("0.5")
    for _ in range(200):
        mid = (lo + hi) / 2
        if binary_entropy_hp(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def eta_star_collective_hp() -> mp.mpf:
    return entropy_inverse_hp(mp.mpf("0.5"))


def eta_star_individual_hp() -> mp.mpf:
    return (1 - 1 / mp.sqrt(2)) / 2


def eve_noise_collective_hp(eta_a) -> mp.mpf:
    return entropy_inverse_hp(1 - binary_entropy_hp(eta_a))


def wilson_bounds_by_rootfinding(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson interval endpoints found as roots of the score equation.

    Solves (phat - p)^2 = z^2 p (1-p) / n for p, which is independent of the
    usual completed-square rearrangement.
    """
    phat = mp.mpf(successes) / trials
    zz = mp.mpf(z) ** 2
    n = mp.mpf(trials)
    # (phat - p)^2 * n = zz * p * (1 - p): quadratic a p^2 + b p + c = 0
    a = n + zz
    b = -(2 * phat * n + zz)
    c = phat**2 * n
    disc = mp.sqrt(b**2 - 4 * a * c)
    lo = (-b - disc) / (2 * a)
    hi = (-b + disc) / (2 * a)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# protocol physics by exhaustive pure-state branch enumeration
# ---------------------------------------------------------------------------

# Kets are unnormalized integer vectors, and every Born probability is the
# ratio |<b|psi>|^2 / (<b|b> <psi|psi>) of small integers.  Each ratio is 0,
# 1/2 or 1, all exact in floating point, so the enumeration carries no
# rounding error and never yields a zero-probability branch.
_KETS = {
    "Z0": np.array([1, 0]),
    "Z1": np.array([0, 1]),
    "X+": np.array([1, 1]),
    "X-": np.array([1, -1]),
}
_EIGENKETS = {"Z": (_KETS["Z0"], _KETS["Z1"]), "X": (_KETS["X+"], _KETS["X-"])}
_PAULI_X = np.array([[0, 1], [1, 0]])
# CNOT on qubit (x) ancilla, basis order |qubit ancilla>: the qubit controls.
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def _born(basis_ket: np.ndarray, ket: np.ndarray) -> float:
    """Exact probability of projecting ket onto basis_ket (neither normalized)."""
    amp = np.vdot(basis_ket, ket)
    return float(abs(amp) ** 2 / (np.vdot(basis_ket, basis_ket) * np.vdot(ket, ket)))


def _measure_branches(ket: np.ndarray, basis: str):
    """Yield (probability, outcome_bit, collapsed_ket) for a projective measurement."""
    for bit, basis_ket in enumerate(_EIGENKETS[basis]):
        prob = _born(basis_ket, ket)
        if prob > 0.0:
            yield prob, bit, basis_ket


# The per-leg chance of a Z measurement under each BasisPolicy.
_POLICY_Z = {"alwaysZ": 1.0, "randomPerLeg": 0.5}


def _leg_basis_choices(policy):
    """Per-leg basis alternatives with their probabilities.

    policy is a BasisPolicy name or q, the chance that Eve measures a leg in
    Z; she measures it in X otherwise.
    """
    q = _POLICY_Z[policy] if isinstance(policy, str) else policy
    return [("Z", q), ("X", 1.0 - q)]


def check_round_error_exact(policy: str | float, f: float, legs=(1, 2)) -> float:
    """Exact probability that a check round registers an error.

    Enumerates preparation (|+> or |->), the attack coin, Eve's per-leg basis
    choices, every Born branch of every measurement, and the oracle's
    conditional bit flip.  The state is tracked as a pure ket throughout.
    """
    total = 0.0
    for prep_name, prep_prob in (("X+", 0.5), ("X-", 0.5)):
        expected_bit = 0 if prep_name == "X+" else 1
        for attacked, attack_prob in ((True, f), (False, 1.0 - f)):
            if attack_prob == 0.0:
                continue
            leg_options = (
                itertools.product(_leg_basis_choices(policy), repeat=2)
                if attacked
                else [((None, 1.0), (None, 1.0))]
            )
            for (b1, p1), (b2, p2) in leg_options:
                base_prob = prep_prob * attack_prob * p1 * p2
                # branch on leg 1
                states1 = [(1.0, _KETS[prep_name])]
                if attacked and 1 in legs and b1 is not None:
                    states1 = [
                        (q, k) for q, _, k in _measure_branches(_KETS[prep_name], b1)
                    ]
                for q1, ket1 in states1:
                    # oracle applies X conditioned on the label bit; both
                    # label values are equally likely
                    for c, pc in ((0, 0.5), (1, 0.5)):
                        ket_mid = ket1 if c == 0 else _PAULI_X @ ket1
                        states2 = [(1.0, ket_mid)]
                        if attacked and 2 in legs and b2 is not None:
                            states2 = [
                                (q, k) for q, _, k in _measure_branches(ket_mid, b2)
                            ]
                        for q2, ket2 in states2:
                            for qf, bit, _ in _measure_branches(ket2, "X"):
                                if bit != expected_bit:
                                    total += base_prob * q1 * pc * q2 * qf
    return total


def eve_data_error_exact(policy: str | float, f: float, legs=(1, 2)) -> float:
    """Exact probability that Eve's inferred label disagrees with the true one.

    Eve XORs her two outcomes when both legs were measured in Z; in every
    other situation (wrong bases, missing leg, round not attacked) her guess
    is uniform and contributes an error probability of 1/2.
    """
    total = 0.0
    for prep_name, prep_prob in (("Z0", 0.5), ("Z1", 0.5)):
        for attacked, attack_prob in ((True, f), (False, 1.0 - f)):
            if attack_prob == 0.0:
                continue
            if not attacked:
                total += prep_prob * attack_prob * 0.5
                continue
            for (b1, p1), (b2, p2) in itertools.product(
                _leg_basis_choices(policy), repeat=2
            ):
                base_prob = prep_prob * attack_prob * p1 * p2
                has1 = 1 in legs
                has2 = 2 in legs
                if not (has1 and has2 and b1 == "Z" and b2 == "Z"):
                    total += base_prob * 0.5
                    continue
                states1 = list(_measure_branches(_KETS[prep_name], b1))
                for q1, out1, ket1 in states1:
                    for c, pc in ((0, 0.5), (1, 0.5)):
                        ket_mid = ket1 if c == 0 else _PAULI_X @ ket1
                        for q2, out2, _ in _measure_branches(ket_mid, b2):
                            if out1 ^ out2 != c:
                                total += base_prob * q1 * pc * q2
    return total


def authorized_data_error_exact(policy: str | float, f: float, legs=(1, 2)) -> float:
    """Exact probability that a data round delivers a flipped label."""
    total = 0.0
    for prep_name, prep_prob in (("Z0", 0.5), ("Z1", 0.5)):
        k_bit = 0 if prep_name == "Z0" else 1
        for attacked, attack_prob in ((True, f), (False, 1.0 - f)):
            if attack_prob == 0.0:
                continue
            leg_options = (
                itertools.product(_leg_basis_choices(policy), repeat=2)
                if attacked
                else [((None, 1.0), (None, 1.0))]
            )
            for (b1, p1), (b2, p2) in leg_options:
                base_prob = prep_prob * attack_prob * p1 * p2
                states1 = [(1.0, _KETS[prep_name])]
                if attacked and 1 in legs and b1 is not None:
                    states1 = [
                        (q, k) for q, _, k in _measure_branches(_KETS[prep_name], b1)
                    ]
                for q1, ket1 in states1:
                    for c, pc in ((0, 0.5), (1, 0.5)):
                        ket_mid = ket1 if c == 0 else _PAULI_X @ ket1
                        states2 = [(1.0, ket_mid)]
                        if attacked and 2 in legs and b2 is not None:
                            states2 = [
                                (q, k) for q, _, k in _measure_branches(ket_mid, b2)
                            ]
                        for q2, ket2 in states2:
                            for qf, bit, _ in _measure_branches(ket2, "Z"):
                                if bit ^ k_bit != c:
                                    total += base_prob * q1 * pc * q2 * qf
    return total


def double_cnot_branches(prep_name: str, c: int):
    """Yield (probability, qubit_bit, ancilla_bit) for a round under double CNOT.

    The coherent two-leg attack of Wojcik (PRL 90, 157901, 2003): Eve CNOTs
    the travelling qubit onto a fresh |0> ancilla on leg 1, the oracle applies
    X^c, Eve CNOTs again on leg 2 and reads the ancilla in Z.  The receiver
    measures the returning qubit in the preparation basis.  The qubit and
    ancilla are one 4-dimensional state throughout.
    """
    oracle = np.kron(np.linalg.matrix_power(_PAULI_X, c), np.eye(2, dtype=int))
    state = _CNOT @ oracle @ _CNOT @ np.kron(_KETS[prep_name], _KETS["Z0"])
    preparation_basis = prep_name[0]  # "Z0" -> "Z", "X+" -> "X"
    for qubit_bit, qubit_ket in enumerate(_EIGENKETS[preparation_basis]):
        for ancilla_bit, ancilla_ket in enumerate(_EIGENKETS["Z"]):
            prob = _born(np.kron(qubit_ket, ancilla_ket), state)
            if prob > 0.0:
                yield prob, qubit_bit, ancilla_bit


def gaussian_tail_hp(t) -> mp.mpf:
    """P(Z >= t) for standard normal Z, at oracle precision."""
    return mp.ncdf(-mp.mpf(t))


# ---------------------------------------------------------------------------
# scalar session referee
# ---------------------------------------------------------------------------

_PREPARATIONS = (Preparation.Z0, Preparation.Z1, Preparation.XPLUS, Preparation.XMINUS)


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


@dataclass(frozen=True)
class ProtocolRound:
    """One round of ``reference_session``, as the scalar loop saw it."""

    round_id: int
    preparation: Preparation
    is_check: bool
    input_x: np.ndarray | None
    outcome: int
    attacked: bool
    check_error: bool | None
    eve_record: EveRoundRecord | None
    eve_label: int | None


def pick_policy_basis(policy: BasisPolicy, rng: np.random.Generator) -> Basis:
    if policy is BasisPolicy.ALWAYS_Z:
        return Basis.Z
    return Basis.Z if rng.random() < 0.5 else Basis.X


def intercept(
    state: Preparation,
    leg_index: int,
    strategy: InterceptResend,
    rng: np.random.Generator,
) -> tuple[Preparation, LegRecord | None]:
    """Measure-and-resend on one leg of an attacked round.

    The caller draws the round's attack coin, so none is drawn here.  A leg
    outside the strategy's target set passes untouched and leaves no record.
    """
    if leg_index not in (1, 2):
        raise DomainError(f"leg index must be 1 or 2, got {leg_index}")
    if not isinstance(strategy, InterceptResend):
        raise DomainError(f"intercept requires an InterceptResend strategy, got {strategy!r}")
    if leg_index not in strategy.legs:
        return state, None
    basis = pick_policy_basis(strategy.basis_policy, rng)
    outcome, post_state = measure(state, basis, rng.random())
    return post_state, LegRecord(leg=leg_index, basis=basis, outcome=outcome)


def infer_label(record: EveRoundRecord | None, rng: np.random.Generator) -> int:
    """Eve's label estimate for a data round.

    The oracle flips the computational bit by the label, so two Z outcomes
    XOR to the label exactly.  With anything less she has no usable
    correlation and guesses uniformly.
    """
    if (
        record is not None
        and record.leg1 is not None
        and record.leg2 is not None
        and record.leg1.basis is Basis.Z
        and record.leg2.basis is Basis.Z
    ):
        return record.leg1.outcome ^ record.leg2.outcome
    return int(rng.integers(2))


def reference_session(
    concept_source,
    target_data_count: int,
    attack=NoAttack(),
    abort_threshold: float | None = None,
    seed: int = 0,
    strict_abort: bool = False,
    keep_rounds: bool = True,
) -> SessionResult:
    """``run_session`` as one scalar loop: every round walks the qubit.

    Same arguments, generator calls and result as ``protocol.run_session``;
    only the round cap factor is read from ``protocol`` so a monkeypatched
    cap applies to both.  The concept source's rows for the whole round cap
    are taken up front and round r reads row r, which does not depend on the
    count, so these are the rows ``run_session`` reads after its loop.
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

    inputs: list[np.ndarray] = []
    authorized: list[int] = []
    eavesdropped: list[int] = []
    rounds: list[ProtocolRound] = []
    checks = 0
    check_errors = 0
    auth_errors = 0
    eve_errors = 0
    fidelity_sum = 0.0
    round_cap = protocol._ROUND_CAP_FACTOR * target_data_count
    source_inputs, source_bits = concept_source.rows(seed, round_cap)
    round_id = 0

    while len(authorized) < target_data_count:
        if round_id >= round_cap:
            raise ProtocolError(
                f"round cap exceeded: {round_cap} rounds produced only "
                f"{len(authorized)} of {target_data_count} examples"
            )
        k = _PREPARATIONS[rng.integers(4)]
        is_check = k.is_check
        x, c = source_inputs[round_id], source_bits[round_id]
        if c not in (0, 1):
            raise DomainError(f"concept source rows must hold bits, got {c.item()!r}")
        c = int(c)

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
            inputs.append(x)
            authorized.append(label)
            auth_errors += int(label != c)
            if analytic:
                eve_label = c ^ int(rng.random() < eve_eta)
                fidelity_sum += 1.0 - float(label != c)
            else:
                eve_label = infer_label(eve_record, rng)
            eavesdropped.append(eve_label)
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
    xs, labels = np.array(inputs), np.array(authorized, dtype=np.intp)
    eavesdropper_data = Dataset(xs, np.array(eavesdropped, dtype=np.intp))
    if aborted and strict_abort:
        authorized_data = Dataset(xs[:0], labels[:0])
    else:
        authorized_data = Dataset(xs, labels)
    return SessionResult(
        authorized_dataset=authorized_data,
        eavesdropper_dataset=eavesdropper_data,
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


def reference_columns(rounds, attack) -> Rounds:
    """``run_session``'s Rounds record, built from ``reference_session``'s rounds."""
    legs = {}
    for leg in attack.legs if isinstance(attack, InterceptResend) else ():
        records = [getattr(r.eve_record, f"leg{leg}") for r in rounds if r.attacked]
        legs[leg] = (
            np.array([(Basis.Z, Basis.X).index(rec.basis) for rec in records], dtype=np.intp),
            np.array([rec.outcome for rec in records], dtype=np.int64),
        )
    return Rounds(
        preparations=np.array([_PREPARATIONS.index(r.preparation) for r in rounds], np.intp),
        outcomes=np.array([r.outcome for r in rounds], dtype=np.int64),
        attacked=np.array([r.attacked for r in rounds], dtype=bool),
        legs=legs,
    )


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


def reference_transcript(rounds) -> bytes:
    """``protocol.export_transcript``'s bytes: one compact, key-sorted
    ``json.dumps`` object per round, newline-terminated."""
    return "".join(
        json.dumps(_round_to_json(rnd), sort_keys=True, separators=(",", ":")) + "\n"
        for rnd in rounds
    ).encode()


def reference_task(
    dimension: int,
    separation: float,
    seed: int,
    epsilon_target: float | None = None,
) -> SyntheticTask:
    """``learn_harness.generate_task``, built in one pass.

    Builds a task with a 2000-point held-out set, rejecting geometries too
    overlapped for the target.

    When epsilon_target is given, the exact cluster-vs-concept overlap
    Phi(-separation/2) must stay below epsilon_target / 2; otherwise trials
    could stall for geometric reasons and noise comparisons would be
    confounded.
    """
    if dimension < 2:
        raise DomainError(f"dimension must be >= 2, got {dimension}")
    if not separation > 0.0:
        raise DomainError(f"separation must be positive, got {separation}")
    check_seed(seed, "task seed")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dimension)
    direction /= math.sqrt(float(direction @ direction))
    analytic = 0.5 * math.erfc(separation / (2.0 * math.sqrt(2.0)))

    if epsilon_target is not None:
        if not 0.0 < epsilon_target < 1.0:
            raise DomainError(
                f"epsilon target must lie in (0, 1), got {epsilon_target}"
            )
        bound = epsilon_target / 2.0
        if analytic >= bound:
            raise DomainError(
                f"separation {separation} leaves overlap "
                f"{analytic:.4g} >= {bound:.4g}; the accuracy "
                f"target {epsilon_target} is not cleanly reachable"
            )

    task = SyntheticTask(
        dimension=dimension,
        separation=separation,
        direction=direction,
        test_x=np.empty((0, dimension)),
        test_y=np.empty(0, dtype=np.int64),
        analytic_overlap=analytic,
    )
    test_x = task.sample_inputs(2000, rng)
    test_y = task.labeler.predict(test_x)
    return replace(task, test_x=test_x, test_y=test_y)


def reference_overlap_probe(
    task: SyntheticTask, points: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of the overlap: the fraction of ``points`` cluster
    draws, all held in one array, that land across the concept's midplane."""
    probe_sides = rng.integers(2, size=points)
    sides = 2.0 * probe_sides.astype(np.float64) - 1.0
    xs = np.outer(sides * (task.separation / 2.0), task.direction) + rng.standard_normal(
        (points, task.dimension)
    )
    return float(np.mean((xs @ task.direction >= 0.0).astype(np.int64) != probe_sides))


# ---------------------------------------------------------------------------
# per-trial learning referee
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class ReferenceLinearModel:
    """One affine threshold model, trained by logistic SGD."""

    weights: np.ndarray
    bias: float

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return (xs @ self.weights + self.bias >= 0.0).astype(np.int64)

    def sgd_step(self, xs: np.ndarray, ys: np.ndarray, step_size: float) -> None:
        residual = _sigmoid(xs @ self.weights + self.bias) - ys
        self.weights -= step_size * (xs.T @ residual) / len(ys)
        self.bias -= step_size * float(residual.mean())


@dataclass
class ReferenceHiddenModel:
    """One tanh hidden layer, logistic output, plain SGD."""

    w1: np.ndarray  # (dimension, width)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width,)
    b2: float

    def predict(self, xs: np.ndarray) -> np.ndarray:
        hidden = np.tanh(xs @ self.w1 + self.b1)
        return (hidden @ self.w2 + self.b2 >= 0.0).astype(np.int64)

    def sgd_step(self, xs: np.ndarray, ys: np.ndarray, step_size: float) -> None:
        hidden = np.tanh(xs @ self.w1 + self.b1)
        residual = (_sigmoid(hidden @ self.w2 + self.b2) - ys) / len(ys)
        grad_w2 = hidden.T @ residual
        grad_b2 = float(residual.sum())
        back = np.outer(residual, self.w2) * (1.0 - hidden**2)
        self.w1 -= step_size * (xs.T @ back)
        self.b1 -= step_size * back.sum(axis=0)
        self.w2 -= step_size * grad_w2
        self.b2 -= step_size * grad_b2


def reference_model(config, dimension: int, rng: np.random.Generator):
    """The initial model of one trial, drawn as ``LearnerConfig.initial_models``
    draws each trial of its stack."""
    if config.model == "linear-threshold":
        return ReferenceLinearModel(weights=np.zeros(dimension), bias=0.0)
    width = config.hidden_width
    return ReferenceHiddenModel(
        w1=rng.normal(0.0, 1.0 / math.sqrt(dimension), size=(dimension, width)),
        b1=np.zeros(width),
        w2=rng.normal(0.0, 0.5, size=width),
        b2=0.0,
    )


def _reference_error(model, test_x: np.ndarray, test_y: np.ndarray) -> float:
    return float(np.mean(model.predict(test_x) != test_y))


def reference_trial(task, sample_stream, epsilon_target, config, sample_budget, seed=0):
    """``learn_harness.train_until`` as one trial with one model: (trial, model).

    Reads (x, y) pairs, such as ``zip(inputs, labels)``, from sample_stream;
    otherwise the same arguments, consumption, evaluations and result as the
    lockstep engine's one-trial case.
    """
    if not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    if sample_budget < 0:
        raise DomainError(f"sample budget must be >= 0, got {sample_budget}")
    model = reference_model(config, task.dimension, np.random.default_rng(seed))
    stream = iter(sample_stream)
    consumed = 0
    next_eval = config.evaluation_cadence
    while consumed < sample_budget:
        want = min(config.batch_size, sample_budget - consumed)
        batch = list(itertools.islice(stream, want))
        if not batch:
            break
        consumed += len(batch)
        xs, ys = zip(*batch)
        model.sgd_step(np.asarray(xs), np.asarray(ys, dtype=np.float64), config.step_size)
        if consumed >= next_eval:
            next_eval += config.evaluation_cadence * (
                1 + (consumed - next_eval) // config.evaluation_cadence
            )
            last_error = _reference_error(model, task.test_x, task.test_y)
            if last_error <= epsilon_target:
                return (
                    LearningTrial(
                        seed=seed,
                        samples_consumed=consumed,
                        halted=True,
                        final_test_error=last_error,
                    ),
                    model,
                )
    last_error = _reference_error(model, task.test_x, task.test_y)
    return (
        LearningTrial(
            seed=seed,
            samples_consumed=consumed,
            halted=False,
            final_test_error=last_error,
        ),
        model,
    )


def reference_halfspace_sampler(dimension: int):
    """``learn_harness.random_halfspace_sampler`` with the one-model class."""

    def sample(rng: np.random.Generator) -> ReferenceLinearModel:
        return ReferenceLinearModel(
            weights=rng.standard_normal(dimension), bias=float(rng.standard_normal())
        )

    return sample


def reference_search(task, epsilon_target, hypothesis_sampler, sample_budget, seed=0):
    """``learn_harness.random_search_learner`` as a loop of one draw at a time.

    Halts at the first draw at or below the target; an exhausted trial
    reports the best error seen, 1.0 when it drew nothing.
    """
    if not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    if sample_budget < 0:
        raise DomainError(f"sample budget must be >= 0, got {sample_budget}")
    rng = np.random.default_rng(seed)
    best = math.inf
    for draw in range(1, sample_budget + 1):
        error = _reference_error(hypothesis_sampler(rng), task.test_x, task.test_y)
        best = min(best, error)
        if error <= epsilon_target:
            return LearningTrial(
                seed=seed, samples_consumed=draw, halted=True, final_test_error=error
            )
    return LearningTrial(
        seed=seed,
        samples_consumed=sample_budget,
        halted=False,
        final_test_error=best if math.isfinite(best) else 1.0,
    )
