"""Session mechanics: round accounting, datasets, estimates, transcripts."""

import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlabelsec.protocol as protocol_module
import qlabelsec.qubit as qubit_module
from _oracles import reference_columns, reference_session, reference_transcript
from qlabelsec.adversary import AnalyticAttack, InterceptResend, NoAttack
from qlabelsec.errors import DomainError, ProtocolError
from qlabelsec.info_theory import eve_noise_from_disturbance
from qlabelsec.learn_harness import concept_bits, generate_task
from qlabelsec.protocol import estimate_eta_a, export_transcript, run_session
from qlabelsec.qubit import Preparation
from qlabelsec.stats import binomial_pull

# is_check per preparation index of a Rounds record
IS_CHECK = np.array([k.is_check for k in Preparation])


def _normal_rows(seed, count, dim=2):
    """count standard normal rows from a child stream of the session seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return rng.standard_normal((count, dim))


def halfspace_source(dim: int = 2):
    def rows(seed, count):
        xs = _normal_rows(seed, count, dim)
        return xs, xs[:, 0] >= 0.0

    return rows


def constant_source(bit, dim: int = 2):
    """Normal rows that all carry the label bit, whatever its type."""
    return lambda seed, count: (_normal_rows(seed, count, dim), [bit] * count)


_SCALAR_FIELDS = (
    "check_count",
    "check_error_count",
    "eta_a_estimate",
    "aborted",
    "abort_threshold",
    "authorized_label_error_rate",
    "eve_label_error_rate",
    "ensemble_fidelity",
    "seed",
)


def session_digest(session) -> str:
    """sha256 over both datasets (input bytes, labels) and the scalar fields.

    Types are hashed with the values, and floats as float.hex, so a label
    that turns into a numpy integer or a rate that moves in its last bit
    changes the digest.
    """
    digest = hashlib.sha256()
    for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
        digest.update(f"{len(dataset)};".encode())
        for x, label in zip(dataset.inputs, dataset.labels.tolist()):
            digest.update(f"{x.dtype.str}{x.shape}".encode())
            digest.update(x.tobytes())
            digest.update(f"{type(label).__name__}:{label};".encode())
    for name in _SCALAR_FIELDS:
        value = getattr(session, name)
        text = value.hex() if isinstance(value, float) else repr(value)
        digest.update(f"{name}={type(value).__name__}:{text};".encode())
    return digest.hexdigest()


class TestRuleTables:
    """Sessions read qubit's one set of rule tables; a write into one raises."""

    @pytest.mark.parametrize(
        "name, dtype",
        [("BASIS", np.int64), ("BIT", np.int64), ("IS_CHECK", np.bool_),
         ("ORACLE", np.int64), ("OUTCOME", np.int64), ("POST_STATE", np.int64),
         ("FIDELITY", np.float64)],
    )
    def test_tables_are_shared_read_only_and_keep_their_dtype(self, name, dtype):
        table = getattr(qubit_module, name)
        assert getattr(protocol_module, name) is table
        assert table.dtype == dtype
        corner = (0,) * table.ndim
        with pytest.raises(ValueError, match="read-only"):
            table[corner] = table[corner]

    @pytest.mark.parametrize(
        "name", ["BASIS", "BIT", "IS_CHECK", "ORACLE", "OUTCOME", "POST_STATE", "FIDELITY"]
    )
    def test_tables_cannot_be_made_writable(self, name):
        table = getattr(qubit_module, name)
        with pytest.raises(ValueError):
            table.flags.writeable = True
        assert not table.flags.writeable


class TestNoAttackSession:
    def test_labels_are_exact_and_estimate_is_zero(self):
        source = halfspace_source()
        session = run_session(source, 2_000, attack=NoAttack(), seed=10)
        assert session.eta_a_estimate == 0.0
        assert session.check_error_count == 0
        assert not session.aborted
        assert session.ensemble_fidelity == 1.0
        assert session.authorized_label_error_rate == 0.0
        dataset = session.authorized_dataset
        for x, label in zip(dataset.inputs, dataset.labels):
            assert label == (x[0] >= 0.0)

    def test_dataset_sizes(self):
        session = run_session(halfspace_source(), 1_500, seed=11)
        assert len(session.authorized_dataset) == 1_500
        assert len(session.eavesdropper_dataset) == 1_500

    def test_eve_guesses_are_uninformative(self):
        source = halfspace_source()
        session = run_session(source, 10_000, attack=NoAttack(), seed=12)
        n = len(session.eavesdropper_dataset)
        assert binomial_pull(session.eve_label_error_rate, n, 0.5) <= 4.0

    def test_determinism_bit_for_bit(self):
        a = run_session(halfspace_source(), 500, attack=InterceptResend(), seed=77)
        b = run_session(halfspace_source(), 500, attack=InterceptResend(), seed=77)
        assert a.eta_a_estimate == b.eta_a_estimate
        assert a.check_count == b.check_count
        for name in ("authorized_dataset", "eavesdropper_dataset"):
            da, db = getattr(a, name), getattr(b, name)
            assert np.array_equal(da.inputs, db.inputs)
            assert np.array_equal(da.labels, db.labels)

    def test_different_seeds_differ(self):
        a = run_session(halfspace_source(), 500, seed=1)
        b = run_session(halfspace_source(), 500, seed=2)
        assert a.check_count != b.check_count or not np.array_equal(
            a.eavesdropper_dataset.labels, b.eavesdropper_dataset.labels
        )


class TestRoundAccounting:
    def test_check_fraction_is_half(self):
        session = run_session(halfspace_source(), 10_000, seed=13)
        total = len(session.rounds.preparations)
        # checks follow a negative-binomial law around the data target
        assert total == session.check_count + 10_000
        sigma = math.sqrt(2.0 * 10_000)
        assert abs(session.check_count - 10_000) <= 4.0 * sigma

    def test_check_rounds_never_reach_either_dataset(self):
        session = run_session(halfspace_source(), 2_000, seed=14)
        data_rounds = int(np.count_nonzero(~IS_CHECK[session.rounds.preparations]))
        assert data_rounds == len(session.authorized_dataset)
        assert data_rounds == len(session.eavesdropper_dataset)
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            assert dataset.inputs.shape == (data_rounds, 2)
            assert dataset.labels.shape == (data_rounds,)

    def test_session_stops_exactly_at_target(self):
        session = run_session(halfspace_source(), 303, seed=15)
        assert len(session.authorized_dataset) == 303
        # the last round delivered the last label
        assert not IS_CHECK[session.rounds.preparations[-1]]

    def test_insufficient_check_rounds_is_an_error(self):
        # a one-example session whose single round is a data round never
        # observes a check; some seed below 30 must produce one
        raised = False
        for seed in range(30):
            try:
                run_session(halfspace_source(), 1, seed=seed)
            except ProtocolError as err:
                assert "insufficient check rounds" in str(err)
                raised = True
                break
        assert raised

    def test_round_cap_guards_termination(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "_ROUND_CAP_FACTOR", 1)
        with pytest.raises(ProtocolError, match="round cap"):
            run_session(halfspace_source(), 50, seed=16)

    def test_rejects_bad_target_and_threshold(self):
        with pytest.raises(DomainError):
            run_session(halfspace_source(), 0, seed=1)
        with pytest.raises(DomainError):
            run_session(halfspace_source(), 10, abort_threshold=0.0, seed=1)
        with pytest.raises(DomainError):
            run_session(halfspace_source(), 10, abort_threshold=0.6, seed=1)
        with pytest.raises(DomainError):
            run_session(halfspace_source(), 10, attack="loud", seed=1)

    @pytest.mark.parametrize("target", [10.0, 10.5, True, "10", np.float64(10.0)], ids=repr)
    def test_rejects_a_target_that_is_not_an_int(self, target):
        with pytest.raises(DomainError, match="target data count must be an integer"):
            run_session(halfspace_source(), target, seed=1)

    def test_accepts_a_numpy_integer_target(self):
        session = run_session(halfspace_source(), np.int64(10), seed=1)
        assert len(session.authorized_dataset) == 10
        assert session.check_count == run_session(halfspace_source(), 10, seed=1).check_count

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "3", None, True, np.float64(2.0), np.int64(-1)], ids=repr
    )
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            run_session(halfspace_source(), 10, seed=seed)

    def test_rejects_non_binary_labeler(self):
        with pytest.raises(DomainError, match="bit"):
            run_session(constant_source(2), 10, seed=1)

    @pytest.mark.parametrize("value", [0.7, 1.9, -0.4])
    def test_rejects_fractional_labeler_output(self, value):
        # int() would floor these to a bit; the raw value is checked first
        with pytest.raises(DomainError, match="bit"):
            run_session(constant_source(value), 10, seed=1)

    @pytest.mark.parametrize(
        "rows",
        [
            lambda seed, count: (_normal_rows(seed, count - 1), np.ones(count - 1)),
            lambda seed, count: (_normal_rows(seed, count + 1), np.ones(count + 1)),
            lambda seed, count: (_normal_rows(seed, count), np.ones(count + 1)),
            lambda seed, count: (_normal_rows(seed, count)[:, 0], np.ones(count)),
        ],
        ids=["one-row-too-few", "one-row-too-many", "one-bit-too-many", "1-D-inputs"],
    )
    def test_rejects_rows_that_do_not_match_the_rounds(self, rows):
        with pytest.raises(DomainError, match="concept source rows must be"):
            run_session(rows, 10, seed=1)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**100], ids=["2**64+5", "2**100"])
    def test_seeds_beyond_64_bits_equal_the_scalar_loop(self, seed):
        attack = InterceptResend(attack_probability=0.5, basis_policy="randomPerLeg")
        for source in _SOURCES.values():
            session = run_session(source, 200, attack=attack, seed=seed)
            expected = reference_session(source, 200, attack=attack, seed=seed)
            assert session_digest(session) == session_digest(expected)

    def test_task_rows_are_not_keyed_by_the_seed_mod_2_64(self):
        rows = _SOURCES["task"]
        for seed in (0, 5):
            assert rows(seed, 50)[0].tobytes() != rows(seed + 2**64, 50)[0].tobytes()

    def test_rows_are_read_once_after_the_rounds(self):
        calls = []

        def rows(seed, count):
            calls.append((seed, count))
            return halfspace_source()(seed, count)

        session = run_session(rows, 40, seed=5)
        assert calls == [(5, len(session.rounds.preparations))]

    @pytest.mark.parametrize("one", [True, 1.0, np.int64(1)], ids=repr)
    def test_accepts_bits_of_any_numeric_type(self, one):
        plain, typed = constant_source(1), constant_source(one)
        attack = AnalyticAttack(curve_kind="collective", disturbance=0.05)
        expected = run_session(plain, 50, attack=attack, seed=2)
        session = run_session(typed, 50, attack=attack, seed=2)
        assert session_digest(session) == session_digest(expected)


class TestEtaEstimate:
    def test_plain_arithmetic(self):
        assert estimate_eta_a(150, 3) == pytest.approx(0.02)
        assert estimate_eta_a(4, 0) == 0.0

    def test_zero_checks_rejected(self):
        with pytest.raises(ProtocolError, match="insufficient check rounds"):
            estimate_eta_a(0, 0)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(DomainError):
            estimate_eta_a(10, 11)
        with pytest.raises(DomainError):
            estimate_eta_a(10, -1)


class TestAbortSemantics:
    def test_flagged_but_datasets_returned_by_default(self):
        session = run_session(
            halfspace_source(),
            2_000,
            attack=InterceptResend(),
            abort_threshold=0.11,
            seed=17,
        )
        assert session.aborted
        assert len(session.authorized_dataset) == 2_000

    def test_strict_mode_truncates_datasets(self):
        session = run_session(
            halfspace_source(),
            2_000,
            attack=InterceptResend(),
            abort_threshold=0.11,
            seed=17,
            strict_abort=True,
        )
        assert session.aborted
        assert len(session.authorized_dataset) == 0
        # Eve measured during delivery, so the abort cannot recall her labels
        assert len(session.eavesdropper_dataset) == 2_000
        assert session.check_count > 0  # the evidence is retained

    def test_strict_abort_leaves_eve_every_label_she_read(self):
        task = generate_task(8, 6.0, 42)
        source = task.concept_source()
        session = run_session(
            source,
            2_000,
            attack=InterceptResend(1.0),
            abort_threshold=0.11,
            seed=3,
            strict_abort=True,
        )
        assert session.aborted and len(session.authorized_dataset) == 0
        eve = session.eavesdropper_dataset
        assert eve.inputs.shape == (2_000, 8) and eve.labels.shape == (2_000,)
        # alwaysZ on both legs reads every data label exactly
        assert session.eve_label_error_rate == 0.0
        assert np.array_equal(eve.labels, concept_bits(eve.inputs, task.direction))

    def test_quiet_channel_does_not_abort(self):
        session = run_session(
            halfspace_source(), 2_000, abort_threshold=0.11, seed=18
        )
        assert not session.aborted


class TestAnalyticAttackSessions:
    def test_flip_channels_match_the_curve(self):
        d = 0.05
        attack = AnalyticAttack(curve_kind="collective", disturbance=d)
        session = run_session(halfspace_source(), 20_000, attack=attack, seed=19)
        assert binomial_pull(session.eta_a_estimate, session.check_count, d) <= 4.0
        eta_e = eve_noise_from_disturbance("collective", d)
        n = len(session.eavesdropper_dataset)
        assert binomial_pull(session.eve_label_error_rate, n, eta_e) <= 4.0

    def test_zero_disturbance_is_clean_for_the_authorized_party(self):
        attack = AnalyticAttack(curve_kind="collective", disturbance=0.0)
        session = run_session(halfspace_source(), 3_000, attack=attack, seed=20)
        assert session.eta_a_estimate == 0.0
        assert session.authorized_label_error_rate == 0.0
        assert binomial_pull(session.eve_label_error_rate, 3_000, 0.5) <= 4.0


class TestInterceptResendSessions:
    def test_full_always_z_attack(self):
        session = run_session(
            halfspace_source(), 10_000, attack=InterceptResend(), seed=21
        )
        assert binomial_pull(session.eta_a_estimate, session.check_count, 0.5) <= 4.0
        # Eve reads every label exactly; the authorized data stay clean
        assert session.eve_label_error_rate == 0.0
        assert session.authorized_label_error_rate == 0.0
        assert session.ensemble_fidelity == 1.0

    def test_eta_grows_affinely_in_attack_probability(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        observed = []
        eve_rates = []
        for f in grid:
            session = run_session(
                halfspace_source(),
                10_000,
                attack=InterceptResend(attack_probability=f),
                seed=500 + int(4 * f),
            )
            # at f = 0 the estimate must be exactly 0
            pull = binomial_pull(session.eta_a_estimate, session.check_count, f * 0.5)
            assert pull <= 4.0
            observed.append(session.eta_a_estimate)
            eve_rates.append(session.eve_label_error_rate)
        # trade-off direction: more interception, more visible noise, better Eve
        assert all(a < b for a, b in zip(observed, observed[1:]))
        assert all(a > b for a, b in zip(eve_rates, eve_rates[1:]))

    def test_cross_basis_fidelity_is_exactly_one_half(self):
        # one data round whose returning state Eve collapsed into the X basis
        source = generate_task(8, 6.0, 42).concept_source()
        session = run_session(
            source, 1, attack=InterceptResend(basis_policy="randomPerLeg"), seed=0
        )
        assert session.ensemble_fidelity == 0.5


@pytest.mark.blas_pins
class TestTranscriptExport:
    def test_round_trip_and_field_contract(self, tmp_path):
        session = run_session(
            halfspace_source(), 200, attack=InterceptResend(), seed=22
        )
        path = tmp_path / "transcript.jsonl"
        export_transcript(session, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(session.rounds.preparations)
        previous_id = -1
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "round_id",
                "k",
                "is_check",
                "outcome",
                "eve_basis",
                "flags",
            }
            assert record["round_id"] > previous_id
            previous_id = record["round_id"]
            assert record["k"] in ("Z0", "Z1", "X+", "X-")
            assert record["is_check"] == (record["k"] in ("X+", "X-"))
            assert record["outcome"] in (0, 1)
            assert set(record["flags"]) == {"attacked", "check_error"}

    def test_session_without_rounds_is_not_exported(self, tmp_path):
        session = run_session(halfspace_source(), 50, seed=22, keep_rounds=False)
        path = tmp_path / "transcript.jsonl"
        with pytest.raises(ProtocolError, match="keep_rounds"):
            export_transcript(session, path)
        assert not path.exists()

    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            session = run_session(
                halfspace_source(), 300, attack=InterceptResend(), seed=23
            )
            path = tmp_path / name
            export_transcript(session, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # sha256 of export_transcript output (compact JSONL) for 50-label sessions
    # at seed 0.  A change that moves the session's random stream or the JSONL
    # byte format changes these digests; such a change updates them and says
    # so in CHANGES.md.
    @pytest.mark.parametrize(
        "attack, digest",
        [
            (
                InterceptResend(basis_policy="randomPerLeg"),
                "fdf64fb1fe5dc5cd37595521b8043694ae02a458c79bf9f7c375b3429325be63",
            ),
            (
                InterceptResend(attack_probability=0.5, legs=(2,)),
                "7894f670c9f16a8925aa5bfc35eab108e90f97108e34bb08ad86c061aeccb9f9",
            ),
        ],
        ids=["randomPerLeg-f1", "alwaysZ-leg2-f0.5"],
    )
    def test_session_stream_is_pinned(self, tmp_path, attack, digest):
        session = run_session(halfspace_source(), 50, attack=attack, seed=0)
        path = tmp_path / "transcript.jsonl"
        export_transcript(session, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize(
        "attack",
        [
            NoAttack(),
            InterceptResend(),
            InterceptResend(attack_probability=0.5),
            InterceptResend(attack_probability=0.5, basis_policy="randomPerLeg"),
            InterceptResend(legs=(1,)),
            InterceptResend(attack_probability=0.5, basis_policy="randomPerLeg", legs=(2,)),
            AnalyticAttack(curve_kind="collective", disturbance=0.05),
            AnalyticAttack(curve_kind="individual", disturbance=0.08),
        ],
        ids=[
            "none",
            "alwaysZ-f1",
            "alwaysZ-f0.5",
            "randomPerLeg-f0.5",
            "alwaysZ-leg1",
            "randomPerLeg-leg2-f0.5",
            "collective",
            "individual",
        ],
    )
    def test_column_writer_equals_the_per_round_referee(self, tmp_path, attack, seed):
        source = _SOURCES["task"]
        path = tmp_path / "transcript.jsonl"
        export_transcript(run_session(source, 2_000, attack=attack, seed=seed), path)
        expected = reference_session(source, 2_000, attack=attack, seed=seed)
        assert path.read_bytes() == reference_transcript(expected.rounds)


_PINNED_ATTACKS = {
    "none": NoAttack(),
    "alwaysZ-f1": InterceptResend(),
    "randomPerLeg-f0.5": InterceptResend(
        attack_probability=0.5, basis_policy="randomPerLeg"
    ),
    "alwaysZ-leg1": InterceptResend(legs=(1,)),
    "randomPerLeg-leg2-f0.7": InterceptResend(
        attack_probability=0.7, basis_policy="randomPerLeg", legs=(2,)
    ),
    "collective-0.05": AnalyticAttack(curve_kind="collective", disturbance=0.05),
    "individual-0.08": AnalyticAttack(curve_kind="individual", disturbance=0.08),
}

_SOURCES = {
    "halfspace": halfspace_source(),
    "task": generate_task(8, 6.0, 42).concept_source(),
}

# session_digest of 200-label sessions at seed 3 with abort threshold 0.11,
# taken when the inputs moved out of the round loop to the concept source's
# rows.  A change that moves the random stream, an input byte, a label or a
# reported rate changes these digests; such a change updates them and says so
# in CHANGES.md.
_SESSION_DIGESTS = {
    "halfspace/none": "ba9cce1c1dfbd68a0e84852ad666beb8b47350dc6ce6ad4261d4d99d62008131",
    "halfspace/alwaysZ-f1": "c0871e406e3b79f15096aa9f1e254b0a0411f582b45d69ade7731332a14bef96",
    "halfspace/randomPerLeg-f0.5": "466f73cb8a8fc3fbfb05f913723a2005fb18e3b386c154300d73646b400bd6a0",
    "halfspace/alwaysZ-leg1": "782d6f06fe9e2bcf3300dcdef32d896343946015cb5b970d23fabf969468d456",
    "halfspace/randomPerLeg-leg2-f0.7": "b1a31b68930b14e89c312b90ff8b93878f9757c2a1113a008f89456b85fe0534",
    "halfspace/collective-0.05": "83238bf4f80834ab4305483505eaa21ef858eff772ed98e4545dc21676a80b78",
    "halfspace/individual-0.08": "0ad09821a26154f27a4710c9ebc5f53abfba0c1553a771b89e517b1e95ba6e51",
    "task/none": "95943c5062ba686cf76bca5481009585d3256f578b12c6986f1981fcb89f29a7",
    "task/alwaysZ-f1": "e27c1d06336e161ac5117592440d9c57bc5eee4ac2ab7aaaf5568f143b6324ee",
    "task/randomPerLeg-f0.5": "70432491ddd374a260ef9b41883ebb6e99906a15f762e2ce8dd3733897af20a6",
    "task/alwaysZ-leg1": "8d452ff26fbcdde932f5f49861343ac256b95b53a47f5ff23b561504d9febe93",
    "task/randomPerLeg-leg2-f0.7": "ec463ea51fbe00162caddc4ede01c3bbe7df3335038dc884b208617a20ee1248",
    "task/collective-0.05": "07cb82e0fd0237009dfa9f145a6bed82d717e13205ecab9db3a5772866104e11",
    "task/individual-0.08": "1572176f1d226bc065edfb48e9804aaaa1218e88fdbfb806d7d1d05593385d5e",
}


class TestSessionViews:
    def session(self, **kwargs):
        attack = InterceptResend(attack_probability=0.5, basis_policy="randomPerLeg")
        return run_session(halfspace_source(), 300, attack=attack, seed=31, **kwargs)

    def test_labels_are_integer_bits(self):
        session = self.session()
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            assert dataset.labels.dtype == np.intp
            assert set(dataset.labels.tolist()) == {0, 1}

    def test_dataset_is_a_record_not_a_sequence(self):
        dataset = self.session().eavesdropper_dataset
        assert len(dataset) == 300
        with pytest.raises(TypeError):
            iter(dataset)
        with pytest.raises(TypeError):
            dataset[0]
        assert dataset != [] and dataset == dataset
        with pytest.raises(dataclasses.FrozenInstanceError):
            dataset.labels = dataset.labels

    def test_round_columns_are_aligned_and_read_only(self):
        session = self.session()
        rounds = session.rounds
        n = session.check_count + 300
        assert rounds.preparations.shape == rounds.outcomes.shape == (n,)
        assert rounds.attacked.shape == (n,) and rounds.attacked.dtype == bool
        assert len(rounds.legs) == 2
        for basis, outcome in rounds.legs:
            assert basis.shape == outcome.shape == (np.count_nonzero(rounds.attacked),)
            assert set(basis.tolist()) == set(outcome.tolist()) == {0, 1}
        columns = [rounds.preparations, rounds.outcomes, rounds.attacked]
        for column in columns + [c for pair in rounds.legs for c in pair]:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        with pytest.raises(AttributeError):
            rounds.outcomes = rounds.preparations

    def test_leg_record_is_an_immutable_picklable_pair(self):
        # one entry per leg, None for a leg Eve leaves alone
        rounds = self.session().rounds
        assert isinstance(rounds.legs, tuple) and len(rounds.legs) == 2
        with pytest.raises(TypeError):
            rounds.legs[0] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            rounds.legs = (None, None)
        copy = pickle.loads(pickle.dumps(rounds))
        for pair, copied in zip(rounds.legs, copy.legs):
            assert all(np.array_equal(a, b) for a, b in zip(pair, copied))
        leg2_only = InterceptResend(legs=(2,))
        assert run_session(halfspace_source(), 50, attack=leg2_only).rounds.legs[0] is None
        analytic = AnalyticAttack("collective", 0.05)
        assert run_session(halfspace_source(), 50, attack=analytic).rounds.legs == (None, None)

    def test_dataset_arrays_are_shared_and_read_only(self):
        session = self.session()
        authorized, eavesdropper = session.authorized_dataset, session.eavesdropper_dataset
        assert authorized.inputs is eavesdropper.inputs
        for dataset in (authorized, eavesdropper):
            assert dataset.inputs.shape == (300, 2) and dataset.labels.shape == (300,)
            for array in (dataset.inputs, dataset.labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_record_arrays_cannot_be_made_writable(self):
        session = run_session(
            halfspace_source(), 300, attack=InterceptResend(0.5), seed=11, keep_rounds=True
        )
        rounds = session.rounds
        arrays = [rounds.preparations, rounds.outcomes, rounds.attacked]
        arrays += [array for pair in rounds.legs for array in pair]
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            arrays += [dataset.inputs, dataset.labels]
        assert len(arrays) == 11
        for array in arrays:
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_strictly_aborted_datasets_are_empty_records(self):
        session = run_session(
            halfspace_source(),
            500,
            attack=InterceptResend(),
            abort_threshold=0.11,
            seed=17,
            strict_abort=True,
        )
        authorized, eavesdropper = session.authorized_dataset, session.eavesdropper_dataset
        assert len(authorized) == 0
        assert authorized.inputs.shape == (0, 2) and authorized.labels.shape == (0,)
        assert eavesdropper.inputs.shape == (500, 2) and eavesdropper.labels.shape == (500,)
        for dataset in (authorized, eavesdropper):
            for array in (dataset.inputs, dataset.labels):
                with pytest.raises(ValueError):  # the empty views' owners are locked too
                    array.flags.writeable = True
        assert len(session.rounds.preparations) == session.check_count + 500

    def test_session_result_is_frozen(self):
        session = self.session()
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.authorized_dataset = session.eavesdropper_dataset
        moved = dataclasses.replace(session, eta_a_estimate=0.3)
        assert moved.eta_a_estimate == 0.3
        assert moved.authorized_dataset is session.authorized_dataset


@pytest.mark.blas_pins
class TestSessionPins:
    @pytest.mark.parametrize("key", sorted(_SESSION_DIGESTS))
    def test_whole_session_is_pinned(self, key):
        source_name, attack_name = key.split("/")
        session = run_session(
            _SOURCES[source_name],
            200,
            attack=_PINNED_ATTACKS[attack_name],
            abort_threshold=0.11,
            seed=3,
        )
        assert session_digest(session) == _SESSION_DIGESTS[key]


class TestSmallDrawWords:
    def test_float32_route_takes_the_word_integers_takes(self):
        # a random interleaving of the session's draw kinds on two generators,
        # one drawing integers(4) and integers(2), the other the float32 route
        buffered = 0
        for seed in range(200):
            script = np.random.default_rng([seed, 1]).integers(4, size=60)
            plain, routed = np.random.default_rng(seed), np.random.default_rng(seed)
            d = 1 + seed % 8
            for kind in script.tolist():
                if kind == 0:
                    a, b = plain.integers(4), int(routed.random(None, np.float32) * 4.0)
                elif kind == 1:
                    a, b = plain.integers(2), int(routed.random(None, np.float32) * 2.0)
                elif kind == 2:
                    a, b = plain.random(), routed.random()
                else:
                    a, b = plain.standard_normal(d), routed.standard_normal(d)
                assert np.array_equal(a, b)
            state = plain.bit_generator.state
            assert state == routed.bit_generator.state
            buffered += state["has_uint32"]
        assert buffered > 0  # some runs end on a buffered half-word


_ATTACKS = st.one_of(
    st.just(NoAttack()),
    st.builds(
        InterceptResend,
        attack_probability=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
        ),
        basis_policy=st.sampled_from(["alwaysZ", "randomPerLeg"]),
        legs=st.sampled_from([(1,), (2,), (1, 2)]),
    ),
    st.builds(
        AnalyticAttack,
        curve_kind=st.sampled_from(["individual", "collective"]),
        disturbance=st.floats(0.0, 0.5),
    ),
)


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
        )
    return type(a) is type(b) and a == b


@pytest.mark.blas_pins
class TestAgainstScalarReference:
    @settings(deadline=None)
    @given(
        attack=_ATTACKS,
        target=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        keep_rounds=st.booleans(),
        abort_threshold=st.sampled_from([None, 0.05, 0.11, 0.5]),
        strict_abort=st.booleans(),
        source_name=st.sampled_from(sorted(_SOURCES)),
    )
    def test_session_equals_the_scalar_loop(
        self,
        attack,
        target,
        seed,
        keep_rounds,
        abort_threshold,
        strict_abort,
        source_name,
    ):
        source = _SOURCES[source_name]
        results = []
        for session_fn in (reference_session, run_session):
            try:
                results.append(
                    session_fn(
                        source,
                        target,
                        attack=attack,
                        abort_threshold=abort_threshold,
                        seed=seed,
                        strict_abort=strict_abort,
                        keep_rounds=keep_rounds,
                    )
                )
            except ProtocolError as err:  # too few check rounds in a tiny session
                results.append(str(err))
        expected, got = results
        if isinstance(expected, str):
            assert got == expected
            return
        for name in _SCALAR_FIELDS:
            assert _same_value(getattr(got, name), getattr(expected, name)), name
        for name in ("authorized_dataset", "eavesdropper_dataset"):
            got_set, expected_set = getattr(got, name), getattr(expected, name)
            assert _same_value(got_set.inputs, expected_set.inputs), name
            assert _same_value(got_set.labels, expected_set.labels), name
        if not keep_rounds:
            assert got.rounds is None
            return
        ref = reference_columns(expected.rounds, attack)
        for name in ("preparations", "outcomes", "attacked"):
            assert _same_value(getattr(got.rounds, name), getattr(ref, name)), name
        assert [pair is None for pair in got.rounds.legs] == [pair is None for pair in ref.legs]
        for leg, (pair, ref_pair) in enumerate(zip(got.rounds.legs, ref.legs), 1):
            for column, ref_column in zip(pair or (), ref_pair or ()):
                assert _same_value(column, ref_column), leg
