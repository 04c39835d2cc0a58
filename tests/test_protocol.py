"""Session mechanics: round accounting, datasets, estimates, transcripts."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlabelsec.protocol as protocol_module
from _oracles import reference_session, reference_transcript
from qlabelsec.adversary import AnalyticAttack, InterceptResend, NoAttack
from qlabelsec.errors import DomainError, ProtocolError
from qlabelsec.info_theory import eve_noise_from_disturbance
from qlabelsec.learn_harness import generate_task
from qlabelsec.protocol import (
    ConceptSource,
    estimate_eta_a,
    export_transcript,
    run_session,
)


def halfspace_source(dim: int = 2) -> ConceptSource:
    return ConceptSource(
        sampler=lambda rng: rng.standard_normal(dim),
        labeler=lambda x: int(x[0] >= 0.0),
    )


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
        for x, label in dataset:
            digest.update(f"{x.dtype.str}{x.shape}".encode())
            digest.update(x.tobytes())
            digest.update(f"{type(label).__name__}:{label};".encode())
    for name in _SCALAR_FIELDS:
        value = getattr(session, name)
        text = value.hex() if isinstance(value, float) else repr(value)
        digest.update(f"{name}={type(value).__name__}:{text};".encode())
    return digest.hexdigest()


class TestNoAttackSession:
    def test_labels_are_exact_and_estimate_is_zero(self):
        source = halfspace_source()
        session = run_session(source, 2_000, attack=NoAttack(), seed=10)
        assert session.eta_a_estimate == 0.0
        assert session.check_error_count == 0
        assert not session.aborted
        assert session.ensemble_fidelity == 1.0
        assert session.authorized_label_error_rate == 0.0
        for x, label in session.authorized_dataset:
            assert label == source.labeler(x)

    def test_dataset_sizes(self):
        session = run_session(halfspace_source(), 1_500, seed=11)
        assert len(session.authorized_dataset) == 1_500
        assert len(session.eavesdropper_dataset) == 1_500
        assert session.sizes_ordered

    def test_eve_guesses_are_uninformative(self):
        source = halfspace_source()
        session = run_session(source, 10_000, attack=NoAttack(), seed=12)
        n = len(session.eavesdropper_dataset)
        sigma = math.sqrt(0.25 / n)
        assert abs(session.eve_label_error_rate - 0.5) <= 4.0 * sigma

    def test_determinism_bit_for_bit(self):
        a = run_session(halfspace_source(), 500, attack=InterceptResend(), seed=77)
        b = run_session(halfspace_source(), 500, attack=InterceptResend(), seed=77)
        assert a.eta_a_estimate == b.eta_a_estimate
        assert a.check_count == b.check_count
        for (xa, la), (xb, lb) in zip(a.authorized_dataset, b.authorized_dataset):
            assert la == lb and np.array_equal(xa, xb)
        for (xa, la), (xb, lb) in zip(a.eavesdropper_dataset, b.eavesdropper_dataset):
            assert la == lb and np.array_equal(xa, xb)

    def test_different_seeds_differ(self):
        a = run_session(halfspace_source(), 500, seed=1)
        b = run_session(halfspace_source(), 500, seed=2)
        assert a.check_count != b.check_count or any(
            la != lb
            for (_, la), (_, lb) in zip(a.eavesdropper_dataset, b.eavesdropper_dataset)
        )


class TestRoundAccounting:
    def test_check_fraction_is_half(self):
        session = run_session(halfspace_source(), 10_000, seed=13)
        total = len(session.rounds)
        # checks follow a negative-binomial law around the data target
        assert total == session.check_count + 10_000
        sigma = math.sqrt(2.0 * 10_000)
        assert abs(session.check_count - 10_000) <= 4.0 * sigma

    def test_check_rounds_never_reach_either_dataset(self):
        session = run_session(halfspace_source(), 2_000, seed=14)
        data_rounds = [r for r in session.rounds if not r.is_check]
        check_rounds = [r for r in session.rounds if r.is_check]
        assert len(data_rounds) == len(session.authorized_dataset)
        assert len(data_rounds) == len(session.eavesdropper_dataset)
        for rnd in check_rounds:
            assert rnd.input_x is None
            assert rnd.eve_label is None
        for rnd in data_rounds:
            assert rnd.input_x is not None

    def test_session_stops_exactly_at_target(self):
        session = run_session(halfspace_source(), 303, seed=15)
        assert len(session.authorized_dataset) == 303
        assert not session.rounds[-1].is_check  # last round delivered the last label

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
        source = ConceptSource(
            sampler=lambda rng: rng.standard_normal(2), labeler=lambda x: 2
        )
        with pytest.raises(DomainError, match="bit"):
            run_session(source, 10, seed=1)

    @pytest.mark.parametrize("value", [0.7, 1.9, -0.4])
    def test_rejects_fractional_labeler_output(self, value):
        # int() would floor these to a bit; the raw value is checked first
        source = ConceptSource(
            sampler=lambda rng: rng.standard_normal(2), labeler=lambda x: value
        )
        with pytest.raises(DomainError, match="bit"):
            run_session(source, 10, seed=1)

    @pytest.mark.parametrize("one", [True, 1.0, np.int64(1)], ids=repr)
    def test_accepts_bits_of_any_numeric_type(self, one):
        def source(bit):
            return ConceptSource(
                sampler=lambda rng: rng.standard_normal(2), labeler=lambda x: bit
            )

        plain, typed = source(1), source(one)
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
        assert session.authorized_dataset == []
        assert session.eavesdropper_dataset == []
        assert session.check_count > 0  # the evidence is retained

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
        sigma_a = math.sqrt(d * (1 - d) / session.check_count)
        assert abs(session.eta_a_estimate - d) <= 4.0 * sigma_a
        eta_e = eve_noise_from_disturbance("collective", d)
        n = len(session.eavesdropper_dataset)
        sigma_e = math.sqrt(eta_e * (1 - eta_e) / n)
        assert abs(session.eve_label_error_rate - eta_e) <= 4.0 * sigma_e

    def test_zero_disturbance_is_clean_for_the_authorized_party(self):
        attack = AnalyticAttack(curve_kind="collective", disturbance=0.0)
        session = run_session(halfspace_source(), 3_000, attack=attack, seed=20)
        assert session.eta_a_estimate == 0.0
        assert session.authorized_label_error_rate == 0.0
        sigma = math.sqrt(0.25 / 3_000)
        assert abs(session.eve_label_error_rate - 0.5) <= 4.0 * sigma


class TestInterceptResendSessions:
    def test_full_always_z_attack(self):
        session = run_session(
            halfspace_source(), 10_000, attack=InterceptResend(), seed=21
        )
        sigma = math.sqrt(0.25 / session.check_count)
        assert abs(session.eta_a_estimate - 0.5) <= 4.0 * sigma
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
            expected = f * 0.5
            sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / session.check_count)
            assert abs(session.eta_a_estimate - expected) <= 4.0 * sigma
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


class TestTranscriptExport:
    def test_round_trip_and_field_contract(self, tmp_path):
        session = run_session(
            halfspace_source(), 200, attack=InterceptResend(), seed=22
        )
        path = tmp_path / "transcript.jsonl"
        export_transcript(session, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(session.rounds)
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
                "81f287e9eabc6eddb7d9700a3997612064fc5bfb3c9e70e3513fc493ac4e388f",
            ),
            (
                InterceptResend(attack_probability=0.5, legs=(2,)),
                "7e10a4b0e85da2328a1818baa48310391a06974cb4f6d49b668de059f73464f9",
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
# taken before the session was split into a draw loop and a table pass.  A
# change that moves the random stream, an input byte, a label or a reported
# rate changes these digests; such a change updates them and says so in
# CHANGES.md.
_SESSION_DIGESTS = {
    "halfspace/none": "f36cb048f9c2c7059acd24437c78aea24153e2301bc8576c083fae44a79cfaf9",
    "halfspace/alwaysZ-f1": "ed8dc947b0e1c5b78026bdfa3a0bb1a10ac7895f2d21f6621cf4dcd900c0322c",
    "halfspace/randomPerLeg-f0.5": "3ab490bae9b8980f4c0ad22ee130eabba5798fb08a8277c2cbbaf82d228daa4b",
    "halfspace/alwaysZ-leg1": "d5af43cb5702e366cfb1487e41d8936cfdc03644acec68d349769b991737faf9",
    "halfspace/randomPerLeg-leg2-f0.7": "a41b741950309cebab9984c1aab8da30d5cc8e9041920e8fcb44436de1c4ef11",
    "halfspace/collective-0.05": "4efbada18b6d5d964c419404540266d2c84838b2d172f9b4de2e5bd5bc01de30",
    "halfspace/individual-0.08": "db9462f65b66e7ca0888bea5a39f42cbbec4fac84b582fd869d4f77753b924d2",
    "task/none": "4cb0420cf7a7c65ea1f9412cfa6694fc45fff63ee2ac85ddbac08b8ebc6d4809",
    "task/alwaysZ-f1": "411ff03655ad17a4521d2ece47cbfd325b48b60d74543fbda3c4a5bb880a9648",
    "task/randomPerLeg-f0.5": "65f2a689ce72137a2f5b0ddf5e4a5454880be912d18adc7bd6b93d7b695a08fe",
    "task/alwaysZ-leg1": "7d5121fff425ed0555d229c6b51ffcd9519e922f8617edfa30bbd32b7b79c893",
    "task/randomPerLeg-leg2-f0.7": "de00bfa63854e44e837be9b536b927cf8fd7781663684630fd0f6230d6a6c200",
    "task/collective-0.05": "80239a10e3778c1364d5b0d6a5e50bfa6b79922a97fc11f1d20aaefa2629888b",
    "task/individual-0.08": "b91146eb40ba15ec33aaa5f593be556ca863ee625b73ce94d5e7e4e61b8f63bd",
}


class TestSessionViews:
    def session(self, **kwargs):
        attack = InterceptResend(attack_probability=0.5, basis_policy="randomPerLeg")
        return run_session(halfspace_source(), 300, attack=attack, seed=31, **kwargs)

    def test_labels_are_python_ints(self):
        session = self.session()
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            assert all(type(label) is int for _, label in dataset)
            assert type(dataset[0][1]) is int and type(dataset[-1][1]) is int

    def test_dataset_rows_are_read_only(self):
        session = self.session()
        x, _ = session.authorized_dataset[0]
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            x, _ = next(iter(dataset))
            with pytest.raises(ValueError, match="read-only"):
                x[:] = 0.0

    def test_dataset_indexing_matches_iteration(self):
        dataset = self.session().eavesdropper_dataset
        pairs = list(dataset)
        assert len(pairs) == len(dataset) == 300
        for i in (0, 1, 299, -1, -300):
            x, label = dataset[i]
            assert np.array_equal(x, pairs[i][0]) and label == pairs[i][1]
        assert [label for _, label in dataset[10:20]] == [p[1] for p in pairs[10:20]]
        for i in (300, -301):
            with pytest.raises(IndexError):
                dataset[i]

    def test_rounds_index_from_either_end(self):
        rounds = self.session().rounds
        n = len(rounds)
        assert n == sum(1 for _ in rounds)
        assert rounds[-1].round_id == n - 1 and not rounds[-1].is_check
        assert rounds[-n].round_id == 0
        assert [r.round_id for r in rounds[-5:]] == list(range(n - 5, n))
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rounds[i]

    def test_random_access_equals_iteration(self):
        session = self.session()
        rounds = session.rounds
        by_iteration = list(rounds)
        for i in (len(rounds) - 1, 0, len(rounds) // 2, 1, -2):
            got, ref = rounds[i], by_iteration[i]
            for name in ref.__dataclass_fields__:
                assert _same_value(getattr(got, name), getattr(ref, name)), name
        data_rounds = [r for r in by_iteration if not r.is_check]
        for rnd, (x, label) in zip(data_rounds, session.eavesdropper_dataset):
            assert rnd.input_x is not None and np.array_equal(rnd.input_x, x)
            assert rnd.eve_label == label

    def test_strictly_aborted_datasets_are_empty_views(self):
        session = run_session(
            halfspace_source(),
            500,
            attack=InterceptResend(),
            abort_threshold=0.11,
            seed=17,
            strict_abort=True,
        )
        for dataset in (session.authorized_dataset, session.eavesdropper_dataset):
            assert dataset == [] and len(dataset) == 0 and list(dataset) == []
            with pytest.raises(IndexError):
                dataset[0]
        assert len(session.rounds) == session.check_count + 500


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
            assert len(got_set) == len(expected_set)
            for (x, label), (x_ref, label_ref) in zip(got_set, expected_set):
                assert _same_value(x, x_ref) and _same_value(label, label_ref)
        assert len(got.rounds) == len(expected.rounds)
        for rnd, ref in zip(got.rounds, expected.rounds):
            for name in ref.__dataclass_fields__:
                assert _same_value(getattr(rnd, name), getattr(ref, name)), name
