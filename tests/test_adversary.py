"""Interception mechanics, Eve's inference rule, and trade-off curves."""

import numpy as np
import pytest

import _oracles as oracles
from _oracles import EveRoundRecord, LegRecord
from qlabelsec.adversary import (
    AnalyticAttack,
    BasisPolicy,
    InterceptResend,
    NoAttack,
    tradeoff_point,
)
from qlabelsec.errors import DomainError
from qlabelsec.info_theory import eta_star, eve_noise_from_disturbance
from qlabelsec.protocol import ConceptSource, run_session
from qlabelsec.qubit import Basis, Preparation
from qlabelsec.stats import binomial_pull


def simple_source() -> ConceptSource:
    def rows(seed, count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        xs = rng.standard_normal((count, 2))
        return xs, xs[:, 0] >= 0.0

    return ConceptSource(rows=rows)


class TestStrategyValidation:
    def test_intercept_resend_defaults(self):
        strategy = InterceptResend()
        assert strategy.attack_probability == 1.0
        assert strategy.basis_policy is BasisPolicy.ALWAYS_Z
        assert strategy.legs == (1, 2)

    def test_accepts_policy_by_string(self):
        strategy = InterceptResend(basis_policy="randomPerLeg")
        assert strategy.basis_policy is BasisPolicy.RANDOM_PER_LEG

    @pytest.mark.parametrize("f", [-0.1, 1.1])
    def test_rejects_bad_attack_probability(self, f):
        with pytest.raises(DomainError):
            InterceptResend(attack_probability=f)

    def test_rejects_bad_policy_and_legs(self):
        with pytest.raises(ValueError):
            InterceptResend(basis_policy="alwaysY")
        with pytest.raises(DomainError):
            InterceptResend(legs=())
        with pytest.raises(DomainError):
            InterceptResend(legs=(3,))

    def test_analytic_attack_validation(self):
        AnalyticAttack(curve_kind="collective", disturbance=0.05)
        with pytest.raises(DomainError):
            AnalyticAttack(curve_kind="memoryless", disturbance=0.05)
        with pytest.raises(DomainError):
            AnalyticAttack(curve_kind="collective", disturbance=0.6)


class TestIntercept:
    def test_collapses_hadamard_state_to_computational(self):
        rng = np.random.default_rng(5)
        state, record = oracles.intercept(Preparation.XPLUS, 1, InterceptResend(), rng)
        assert record is not None
        assert record.basis is Basis.Z
        assert record.leg == 1
        # the resent state is the computational eigenstate of the outcome
        assert state is (Preparation.Z0, Preparation.Z1)[record.outcome]

    def test_computational_state_passes_undisturbed_but_recorded(self):
        rng = np.random.default_rng(6)
        state, record = oracles.intercept(Preparation.Z0, 2, InterceptResend(), rng)
        assert state is Preparation.Z0
        assert record == LegRecord(leg=2, basis=Basis.Z, outcome=0)

    def test_draws_no_attack_coin(self):
        # the session gates whole rounds; intercept draws the policy basis
        # (randomPerLeg only) and one measurement variate, nothing else
        for policy, draws in (("alwaysZ", 1), ("randomPerLeg", 2)):
            strategy = InterceptResend(attack_probability=0.0, basis_policy=policy)
            rng, replay = np.random.default_rng(7), np.random.default_rng(7)
            _, record = oracles.intercept(Preparation.XMINUS, 1, strategy, rng)
            assert record is not None
            replay.random(draws)
            assert rng.random() == replay.random()

    def test_zero_probability_never_touches(self):
        strategy = InterceptResend(attack_probability=0.0, basis_policy="randomPerLeg")
        session = run_session(simple_source(), 500, attack=strategy, seed=7)
        assert session.check_error_count == 0
        assert session.authorized_label_error_rate == 0.0
        assert not session.rounds.attacked.any()
        for basis, outcome in session.rounds.legs.values():
            assert len(basis) == len(outcome) == 0

    def test_unconfigured_leg_passes(self):
        rng = np.random.default_rng(8)
        state, record = oracles.intercept(
            Preparation.XPLUS, 2, InterceptResend(legs=(1,)), rng
        )
        assert state is Preparation.XPLUS
        assert record is None
        session = run_session(
            simple_source(), 500, attack=InterceptResend(legs=(1,)), seed=8
        )
        assert session.rounds.attacked.all()
        assert list(session.rounds.legs) == [1]
        basis, outcome = session.rounds.legs[1]
        assert len(basis) == len(outcome) == len(session.rounds.attacked)

    def test_rejects_bad_leg_and_strategy(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DomainError):
            oracles.intercept(Preparation.Z0, 3, InterceptResend(), rng)
        with pytest.raises(DomainError):
            oracles.intercept(Preparation.Z0, 1, NoAttack(), rng)


class TestInferLabel:
    def test_two_z_outcomes_xor_to_the_label(self):
        rng = np.random.default_rng(0)
        for o1 in (0, 1):
            for o2 in (0, 1):
                record = EveRoundRecord(
                    leg1=LegRecord(1, Basis.Z, o1), leg2=LegRecord(2, Basis.Z, o2)
                )
                assert oracles.infer_label(record, rng) == o1 ^ o2

    @pytest.mark.parametrize(
        "record",
        [
            None,
            EveRoundRecord(leg1=LegRecord(1, Basis.Z, 0), leg2=None),
            EveRoundRecord(leg1=None, leg2=LegRecord(2, Basis.Z, 1)),
            EveRoundRecord(
                leg1=LegRecord(1, Basis.X, 0), leg2=LegRecord(2, Basis.Z, 1)
            ),
            EveRoundRecord(
                leg1=LegRecord(1, Basis.Z, 0), leg2=LegRecord(2, Basis.X, 1)
            ),
        ],
    )
    def test_anything_less_is_a_uniform_guess(self, record):
        rng = np.random.default_rng(42)
        n = 10_000
        ones = sum(oracles.infer_label(record, rng) for _ in range(n))
        assert binomial_pull(ones / n, n, 0.5) <= 4.0


class TestTradeoffCurves:
    def test_always_z_endpoints_and_crossing(self):
        assert tradeoff_point(InterceptResend(attack_probability=1.0)) == (0.5, 0.0)
        assert tradeoff_point(InterceptResend(attack_probability=0.0)) == (0.0, 0.5)
        assert tradeoff_point(InterceptResend(attack_probability=0.5)) == (0.25, 0.25)

    def test_random_per_leg_full_attack(self):
        eta_a, eta_e = tradeoff_point(
            InterceptResend(basis_policy="randomPerLeg", attack_probability=1.0)
        )
        assert eta_a == pytest.approx(0.375, abs=1e-15)
        assert eta_e == pytest.approx(0.375, abs=1e-15)

    def test_single_leg_attacks_reveal_nothing(self):
        for legs in ((1,), (2,)):
            _, eta_e = tradeoff_point(
                InterceptResend(attack_probability=1.0, legs=legs)
            )
            assert eta_e == 0.5

    @pytest.mark.parametrize("policy", ["alwaysZ", "randomPerLeg"])
    @pytest.mark.parametrize("legs", [(1, 2), (1,), (2,)])
    def test_matches_exact_branch_enumeration(self, policy, legs):
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            strategy = InterceptResend(
                attack_probability=f, basis_policy=policy, legs=legs
            )
            eta_a, eta_e = tradeoff_point(strategy)
            assert eta_a == pytest.approx(
                oracles.check_round_error_exact(policy, f, legs), abs=1e-12
            )
            assert eta_e == pytest.approx(
                oracles.eve_data_error_exact(policy, f, legs), abs=1e-12
            )

    @pytest.mark.parametrize("f", [0.3, 1.0])
    @pytest.mark.parametrize("legs", [(1, 2), (1,), (2,)])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_branch_enumeration_at_any_z_probability(self, q, legs, f):
        # q is Eve's per-leg chance of measuring in Z.  Checks are X states the
        # oracle leaves in place, so an X measurement never disturbs one, while
        # it turns a Z data label into a coin flip.
        if legs == (1, 2):
            check, data, eve = f * q * (2 - q) / 2, f * (1 - q * q) / 2, (1 - f * q * q) / 2
        else:
            check, data, eve = f * q / 2, f * (1 - q) / 2, 0.5
        assert oracles.check_round_error_exact(q, f, legs) == pytest.approx(check, abs=1e-12)
        assert oracles.authorized_data_error_exact(q, f, legs) == pytest.approx(data, abs=1e-12)
        assert oracles.eve_data_error_exact(q, f, legs) == pytest.approx(eve, abs=1e-12)

    def test_curve_sweeps_the_attack_probability(self):
        curve = [
            tradeoff_point(InterceptResend(attack_probability=f)) for f in [0.0, 0.5, 1.0]
        ]
        assert curve == [(0.0, 0.5), (0.25, 0.25), (0.5, 0.0)]

    def test_analytic_curves_pass_through_their_threshold(self):
        for kind in ("collective", "individual"):
            threshold = eta_star(kind)
            eta_a, eta_e = tradeoff_point(
                AnalyticAttack(curve_kind=kind, disturbance=threshold)
            )
            assert eta_a == pytest.approx(threshold, abs=1e-12)
            assert eta_e == pytest.approx(threshold, abs=1e-4)

    def test_analytic_curve_values_come_from_the_information_curve(self):
        curve = [
            tradeoff_point(AnalyticAttack(curve_kind="collective", disturbance=d))
            for d in [0.0, 0.05, 0.2]
        ]
        for (eta_a, eta_e), d in zip(curve, [0.0, 0.05, 0.2]):
            assert eta_a == d
            assert eta_e == pytest.approx(
                eve_noise_from_disturbance("collective", d), abs=1e-12
            )

    def test_passive_strategy_has_no_curve(self):
        with pytest.raises(DomainError):
            tradeoff_point(NoAttack())


class TestDoubleCnotOracle:
    """The coherent two-leg attack, which no strategy in the package models.

    Both check and data rounds come back undisturbed while Eve's ancilla
    holds the label, so the attack sits at (eta_a, eta_e) = (0, 0): outside
    the per-leg and analytic classes that the exclusivity verdict covers.
    """

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("state", list(Preparation))
    def test_every_round_is_undisturbed_and_read(self, state, label):
        # no check error, and a data round delivers the true label
        qubit_bit = state.bit if state.is_check else state.bit ^ label
        branches = list(oracles.double_cnot_branches(state.value, label))
        assert branches == [(1.0, qubit_bit, label)]


class TestSimulationAgreesWithTheory:
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_always_z_statistics_within_four_sigma(self, f):
        strategy = InterceptResend(attack_probability=f)
        session = run_session(simple_source(), 10_000, attack=strategy, seed=314)
        eta_a_exp, eta_e_exp = tradeoff_point(strategy)
        # at f = 0 and f = 1 the rate whose law is 0 must be exactly 0
        n_check = session.check_count
        assert binomial_pull(session.eta_a_estimate, n_check, eta_a_exp) <= 4.0
        n_data = len(session.eavesdropper_dataset)
        assert binomial_pull(session.eve_label_error_rate, n_data, eta_e_exp) <= 4.0

    def test_random_per_leg_statistics_within_four_sigma(self):
        strategy = InterceptResend(basis_policy="randomPerLeg")
        session = run_session(simple_source(), 10_000, attack=strategy, seed=2718)
        for observed, expected, n in (
            (session.eta_a_estimate, 0.375, session.check_count),
            (session.eve_label_error_rate, 0.375, len(session.eavesdropper_dataset)),
            (
                session.authorized_label_error_rate,
                oracles.authorized_data_error_exact("randomPerLeg", 1.0),
                len(session.authorized_dataset),
            ),
        ):
            assert binomial_pull(observed, n, expected) <= 4.0

    @pytest.mark.parametrize("f", [0.5, 1.0])
    @pytest.mark.parametrize("legs", [(1, 2), (1,), (2,)])
    @pytest.mark.parametrize("policy", ["alwaysZ", "randomPerLeg"])
    def test_authorized_data_errors_match_branch_enumeration(self, policy, legs, f):
        # pooled over two fixed seeds; an exact 0 must be met exactly
        strategy = InterceptResend(attack_probability=f, basis_policy=policy, legs=legs)
        flipped = delivered = 0
        for seed in (808, 809):
            session = run_session(simple_source(), 3_000, attack=strategy, seed=seed)
            n = len(session.authorized_dataset)
            flipped += round(session.authorized_label_error_rate * n)
            delivered += n
        exact = oracles.authorized_data_error_exact(policy, f, legs)
        assert binomial_pull(flipped / delivered, delivered, exact) <= 4.0

    def test_no_strategy_raises_ensemble_fidelity_above_no_attack(self):
        baseline = run_session(simple_source(), 4_000, attack=NoAttack(), seed=55)
        assert baseline.ensemble_fidelity == 1.0
        for strategy in (
            InterceptResend(),
            InterceptResend(basis_policy="randomPerLeg"),
            InterceptResend(attack_probability=0.3),
            AnalyticAttack(curve_kind="collective", disturbance=0.08),
        ):
            session = run_session(simple_source(), 4_000, attack=strategy, seed=55)
            assert session.ensemble_fidelity <= baseline.ensemble_fidelity + 1e-12
