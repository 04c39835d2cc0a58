"""Bound algebra: sample sizes, confidence floors, the random-search law."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from qlabelsec.errors import DomainError
from qlabelsec.pac_bounds import (
    DeltaFloor,
    _noiseless_raw,
    _noisy_raw,
    delta_floor,
    equalizing_epsilon,
    exclusivity_verdict,
    gamma,
    pac_condition_met,
    random_search_curve,
    sample_bound_noiseless,
    sample_bound_noisy,
)

LOG_H_20_BITS = 20 * math.log(2.0)

# Frozen from tests/_oracles.py at 50 significant digits.
NOISELESS_RAW_REF = 168.58675884752898
NOISY_RAW_REF = 5484.944707910263
GAMMA_REF = 0.00043218
DELTA_FLOOR_REF = 0.01327596528495704
RS_CURVE_REF = 0.6513215599


class TestSampleBounds:
    def test_noiseless_spot_value(self):
        assert sample_bound_noiseless(0.1, 0.05, LOG_H_20_BITS) == 169

    def test_noisy_spot_value(self):
        assert sample_bound_noisy(0.1, 0.05, LOG_H_20_BITS, 0.1) == 5485

    def test_raw_values_match_high_precision_oracle(self):
        raw = _noiseless_raw(0.1, 0.05, LOG_H_20_BITS)
        assert raw == pytest.approx(NOISELESS_RAW_REF, rel=1e-12)
        assert raw == pytest.approx(
            float(oracles.bound_noiseless_raw("0.1", "0.05", 20 * oracles.LN2)),
            rel=1e-12,
        )
        raw = _noisy_raw(0.1, 0.05, LOG_H_20_BITS, 0.1)
        assert raw == pytest.approx(NOISY_RAW_REF, rel=1e-12)
        assert raw == pytest.approx(
            float(oracles.bound_noisy_raw("0.1", "0.05", 20 * oracles.LN2, "0.1")),
            rel=1e-12,
        )

    def test_exact_integer_boundary_is_kept(self):
        # log H - ln(delta) = 3.5 and epsilon = 0.5 give exactly 7 samples;
        # float round-trip noise must not bump this to 8.
        delta = math.exp(2.0 - 3.5)
        assert sample_bound_noiseless(0.5, delta, 2.0) == 7

    def test_noisy_dominates_noiseless_at_zero_noise(self):
        for eps in (0.01, 0.05, 0.2, 0.5, 0.9):
            for delta in (0.01, 0.25, 0.6):
                for log_h in (0.7, 5.0, 40.0):
                    assert sample_bound_noisy(eps, delta, log_h, 0.0) >= (
                        sample_bound_noiseless(eps, delta, log_h)
                    )

    @given(
        eps=st.floats(0.001, 0.999),
        delta=st.floats(0.001, 0.999),
        log_h=st.floats(0.01, 200.0),
        eta_lo=st.floats(0.0, 0.49),
        eta_hi=st.floats(0.0, 0.49),
    )
    def test_noisy_bound_monotone_in_eta(self, eps, delta, log_h, eta_lo, eta_hi):
        lo, hi = sorted((eta_lo, eta_hi))
        assert sample_bound_noisy(eps, delta, log_h, lo) <= sample_bound_noisy(
            eps, delta, log_h, hi
        )

    def test_monotone_in_epsilon_and_delta_and_size(self):
        base = sample_bound_noiseless(0.1, 0.05, 20.0)
        assert sample_bound_noiseless(0.05, 0.05, 20.0) > base
        assert sample_bound_noiseless(0.1, 0.01, 20.0) > base
        assert sample_bound_noiseless(0.1, 0.05, 40.0) > base

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 1.7])
    def test_rejects_epsilon_outside_open_unit_interval(self, eps):
        with pytest.raises(DomainError):
            sample_bound_noiseless(eps, 0.05, 1.0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, 2.0])
    def test_rejects_delta_outside_open_unit_interval(self, delta):
        with pytest.raises(DomainError):
            sample_bound_noiseless(0.1, delta, 1.0)

    @pytest.mark.parametrize("log_h", [0.0, -3.0])
    def test_rejects_nonpositive_log_class_size(self, log_h):
        with pytest.raises(DomainError):
            sample_bound_noiseless(0.1, 0.05, log_h)

    @pytest.mark.parametrize("eta", [0.5, 0.7, -0.01])
    def test_rejects_noise_at_or_above_one_half(self, eta):
        with pytest.raises(DomainError):
            sample_bound_noisy(0.1, 0.05, 1.0, eta)

    @pytest.mark.parametrize("log_h", [math.inf, math.nan])
    def test_rejects_non_finite_log_class_size(self, log_h):
        for bound in (sample_bound_noiseless, lambda *a: sample_bound_noisy(*a, 0.1)):
            with pytest.raises(DomainError, match="positive and finite"):
                bound(0.03, 0.2, log_h)

    @pytest.mark.parametrize("eps,log_h", [(0.03, 1e308), (1e-320, 10.0)])
    def test_a_bound_past_the_float_range_raises(self, eps, log_h):
        # once an OverflowError from round(inf)
        for bound in (sample_bound_noiseless, lambda *a: sample_bound_noisy(*a, 0.1)):
            with pytest.raises(DomainError, match="not a finite number"):
                bound(eps, 0.2, log_h)

    def test_an_underflowing_noisy_scale_raises(self):
        # epsilon**2 underflows to 0.0, once a ZeroDivisionError; the
        # noiseless bound, linear in 1/epsilon, is still a float
        assert sample_bound_noiseless(1e-200, 0.2, 10.0) > 10**200
        with pytest.raises(DomainError, match="not a finite number"):
            sample_bound_noisy(1e-200, 0.2, 10.0, 0.1)


class TestConfidenceFloor:
    def test_gamma_spot_values(self):
        assert gamma(0.03, 0.01) == pytest.approx(GAMMA_REF, rel=1e-12)
        assert gamma(0.03, 0.0) == pytest.approx(4.5e-4, rel=1e-12)
        # at eta = 1/4 the squared factor is 1/4, so gamma = eps^2 / 8
        assert gamma(0.2, 0.25) == pytest.approx(0.2**2 / 8.0, rel=1e-12)

    def test_floor_spot_value_matches_oracle(self):
        floor = delta_floor(0.03, 0.01, 10_000)
        assert floor.delta_star == pytest.approx(DELTA_FLOOR_REF, rel=1e-12)
        assert floor.delta_star == pytest.approx(
            float(oracles.delta_floor_hp("0.03", "0.01", 10_000)), rel=1e-12
        )

    def test_zero_samples_floor_is_one(self):
        assert delta_floor(0.1, 0.0, 0).delta_star == 1.0

    def test_log_space_survives_huge_sample_counts(self):
        floor = delta_floor(0.03, 0.0, 10**9)
        assert floor.log_delta_star == pytest.approx(-4.5e-4 * 1e9, rel=1e-12)
        assert math.isfinite(floor.log_delta_star)
        assert floor.delta_star == 0.0  # linear value underflows, by design

    @given(
        eps=st.floats(0.001, 0.999),
        eta=st.floats(0.0, 0.49),
        n1=st.integers(0, 10_000),
        n2=st.integers(0, 10_000),
    )
    def test_floor_is_multiplicative_in_sample_count(self, eps, eta, n1, n2):
        combined = delta_floor(eps, eta, n1 + n2).delta_star
        split = delta_floor(eps, eta, n1).delta_star * delta_floor(eps, eta, n2).delta_star
        assert combined == pytest.approx(split, rel=1e-12)

    def test_floor_monotone_in_all_arguments(self):
        # more samples, more accuracy demanded, or less noise => lower floor
        assert delta_floor(0.1, 0.1, 2000) < delta_floor(0.1, 0.1, 1000)
        assert delta_floor(0.2, 0.1, 1000) < delta_floor(0.1, 0.1, 1000)
        assert delta_floor(0.1, 0.05, 1000) < delta_floor(0.1, 0.1, 1000)

    def test_floor_ordering_uses_log_values(self):
        tiny = delta_floor(0.5, 0.0, 10**7)
        tinier = delta_floor(0.5, 0.0, 2 * 10**7)
        assert tiny.delta_star == tinier.delta_star == 0.0
        assert tinier < tiny  # still ordered via log space

    @pytest.mark.parametrize("n", [-1, True, 5.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda n: delta_floor(0.1, 0.0, n), id="delta_floor"),
            pytest.param(lambda n: random_search_curve(0.1, n), id="curve"),
            pytest.param(lambda n: exclusivity_verdict(0.03, 0.01, n, 0.2, 0, 0.11), id="n_a"),
            pytest.param(
                lambda n: exclusivity_verdict(0.03, 0.01, 10_000, 0.2, n, 0.11), id="n_e"
            ),
            pytest.param(lambda n: equalizing_epsilon(0.03, 0.01, n, 0.2, 1), id="eq n_a"),
            pytest.param(lambda n: equalizing_epsilon(0.03, 0.01, 10_000, 0.2, n), id="eq n_e"),
        ],
    )
    def test_rejects_negative_sample_count(self, call, n):
        # bools and floats, integral ones included, are not sample counts
        with pytest.raises(DomainError):
            call(n)


class TestRandomSearchLaw:
    def test_spot_value(self):
        assert random_search_curve(0.1, 10) == pytest.approx(RS_CURVE_REF, rel=1e-12)

    def test_matches_brute_force_sum_up_to_64_draws(self):
        for p in (0.01, 0.1, 0.35, 0.5, 0.77, 0.99):
            for n in range(0, 65):
                brute = float(oracles.random_search_brute(repr(p), n))
                assert random_search_curve(p, n) == pytest.approx(
                    brute, rel=1e-12, abs=1e-15
                )

    def test_edge_cases(self):
        assert random_search_curve(0.0, 100) == 0.0
        assert random_search_curve(1.0, 1) == 1.0
        assert random_search_curve(0.5, 0) == 0.0

    @given(p=st.floats(0.0, 1.0), n=st.integers(0, 1000))
    def test_curve_lies_in_unit_interval(self, p, n):
        value = random_search_curve(p, n)
        assert 0.0 <= value <= 1.0

    def test_monotone_in_draws_and_success_probability(self):
        values = [random_search_curve(0.2, n) for n in range(50)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        values = [random_search_curve(p, 13) for p in (0.0, 0.1, 0.2, 0.5, 0.9, 1.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            random_search_curve(-0.1, 5)
        with pytest.raises(DomainError):
            random_search_curve(1.1, 5)


class TestPacCondition:
    def test_threshold_semantics(self):
        assert pac_condition_met(0.96, 0.05)
        assert not pac_condition_met(0.94, 0.05)
        assert pac_condition_met(0.95, 0.05)  # boundary counts as met

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(DomainError):
            pac_condition_met(1.2, 0.05)


class TestExclusivityVerdict:
    def test_spot_verdict_is_ensured(self):
        verdict = exclusivity_verdict(0.03, 0.01, 10_000, 0.196, 10_000, 0.11)
        assert verdict.ensured
        assert verdict.floor_authorized.delta_star == pytest.approx(
            DELTA_FLOOR_REF, rel=1e-12
        )
        assert verdict.floor_authorized < verdict.floor_eavesdropper

    def test_equal_parties_are_not_separated(self):
        verdict = exclusivity_verdict(0.03, 0.05, 5_000, 0.05, 5_000, 0.11)
        assert not verdict.ensured
        assert "do not separate" in verdict.explanation

    def test_noise_above_threshold_gives_no_guarantee(self):
        verdict = exclusivity_verdict(0.03, 0.2, 10_000, 0.3, 10_000, 0.11)
        assert not verdict.ensured
        assert "threshold" in verdict.explanation

    def test_rejects_eavesdropper_with_more_examples(self):
        with pytest.raises(DomainError, match="size ordering"):
            exclusivity_verdict(0.03, 0.01, 1_000, 0.2, 1_001, 0.11)

    def test_floor_separation_on_ten_thousand_random_draws(self):
        # Whenever the eavesdropper is strictly noisier and holds no more
        # examples, its confidence floor must be strictly higher.
        import numpy as np

        rng = np.random.default_rng(20260814)
        for _ in range(10_000):
            eps = rng.uniform(1e-3, 0.999)
            eta_a = rng.uniform(0.0, 0.499)
            eta_e = rng.uniform(eta_a, 0.4999)
            if eta_e <= eta_a:
                continue
            n_a = int(rng.integers(1, 10**6))
            n_e = int(rng.integers(1, n_a + 1))
            fa = delta_floor(eps, eta_a, n_a)
            fe = delta_floor(eps, eta_e, n_e)
            assert fa.log_delta_star < fe.log_delta_star

    def test_verdict_invariant_under_common_rescaling(self):
        before = exclusivity_verdict(0.05, 0.02, 3_000, 0.21, 3_000, 0.11)
        after = exclusivity_verdict(0.05, 0.02, 30_000, 0.21, 30_000, 0.11)
        assert before.ensured == after.ensured

    def test_equalizing_epsilon_matches_floors(self):
        eps_e = equalizing_epsilon(0.03, 0.01, 10_000, 0.196, 8_000)
        assert eps_e > 0.03
        floor_a = delta_floor(0.03, 0.01, 10_000)
        floor_e = delta_floor(eps_e, 0.196, 8_000)
        assert floor_e.log_delta_star == pytest.approx(
            floor_a.log_delta_star, rel=1e-9
        )

    @settings(max_examples=200)
    @given(
        eps=st.floats(0.01, 0.9),
        eta_a=st.floats(0.0, 0.4),
        bump=st.floats(0.01, 0.09),
        n_a=st.integers(10, 10**6),
        frac=st.floats(0.1, 1.0),
    )
    def test_equalizing_epsilon_costs_accuracy(self, eps, eta_a, bump, n_a, frac):
        eta_e = eta_a + bump
        n_e = max(1, int(n_a * frac))
        assert equalizing_epsilon(eps, eta_a, n_a, eta_e, n_e) > eps
