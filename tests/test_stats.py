"""Binomial proportions: the 95% Wilson interval, the sigma-pull and the exact tails."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import binomial_pmfs_hp, binomial_tails_hp, wilson_bounds_by_rootfinding
from qlabelsec import stats
from qlabelsec.errors import DomainError
from qlabelsec.stats import binomial_pull, binomial_tails, wilson_interval


def test_public_names():
    assert stats.__all__ == ["wilson_interval", "binomial_pull", "binomial_tails"]


class TestWilsonInterval:
    @pytest.mark.parametrize("k,t", [(0, 10), (10, 10), (5, 10), (97, 150), (1, 1000)])
    def test_matches_rootfinding_oracle(self, k, t):
        low, high = wilson_interval(k, t)
        ref_low, ref_high = wilson_bounds_by_rootfinding(k, t)
        assert low == pytest.approx(ref_low, abs=1e-12)
        assert high == pytest.approx(ref_high, abs=1e-12)

    @given(st.integers(min_value=1, max_value=2000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interval_brackets_the_estimate(self, t, data):
        k = data.draw(st.integers(min_value=0, max_value=t))
        low, high = wilson_interval(k, t)
        assert 0.0 <= low <= k / t <= high <= 1.0

    @pytest.mark.parametrize(
        "k,t",
        [(-1, 10), (11, 10), (0, 0), (2.5, 10), (2.0, 10), (True, 10), (1, 10.0), (1, True)],
        ids=repr,
    )
    def test_rejects_bad_counts(self, k, t):
        with pytest.raises(DomainError):
            wilson_interval(k, t)

    def test_confidence_is_fixed_at_95_percent(self):
        # no z to set: a negative or NaN z gave low > high or (0, 1)
        with pytest.raises(TypeError):
            wilson_interval(5, 10, z=-1.0)


class TestBinomialPull:
    @pytest.mark.parametrize(
        "observed,n,p,pull",
        [(0.52, 10_000, 0.5, 4.0), (0.0, 3, 0.25, 1.0), (0.1, 1, 0.9, 8 / 3), (0.75, 100, 0.5, 5.0)],
    )
    def test_is_the_rate_distance_in_standard_errors(self, observed, n, p, pull):
        assert binomial_pull(observed, n, p) == pytest.approx(pull, rel=1e-14)

    def test_is_symmetric_about_the_law(self):
        assert binomial_pull(0.25, 100, 0.5) == binomial_pull(0.75, 100, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_a_certain_rate_must_be_exact(self, p):
        assert binomial_pull(p, 10, p) == 0.0
        assert binomial_pull(math.nextafter(p, 0.5), 10**9, p) == math.inf
        assert binomial_pull(0.5, 10, p) == math.inf

    @pytest.mark.parametrize("n", [0, -1, 2.0, 1.5, True, None], ids=repr)
    def test_rejects_a_trial_count_that_is_not_a_positive_int(self, n):
        with pytest.raises(DomainError):
            binomial_pull(0.5, n, 0.5)

    @pytest.mark.parametrize("rate", [-1e-9, 1.0 + 1e-9, math.nan, math.inf], ids=repr)
    def test_rejects_a_rate_outside_the_unit_interval(self, rate):
        with pytest.raises(DomainError, match="observed rate"):
            binomial_pull(rate, 10, 0.5)
        with pytest.raises(DomainError, match="p rate"):
            binomial_pull(0.5, 10, rate)


class TestBinomialTails:
    @pytest.mark.parametrize(
        "k,n,p",
        [
            (0, 1, 0.2), (1, 1, 0.2), (3, 10, 0.3), (7, 25, 0.5), (25, 25, 0.5),
            (986, 1000, 1 - 0.8**25), (988, 1000, 1 - 0.8**25), (1000, 1000, 1 - 0.8**25),
            (150, 1000, 0.2), (250, 1000, 0.2), (0, 1000, 1e-6), (2, 1000, 1e-6),
            (1200, 2500, 0.5), (1250, 2500, 0.5), (2600, 5000, 0.5), (1, 60, 0.999),
        ],
    )
    def test_match_the_50_digit_pmf_sums(self, k, n, p):
        for tail, exact in zip(binomial_tails(k, n, p), binomial_tails_hp(k, n, p)):
            assert tail == pytest.approx(float(exact), rel=1e-9)

    @given(st.integers(min_value=1, max_value=300), st.floats(0.001, 0.999), st.data())
    @settings(max_examples=60, deadline=None)
    def test_overlap_in_the_pmf_at_k(self, n, p, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        lower, upper = binomial_tails(k, n, p)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        assert lower + upper == pytest.approx(1.0 + float(binomial_pmfs_hp(n, p)[k]), abs=1e-12)

    def test_a_certain_rate_must_be_met_exactly(self):
        assert binomial_tails(0, 10, 0.0) == (1.0, 1.0)
        assert binomial_tails(1, 10, 0.0) == (1.0, 0.0)
        assert binomial_tails(10, 10, 1.0) == (1.0, 1.0)
        assert binomial_tails(9, 10, 1.0) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "k,n,p", [(-1, 10, 0.5), (11, 10, 0.5), (1, 0, 0.5), (1.0, 10, 0.5), (1, 10, 1.5)]
    )
    def test_rejects_a_count_outside_the_trials_or_a_bad_rate(self, k, n, p):
        with pytest.raises(DomainError):
            binomial_tails(k, n, p)
