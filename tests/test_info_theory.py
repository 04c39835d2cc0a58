"""Entropy algebra, attack-class information curves, and their thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from qlabelsec.errors import DomainError
from qlabelsec.info_theory import (
    binary_entropy,
    entropy_inverse,
    eta_star,
    eve_noise_from_disturbance,
    holevo_gap,
    info_curve,
    mutual_info_authorized,
    mutual_info_eve,
)

# Frozen from tests/_oracles.py at 50 significant digits.
H_011_REF = 0.499915958164528
H_005_REF = 0.2863969571159561
AUTH_005_REF = 0.7136030428840439
GAP_005_REF = 0.4272060857680877
ETA_STAR_COLLECTIVE_REF = 0.11002786443835955
ETA_STAR_INDIVIDUAL_REF = 0.14644660940672624
EVE_NOISE_005_REF = 0.19587601185827208
EVE_NOISE_003_REF = 0.2464532703081757
EVE_NOISE_001_REF = 0.334247072347599


def test_frozen_references_are_the_oracle_rounded_to_double():
    assert ETA_STAR_COLLECTIVE_REF == float(oracles.eta_star_collective_hp())
    assert ETA_STAR_INDIVIDUAL_REF == float(oracles.eta_star_individual_hp())
    eve_refs = {0.05: EVE_NOISE_005_REF, 0.03: EVE_NOISE_003_REF, 0.01: EVE_NOISE_001_REF}
    for eta_a, ref in eve_refs.items():
        assert ref == float(oracles.eve_noise_collective_hp(eta_a))


class TestBinaryEntropy:
    def test_spot_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(H_011_REF, rel=1e-12)
        assert binary_entropy(0.11) == pytest.approx(
            float(oracles.binary_entropy_hp("0.11")), rel=1e-12
        )

    def test_symmetry_on_dense_grid(self):
        for x in np.linspace(0.0, 1.0, 1001):
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-14

    def test_strictly_increasing_below_one_half(self):
        xs = np.linspace(0.0, 0.5, 501)
        values = [binary_entropy(x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(st.floats(0.0, 1.0))
    def test_range_is_unit_interval(self, x):
        assert 0.0 <= binary_entropy(x) <= 1.0

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.inf])
    def test_rejects_out_of_domain(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x)


class TestEntropyInverse:
    def test_endpoints(self):
        assert entropy_inverse(0.0) == 0.0
        assert entropy_inverse(1.0) == 0.5

    def test_round_trip_through_entropy(self):
        for y in np.linspace(0.0, 1.0, 201):
            assert binary_entropy(entropy_inverse(y)) == pytest.approx(y, abs=1e-9)
        for x in np.linspace(0.0, 0.5, 201):
            assert entropy_inverse(binary_entropy(x)) == pytest.approx(x, abs=1e-9)

    def test_matches_high_precision_oracle(self):
        assert entropy_inverse(0.7136030428840439) == pytest.approx(
            float(oracles.entropy_inverse_hp("0.7136030428840439")), abs=1e-12
        )

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            entropy_inverse(-0.01)
        with pytest.raises(DomainError):
            entropy_inverse(1.01)


class TestInformationRates:
    def test_authorized_rate_spot_value(self):
        assert mutual_info_authorized(0.05) == pytest.approx(AUTH_005_REF, rel=1e-12)

    def test_collective_rate_spot_value(self):
        assert mutual_info_eve("collective", 0.05) == pytest.approx(
            H_005_REF, rel=1e-12
        )

    def test_individual_rate_endpoints(self):
        assert mutual_info_eve("individual", 0.0) == pytest.approx(0.0, abs=1e-15)
        assert mutual_info_eve("individual", 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_rates_meet_at_one_half_for_collective(self):
        threshold = eta_star("collective")
        assert mutual_info_authorized(threshold) == pytest.approx(0.5, abs=1e-9)
        assert mutual_info_eve("collective", threshold) == pytest.approx(0.5, abs=1e-9)

    def test_memoryless_curve_is_not_available(self):
        with pytest.raises(DomainError, match="no closed form"):
            mutual_info_eve("memoryless", 0.1)

    def test_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(DomainError):
            mutual_info_eve("coherent", 0.1)
        with pytest.raises(DomainError):
            mutual_info_eve("collective", 0.6)


class TestHolevoGap:
    def test_spot_value(self):
        assert holevo_gap("collective", 0.05) == pytest.approx(GAP_005_REF, rel=1e-12)

    def test_vanishes_at_threshold(self):
        for kind in ("collective", "individual"):
            assert abs(holevo_gap(kind, eta_star(kind))) < 1e-8

    def test_strictly_decreasing_in_noise(self):
        for kind in ("collective", "individual"):
            etas = np.linspace(1e-6, 0.5 - 1e-6, 300)
            gaps = [holevo_gap(kind, e) for e in etas]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_positive_below_threshold_negative_above(self):
        for kind in ("collective", "individual"):
            threshold = eta_star(kind)
            assert holevo_gap(kind, threshold - 0.01) > 0.0
            assert holevo_gap(kind, threshold + 0.01) < 0.0


class TestThresholds:
    def test_collective_threshold(self):
        threshold = eta_star("collective")
        assert threshold == pytest.approx(ETA_STAR_COLLECTIVE_REF, abs=1e-9)
        assert abs(threshold - 0.110) < 5e-4

    def test_individual_threshold_closed_form(self):
        threshold = eta_star("individual")
        assert threshold == (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
        assert threshold == pytest.approx(ETA_STAR_INDIVIDUAL_REF, rel=1e-15)
        assert abs(threshold - 0.1464) < 5e-4

    def test_individual_threshold_agrees_with_root_finder(self):
        from qlabelsec.info_theory import _bisect_gap_root

        assert _bisect_gap_root("individual") == pytest.approx(
            eta_star("individual"), abs=1e-9
        )

    def test_memoryless_threshold_is_tabulated_constant(self):
        assert eta_star("memoryless") == 0.154

    def test_info_curve_records(self):
        collective = info_curve("collective")
        assert collective.method == "bisection"
        assert collective.residual < 1e-8
        individual = info_curve("individual")
        assert individual.method == "closed-form"
        assert individual.residual < 1e-8
        memoryless = info_curve("memoryless")
        assert memoryless.method == "tabulated"
        assert memoryless.residual is None
        assert memoryless.eta_star == 0.154


class TestEveNoiseFromDisturbance:
    def test_zero_disturbance_means_coin_flip_channel(self):
        assert eve_noise_from_disturbance("collective", 0.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_collective_spot_values(self):
        assert eve_noise_from_disturbance("collective", 0.05) == pytest.approx(
            EVE_NOISE_005_REF, abs=1e-9
        )
        assert eve_noise_from_disturbance("collective", 0.03) == pytest.approx(
            EVE_NOISE_003_REF, abs=1e-9
        )
        assert eve_noise_from_disturbance("collective", 0.01) == pytest.approx(
            EVE_NOISE_001_REF, abs=1e-9
        )

    def test_individual_has_closed_form_inverse(self):
        # h(eta_e) = h(1/2 + sqrt(eta (1-eta))) on the lower branch collapses
        # to eta_e = 1/2 - sqrt(eta (1-eta)).
        for eta_a in (0.0, 0.02, 0.1, 0.1464):
            expected = 0.5 - math.sqrt(eta_a * (1.0 - eta_a))
            assert eve_noise_from_disturbance("individual", eta_a) == pytest.approx(
                expected, abs=1e-9
            )

    def test_fixed_point_at_threshold(self):
        for kind in ("collective", "individual"):
            threshold = eta_star(kind)
            assert eve_noise_from_disturbance(kind, threshold) == pytest.approx(
                threshold, abs=1e-9
            )

    def test_strictly_decreasing_in_disturbance(self):
        for kind in ("collective", "individual"):
            etas = np.linspace(0.0, 0.5, 101)
            values = [eve_noise_from_disturbance(kind, e) for e in etas]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_memoryless_is_rejected(self):
        with pytest.raises(DomainError):
            eve_noise_from_disturbance("memoryless", 0.05)

    def test_rejects_out_of_domain_disturbance(self):
        with pytest.raises(DomainError):
            eve_noise_from_disturbance("collective", 0.51)
