"""The four-state table: conditional flip, Born-rule measurement, fidelity."""

import math

import numpy as np
import pytest

import _oracles as oracles
from qlabelsec.errors import DomainError
from qlabelsec.qubit import (
    Basis,
    Preparation,
    apply_oracle,
    fidelity,
    measure,
)

# Variates at both edges of each half of [0, 1): the table may only switch
# outcome at 1/2.
LOWER_HALF = (0.0, 0.25, 0.4999999999999999)
UPPER_HALF = (0.5, 0.75, 0.9999999999999999)


def ket(state: Preparation) -> np.ndarray:
    return oracles._KETS[state.value]


def zero_probability(state: Preparation, basis: Basis) -> float:
    """Share of [0, 1) whose variates give outcome 0.

    The table may switch outcome only at 1/2, so each half is checked at
    both edges and carries mass 1/2.
    """
    mass = 0.0
    for half in (LOWER_HALF, UPPER_HALF):
        outcomes = {measure(state, basis, u).outcome for u in half}
        assert len(outcomes) == 1
        mass += 0.5 * (outcomes == {0})
    return mass


class TestPreparations:
    def test_exact_matrices(self):
        # the table's Born probabilities are the diagonals of the exact
        # density matrices: <0|rho|0> in Z and <+|rho|+> in X
        exact = {
            Preparation.Z0: [[1.0, 0.0], [0.0, 0.0]],
            Preparation.Z1: [[0.0, 0.0], [0.0, 1.0]],
            Preparation.XPLUS: [[0.5, 0.5], [0.5, 0.5]],
            Preparation.XMINUS: [[0.5, -0.5], [-0.5, 0.5]],
        }
        for label, rho in exact.items():
            (a, b), (c, d) = rho
            assert zero_probability(label, Basis.Z) == a
            assert zero_probability(label, Basis.X) == (a + b + c + d) / 2.0

    def test_all_preparations_are_valid_pure_states(self):
        for label in Preparation:
            assert oracles._born(ket(label), ket(label)) == pytest.approx(1.0, abs=1e-12)
            assert fidelity(label, label) == 1.0

    def test_label_properties(self):
        assert Preparation.Z0.basis is Basis.Z and not Preparation.Z0.is_check
        assert Preparation.XMINUS.basis is Basis.X and Preparation.XMINUS.is_check
        assert Preparation.Z1.bit == 1
        assert Preparation.XPLUS.bit == 0

    def test_rejects_unknown_label(self):
        with pytest.raises(DomainError):
            measure("Y0", Basis.Z, 0.2)
        with pytest.raises(DomainError):
            apply_oracle("Y0", 1)
        with pytest.raises(DomainError):
            fidelity(Preparation.Z0, "Y0")
        assert measure("X+", Basis.X, 0.9).outcome == 0


class TestAgainstOracle:
    """Every table entry against the branch enumerator's kets."""

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("state", list(Preparation))
    def test_born_branches_and_post_states(self, state, basis):
        branches = {
            bit: (probability, collapsed)
            for probability, bit, collapsed in oracles._measure_branches(
                ket(state), basis.value
            )
        }
        p_zero = zero_probability(state, basis)
        table = {bit: p for bit, p in ((0, p_zero), (1, 1.0 - p_zero)) if p > 0.0}
        assert {bit: probability for bit, (probability, _) in branches.items()} == table
        for u in LOWER_HALF + UPPER_HALF:
            outcome, post = measure(state, basis, u)
            assert ket(post) is branches[outcome][1]

    @pytest.mark.parametrize("label_bit", [0, 1])
    @pytest.mark.parametrize("state", list(Preparation))
    def test_oracle_maps(self, state, label_bit):
        expected = oracles._PAULI_X @ ket(state) if label_bit else ket(state)
        assert oracles._born(ket(apply_oracle(state, label_bit)), expected) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("reference", list(Preparation))
    @pytest.mark.parametrize("state", list(Preparation))
    def test_fidelities(self, state, reference):
        value = fidelity(state, reference)
        assert value in (0.0, 0.5, 1.0)
        assert value == pytest.approx(oracles._born(ket(reference), ket(state)), abs=1e-12)


class TestOracle:
    def test_flips_computational_pair(self):
        assert apply_oracle(Preparation.Z0, 1) is Preparation.Z1
        assert apply_oracle(Preparation.Z1, 1) is Preparation.Z0

    def test_hadamard_pair_is_exactly_invariant(self):
        for label in (Preparation.XPLUS, Preparation.XMINUS):
            assert apply_oracle(label, 1) is label

    def test_zero_bit_is_identity(self):
        for label in Preparation:
            assert apply_oracle(label, 0) is label

    def test_involution(self):
        for label in Preparation:
            assert apply_oracle(apply_oracle(label, 1), 1) is label

    def test_matches_explicit_conjugation(self):
        for label in Preparation:
            rho = np.outer(ket(label), ket(label).conj())
            flipped = ket(apply_oracle(label, 1))
            expected = oracles._PAULI_X @ rho @ oracles._PAULI_X
            assert np.allclose(np.outer(flipped, flipped.conj()), expected, atol=1e-15)

    def test_rejects_non_bit(self):
        with pytest.raises(DomainError):
            apply_oracle(Preparation.Z0, 2)

    def test_preserves_state_invariants(self):
        # the flip keeps every state inside the four-state set and its basis
        for label in Preparation:
            flipped = apply_oracle(label, 1)
            assert isinstance(flipped, Preparation)
            assert flipped.basis is label.basis


class TestMeasurement:
    def test_eigenstates_are_deterministic(self):
        for u in (0.0, 0.3, 0.999999, 0.9999999999999999):
            assert measure(Preparation.Z0, Basis.Z, u).outcome == 0
            assert measure(Preparation.Z1, Basis.Z, u).outcome == 1
            assert measure(Preparation.XPLUS, Basis.X, u).outcome == 0
            assert measure(Preparation.XMINUS, Basis.X, u).outcome == 1

    def test_threshold_semantics_at_even_split(self):
        state = Preparation.XPLUS  # p(outcome 0) in Z is exactly 1/2
        assert measure(state, Basis.Z, 0.49).outcome == 0
        assert measure(state, Basis.Z, 0.4999999999999999).outcome == 0
        assert measure(state, Basis.Z, 0.5).outcome == 1
        assert measure(state, Basis.X, 0.9999999999999999).outcome == 0

    def test_post_state_is_basis_eigenstate_and_repeat_is_stable(self):
        rng = np.random.default_rng(3)
        for basis in (Basis.Z, Basis.X):
            for state in Preparation:
                outcome, post = measure(state, basis, rng.random())
                assert post.basis is basis and post.bit == outcome
                for u in (0.0, 0.5, 0.99):
                    again, post2 = measure(post, basis, u)
                    assert again == outcome
                    assert post2 is post

    def test_born_frequencies_for_all_preparations_and_bases(self):
        # exact outcome-0 probabilities per (preparation, basis)
        expected = {
            (Preparation.Z0, Basis.Z): 1.0,
            (Preparation.Z1, Basis.Z): 0.0,
            (Preparation.XPLUS, Basis.Z): 0.5,
            (Preparation.XMINUS, Basis.Z): 0.5,
            (Preparation.Z0, Basis.X): 0.5,
            (Preparation.Z1, Basis.X): 0.5,
            (Preparation.XPLUS, Basis.X): 1.0,
            (Preparation.XMINUS, Basis.X): 0.0,
        }
        rng = np.random.default_rng(99)
        n = 20_000
        for (label, basis), p_zero in expected.items():
            zeros = sum(
                1 - measure(label, basis, rng.random()).outcome for _ in range(n)
            )
            if p_zero in (0.0, 1.0):
                assert zeros == int(p_zero * n)
            else:
                sigma = math.sqrt(p_zero * (1.0 - p_zero) / n)
                assert abs(zeros / n - p_zero) <= 4.0 * sigma

    def test_maximally_mixed_statistics(self):
        # a uniformly drawn preparation is the maximally mixed state I/2
        rng = np.random.default_rng(20260814)
        states = list(Preparation)
        n = 100_000
        ones = sum(
            measure(states[rng.integers(4)], Basis.Z, rng.random()).outcome
            for _ in range(n)
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 4.0 * sigma

    def test_rejects_bad_randomness_and_basis(self):
        state = Preparation.Z0
        with pytest.raises(DomainError):
            measure(state, Basis.Z, 1.0)
        with pytest.raises(DomainError):
            measure(state, Basis.Z, -0.01)
        with pytest.raises(DomainError):
            measure(state, "Y", 0.2)


class TestFidelity:
    def test_reference_overlap_spot_values(self):
        assert fidelity(Preparation.Z0, Preparation.Z0) == 1.0
        assert fidelity(Preparation.Z0, Preparation.Z1) == 0.0
        assert fidelity(Preparation.XPLUS, Preparation.Z0) == 0.5
        assert fidelity(Preparation.XMINUS, Preparation.XPLUS) == 0.0

    def test_global_phase_is_irrelevant(self):
        # X|-> = -|->: the oracle leaves |-> in place up to a global phase
        phased = oracles._PAULI_X @ ket(Preparation.XMINUS)
        assert np.allclose(phased, -ket(Preparation.XMINUS))
        assert oracles._born(ket(Preparation.XMINUS), phased) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(apply_oracle(Preparation.XMINUS, 1), Preparation.XMINUS) == 1.0

    def test_rejects_non_normalized_reference(self):
        # a reference must be one of the four states; no ket is accepted
        with pytest.raises(DomainError, match="unknown preparation"):
            fidelity(Preparation.Z0, [1.0, 1.0])

    def test_mixed_state_overlap(self):
        # the uniform mixture of the four states is I/2: overlap 1/2 with each
        for reference in Preparation:
            assert sum(fidelity(state, reference) for state in Preparation) / 4 == 0.5
