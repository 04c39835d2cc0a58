"""Synthetic task geometry, trial mechanics, and halting-curve estimates."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlabelsec import learn_harness
from qlabelsec.errors import DomainError
from qlabelsec.info_theory import eve_noise_from_disturbance
from qlabelsec.learn_harness import (
    CurvePoint,
    LearnerConfig,
    LearningTrial,
    LinearThresholdModel,
    OneHiddenLayerModel,
    TaskLabeler,
    concept_bits,
    default_sample_budget,
    estimate_learning_probability,
    evaluate_error,
    generate_task,
    log_hypothesis_count,
    noisy_sample,
    random_halfspace_sampler,
    random_search_learner,
    random_search_trials,
    run_trials,
    train_until,
)
from qlabelsec.pac_bounds import random_search_curve, sample_bound_noisy
from qlabelsec.stats import binomial_pull

from _oracles import (
    ReferenceLinearModel,
    gaussian_tail_hp,
    reference_halfspace_sampler,
    reference_model,
    reference_overlap_probe,
    reference_search,
    reference_task,
    reference_trial,
)

# Frozen from the oracle: P(Z >= 3) for the default separation of 6.
OVERLAP_SEP6_REF = 0.0013498980316300933


# sha256 of generate_task(8, 6.0, 42).sample_inputs(count, default_rng(s)) bytes
# and generator states, s = 0..9, taken before sample_inputs read its offsets
# from the two-row table.
_SAMPLE_INPUT_DIGESTS = {
    1: "44d1b9ee501be74a897b89ec97fe104455f171eb9736141d585db62f065b9261",
    5: "05bb02ec8578ccc8c808d7a5b8f0b33e4c7019eaab5c3913925fdbaef1251f59",
    256: "345b3c27008e51bd7cde2e641772b2c084f393b0d64b6b801cf4485530175564",
    1000: "136bedc2c2ca256cdd7d1e0bbb26b05d3687398e79814326af61644c90b6a06c",
}


# sha256 of generate_task(*args)'s direction, test_x and test_y (dtype string,
# then bytes) and of its generator's state after the draws.
_TASK_DIGESTS = {
    (8, 6.0, 42): "0275318787955afb467d93d3a890fdefa03281488c7d801873085ff166017110",
    (3, 5.0, 7): "5410cb5ef59c3f90c0f72727fc6894a05ae91c59fd72be3b524e4915745deafe",
}


# Seeds every seeded entry point rejects with DomainError.
_BAD_SEEDS = [-1, -(2**70), 1.5, 2.0, "3", None, True, np.float64(4.0), np.int64(-2)]


def _assert_same_task(task, expected):
    for name in ("direction", "test_x", "test_y"):
        got, want = getattr(task, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert task.analytic_overlap == expected.analytic_overlap


def _noise_message(eta):
    """The check_noise message: one-half and above is unlearnable, the rest out of range."""
    if eta >= 0.5:
        return "unlearnable"
    return re.escape(f"noise rate must lie in [0, 1/2), got {eta}")


@pytest.fixture(scope="module")
def task():
    return generate_task(dimension=8, separation=6.0, seed=42, epsilon_target=0.03)


@pytest.mark.blas_pins
class TestGenerateTask:
    def test_deterministic(self, task):
        again = generate_task(dimension=8, separation=6.0, seed=42, epsilon_target=0.03)
        np.testing.assert_array_equal(task.test_x, again.test_x)
        np.testing.assert_array_equal(task.test_y, again.test_y)
        np.testing.assert_array_equal(task.direction, again.direction)

    def test_direction_is_unit(self, task):
        assert math.isclose(float(task.direction @ task.direction), 1.0, rel_tol=1e-12)

    def test_labels_are_the_concept(self, task):
        np.testing.assert_array_equal(task.test_y, task.labeler.predict(task.test_x))

    def test_analytic_overlap_matches_oracle(self, task):
        assert task.analytic_overlap == pytest.approx(OVERLAP_SEP6_REF, rel=1e-12)
        assert task.analytic_overlap == pytest.approx(
            float(gaussian_tail_hp(3.0)), rel=1e-12
        )

    def test_measured_overlap_near_analytic(self, task):
        # a 10^5-point Monte-Carlo probe of the clusters on a generator of its own
        measured = reference_overlap_probe(task, 100_000, np.random.default_rng(42))
        assert binomial_pull(measured, 100_000, task.analytic_overlap) <= 4

    def test_label_balance(self, task):
        # each cluster side is equally likely, so labels are near balanced
        assert binomial_pull(float(task.test_y.mean()), len(task.test_y), 0.5) < 4

    def test_label_balance_on_fresh_draws(self, task):
        xs = task.sample_inputs(10_000, np.random.default_rng(2))
        mean = float(task.labeler.predict(xs).mean())
        assert binomial_pull(mean, 10_000, 0.5) < 4

    def test_overlapped_geometry_rejected(self):
        # separation 4 puts ~2.3% of each cluster across the midplane,
        # above the 1.5% margin a 0.03 target allows
        with pytest.raises(DomainError, match="not cleanly reachable"):
            generate_task(dimension=8, separation=4.0, seed=0, epsilon_target=0.03)

    def test_no_target_skips_rejection(self):
        t = generate_task(dimension=8, separation=4.0, seed=0)
        assert t.analytic_overlap > 0.02

    @pytest.mark.parametrize("separation", [4.0, 6.0, 8.0])
    def test_overlap_verdict_is_exact_at_the_margin(self, separation, monkeypatch):
        # the verdict is analytic >= target / 2 on Phi(-s/2) alone: a target of
        # exactly twice the overlap is rejected before any draw, the next float up passes
        overlap = generate_task(dimension=3, separation=separation, seed=0).analytic_overlap
        margin = 2.0 * overlap
        make = np.random.default_rng

        def no_generator(*args, **kwargs):
            raise AssertionError("generate_task drew before rejecting the geometry")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(DomainError, match="not cleanly reachable"):
            generate_task(dimension=3, separation=separation, seed=0, epsilon_target=margin)
        monkeypatch.setattr(np.random, "default_rng", make)
        above = float(np.nextafter(margin, 1.0))
        t = generate_task(dimension=3, separation=separation, seed=0, epsilon_target=above)
        assert t.analytic_overlap == overlap < above / 2.0

    @pytest.mark.parametrize("epsilon_target", [0.005, 0.03, 0.5])
    def test_target_does_not_move_the_draws(self, epsilon_target):
        # the target only gates the build; an accepted task is the untargeted one
        _assert_same_task(
            generate_task(8, 6.0, 42, epsilon_target=epsilon_target), generate_task(8, 6.0, 42)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=0, separation=6.0, seed=0),
            dict(dimension=1, separation=6.0, seed=0),
            dict(dimension=8, separation=0.0, seed=0),
            dict(dimension=8, separation=-1.0, seed=0),
            dict(dimension=8, separation=6.0, seed=0, epsilon_target=0.0),
            dict(dimension=8, separation=6.0, seed=0, epsilon_target=1.0),
            dict(dimension=8, separation=6.0, seed=0, epsilon_target=1.5),
            dict(dimension=8, separation=6.0, seed=0, epsilon_target=-0.1),
            dict(dimension=8, separation=6.0, seed=0, epsilon_target=math.nan),
            dict(dimension=8.0, separation=6.0, seed=0),
            dict(dimension=8.5, separation=6.0, seed=0),
            dict(dimension="8", separation=6.0, seed=0),
            dict(dimension=True, separation=6.0, seed=0),
            dict(dimension=8, separation=math.inf, seed=0),
            dict(dimension=8, separation=-math.inf, seed=0),
            dict(dimension=8, separation=math.nan, seed=0),
        ],
        ids=repr,
    )
    def test_rejects_bad_arguments(self, kwargs, monkeypatch):
        # every check runs before the first draw: no generator is ever built
        def no_generator(*args, **kwargs):
            raise AssertionError("generate_task drew before checking its arguments")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(DomainError):
            generate_task(**kwargs)

    def test_accepts_numpy_integers(self):
        t = generate_task(dimension=np.int64(3), separation=5.0, seed=np.int32(7))
        assert t.test_x.shape == (2000, 3)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("separation", [6.0, 4.0])
    @pytest.mark.parametrize("dimension", [2, 3, 8, 17, 64])
    def test_matches_the_one_shot_referee(self, dimension, separation, seed):
        for epsilon_target in (None, 0.03):
            args = (dimension, separation, seed, epsilon_target)
            try:
                expected = reference_task(*args)
            except DomainError as exc:
                # separation 4 is too overlapped for 0.03: the same verdict and figure
                with pytest.raises(DomainError) as got:
                    generate_task(*args)
                assert str(got.value) == str(exc)
                continue
            _assert_same_task(generate_task(*args), expected)

    @pytest.mark.parametrize("args", [(8, 6.0, 42), (3, 5.0, 7)], ids=repr)
    def test_task_bytes_are_pinned(self, args, monkeypatch):
        # direction, held-out set and the generator state the draws leave behind
        generators = []
        make = np.random.default_rng

        def recorded(seed):
            generators.append(make(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        t = generate_task(*args)
        digest = hashlib.sha256()
        for array in (t.direction, t.test_x, t.test_y):
            digest.update(array.dtype.str.encode() + array.tobytes())
        digest.update(repr(generators[0].bit_generator.state).encode())
        assert len(generators) == 1 and digest.hexdigest() == _TASK_DIGESTS[args]

    def test_memory_peak_is_bounded(self):
        # the task holds its held-out set and labels, about 0.15 MB at d = 8;
        # a first call also imports numpy's seeding modules, so warm up first
        generate_task(dimension=8, separation=6.0, seed=42)
        tracemalloc.start()
        try:
            generate_task(dimension=8, separation=6.0, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(DomainError, match="task seed must be a non-negative integer"):
            generate_task(dimension=8, separation=6.0, seed=seed)

    def test_sample_inputs_shape_and_determinism(self, task):
        a = task.sample_inputs(50, np.random.default_rng(9))
        b = task.sample_inputs(50, np.random.default_rng(9))
        assert a.shape == (50, 8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count", sorted(_SAMPLE_INPUT_DIGESTS))
    def test_sample_inputs_bytes_are_pinned(self, task, count):
        # bytes of ten draws and the generator state each leaves behind
        digest = hashlib.sha256()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            digest.update(task.sample_inputs(count, rng).tobytes())
            digest.update(repr(rng.bit_generator.state).encode())
        assert digest.hexdigest() == _SAMPLE_INPUT_DIGESTS[count]


def _exact_bit(x, direction):
    """[x . direction >= 0] from the exact rational sum of the float products."""
    return sum(Fraction(a) * Fraction(c) for a, c in zip(x.tolist(), direction.tolist())) >= 0


def _near_rows(direction, count, rng, scale=1e3):
    """Rows a rounding error from the boundary: v - (v . d) d at |v| ~ scale."""
    v = scale * rng.standard_normal((count, len(direction)))
    return v - np.outer(v @ direction, direction)


@pytest.mark.blas_pins
class TestConceptBits:
    """concept_bits against an exact Fraction referee."""

    @pytest.mark.parametrize("dimension", [2, 8, 64])
    def test_near_boundary_rows_get_the_exact_sign(self, dimension):
        task = generate_task(dimension=dimension, separation=6.0, seed=42)
        direction, rng = task.direction, np.random.default_rng(dimension)
        xs = task.sample_inputs(500, rng)
        assert concept_bits(xs, direction).tolist() == [_exact_bit(x, direction) for x in xs]
        near = _near_rows(direction, 2000, rng)
        exact = [_exact_bit(x, direction) for x in near]
        assert concept_bits(near, direction).tolist() == exact
        # the 1-D dot, the GEMV and the axis-order sum each get some near rows wrong
        dot = [float(x @ direction) >= 0.0 for x in near]
        gemv = (near @ direction >= 0.0).tolist()
        score = near[:, 0] * direction[0]
        for axis in range(1, dimension):
            score += near[:, axis] * direction[axis]
        for rule in (dot, gemv, (score >= 0.0).tolist()):
            assert rule != exact

    @pytest.mark.parametrize("dimension", [2, 8, 64])
    def test_every_labeller_is_concept_bits(self, dimension):
        task = generate_task(dimension=dimension, separation=6.0, seed=42)
        xs = _near_rows(task.direction, 200, np.random.default_rng(dimension))
        bits = concept_bits(xs, task.direction)
        inputs, source_bits = task.concept_source().rows(dimension, 200)
        assert np.array_equal(source_bits, concept_bits(inputs, task.direction))
        assert np.array_equal(task.labeler.predict(xs), bits)
        assert [int(concept_bits(x, task.direction)) for x in xs] == bits.tolist()
        assert np.array_equal(task.test_y, concept_bits(task.test_x, task.direction))

    def test_exact_ties_give_one(self):
        direction = np.array([1.0, 2.0, -3.0])
        tie, below = np.array([3.0, 0.0, 1.0]), np.array([3.0, 0.0, np.nextafter(1.0, 2.0)])
        xs = np.array([np.zeros(3), -np.zeros(3), tie, -tie, below, -below])
        assert concept_bits(xs, direction).tolist() == [True, True, True, True, False, True]
        # a product that underflows to -0.0 still has the sign of the exact value
        tiny = np.array([[-(2.0**-1074), 0.0], [2.0**-1074, 0.0]])
        assert concept_bits(tiny, np.array([0.5, 0.25])).tolist() == [False, True]
        assert (tiny @ np.array([0.5, 0.25]) >= 0.0).tolist() == [True, True]

    def test_huge_finite_rows_get_the_exact_sign_not_an_overflow(self, task):
        rng = np.random.default_rng(5)
        near = 1e297 * _near_rows(task.direction, 500, rng)
        assert concept_bits(near, task.direction).tolist() == [
            _exact_bit(x, task.direction) for x in near
        ]
        # products near 1e308, so some partial sums overflow to +/-inf
        direction = np.full(4, 1e8)
        up = np.nextafter(1e300, np.inf)
        xs = np.array([
            [1e300, 1e300, -1e300, -up],
            [-1e300, -1e300, 1e300, up],
            [1e300, 1e300, 1e300, 1e300],
            [-1e300, -1e300, -1e300, -1e300],
            [1e300, 1e300, -1e300, -1e300],
        ])
        expected = [_exact_bit(x, direction) for x in xs]
        assert expected == [False, True, True, False, True]
        assert concept_bits(xs, direction).tolist() == expected

    def test_non_finite_rows_keep_the_ieee_answer(self, task):
        direction = task.direction
        xs = np.tile(task.test_x[:6], (2, 1))
        xs[0, 3], xs[1, 0], xs[2, 0], xs[3, :2] = np.nan, np.inf, -np.inf, (np.inf, -np.inf)
        xs[4, 7] = -np.inf if direction[7] > 0 else np.inf
        ieee = [float(x @ direction) >= 0.0 for x in xs]
        assert concept_bits(xs, direction).tolist() == ieee
        with_nan, with_inf = direction.copy(), direction.copy()
        with_nan[3], with_inf[0] = np.nan, np.inf
        for edited in (with_nan, with_inf):
            assert np.array_equal(concept_bits(xs, edited), xs @ edited >= 0.0)

    def test_a_stack_gives_the_bits_of_each_row_alone_and_of_any_split(self, task):
        rng = np.random.default_rng(6)
        rows = np.concatenate([
            _near_rows(task.direction, 90, rng),
            task.sample_inputs(60, rng),
            1e297 * _near_rows(task.direction, 30, rng),
        ])
        rows[rng.permutation(len(rows))[:5], 2] = np.nan
        rows = rows[rng.permutation(len(rows))]
        xs = rows.reshape(3, 60, 8)
        bits = concept_bits(xs, task.direction)
        assert bits.shape == (3, 60) and bits.dtype == bool
        alone = [[bool(concept_bits(x, task.direction)) for x in trial] for trial in xs]
        assert bits.tolist() == alone
        for cuts in ([], [1, 179], sorted(rng.integers(0, 181, 6).tolist())):
            parts = [concept_bits(part, task.direction) for part in np.split(rows, cuts)]
            assert np.concatenate(parts).tolist() == bits.ravel().tolist()
        assert np.array_equal(concept_bits(xs[:, ::3], task.direction), bits[:, ::3])


class TestEvaluateError:
    def test_true_concept_scores_zero(self, task):
        assert evaluate_error(task.labeler, task.test_x, task.test_y) == 0.0

    def test_inverted_concept_scores_one(self, task):
        inverted = TaskLabeler(direction=-task.direction)
        assert evaluate_error(inverted, task.test_x, task.test_y) == 1.0

    def test_exact_fraction_on_small_set(self):
        xs = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        ys = np.array([1, 0, 0, 1])  # labeler along +x gets 2 of 4 wrong
        assert evaluate_error(TaskLabeler(np.array([1.0])), xs, ys) == 0.5

    def test_empty_set_rejected(self, task):
        with pytest.raises(DomainError, match="empty"):
            evaluate_error(task.labeler, np.empty((0, 8)), np.empty(0))

    def test_bool_labels_give_the_same_fraction(self, task):
        truth = task.test_y.astype(bool)
        hypotheses = [
            task.labeler,
            TaskLabeler(direction=-task.direction),
            TaskLabeler(direction=np.roll(task.direction, 1)),
            LinearThresholdModel(weights=np.roll(task.direction, 2), bias=0.5),
        ]
        for hypothesis in hypotheses:
            error = evaluate_error(hypothesis, task.test_x, truth)
            assert type(error) is float
            assert error == evaluate_error(hypothesis, task.test_x, task.test_y)
            assert error == float(np.mean(hypothesis.predict(task.test_x) != task.test_y))


class TestModels:
    def test_threshold_is_at_zero(self):
        model = LinearThresholdModel(weights=np.array([1.0]), bias=0.0)
        np.testing.assert_array_equal(
            model.predict(np.array([[-0.5], [0.0], [0.5]])), [0, 1, 1]
        )

    def test_sgd_step_moves_toward_labels(self):
        model = LinearThresholdModel(weights=np.zeros(2), bias=0.0)
        xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ys = np.array([1.0, 0.0])
        model.sgd_step(xs, ys, step_size=0.5)
        assert model.weights[0] > 0.0
        assert model.weights[1] == 0.0

    def test_log_hypothesis_count_values(self):
        assert log_hypothesis_count(LearnerConfig(), 8) == pytest.approx(
            9 * math.log(32), rel=1e-15
        )
        cfg = LearnerConfig(model="one-hidden-layer", hidden_width=8)
        assert log_hypothesis_count(cfg, 8) == pytest.approx(
            81 * math.log(32), rel=1e-15
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(model="svm"),
            dict(hidden_width=0),
            dict(step_size=0.0),
            dict(step_size=math.inf),
            dict(step_size=math.nan),
            dict(batch_size=0),
            dict(evaluation_cadence=0),
            dict(hidden_width=2.0),
            dict(batch_size=2.5),
            dict(batch_size=True),
            dict(evaluation_cadence=25.0),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(DomainError):
            LearnerConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        config = LearnerConfig(
            hidden_width=np.int64(4), batch_size=np.int32(5), evaluation_cadence=np.int64(25)
        )
        assert config == LearnerConfig(hidden_width=4, batch_size=5, evaluation_cadence=25)


@pytest.mark.blas_pins
class TestInitialModels:
    @pytest.mark.parametrize("dimension", [2, 8, 64])
    @pytest.mark.parametrize(
        "config",
        [LearnerConfig(), LearnerConfig(model="one-hidden-layer"),
         LearnerConfig(model="one-hidden-layer", hidden_width=1)],
        ids=["linear", "hidden", "hidden width 1"],
    )
    def test_stack_is_the_reference_models_of_the_seeds(self, config, dimension):
        seeds = [0, 1, 7, 2**63 + 5, 2**64 - 1]
        models = config.initial_models(dimension, seeds)
        kind = LinearThresholdModel if config.model == "linear-threshold" else OneHiddenLayerModel
        assert type(models) is kind
        references = [
            reference_model(config, dimension, np.random.default_rng(seed)) for seed in seeds
        ]
        assert set(vars(models)) == set(vars(references[0]))
        for name, value in vars(models).items():
            expected = np.stack([np.asarray(getattr(r, name)) for r in references])
            assert value.dtype == expected.dtype, name
            assert value.shape == expected.shape, name
            assert value.tobytes() == expected.tobytes(), name


class TestStreams:
    def test_clean_stream_matches_concept(self, task):
        for x, y in zip(*noisy_sample(task, 0.0, 3, 500)):
            assert y == concept_bits(x, task.direction)

    def test_noisy_stream_flip_rate(self, task):
        xs, ys = noisy_sample(task, 0.25, 4, 100_000)
        flips = int(np.count_nonzero(ys != task.labeler.predict(xs)))
        assert binomial_pull(flips / 100_000, 100_000, 0.25) < 4

    def test_stream_deterministic(self, task):
        xa, ya = noisy_sample(task, 0.1, 5, 300)
        xb, yb = noisy_sample(task, 0.1, 5, 300)
        assert xa.shape == (300, 8) and ya.shape == (300,) and ya.dtype == np.int64
        assert xa.tobytes() == xb.tobytes() and ya.tobytes() == yb.tobytes()

    @pytest.mark.parametrize("eta", [-0.1, 0.5, 0.7])
    def test_rejects_unlearnable_noise(self, task, eta):
        with pytest.raises(DomainError, match=_noise_message(eta)):
            noisy_sample(task, eta, 0, 1)

    @pytest.mark.parametrize("count", [-1, 2.5, 3.0, True], ids=repr)
    def test_rejects_a_count_that_is_not_a_non_negative_int(self, task, count):
        with pytest.raises(DomainError, match="row count"):
            noisy_sample(task, 0.1, 0, count)


class _RecordingPhilox:
    """A Philox bit generator that keeps every array of raw words it hands out."""

    def __init__(self):
        self.inner = np.random.Philox(0)
        self.draws = []

    @property
    def state(self):
        return self.inner.state

    @state.setter
    def state(self, value):
        self.inner.state = value

    def random_raw(self, size):
        words = self.inner.random_raw(size)
        self.draws.append(words)
        return words


def _row_width(dimension):
    """Words per stream row: side, flip, d rounded up to even, in blocks of 4."""
    return 4 * math.ceil((dimension + dimension % 2 + 2) / 4)


def _reference_row(task, eta, words):
    """(input, flip) of one stream row from its raw words, one scalar at a time."""
    side = int(words[0]) >> 63
    normals = []
    for k in range(2, 2 + task.dimension + task.dimension % 2, 2):
        radius = math.sqrt(-2.0 * math.log(((int(words[k]) >> 11) + 1) * 2.0**-53))
        angle = 2.0 * math.pi * ((int(words[k + 1]) >> 11) * 2.0**-53)
        normals += [radius * math.cos(angle), radius * math.sin(angle)]
    half = task.separation / 2.0 if side else -task.separation / 2.0
    x = [half * c + z for c, z in zip(task.direction.tolist(), normals)]
    return x, (int(words[1]) >> 11) * 2.0**-53 < eta


class TestStreamRows:
    @pytest.mark.parametrize("word", [0, 1])
    @pytest.mark.parametrize("dimension", [2, 3, 8])
    def test_raw_words_are_numpy_philox(self, dimension, word):
        # numpy's own Philox is the referee for the words; a scalar loop over
        # those words is the referee for the rows.  Key word 0 keys trial
        # streams, 1 session inputs.
        task = generate_task(dimension, 6.0, 1)
        width = _row_width(dimension)
        seeds = [0, 5, 2**32 + 7, 2**64 - 1]
        bitgen = _RecordingPhilox()
        xs, ys = learn_harness._noisy_rows(task, 0.3, seeds, 3, 5, bitgen, word)
        assert xs.shape == (4, 5, dimension) and ys.shape == (4, 5)
        assert len(bitgen.draws) == len(seeds)
        for seed, words, x_rows, y_rows in zip(seeds, bitgen.draws, xs, ys):
            key = np.array([seed, word], dtype=np.uint64)
            fresh = np.random.Philox(key=key).random_raw(8 * width)[3 * width:]
            assert words.tolist() == fresh.tolist()
            for row, x, y in zip(fresh.reshape(5, width), x_rows, y_rows):
                expected, flip = _reference_row(task, 0.3, row)
                np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12)
                assert y == float(_exact_bit(x, task.direction) != flip)

    @pytest.mark.parametrize("size", [1, 7, 25, 256])
    def test_rows_do_not_depend_on_the_draw_size_or_company(self, tasks, size):
        seeds = [3, 11, 2**40, 99]
        for task in tasks:
            whole = learn_harness._noisy_rows(task, 0.2, seeds, 0, 512, np.random.Philox(0))
            bitgen = np.random.Philox(1)
            parts = [
                learn_harness._noisy_rows(task, 0.2, seeds, at, min(size, 512 - at), bitgen)
                for at in range(0, 512, size)
            ]
            for got, expected in zip(zip(*parts), whole):
                assert np.concatenate(got, axis=1).tobytes() == expected.tobytes()
            order = [2, 0, 3]
            xs, ys = learn_harness._noisy_rows(
                task, 0.2, [seeds[i] for i in order], 100, size, bitgen
            )
            assert xs.tobytes() == whole[0][order, 100:100 + size].tobytes()
            assert ys.tobytes() == whole[1][order, 100:100 + size].tobytes()

    @pytest.mark.parametrize("head", [1, 7, 300])
    def test_fewer_session_rows_are_a_prefix(self, task, head):
        # row r of a session's inputs does not depend on how many are drawn
        rows = task.concept_source().rows
        xs, bits = rows(9, 300)
        head_xs, head_bits = rows(9, head)
        assert head_xs.tobytes() == xs[:head].tobytes()
        assert head_bits.tobytes() == bits[:head].tobytes()
        assert np.array_equal(head_bits, concept_bits(head_xs, task.direction))

    def test_a_shorter_sample_is_a_prefix(self, task):
        xs, ys = noisy_sample(task, 0.2, 8, 600)
        head_xs, head_ys = noisy_sample(task, 0.2, 8, 7)
        assert head_xs.tobytes() == xs[:7].tobytes()
        assert head_ys.tobytes() == ys[:7].tobytes()

    def test_every_eta_sees_the_same_inputs_with_nested_flips(self, task):
        rows = {eta: noisy_sample(task, eta, 21, 5000) for eta in (0.0, 0.05, 0.2)}
        flips = {}
        for eta in (0.05, 0.2):
            assert rows[eta][0].tobytes() == rows[0.0][0].tobytes()
            flips[eta] = set(np.flatnonzero(rows[eta][1] != rows[0.0][1]).tolist())
        assert flips[0.05] <= flips[0.2]
        assert 0 < len(flips[0.05]) < len(flips[0.2])

    def test_sides_and_normals_follow_their_laws(self, task):
        # 10^5 rows: a fair side bit, and standard normals with mean 0,
        # variance 1, kurtosis 3 and uncorrelated Box-Muller partners, each
        # within 4 sigma
        bitgen = _RecordingPhilox()
        xs, _ = learn_harness._noisy_rows(task, 0.0, list(range(100)), 0, 1000, bitgen)
        words = np.stack(bitgen.draws).reshape(100, 1000, -1)
        sides = words[..., 0] >> np.uint64(63)
        assert binomial_pull(float(sides.mean()), sides.size, 0.5) < 4
        normals = xs - task._offsets[sides]
        z = normals.ravel()
        assert abs(float(z.mean())) < 4 / math.sqrt(z.size)
        assert abs(float(np.mean(z**2)) - 1.0) < 4 * math.sqrt(2.0 / z.size)
        assert abs(float(np.mean(z**4)) - 3.0) < 4 * math.sqrt(96.0 / z.size)
        pair = normals[..., 0] * normals[..., 1]
        assert abs(float(pair.mean())) < 4 / math.sqrt(pair.size)

    @pytest.mark.parametrize(
        "seed", [1.5, "3", None, True, -1, 2**64, np.float64(2.0), np.int64(-3)]
    )
    def test_rejects_bad_seeds(self, task, seed):
        with pytest.raises(DomainError, match="stream seed"):
            noisy_sample(task, 0.1, seed, 1)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.uint32(7)])
    def test_accepts_every_64_bit_seed(self, task, seed):
        xs, ys = noisy_sample(task, 0.1, seed, 1)
        assert xs.shape == (1, 8) and ys[0] in (0, 1)


class TestTrainUntil:
    def test_clean_task_halts_at_first_evaluation(self, task):
        trial, model = train_until(
            task, *noisy_sample(task, 0.0, 11, 10_000), 0.03, LearnerConfig(), 10_000
        )
        assert trial.halted
        assert trial.samples_consumed == 25
        assert trial.final_test_error <= 0.03
        assert evaluate_error(model, task.test_x, task.test_y) == trial.final_test_error

    def test_zero_budget_reports_initial_model(self, task):
        # untrained linear model predicts one class everywhere
        trial, _ = train_until(
            task, *noisy_sample(task, 0.0, 12, 0), 0.001, LearnerConfig(), 0
        )
        assert not trial.halted
        assert trial.samples_consumed == 0
        assert trial.final_test_error > 0.4

    def test_budget_below_cadence_never_halts(self, task):
        # halting is only decided at cadence evaluations; a sub-cadence
        # budget records its closing error but stays unhalted
        trial, _ = train_until(
            task, *noisy_sample(task, 0.0, 12, 10), 0.5, LearnerConfig(), 10
        )
        assert trial.samples_consumed == 10
        assert not trial.halted

    def test_clean_stream_halting_rate(self, task):
        trials = run_trials(task, 0.0, 0.03, LearnerConfig(), 500, 100, base_seed=100)
        assert sum(t.halted for t in trials) >= 95

    def test_heavy_noise_halts_less_often_at_equal_budget(self, task):
        clean = run_trials(task, 0.0, 0.03, LearnerConfig(), 500, 100, base_seed=100)
        noisy = run_trials(task, 0.49, 0.03, LearnerConfig(), 500, 100, base_seed=100)
        assert sum(t.halted for t in noisy) < sum(t.halted for t in clean)

    def test_stream_exhaustion_stops_consumption(self, task):
        xs, ys = noisy_sample(task, 0.0, 13, 12)
        trial, _ = train_until(task, xs, ys, 1e-6, LearnerConfig(), 10_000)
        assert trial.samples_consumed == 12
        assert not trial.halted or trial.final_test_error <= 1e-6

    def test_consumption_is_batch_granular(self, task):
        trial, _ = train_until(
            task,
            *noisy_sample(task, 0.3342, 14, 100_000),
            0.03,
            LearnerConfig(),
            100_000,
        )
        assert trial.samples_consumed % LearnerConfig().batch_size == 0
        if trial.halted:
            assert trial.samples_consumed % LearnerConfig().evaluation_cadence == 0

    def test_hidden_layer_learns_the_task(self, task):
        cfg = LearnerConfig(model="one-hidden-layer", hidden_width=8, step_size=0.3)
        trial, _ = train_until(
            task, *noisy_sample(task, 0.0, 15, 5_000), 0.03, cfg, 5_000, seed=15
        )
        assert trial.halted
        assert trial.samples_consumed <= 500

    def test_deterministic(self, task):
        runs = [
            train_until(
                task, *noisy_sample(task, 0.2, 16, 5_000), 0.03, LearnerConfig(), 5_000
            )[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5])
    def test_rejects_bad_target(self, task, eps):
        with pytest.raises(DomainError):
            train_until(task, *noisy_sample(task, 0.0, 0, 10), eps, LearnerConfig(), 10)

    def test_rejects_negative_budget(self, task):
        with pytest.raises(DomainError):
            train_until(task, *noisy_sample(task, 0.0, 0, 10), 0.1, LearnerConfig(), -1)

    @pytest.mark.parametrize("budget", [10.5, 10.0, True], ids=repr)
    def test_rejects_a_budget_that_is_not_an_int(self, task, budget):
        with pytest.raises(DomainError, match="sample budget must be an integer"):
            train_until(task, *noisy_sample(task, 0.0, 0, 10), 0.1, LearnerConfig(), budget)

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, task, seed):
        config = LearnerConfig(model="one-hidden-layer")
        with pytest.raises(DomainError, match="model seed must be a non-negative integer"):
            train_until(task, *noisy_sample(task, 0.0, 0, 10), 0.1, config, 10, seed=seed)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda xs, ys: (xs, 2 * ys), "labels must be 0 or 1"),
            (lambda xs, ys: (xs, 2 * ys - 1), "labels must be 0 or 1"),
            (lambda xs, ys: (xs, np.where(ys == 1, np.nan, 0.0)), "labels must be 0 or 1"),
            (lambda xs, ys: (np.where(xs > 1.0, np.nan, xs), ys), "inputs must be finite"),
            (lambda xs, ys: (np.where(xs > 1.0, np.inf, xs), ys), "inputs must be finite"),
            (lambda xs, ys: (xs[:, :-1], ys), r"inputs must be \(n, 8\)"),
            (lambda xs, ys: (xs.ravel(), ys), r"inputs must be \(n, 8\)"),
            (lambda xs, ys: (xs, ys[:-1]), "need 40 labels"),
            (lambda xs, ys: (xs, ys[:, None]), "need 40 labels"),
        ],
        ids=[
            "labels 0/2", "labels -1/1", "NaN label", "NaN input", "inf input",
            "narrow rows", "flat inputs", "short labels", "label column",
        ],
    )
    def test_rejects_rows_it_cannot_train_on(self, task, edit, message):
        xs, ys = edit(*noisy_sample(task, 0.1, 2, 40))
        with pytest.raises(DomainError, match=message):
            train_until(task, xs, ys, 0.03, LearnerConfig(), 40)


def _always_good(task):
    labeler = task.labeler
    return lambda rng: labeler


def _never_good(task):
    inverted = TaskLabeler(direction=-task.direction)
    return lambda rng: inverted


def _bernoulli_sampler(task, p):
    """Per-draw success probability exactly p: the concept or its inversion."""
    good = LinearThresholdModel(weights=task.direction, bias=0.0)
    bad = LinearThresholdModel(weights=-task.direction, bias=0.0)

    def sample(rng):
        return good if rng.random() < p else bad

    return sample


class TestRandomSearch:
    def test_certain_sampler_halts_immediately(self, task):
        trial = random_search_learner(task, 0.03, _always_good(task), 100, seed=1)
        assert trial.halted
        assert trial.samples_consumed == 1
        assert trial.final_test_error == 0.0

    def test_hopeless_sampler_reports_best_seen(self, task):
        trial = random_search_learner(task, 0.03, _never_good(task), 40, seed=2)
        assert not trial.halted
        assert trial.samples_consumed == 40
        assert trial.final_test_error == 1.0

    def test_zero_budget(self, task):
        trial = random_search_learner(task, 0.03, _always_good(task), 0, seed=3)
        assert not trial.halted
        assert trial.samples_consumed == 0

    @pytest.mark.parametrize("budget", [10.5, 10.0, True, -1], ids=repr)
    def test_rejects_a_budget_that_is_not_a_non_negative_int(self, task, budget):
        with pytest.raises(DomainError, match="sample budget"):
            random_search_learner(task, 0.03, _always_good(task), budget, seed=3)

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, task, seed):
        def no_draws(rng):
            raise AssertionError("the sampler ran")

        with pytest.raises(DomainError, match="search seed must be a non-negative integer"):
            random_search_learner(task, 0.03, no_draws, 10, seed=seed)
        with pytest.raises(DomainError, match="search seed must be a non-negative integer"):
            random_search_trials(task, 0.03, no_draws, 10, [1, 2, seed])
        assert random_search_trials(task, 0.03, no_draws, 10, []) == []

    def test_halting_times_follow_the_survival_law(self, task):
        # consumed counts under a known per-draw rate, against 1 - (1-p)^n
        p = 0.3
        sampler = _bernoulli_sampler(task, p)
        trials = [
            random_search_learner(task, 0.03, sampler, 200, seed=s) for s in range(1000)
        ]
        assert all(t.halted for t in trials)
        for point in estimate_learning_probability(trials, (1, 3, 10)).points:
            assert point.wilson_low <= random_search_curve(p, point.n) <= point.wilson_high

    def test_real_sampler_finds_the_task_eventually(self, task):
        sampler = random_halfspace_sampler(task.dimension)
        trial = random_search_learner(task, 0.3, sampler, 5_000, seed=8)
        assert trial.halted


def _trial(consumed, halted):
    return LearningTrial(
        seed=0, samples_consumed=consumed, halted=halted, final_test_error=0.0
    )


class TestLearningProbability:
    def test_exact_counts(self):
        trials = [_trial(10, True)] * 12 + [_trial(40, True)] * 18 + [_trial(90, False)] * 10
        curve = estimate_learning_probability(trials, [10, 40, 100])
        assert [p.p_hat for p in curve.points] == [0.3, 0.75, 0.75]
        assert all(p.trials == 40 for p in curve.points)

    def test_unhalted_trials_never_count(self):
        trials = [_trial(5, False)] * 30
        curve = estimate_learning_probability(trials, [10, 100])
        assert all(p.p_hat == 0.0 for p in curve.points)

    def test_nondecreasing(self, task):
        trials = run_trials(task, 0.3, 0.03, LearnerConfig(), 5_000, 40, base_seed=21)
        curve = estimate_learning_probability(trials, [25, 50, 100, 200, 400])
        values = [p.p_hat for p in curve.points]
        assert values == sorted(values)

    def test_bands_bracket_the_estimate(self):
        trials = [_trial(10, True)] * 20 + [_trial(999, False)] * 20
        curve = estimate_learning_probability(trials, [10])
        point = curve.points[0]
        assert point.wilson_low < point.p_hat < point.wilson_high

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError, match="at least 30"):
            estimate_learning_probability([_trial(1, True)] * 29, [10])

    @pytest.mark.parametrize(
        "grid", [[], [0, 10], [10, 10], [20, 10], [1.5, 3], [10.0, 20], [True, 3]]
    )
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="grid"):
            estimate_learning_probability([_trial(1, True)] * 30, grid)

    def test_step_curve_for_identical_halting_times(self):
        trials = [_trial(100, True)] * 50
        curve = estimate_learning_probability(trials, [50, 99, 100, 150])
        assert [p.p_hat for p in curve.points] == [0.0, 0.0, 1.0, 1.0]

    def test_synthetic_geometric_trials_match_the_law(self):
        # consumption counts drawn straight from the geometric distribution
        rng = np.random.default_rng(7)
        trials = [_trial(int(n), True) for n in rng.geometric(0.1, size=10_000)]
        curve = estimate_learning_probability(trials, [1, 5, 10, 25, 50])
        for point in curve.points:
            assert point.wilson_low <= random_search_curve(0.1, point.n) <= point.wilson_high

    def test_noise_degrades_fixed_budget_probability(self, task):
        # p_hat at a fixed n must not rise with noise beyond band slack
        bands = []
        for eta in (0.0, 0.05, 0.11):
            trials = run_trials(task, eta, 0.03, LearnerConfig(), 5_000, 100, base_seed=77)
            point = estimate_learning_probability(trials, [25], eta=eta).points[0]
            bands.append(point)
        for lower_noise, higher_noise in zip(bands, bands[1:]):
            assert (
                higher_noise.p_hat <= lower_noise.p_hat
                or higher_noise.wilson_low <= lower_noise.wilson_high
            )


class TestRunTrials:
    def test_deterministic_across_calls(self, task):
        a = run_trials(task, 0.1, 0.03, LearnerConfig(), 2_000, 20, base_seed=31)
        b = run_trials(task, 0.1, 0.03, LearnerConfig(), 2_000, 20, base_seed=31)
        assert a == b

    def test_worker_count_does_not_change_results(self, task):
        serial = run_trials(task, 0.1, 0.03, LearnerConfig(), 2_000, 16, base_seed=32)
        parallel = run_trials(
            task, 0.1, 0.03, LearnerConfig(), 2_000, 16, base_seed=32, workers=2
        )
        assert serial == parallel

    def test_random_search_mode(self, task):
        trials = run_trials(
            task,
            0.0,
            0.3,
            LearnerConfig(),
            2_000,
            10,
            base_seed=33,
            learner="random-search",
        )
        assert len(trials) == 10
        assert all(t.halted for t in trials)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learner="exhaustive"),
            dict(n_trials=0),
            dict(workers=0),
            dict(epsilon_target=0.0),
            dict(sample_budget=-1),
            dict(n_trials=30.5),
            dict(n_trials=2.0),
            dict(n_trials=True),
            dict(workers=1.5),
            dict(sample_budget=100.5),
            dict(sample_budget=np.float64(100.0)),
        ],
    )
    def test_rejects_bad_arguments(self, task, kwargs):
        base = dict(
            task=task,
            eta=0.0,
            epsilon_target=0.03,
            config=LearnerConfig(),
            sample_budget=100,
            n_trials=2,
        )
        base.update(kwargs)
        with pytest.raises(DomainError):
            run_trials(**base)

    @pytest.mark.parametrize("learner", ["gradient", "random-search"])
    def test_accepts_numpy_integer_counts(self, task, learner):
        counts = dict(sample_budget=np.int64(40), n_trials=np.int32(3), workers=np.int64(1))
        plain = {name: int(value) for name, value in counts.items()}
        got = run_trials(task, 0.0, 0.2, LearnerConfig(), learner=learner, **counts)
        assert got == run_trials(task, 0.0, 0.2, LearnerConfig(), learner=learner, **plain)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "learner,eta,budget",
        [
            ("gradient", 0.7, 0),
            ("gradient", -0.1, 0),
            ("gradient", 0.5, 0),
            ("random-search", 0.7, 100),
            ("random-search", -0.1, 0),
        ],
    )
    def test_rejects_unlearnable_noise_even_without_samples(
        self, task, workers, learner, eta, budget
    ):
        # the noise rate is checked up front, not when a stream first draws
        with pytest.raises(DomainError, match=_noise_message(eta)):
            run_trials(
                task, eta, 0.03, LearnerConfig(), budget, 30,
                workers=workers, learner=learner,
            )

    @pytest.mark.parametrize("learner", ["gradient", "random-search"])
    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_rejects_a_bad_base_seed_before_any_trial_runs(
        self, task, monkeypatch, seed, learner
    ):
        def no_trials(*args):
            raise AssertionError("a trial block ran")

        monkeypatch.setattr(learn_harness, "_run_block", no_trials)
        with pytest.raises(DomainError, match="base seed must be a non-negative integer"):
            run_trials(
                task, 0.0, 0.03, LearnerConfig(), 100, 30,
                base_seed=seed, workers=2, learner=learner,
            )


def _trial_seed(base_seed, index):
    """Trial index's seed, from SeedSequence and Python ints alone."""
    key = np.random.SeedSequence(int(base_seed)).generate_state(1, np.uint64)[0]
    return (int(key) + index) % 2**64


@pytest.mark.blas_pins
class TestTrialSeeds:
    """One 64-bit seed per trial, and every record replays from it."""

    @pytest.mark.parametrize(
        "base_seed",
        [0, 7, 2**64 - 1, 2**160 - 1, np.uint32(9), np.int64(2**40), np.uint64(2**64 - 1)],
        ids=repr,
    )
    def test_seed_is_the_block_key_plus_the_index(self, base_seed):
        # the index 2**64 - key is the first whose seed wraps past 2**64
        wrap = 2**64 - _trial_seed(base_seed, 0)
        indices = [0, 1, 149, wrap - 1, wrap, wrap + 5, 3]
        seeds = learn_harness._trial_seeds(base_seed, indices)
        assert seeds == [_trial_seed(base_seed, index) for index in indices]
        assert seeds[3:6] == [2**64 - 1, 0, 5]
        assert all(type(seed) is int for seed in seeds)
        assert learn_harness._trial_seeds(base_seed, np.array(indices, dtype=np.uint64)) == seeds
        assert learn_harness._trial_seeds(base_seed, range(0)) == []

    @given(
        base_seed=st.integers(0, 2**160 - 1),
        start=st.one_of(st.integers(0, 300), st.integers(2**32 - 40, 2**32 + 40)),
        length=st.integers(0, 300),
        size=st.integers(1, 160),
    )
    @example(base_seed=5, start=0, length=150, size=75)  # a two-worker split
    @settings(max_examples=50, deadline=None)
    def test_a_range_has_the_seeds_of_its_parts(self, base_seed, start, length, size):
        indices = range(start, start + length)
        seeds = learn_harness._trial_seeds(base_seed, indices)
        assert seeds == [_trial_seed(base_seed, index) for index in indices]
        parts = learn_harness._chunks(indices, size)
        assert [s for part in parts for s in learn_harness._trial_seeds(base_seed, part)] == seeds

    @given(items=st.lists(st.integers()), size=st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_chunks_are_full_consecutive_slices(self, items, size):
        chunks = learn_harness._chunks(items, size)
        assert [item for chunk in chunks for item in chunk] == items
        assert all(1 <= len(chunk) <= size for chunk in chunks)
        assert all(len(chunk) == size for chunk in chunks[:-1])

    def test_adjacent_base_seeds_share_no_trial_seed(self):
        blocks = [set(learn_harness._trial_seeds(base_seed, range(150))) for base_seed in range(4)]
        assert sum(map(len, blocks)) == len(set().union(*blocks)) == 600

    @pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
    def test_rejects_bad_base_seeds(self, seed):
        with pytest.raises(DomainError, match="base seed"):
            learn_harness._trial_seeds(seed, [0])

    @pytest.mark.parametrize("model", ["linear-threshold", "one-hidden-layer"])
    @pytest.mark.parametrize("eta", [0.05, 0.4])
    def test_gradient_records_replay_from_their_seeds(self, task, model, eta):
        config, budget = LearnerConfig(model=model), 300
        trials = run_trials(task, eta, 0.03, config, budget, 40, base_seed=3, workers=2)
        if eta == 0.4:
            assert {trial.halted for trial in trials} == {True, False}
        for trial in trials:
            xs, ys = noisy_sample(task, eta, trial.seed, budget)
            replayed, _ = train_until(task, xs, ys, 0.03, config, budget, seed=trial.seed)
            assert replayed == trial

    def test_search_records_replay_from_their_seeds(self, task):
        trials = _run_search(task, 0.005, 100, 3, 40)
        assert {trial.halted for trial in trials} == {True, False}
        sampler = random_halfspace_sampler(task.dimension)
        for trial in trials:
            assert random_search_learner(task, 0.005, sampler, 100, seed=trial.seed) == trial


def trials_digest(trials) -> str:
    """sha256 of every record field, with its type; floats as float.hex."""
    digest = hashlib.sha256()
    for t in trials:
        fields = (t.seed, t.samples_consumed, t.halted, t.final_test_error)
        digest.update(" ".join(type(v).__name__ for v in fields).encode())
        digest.update(
            f" {t.seed} {t.samples_consumed} {t.halted} {t.final_test_error.hex()}\n".encode()
        )
    return digest.hexdigest()


def _eve_noise(eta_a: float) -> float:
    return min(eve_noise_from_disturbance("collective", eta_a), 0.5 - 1e-12)


_HIDDEN = LearnerConfig(model="one-hidden-layer")

# The benchmark's learning batches, two noisier ones and three random-search
# batches: (eta, config, budget, base seed[, run_trials options]), 150 trials
# at epsilon 0.03 on generate_task(8, 6.0, 42) unless the options say otherwise.
_PINNED_BATCHES = {
    "sweep eta_a=0.01": (0.01, LearnerConfig(), 25, 1001),
    "sweep eta_e(0.01)": (_eve_noise(0.01), LearnerConfig(), 25, 1002),
    "sweep eta_a=0.11": (0.11, LearnerConfig(), 25, 1003),
    "sweep eta_e(0.11)": (_eve_noise(0.11), LearnerConfig(), 25, 1004),
    "histogram eta_a=0.03": (0.03, LearnerConfig(), 2000, 1005),
    "histogram eta_e(0.03)": (_eve_noise(0.03), LearnerConfig(), 2000, 1006),
    "curve hidden eta=0.05": (
        0.05,
        _HIDDEN,
        min(default_sample_budget(0.03, 0.05, log_hypothesis_count(_HIDDEN, 8)), 1600),
        1007,
    ),
    # noisier than the benchmark's batches, so trials run past 256 rows
    "histogram eta=0.4": (0.4, LearnerConfig(), 2000, 1008),
    "curve hidden eta=0.4": (0.4, _HIDDEN, 1600, 1009),
    # the benchmark's random-search batch and `learn --learner random-search`
    # at its defaults
    "search eta=0": (
        0.0, LearnerConfig(), 1600, 1010, dict(learner="random-search")
    ),
    "search learn defaults": (
        0.0, LearnerConfig(), 1600, 0, dict(learner="random-search", n_trials=100)
    ),
    # a budget of 4 blocks and 5 draws, where most trials run out and report
    # their best error
    "search epsilon=0.005 budget=37": (
        0.0, LearnerConfig(), 37, 1011, dict(learner="random-search", epsilon_target=0.005)
    ),
}

# trials_digest of each pinned batch, taken from the per-trial loop (gradient,
# on the Philox row streams) and the per-draw loop (random search), trial i on
# its one seed _trial_seed(base seed, i).
_RECORD_DIGESTS = {
    "sweep eta_a=0.01": "ca55cc8a35197dd20115ad8531aca5a06d586fe978ee2dd6161c7cb58a624e1b",
    "sweep eta_e(0.01)": "255c8394c240059ce1a582235508ba241e2178b6f4278dbfe5c65c6771d5097a",
    "sweep eta_a=0.11": "897602d0de8072dacd9c1cf39feee7f9f0cd367d8c3b82827767ebe718abd887",
    "sweep eta_e(0.11)": "8d800068b7a95717fb36ac6d4809eb3c3e2a0d914ee06cfd3eee96a0ac17aad4",
    "histogram eta_a=0.03": "a4f5565f4486de8f6716e5e86c9b02c879c3058ea9d83f62fad082d8d82fb9e4",
    "histogram eta_e(0.03)": "42bedd1802228d600811e1270720c5db911f68b6b38f6a950344c2daaf95c442",
    "curve hidden eta=0.05": "9d9f3cc3e5797e8a911dbcfa6c00c2fe5567238a226b11dd275735a974704c92",
    "histogram eta=0.4": "6a13456ec1975e2075e26c90a8c09de57dbc68ca45bcb6cb5483c6d0022b4bba",
    "curve hidden eta=0.4": "a499617d43aa758f17e9d64420248242aa3b085b352ccd48daf6ab2fe2c8cbbe",
    "search eta=0": "92ba45829b617c170710d70e5b55ec30c111b42d1717a8f99c109c8df10501f2",
    "search learn defaults": "91fb279de474a0a31344f83d32d8c0aa0606e74f8566c7bbaa7993db23e2c655",
    "search epsilon=0.005 budget=37": (
        "36a7b7e1c9d09fe07516b5fb45cd78b36764264f2437ef1de389146718f81c2d"
    ),
}


def _pinned_options(key):
    """run_trials arguments of a pinned batch, all by keyword."""
    eta, config, budget, base_seed, *options = _PINNED_BATCHES[key]
    return {
        "eta": eta, "epsilon_target": 0.03, "config": config, "sample_budget": budget,
        "n_trials": 150, "base_seed": base_seed, **(options[0] if options else {}),
    }


def _run_pinned(task, key, **kwargs):
    return run_trials(task, **_pinned_options(key), **kwargs)


@pytest.mark.blas_pins
class TestRecordPins:
    @pytest.mark.parametrize("key", sorted(_RECORD_DIGESTS))
    def test_batch_is_pinned(self, task, key):
        assert trials_digest(_run_pinned(task, key)) == _RECORD_DIGESTS[key]

    @pytest.mark.parametrize("size", [1, 7, 25, 256])
    def test_refill_size_and_order_do_not_change_records(self, task, monkeypatch, size):
        # every engine draw served from whole refills of `size` rows, the
        # active trials drawn in a shuffled order
        rows = learn_harness._noisy_rows

        def refill(task, eta, seeds, start, count, bitgen):
            order = np.random.default_rng(start).permutation(len(seeds))
            first = start // size * size
            blocks = [
                rows(task, eta, [seeds[i] for i in order], at, size, bitgen)
                for at in range(first, start + count, size)
            ]
            back = np.argsort(order)
            return tuple(
                np.concatenate(column, axis=1)[back, start - first:start - first + count]
                for column in zip(*blocks)
            )

        monkeypatch.setattr(learn_harness, "_noisy_rows", refill)
        for key in ("sweep eta_e(0.01)", "curve hidden eta=0.05", "histogram eta=0.4"):
            assert trials_digest(_run_pinned(task, key)) == _RECORD_DIGESTS[key]

    @pytest.mark.parametrize("value", [1, 4000, 10**7])
    def test_group_bound_does_not_change_records(self, task, monkeypatch, value):
        # 1: one trial per group and one batch per step; 4000: two groups of
        # at most 100 trials, one batch per step; 10**7: whole evaluations
        monkeypatch.setattr(learn_harness, "_GROUP_FLOATS", value)
        for key in ("sweep eta_a=0.11", "curve hidden eta=0.05"):
            assert trials_digest(_run_pinned(task, key)) == _RECORD_DIGESTS[key]

    @pytest.mark.parametrize("key", ["histogram eta_e(0.03)", "curve hidden eta=0.05"])
    def test_batch_memory_peak_is_bounded(self, task, key):
        tracemalloc.start()
        try:
            _run_pinned(task, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


@pytest.fixture(scope="module")
def tasks(task):
    return [task, generate_task(dimension=3, separation=5.0, seed=7)]


def _configs():
    return st.builds(
        LearnerConfig,
        model=st.sampled_from(["linear-threshold", "one-hidden-layer"]),
        hidden_width=st.integers(1, 8),
        step_size=st.sampled_from([0.05, 0.3, 1.5]),
        batch_size=st.sampled_from([1, 2, 5, 7, 9, 16, 300]),
        evaluation_cadence=st.sampled_from([1, 3, 10, 25, 64]),
    )


def _assert_same_model(model, reference):
    fields = vars(reference)
    assert set(vars(model)) == set(fields)
    for name, expected in fields.items():
        got = getattr(model, name)
        expected = np.asarray(expected)
        assert np.asarray(got).dtype == expected.dtype, name
        assert np.asarray(got).tobytes() == expected.tobytes(), name


def _assert_python_record(trial):
    assert type(trial.seed) is int
    assert type(trial.samples_consumed) is int
    assert type(trial.halted) is bool
    assert type(trial.final_test_error) is float


def _reference_batch(task, eta, epsilon, config, budget, base_seed, n_trials):
    """(trial, model) of each index from the per-trial loop on its own stream."""
    expected = []
    for index in range(n_trials):
        seed = _trial_seed(base_seed, index)
        xs, ys = noisy_sample(task, eta, seed, budget)
        expected.append(reference_trial(task, zip(xs, ys), epsilon, config, budget, seed=seed))
    return expected


def _assert_block_matches(task, eta, epsilon, config, budget, base_seed, expected):
    trials, models = learn_harness._gradient_block(
        task, eta, epsilon, config, budget,
        learn_harness._trial_seeds(base_seed, range(len(expected))),
    )
    assert trials == [trial for trial, _ in expected]
    for index, (trial, reference) in enumerate(expected):
        _assert_python_record(trials[index])
        _assert_same_model(learn_harness._take(models, index), reference)


@pytest.mark.blas_pins
class TestAgainstPerTrialReference:
    @pytest.mark.parametrize("model", ["linear-threshold", "one-hidden-layer"])
    def test_lockstep_batch_equals_the_per_trial_loop_on_a_grid(self, task, model):
        # budgets off the batch and cadence grids, halting and unhalted
        # trials, evaluations that straddle a batch, chunks that straddle a
        # batch (256 is no multiple of 5 or 7)
        for batch_size, cadence, budget, eta, epsilon in product(
            (1, 5, 7), (10, 25), (0, 3, 23, 300), (0.0, 0.3), (0.03, 0.2)
        ):
            config = LearnerConfig(
                model=model, batch_size=batch_size, evaluation_cadence=cadence
            )
            expected = _reference_batch(task, eta, epsilon, config, budget, 5, 6)
            _assert_block_matches(task, eta, epsilon, config, budget, 5, expected)

    @given(
        data=st.data(),
        config=_configs(),
        budget=st.one_of(st.just(0), st.integers(1, 300)),
        eta=st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 0.49)),
        epsilon=st.one_of(st.sampled_from([0.03, 0.2]), st.floats(0.01, 0.5)),
        n_trials=st.integers(1, 12),
        workers=st.sampled_from([1, 2, 3]),
        base_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_lockstep_batch_equals_the_per_trial_loop(
        self, tasks, data, config, budget, eta, epsilon, n_trials, workers, base_seed
    ):
        task = data.draw(st.sampled_from(tasks))
        expected = _reference_batch(task, eta, epsilon, config, budget, base_seed, n_trials)
        trials = run_trials(
            task, eta, epsilon, config, budget, n_trials,
            base_seed=base_seed, workers=workers,
        )
        assert trials == [trial for trial, _ in expected]
        for trial in trials:
            _assert_python_record(trial)
        _assert_block_matches(task, eta, epsilon, config, budget, base_seed, expected)

    @given(
        data=st.data(),
        config=_configs(),
        length=st.integers(0, 60),
        budget=st.integers(0, 80),
        epsilon=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_train_until_on_a_finite_dataset_equals_the_per_trial_loop(
        self, tasks, data, config, length, budget, epsilon, seed
    ):
        task = data.draw(st.sampled_from(tasks))
        xs, ys = noisy_sample(task, 0.2, seed, length)
        trial, model = train_until(task, xs, ys, epsilon, config, budget, seed=seed)
        expected, reference = reference_trial(
            task, zip(xs, ys), epsilon, config, budget, seed=seed
        )
        assert trial == expected
        _assert_python_record(trial)
        _assert_same_model(model, reference)


def _reference_search_batch(task, epsilon, budget, base_seed, n_trials):
    """The record of each index from the per-draw loop on its own generator."""
    sampler = reference_halfspace_sampler(task.dimension)
    return [
        reference_search(task, epsilon, sampler, budget, seed=_trial_seed(base_seed, index))
        for index in range(n_trials)
    ]


def _run_search(task, epsilon, budget, base_seed, n_trials, **kwargs):
    return run_trials(
        task, 0.0, epsilon, LearnerConfig(), budget, n_trials,
        base_seed=base_seed, learner="random-search", **kwargs,
    )


def _assert_records_match(trials, expected):
    assert len(trials) == len(expected)
    for index, (trial, reference) in enumerate(zip(trials, expected)):
        assert trial == reference, index
        _assert_python_record(trial)


_SEARCH_PINS = sorted(key for key in _PINNED_BATCHES if key.startswith("search"))


@pytest.mark.blas_pins
class TestAgainstPerDrawReference:
    @pytest.mark.parametrize("key", _SEARCH_PINS)
    def test_pinned_batch_equals_the_per_draw_loop(self, task, key):
        options = _pinned_options(key)
        expected = _reference_search_batch(
            task, options["epsilon_target"], options["sample_budget"],
            options["base_seed"], options["n_trials"],
        )
        _assert_records_match(run_trials(task, **options), expected)

    @given(
        data=st.data(),
        budget=st.one_of(st.just(0), st.integers(1, 40), st.sampled_from([200, 1600])),
        epsilon=st.one_of(st.sampled_from([0.005, 0.03, 0.3]), st.floats(0.001, 0.6)),
        n_trials=st.integers(1, 12),
        workers=st.sampled_from([1, 2]),
        base_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_lockstep_batch_equals_the_per_draw_loop(
        self, tasks, data, budget, epsilon, n_trials, workers, base_seed
    ):
        task = data.draw(st.sampled_from(tasks))
        expected = _reference_search_batch(task, epsilon, budget, base_seed, n_trials)
        trials = _run_search(task, epsilon, budget, base_seed, n_trials, workers=workers)
        _assert_records_match(trials, expected)

    @given(
        data=st.data(),
        p=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        budget=st.integers(0, 60),
        epsilon=st.floats(0.001, 0.6),
        seed=st.integers(0, 2**63),
    )
    @settings(max_examples=40, deadline=None)
    def test_per_call_learner_equals_the_per_draw_loop(
        self, tasks, data, p, budget, epsilon, seed
    ):
        task = data.draw(st.sampled_from(tasks))
        trial = random_search_learner(task, epsilon, _bernoulli_sampler(task, p), budget, seed)
        assert trial == reference_search(
            task, epsilon, _bernoulli_sampler(task, p), budget, seed
        )
        _assert_python_record(trial)
        trial = random_search_learner(
            task, epsilon, random_halfspace_sampler(task.dimension), budget, seed
        )
        assert trial == reference_search(
            task, epsilon, reference_halfspace_sampler(task.dimension), budget, seed
        )
        _assert_python_record(trial)


def _linear_wrong_sizes(monkeypatch):
    """The hypothesis count of each _linear_wrong call made from now on."""
    calls, score = [], learn_harness._linear_wrong

    def counting(task, hypotheses):
        calls.append(len(hypotheses))
        return score(task, hypotheses)

    monkeypatch.setattr(learn_harness, "_linear_wrong", counting)
    return calls


def _scripted(*sequences):
    """A search scorer that hands out each trial's given errors, block by block."""
    streams = [iter(sequence) for sequence in sequences]
    blocks = []

    def errors(active, k):
        blocks.append(k)
        return [[next(streams[slot]) for _ in range(k)] for slot in active]

    return errors, blocks


def _first_block_errors(task, seed):
    """Held-out errors of the first 8 hypotheses a trial seed draws."""
    rng = np.random.default_rng(seed)
    sampler = reference_halfspace_sampler(task.dimension)
    return [
        float(np.mean(sampler(rng).predict(task.test_x) != task.test_y)) for _ in range(8)
    ]


@pytest.mark.blas_pins
class TestSearchEngine:
    def test_zero_budget_reports_error_one(self, task):
        assert _run_search(task, 0.03, 0, 5, 3) == [
            LearningTrial(_trial_seed(5, i), 0, False, 1.0) for i in range(3)
        ]
        trial = random_search_learner(task, 0.03, _always_good(task), 0, seed=3)
        assert trial == LearningTrial(3, 0, False, 1.0)
        errors, blocks = _scripted([0.0])
        assert learn_harness._search_lockstep(errors, [1], 0.03, 0) == [
            LearningTrial(1, 0, False, 1.0)
        ]
        assert blocks == []

    def test_first_of_two_hits_in_a_block_wins(self, task):
        # the later hit has the lower error, so a block minimum would pick it
        errors, blocks = _scripted([0.5, 0.02, 0.4, 0.01, 0.5, 0.5, 0.5, 0.5])
        trials = learn_harness._search_lockstep(errors, [7], 0.03, 100)
        assert trials == [LearningTrial(7, 2, True, 0.02)]
        assert blocks == [8]
        # the same on real draws: a trial whose first block holds two hits,
        # the first one worse than a later one
        epsilon = 0.3
        for index in range(200):
            found = _first_block_errors(task, _trial_seed(9, index))
            hits = [error for error in found if error <= epsilon]
            if len(hits) >= 2 and hits[0] > min(hits):
                break
        else:
            pytest.fail("no seed with two unequal hits in its first block")
        trial = _run_search(task, epsilon, 100, 9, index + 1)[index]
        assert trial.samples_consumed == found.index(hits[0]) + 1
        assert trial.final_test_error == hits[0]
        assert trial == _reference_search_batch(task, epsilon, 100, 9, index + 1)[index]

    def test_hit_on_the_last_draw_of_the_budget(self, task):
        # the last block is cut at the budget; a hit right after it is never drawn
        errors, blocks = _scripted([0.5] * 10 + [0.01])
        assert learn_harness._search_lockstep(errors, [4], 0.03, 11) == [
            LearningTrial(4, 11, True, 0.01)
        ]
        assert blocks == [8, 3]
        errors, blocks = _scripted([0.5] * 9 + [0.4, 0.45, 0.01])
        assert learn_harness._search_lockstep(errors, [4], 0.03, 11) == [
            LearningTrial(4, 11, False, 0.4)
        ]
        assert blocks == [8, 3]
        # real trials, off the block grid: at a budget of exactly their
        # halting draw they halt on it, one draw less and they run out
        checked = 0
        for base_seed in range(40):
            reference = _reference_search_batch(task, 0.03, 1600, base_seed, 1)[0]
            halt = reference.samples_consumed
            if not reference.halted or halt <= 8 or halt % 8 == 0:
                continue
            for budget in (halt, halt - 1):
                expected = _reference_search_batch(task, 0.03, budget, base_seed, 1)
                assert _run_search(task, 0.03, budget, base_seed, 1) == expected
                assert expected[0].halted == (budget == halt)
            checked += 1
        assert checked >= 5

    def test_worker_count_does_not_change_records(self, task):
        key = "search epsilon=0.005 budget=37"
        serial = _run_pinned(task, key)
        assert _run_pinned(task, key, workers=2) == serial
        assert trials_digest(serial) == _RECORD_DIGESTS[key]

    @pytest.mark.parametrize(
        "name,value",
        [("_SEARCH_BLOCK", 1), ("_SEARCH_BLOCK", 3), ("_SEARCH_BLOCK", 16),
         ("_GROUP_FLOATS", 7 * 72), ("_EVAL_FLOATS", 1), ("_EVAL_FLOATS", 10**6)],
    )
    def test_block_sizes_do_not_change_records(self, task, monkeypatch, name, value):
        # linear gradient batches are scored in _EVAL_FLOATS blocks too
        monkeypatch.setattr(learn_harness, name, value)
        for key in (
            "search eta=0", "search epsilon=0.005 budget=37", "sweep eta_a=0.11",
            "histogram eta=0.4",
        ):
            assert trials_digest(_run_pinned(task, key)) == _RECORD_DIGESTS[key]

    def test_points_on_the_plane_score_as_predict_does(self, task):
        # a score of exactly -bias predicts 1, as in predict
        axis = np.eye(8)[0]
        block = np.array([[*axis, 0.0], [*axis, -1.0], [*-axis, 0.0]])

        class Fixed:
            def standard_normal(self, shape):
                return block[: shape[0]]

        edge = replace(
            task, test_x=np.stack([0.0 * axis, axis, -axis]), test_y=np.array([0, 1, 1])
        )
        expected = []
        for row in block:
            model = ReferenceLinearModel(weights=row[:8], bias=row[8])
            expected.append(float(np.mean(model.predict(edge.test_x) != edge.test_y)))
        assert expected == [2 / 3, 1 / 3, 2 / 3]
        assert learn_harness._halfspace_errors(edge, [Fixed()])([0], 3) == [expected]

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_block_draw_is_sequential_sampler_calls(self, k):
        # a (k, d + 1) block holds k sampler draws, each row weights then
        # bias, and leaves the generator where the k calls leave it
        sampler = random_halfspace_sampler(8)
        rng, block_rng = np.random.default_rng(12), np.random.default_rng(12)
        block = block_rng.standard_normal((k, 9))
        for row in block:
            hypothesis = sampler(rng)
            assert hypothesis.weights.tobytes() == row[:8].tobytes()
            assert hypothesis.bias == row[8]
        assert rng.bit_generator.state == block_rng.bit_generator.state

    def test_batch_memory_peak_is_bounded(self, task):
        tracemalloc.start()
        try:
            _run_pinned(task, "search eta=0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_a_step_scores_each_group_with_one_bounded_call(self, monkeypatch):
        # at d = 64 a group holds _GROUP_FLOATS // (8 * 65) = 252 trials, so
        # 600 trials step as groups of 252, 252 and 96
        task = generate_task(64, 6.0, 5)
        calls = _linear_wrong_sizes(monkeypatch)
        trials = random_search_trials(
            task, 1e-6, random_halfspace_sampler(64), 16, _seeds(600, seed=2)
        )
        assert not any(trial.halted for trial in trials)
        assert calls == [252 * 8] * 4 + [96 * 8] * 2
        assert max(calls) <= learn_harness._GROUP_FLOATS // 65


def _seeds(count, seed=0):
    return np.random.default_rng(seed).integers(0, 2**63, size=count).tolist()


# Trials in one random-search group of the d = 8 task, by random_search_trials'
# rule: as many as keep a step's _SEARCH_BLOCK draws of d + 1 floats within
# _GROUP_FLOATS.  Counts of _GROUP and _GROUP + 1 run as one and two groups.
_GROUP = learn_harness._GROUP_FLOATS // (learn_harness._SEARCH_BLOCK * (8 + 1))


def _assert_search_matches(task, epsilon, sampler, budget, seeds, reference_sampler=None):
    """random_search_trials over seeds equals reference_search seed by seed."""
    expected = [
        reference_search(task, epsilon, reference_sampler or sampler, budget, seed=seed)
        for seed in seeds
    ]
    trials = random_search_trials(task, epsilon, sampler, budget, seeds)
    _assert_records_match(trials, expected)


def _mixed_sampler(dimension):
    """Linear and one-hidden-layer draws, about half each."""
    linear = random_halfspace_sampler(dimension)
    hidden = LearnerConfig(model="one-hidden-layer", hidden_width=4)

    def sample(rng):
        return linear(rng) if rng.random() < 0.5 else reference_model(hidden, dimension, rng)

    return sample


def _mutating_sampler(dimension):
    """random_halfspace_sampler's numbers, written into one model it returns each time."""
    model = LinearThresholdModel(weights=np.zeros(dimension), bias=0.0)

    def sample(rng):
        model.weights[:] = rng.standard_normal(dimension)
        model.bias = float(rng.standard_normal())
        return model

    return sample


def _wrapped(sampler):
    """The same draws from a sampler of another type."""
    return lambda rng: sampler(rng)


def _edge_draws(task):
    """Draws the GEMM cannot certify (exact ties, one-ulp neighbours, NaN and
    inf entries), draws scored alone (float32 and int weights), and a hit."""
    test_x, dimension = task.test_x, task.dimension
    weights = np.random.default_rng(11).standard_normal(dimension)
    tie = -(test_x @ weights)[17]
    zeros = np.zeros(dimension)
    # orthogonal to held-out row 5 up to the rounding of one product
    plane = zeros.copy()
    plane[:2] = test_x[5, 1], -test_x[5, 0]
    with_nan, with_inf = weights.copy(), weights.copy()
    with_nan[3], with_inf[0] = np.nan, np.inf
    return [
        TaskLabeler(direction=zeros),
        TaskLabeler(direction=plane),
        TaskLabeler(direction=-plane),
        TaskLabeler(direction=with_nan),
        TaskLabeler(direction=with_inf),
        LinearThresholdModel(weights=weights, bias=tie),
        LinearThresholdModel(weights=weights, bias=np.nextafter(tie, np.inf)),
        LinearThresholdModel(weights=weights, bias=np.nextafter(tie, -np.inf)),
        LinearThresholdModel(weights=zeros, bias=0.0),
        LinearThresholdModel(weights=weights, bias=math.nan),
        LinearThresholdModel(weights=weights, bias=-math.inf),
        LinearThresholdModel(weights=with_inf, bias=0.5),
        TaskLabeler(direction=task.direction.astype(np.float32)),
        TaskLabeler(direction=-task.direction.astype(np.float32)),
        LinearThresholdModel(weights=np.round(4 * task.direction).astype(int), bias=0.0),
        TaskLabeler(direction=task.direction),
    ]


def _picker(draws):
    return lambda rng: draws[int(rng.integers(len(draws)))]


@pytest.mark.blas_pins
class TestSamplerSearchEngine:
    """random_search_trials against reference_search, one seed at a time."""

    @pytest.mark.parametrize("budget", [0, 1, 100])
    @pytest.mark.parametrize("count", [1, _GROUP - 1, _GROUP, _GROUP + 1])
    def test_finite_class_samplers_equal_the_per_draw_loop(self, task, count, budget):
        # selfcheck's sampler (p = 0.2) and criterion 4's (p = 0.1), across
        # the edge of a search group
        seeds = _seeds(count, seed=count)
        for p in (0.2, 0.1):
            _assert_search_matches(task, 0.03, _bernoulli_sampler(task, p), budget, seeds)

    @pytest.mark.parametrize("budget", [0, 1, 100])
    @pytest.mark.parametrize("epsilon", [0.03, 0.3])
    def test_halfspace_sampler_equals_the_per_draw_loop(self, tasks, epsilon, budget):
        # the sampler itself is scored in blocks, a wrapper of it by _sampler_errors
        for task in tasks:
            sampler = random_halfspace_sampler(task.dimension)
            reference = reference_halfspace_sampler(task.dimension)
            for searched in (sampler, _wrapped(sampler)):
                _assert_search_matches(task, epsilon, searched, budget, _seeds(30), reference)

    @pytest.mark.parametrize("budget", [1, 100])
    def test_mixed_linear_and_hidden_draws(self, task, budget):
        sampler = _mixed_sampler(task.dimension)
        _assert_search_matches(task, 0.3, sampler, budget, _seeds(30, seed=1))

    @pytest.mark.parametrize("budget", [1, 100])
    def test_a_sampler_that_mutates_and_returns_one_model(self, task, budget):
        # each draw is scored as it was when drawn, not as the model ends up
        sampler = _mutating_sampler(task.dimension)
        reference = reference_halfspace_sampler(task.dimension)
        _assert_search_matches(task, 0.3, sampler, budget, _seeds(30, seed=2), reference)

    def test_edge_draws_score_as_their_predict(self, task):
        draws = _edge_draws(task)
        picks = iter(draws)

        def in_order(rng):
            return next(picks)

        errors = learn_harness._sampler_errors(task, in_order, [None])
        expected = [float(np.mean(h.predict(task.test_x) != task.test_y)) for h in draws]
        assert errors([0], len(draws)) == [expected]
        assert expected[-1] == 0.0 and len(set(expected)) > 4

    @pytest.mark.parametrize("budget", [0, 1, 100])
    @pytest.mark.parametrize("epsilon", [0.001, 0.3])
    def test_edge_draws_equal_the_per_draw_loop(self, task, epsilon, budget):
        draws = _edge_draws(task)
        # with and without the hit at the end of the list
        for pool, seed in ((draws, 3), (draws[:-1], 4)):
            sampler = _picker(pool)
            _assert_search_matches(task, epsilon, sampler, budget, _seeds(40, seed=seed))

    def test_a_finite_class_costs_one_row_a_member_per_step(self, task, monkeypatch):
        calls = _linear_wrong_sizes(monkeypatch)
        seeds = _seeds(_GROUP + 1)
        random_search_trials(task, 0.03, _bernoulli_sampler(task, 0.2), 100, seeds)
        random_search_learner(task, 0.03, _bernoulli_sampler(task, 0.2), 100, seed=1)
        # the class is {concept, inverted concept}: each step scores both at most
        assert calls and max(calls) <= 2

    @pytest.mark.parametrize(
        "name,value",
        [("_SEARCH_BLOCK", 1), ("_SEARCH_BLOCK", 3), ("_GROUP_FLOATS", 7 * 72),
         ("_EVAL_FLOATS", 1)],
    )
    def test_block_sizes_do_not_change_records(self, task, monkeypatch, name, value):
        monkeypatch.setattr(learn_harness, name, value)
        seeds = _seeds(20, seed=6)
        _assert_search_matches(task, 0.03, _bernoulli_sampler(task, 0.2), 40, seeds)
        _assert_search_matches(task, 0.3, _mixed_sampler(task.dimension), 40, seeds)
        _assert_search_matches(task, 0.3, _picker(_edge_draws(task)), 40, seeds)


@pytest.mark.blas_pins
class TestEngineIdentity:
    """run_trials' random search is random_search_trials with the halfspace sampler."""

    @pytest.mark.parametrize("budget", [0, 1, 100])
    @pytest.mark.parametrize("n_trials", [1, _GROUP, _GROUP + 1])
    def test_run_trials_is_the_library_search_on_the_trial_seeds(
        self, task, budget, n_trials
    ):
        seeds = [_trial_seed(11, index) for index in range(n_trials)]
        sampler = random_halfspace_sampler(task.dimension)
        expected = random_search_trials(task, 0.03, sampler, budget, seeds)
        _assert_records_match(_run_search(task, 0.03, budget, 11, n_trials), expected)

    def test_only_the_halfspace_sampler_of_the_task_is_scored_in_blocks(
        self, task, monkeypatch
    ):
        scored = []
        block, general = learn_harness._halfspace_errors, learn_harness._sampler_errors

        def spy_block(task, rngs):
            scored.append("block")
            return block(task, rngs)

        def spy_general(task, sampler, rngs):
            scored.append(sampler)
            return general(task, sampler, rngs)

        monkeypatch.setattr(learn_harness, "_halfspace_errors", spy_block)
        monkeypatch.setattr(learn_harness, "_sampler_errors", spy_general)
        sampler = random_halfspace_sampler(task.dimension)
        assert sampler == random_halfspace_sampler(task.dimension)
        random_search_trials(task, 0.03, sampler, 100, _seeds(30))
        random_search_learner(task, 0.03, random_halfspace_sampler(task.dimension), 100)
        _run_search(task, 0.03, 100, 5, 30)
        assert scored == ["block"] * 3
        scored.clear()
        wrapped, subclassed = _wrapped(sampler), type("Sub", (type(sampler),), {})(task.dimension)
        for other in (wrapped, subclassed):
            random_search_trials(task, 0.03, other, 100, _seeds(3))
        assert scored == [wrapped, subclassed]
        # a sampler of another dimension is scored draw by draw, and its
        # weights do not fit the task
        wider = random_halfspace_sampler(task.dimension + 1)
        assert wider != sampler
        with pytest.raises(ValueError):
            random_search_trials(task, 0.03, wider, 100, _seeds(3))
        assert scored == [wrapped, subclassed, wider]

    @pytest.mark.parametrize("dimension", [0, -1, 8.0, True, None])
    def test_rejects_a_dimension_that_is_not_a_positive_int(self, dimension):
        with pytest.raises(DomainError):
            random_halfspace_sampler(dimension)


@pytest.fixture(scope="module")
def scorer_tasks():
    return {d: generate_task(dimension=d, separation=3.0, seed=60 + d) for d in (2, 3, 8, 64)}


def _referee_wrong(task, weights, biases):
    """Wrong counts of each hypothesis from its own predict, one BLAS call each."""
    return [
        int(np.count_nonzero(
            ReferenceLinearModel(weights=w, bias=b).predict(task.test_x) != task.test_y
        ))
        for w, b in zip(weights, biases)
    ]


# Hypotheses _linear_wrong must score as the per-hypothesis product does:
# normal draws, exact ties (the bias cancels one row's product to zero) and
# their one-ulp neighbours, zero weights, and non-finite entries.
_KINDS = ["normal", "tie", "tie up", "tie down", "zero", "zero tie", "inf", "nan"]


def _hypotheses(task, kinds, scale, rng):
    count, dimension = task.test_x.shape
    weights = rng.standard_normal((len(kinds), dimension)) * scale
    biases = rng.standard_normal(len(kinds)) * scale
    for h, kind in enumerate(kinds):
        if kind.startswith("zero"):
            weights[h] = 0.0
            biases[h] = 0.0 if kind == "zero tie" else biases[h]
        elif kind.startswith("tie"):
            tie = -(task.test_x @ weights[h])[rng.integers(count)]
            toward = {"tie up": math.inf, "tie down": -math.inf}.get(kind)
            biases[h] = tie if toward is None else np.nextafter(tie, toward)
        elif kind in ("inf", "nan"):
            value = np.nan if kind == "nan" else rng.choice([math.inf, -math.inf])
            column = rng.integers(dimension + 1)
            if column == dimension:
                biases[h] = value
            else:
                weights[h, column] = value
    return weights, biases


class TestLinearScorer:
    @given(
        dimension=st.sampled_from([2, 3, 8, 64]),
        kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=40),
        scale=st.sampled_from([1.0, 1e-3, 1e3, 1e-300, 1e-310, 1e-320, 1e300, 1e306]),
        seed=st.integers(0, 2**32),
    )
    @example(dimension=8, kinds=["tie", "tie up", "tie down", "zero tie"], scale=1.0, seed=0)
    @example(dimension=64, kinds=["normal"] * 40, scale=1e-310, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_counts_equal_the_per_hypothesis_product(
        self, scorer_tasks, dimension, kinds, scale, seed
    ):
        task = scorer_tasks[dimension]
        weights, biases = _hypotheses(task, kinds, scale, np.random.default_rng(seed))
        with np.errstate(all="ignore"):
            expected = _referee_wrong(task, weights, biases)
            got = learn_harness._linear_wrong(task, np.column_stack((weights, biases)))
        assert got.tolist() == expected

    def test_ties_are_real_and_scored_both_ways(self, scorer_tasks):
        # a tie row predicts 1, so it is right where y is 1 and wrong where y is 0
        task = scorer_tasks[8]
        truth = task.test_y.astype(bool)
        weights = np.random.default_rng(3).standard_normal((2, 8))
        scores = task.test_x @ weights[0], task.test_x @ weights[1]
        rows = int(np.flatnonzero(truth)[0]), int(np.flatnonzero(~truth)[0])
        biases = np.array([-scores[0][rows[0]], -scores[1][rows[1]]])
        assert scores[0][rows[0]] + biases[0] == 0.0 == scores[1][rows[1]] + biases[1]
        got = learn_harness._linear_wrong(task, np.column_stack((weights, biases)))
        assert got.tolist() == _referee_wrong(task, weights, biases)

    def test_pinned_batches_never_fall_back_and_a_tie_does(
        self, task, scorer_tasks, monkeypatch
    ):
        # the exact per-hypothesis product runs only for uncertified verdicts
        fallbacks = []
        decide = LinearThresholdModel._decide

        def counting(self, xs):
            fallbacks.append(len(self.weights))
            return decide(self, xs)

        monkeypatch.setattr(LinearThresholdModel, "_decide", counting)
        for key in _PINNED_BATCHES:
            if key.startswith(("sweep", "search")):
                assert trials_digest(_run_pinned(task, key)) == _RECORD_DIGESTS[key]
        assert fallbacks == []
        other = scorer_tasks[8]
        weights, biases = _hypotheses(
            other, ["normal", "tie", "normal"], 1.0, np.random.default_rng(5)
        )
        got = learn_harness._linear_wrong(other, np.column_stack((weights, biases)))
        assert fallbacks == [1]
        assert got.tolist() == _referee_wrong(other, weights, biases)
        # untrained linear models score 0 on every row: all of them fall back
        fallbacks.clear()
        trials = run_trials(task, 0.0, 0.03, LearnerConfig(), 0, 5, base_seed=1)
        assert fallbacks == [5]
        assert {trial.final_test_error for trial in trials} == {float(np.mean(task.test_y == 0))}


class TestDefaultBudget:
    def test_matches_bound_scaling(self):
        log_h = 9 * math.log(32)
        expected = min(50 * sample_bound_noisy(0.03, 0.5, log_h, 0.2), 1_000_000)
        assert default_sample_budget(0.03, 0.2, log_h) == expected

    def test_cap_binds_for_heavy_noise(self):
        assert default_sample_budget(0.03, 0.45, 9 * math.log(32)) == 1_000_000
