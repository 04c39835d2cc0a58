"""Desk-scale learning experiments over noisy label streams.

The task is deliberately small: inputs are drawn from two symmetric Gaussian
clusters and the concept is the halfspace through the midplane, so the
concept class is realizable and a trial's only obstacles are label noise and
sample budget.  Cluster separation controls how much input mass sits near
the boundary; ``generate_task`` rejects separations whose cluster-vs-concept
overlap would make the accuracy target unreachable in the first place.

A trial trains on a stream, evaluates on the task's clean held-out set every
``evaluation_cadence`` samples, and halts at the first evaluation at or
below the target error.  Learning probability at n is the fraction of trials
that halted within n samples; it is estimated with Wilson intervals and is
nondecreasing in n by construction.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .pac_bounds import sample_bound_noisy
from .protocol import ConceptSource

__all__ = [
    "TaskLabeler",
    "SyntheticTask",
    "LearnerConfig",
    "LearningTrial",
    "CurvePoint",
    "LearningProbabilityCurve",
    "LinearThresholdModel",
    "OneHiddenLayerModel",
    "generate_task",
    "evaluate_error",
    "noisy_stream",
    "dataset_stream",
    "train_until",
    "random_halfspace_sampler",
    "random_search_learner",
    "run_trials",
    "wilson_interval",
    "estimate_learning_probability",
    "default_sample_budget",
    "log_hypothesis_count",
]

# Weights are treated as if discretized to 32 levels per parameter when a
# finite hypothesis-class size is needed for the bound formulas.
_DISCRETIZATION_LEVELS = 32

_WILSON_Z_95 = 1.959963984540054

_MIN_TEST_SIZE = 2000
_MIN_TRIALS = 30


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class TaskLabeler:
    """Halfspace concept c(x) = [x . direction >= 0]."""

    direction: np.ndarray

    def __call__(self, x: np.ndarray) -> int:
        return int(float(x @ self.direction) >= 0.0)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return (xs @ self.direction >= 0.0).astype(np.int64)


@dataclass(frozen=True)
class SyntheticTask:
    """Two Gaussian clusters at +/- (separation/2) along a unit direction.

    Labels everywhere (stream and held-out set) are the halfspace concept,
    so a perfect hypothesis exists.  analytic_overlap = Phi(-separation/2)
    is the mass each cluster sends across the midplane; measured_overlap is
    its Monte-Carlo estimate at task-generation time.
    """

    dimension: int
    separation: float
    direction: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    analytic_overlap: float
    measured_overlap: float
    seed: int

    @property
    def labeler(self) -> TaskLabeler:
        return TaskLabeler(direction=self.direction)

    def sample_inputs(self, count: int, rng: np.random.Generator) -> np.ndarray:
        sides = 2.0 * rng.integers(2, size=count).astype(np.float64) - 1.0
        offsets = np.outer(sides * (self.separation / 2.0), self.direction)
        return offsets + rng.standard_normal((count, self.dimension))

    def concept_source(self) -> ConceptSource:
        """One input per sampler call: sample_inputs(1, rng)[0], byte for byte.

        The two cluster offsets are built once, so a call makes the same two
        draws (side, then the Gaussian row) and one addition.
        """
        half = self.separation / 2.0
        offsets = np.stack([(-half) * self.direction, half * self.direction])
        dimension = self.dimension

        def sampler(rng: np.random.Generator) -> np.ndarray:
            side = rng.integers(2)
            x = rng.standard_normal(dimension)
            x += offsets[side]
            return x

        return ConceptSource(sampler=sampler, labeler=self.labeler)


def generate_task(
    dimension: int,
    separation: float,
    seed: int,
    test_size: int = _MIN_TEST_SIZE,
    epsilon_target: float | None = None,
) -> SyntheticTask:
    """Build a task, rejecting geometries too overlapped for the target.

    When epsilon_target is given, the cluster-vs-concept overlap must stay
    below epsilon_target / 2 both analytically and in a fresh 10^5-sample
    estimate; otherwise trials could stall for geometric reasons and noise
    comparisons would be confounded.
    """
    if dimension < 2:
        raise DomainError(f"dimension must be >= 2, got {dimension}")
    if not separation > 0.0:
        raise DomainError(f"separation must be positive, got {separation}")
    if test_size < _MIN_TEST_SIZE:
        raise DomainError(f"test set needs at least {_MIN_TEST_SIZE} points, got {test_size}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dimension)
    direction /= math.sqrt(float(direction @ direction))
    analytic = 0.5 * math.erfc(separation / (2.0 * math.sqrt(2.0)))

    task = SyntheticTask(
        dimension=dimension,
        separation=separation,
        direction=direction,
        test_x=np.empty((0, dimension)),
        test_y=np.empty(0, dtype=np.int64),
        analytic_overlap=analytic,
        measured_overlap=0.0,
        seed=seed,
    )
    # measured overlap: fraction of cluster draws landing across the midplane
    probe_sides = rng.integers(2, size=100_000)
    sides = 2.0 * probe_sides.astype(np.float64) - 1.0
    xs = np.outer(sides * (separation / 2.0), direction) + rng.standard_normal(
        (100_000, dimension)
    )
    measured = float(np.mean((xs @ direction >= 0.0).astype(np.int64) != probe_sides))

    if epsilon_target is not None:
        if not 0.0 < epsilon_target < 1.0:
            raise DomainError(
                f"epsilon target must lie in (0, 1), got {epsilon_target}"
            )
        bound = epsilon_target / 2.0
        if analytic >= bound or measured >= bound:
            raise DomainError(
                f"separation {separation} leaves overlap "
                f"{max(analytic, measured):.4g} >= {bound:.4g}; the accuracy "
                f"target {epsilon_target} is not cleanly reachable"
            )

    test_x = task.sample_inputs(test_size, rng)
    test_y = task.labeler.predict(test_x)
    return replace(task, test_x=test_x, test_y=test_y, measured_overlap=measured)


def evaluate_error(hypothesis, test_x: np.ndarray, test_y: np.ndarray) -> float:
    """Misclassification fraction of a hypothesis on a labeled set."""
    if len(test_x) == 0:
        raise DomainError("cannot evaluate on an empty test set")
    predictions = hypothesis.predict(test_x)
    return float(np.mean(predictions != test_y))


@dataclass
class LinearThresholdModel:
    """Affine score with a hard threshold, trained by logistic SGD."""

    weights: np.ndarray
    bias: float

    @property
    def param_count(self) -> int:
        return self.weights.size + 1

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return (xs @ self.weights + self.bias >= 0.0).astype(np.int64)

    def sgd_step(self, xs: np.ndarray, ys: np.ndarray, step_size: float) -> None:
        residual = _sigmoid(xs @ self.weights + self.bias) - ys
        self.weights -= step_size * (xs.T @ residual) / len(ys)
        self.bias -= step_size * float(residual.mean())


@dataclass
class OneHiddenLayerModel:
    """One tanh hidden layer, logistic output, plain SGD."""

    w1: np.ndarray  # (dimension, width)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width,)
    b2: float

    @property
    def param_count(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1

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


MODEL_KINDS = ("linear-threshold", "one-hidden-layer")


@dataclass(frozen=True)
class LearnerConfig:
    """Model family and optimization knobs for gradient trials."""

    model: str = "linear-threshold"
    hidden_width: int = 8
    step_size: float = 0.3
    batch_size: int = 5
    evaluation_cadence: int = 25

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise DomainError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.hidden_width < 1:
            raise DomainError(f"hidden width must be >= 1, got {self.hidden_width}")
        if not self.step_size > 0.0:
            raise DomainError(f"step size must be positive, got {self.step_size}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.evaluation_cadence < 1:
            raise DomainError(
                f"evaluation cadence must be >= 1, got {self.evaluation_cadence}"
            )

    def build_model(self, dimension: int, rng: np.random.Generator):
        if self.model == "linear-threshold":
            return LinearThresholdModel(weights=np.zeros(dimension), bias=0.0)
        width = self.hidden_width
        return OneHiddenLayerModel(
            w1=rng.normal(0.0, 1.0 / math.sqrt(dimension), size=(dimension, width)),
            b1=np.zeros(width),
            w2=rng.normal(0.0, 0.5, size=width),
            b2=0.0,
        )


def log_hypothesis_count(config: LearnerConfig, dimension: int) -> float:
    """ln of the effective class size: 32 levels per trainable parameter."""
    model = config.build_model(dimension, np.random.default_rng(0))
    return model.param_count * math.log(_DISCRETIZATION_LEVELS)


def default_sample_budget(
    epsilon_target: float, eta: float, log_h: float, cap: int = 1_000_000
) -> int:
    """50x the noisy sample bound at delta = 1/2, capped.

    The bound is loose, so the default budget is generous on purpose: a
    budget that censors the halting distribution in the region being plotted
    would bias every curve downward.
    """
    bound = sample_bound_noisy(epsilon_target, 0.5, log_h, eta)
    return min(50 * bound, cap)


@dataclass(frozen=True)
class LearningTrial:
    seed: int
    samples_consumed: int
    halted: bool
    final_test_error: float


def noisy_stream(
    task: SyntheticTask, eta: float, seed
) -> Iterator[tuple[np.ndarray, int]]:
    """Infinite stream of (input, concept label xor Bernoulli(eta)) pairs."""
    if not 0.0 <= eta < 0.5:
        raise DomainError(f"noise at or above one-half is unlearnable: eta={eta}")
    rng = np.random.default_rng(seed)
    labeler = task.labeler
    chunk = 256
    while True:
        xs = task.sample_inputs(chunk, rng)
        labels = labeler.predict(xs)
        if eta > 0.0:
            labels = labels ^ (rng.random(chunk) < eta).astype(np.int64)
        for i in range(chunk):
            yield xs[i], int(labels[i])


def dataset_stream(
    dataset: Sequence[tuple[np.ndarray, int]]
) -> Iterator[tuple[np.ndarray, int]]:
    """Finite stream over an already-delivered dataset, in order."""
    return iter(dataset)


def train_until(
    task: SyntheticTask,
    sample_stream: Iterable[tuple[np.ndarray, int]],
    epsilon_target: float,
    config: LearnerConfig,
    sample_budget: int,
    seed: int = 0,
):
    """Consume the stream until the clean test error reaches the target.

    Returns (trial, model).  The clean held-out set is evaluated whenever
    the consumed-sample count crosses a multiple of the cadence (at batch
    granularity); the trial halts at the first such evaluation with error at
    or below epsilon_target.  Exhausting the budget or the stream ends the
    trial unhalted, with a last evaluation recorded for reporting only, so
    the cadence is part of what a halting probability means.
    """
    if not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    if sample_budget < 0:
        raise DomainError(f"sample budget must be >= 0, got {sample_budget}")
    model = config.build_model(task.dimension, np.random.default_rng(seed))
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
            last_error = evaluate_error(model, task.test_x, task.test_y)
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
    last_error = evaluate_error(model, task.test_x, task.test_y)
    return (
        LearningTrial(
            seed=seed,
            samples_consumed=consumed,
            halted=False,
            final_test_error=last_error,
        ),
        model,
    )


def random_halfspace_sampler(dimension: int) -> Callable[[np.random.Generator], LinearThresholdModel]:
    """Prior over hypotheses: standard normal weights and bias."""

    def sample(rng: np.random.Generator) -> LinearThresholdModel:
        return LinearThresholdModel(
            weights=rng.standard_normal(dimension), bias=float(rng.standard_normal())
        )

    return sample


def random_search_learner(
    task: SyntheticTask,
    epsilon_target: float,
    hypothesis_sampler: Callable[[np.random.Generator], object],
    sample_budget: int,
    seed: int = 0,
) -> LearningTrial:
    """Draw i.i.d. hypotheses, one sample per draw, halt on the first fit.

    The baseline every learner is measured against: it looks at nothing but
    the held-out verdict of each candidate, so label noise in the stream
    cannot help or hurt it.  An exhausted trial reports the best error seen.
    """
    if not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    if sample_budget < 0:
        raise DomainError(f"sample budget must be >= 0, got {sample_budget}")
    rng = np.random.default_rng(seed)
    best = math.inf
    for draw in range(1, sample_budget + 1):
        hypothesis = hypothesis_sampler(rng)
        error = evaluate_error(hypothesis, task.test_x, task.test_y)
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


# ---------------------------------------------------------------------------
# trial batches and learning-probability curves
# ---------------------------------------------------------------------------

def _trial_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(base_seed, index))


def _run_one_trial(args) -> LearningTrial:
    task, eta, epsilon_target, config, budget, base_seed, index, learner = args
    seeds = _trial_seed(base_seed, index).generate_state(2)
    if learner == "random-search":
        sampler = random_halfspace_sampler(task.dimension)
        return random_search_learner(
            task, epsilon_target, sampler, budget, seed=int(seeds[0])
        )
    stream = noisy_stream(task, eta, seed=int(seeds[0]))
    trial, _ = train_until(
        task, stream, epsilon_target, config, budget, seed=int(seeds[1])
    )
    return trial


def run_trials(
    task: SyntheticTask,
    eta: float,
    epsilon_target: float,
    config: LearnerConfig,
    sample_budget: int,
    n_trials: int,
    base_seed: int = 0,
    workers: int = 1,
    learner: str = "gradient",
) -> list[LearningTrial]:
    """Independent trials with per-index seeds; order is by trial index.

    Each trial derives its generators from (base_seed, index) alone, so the
    result list is identical no matter how many workers ran it.
    """
    if learner not in ("gradient", "random-search"):
        raise DomainError(f"learner must be gradient or random-search, got {learner!r}")
    if n_trials < 1:
        raise DomainError(f"need at least one trial, got {n_trials}")
    if workers < 1:
        raise DomainError(f"worker count must be >= 1, got {workers}")
    jobs = [
        (task, eta, epsilon_target, config, sample_budget, base_seed, index, learner)
        for index in range(n_trials)
    ]
    if workers == 1:
        return [_run_one_trial(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one_trial, jobs, chunksize=max(1, n_trials // (4 * workers))))


def wilson_interval(
    successes: int, trials: int, z: float = _WILSON_Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials))
        / denom
    )
    # the score equation has an exact root at the boundary for degenerate counts
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class CurvePoint:
    n: int
    p_hat: float
    wilson_low: float
    wilson_high: float
    trials: int


@dataclass(frozen=True)
class LearningProbabilityCurve:
    """Empirical halting CDF over a sample grid, with 95% Wilson bands."""

    points: list[CurvePoint]
    eta: float
    epsilon_target: float
    learner: str

    def p_at(self, n: int) -> float:
        for point in self.points:
            if point.n == n:
                return point.p_hat
        raise DomainError(f"{n} is not a grid point of this curve")


def estimate_learning_probability(
    trials: Sequence[LearningTrial],
    n_grid: Sequence[int],
    eta: float = 0.0,
    epsilon_target: float = 0.0,
    learner: str = "gradient",
) -> LearningProbabilityCurve:
    """Empirical halting CDF of a trial batch on the given sample grid."""
    if len(trials) < _MIN_TRIALS:
        raise DomainError(
            f"need at least {_MIN_TRIALS} trials for interval estimates, got {len(trials)}"
        )
    grid = [int(n) for n in n_grid]
    if not grid or any(n < 1 for n in grid) or any(
        a >= b for a, b in zip(grid, grid[1:])
    ):
        raise DomainError("sample grid must be strictly increasing positive integers")
    counts = np.asarray([t.samples_consumed for t in trials])
    halted = np.asarray([t.halted for t in trials])
    points = []
    for n in grid:
        k = int(np.sum(halted & (counts <= n)))
        low, high = wilson_interval(k, len(trials))
        points.append(
            CurvePoint(
                n=n, p_hat=k / len(trials), wilson_low=low, wilson_high=high,
                trials=len(trials),
            )
        )
    return LearningProbabilityCurve(
        points=points, eta=eta, epsilon_target=epsilon_target, learner=learner
    )
