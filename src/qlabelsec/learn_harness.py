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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, check_count, check_seed
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
# Points in generate_task's cluster-overlap probe.
_PROBE_POINTS = 100_000

# noisy_stream draws its rows in blocks of this many.
_CHUNK = 256
# Largest per-block evaluation temporary, in float64s: held-out rows times
# hidden units (one for linear models), summed over the block's trials.  A
# linear block is one GEMM whose result is this size, 32 hypotheses against
# a 2000-point held-out set.
_EVAL_FLOATS = 65_536
# Largest input draw of a lockstep step, in float64s: trials times rows times
# dimension.  Trials whose one batch would exceed it train as several groups,
# so memory stays bounded whatever the trial count.
_GROUP_FLOATS = 131_072
# Largest input block of generate_task's overlap probe, in float64s: rows
# times dimension.
_PROBE_FLOATS = 32_768
# Scale of a 53-bit integer to a double in [0, 1); also the unit roundoff u.
_UNIT = 2.0**-53
# Hypotheses each random-search trial draws and scores per lockstep step, and
# trials per random-search lockstep group (each holds a generator of its own).
_SEARCH_BLOCK = 8
_SEARCH_GROUP = 1024
# numpy's SeedSequence hash (O'Neill's seed_seq_fe): (initial, multiplier) of
# the pool and output hashes, the mix multipliers and the pool size.
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 4


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
        return self._decide(xs).astype(np.int64)

    def _decide(self, xs: np.ndarray) -> np.ndarray:
        return xs @ self.direction >= 0.0


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

    @cached_property
    def _signed_columns(self) -> tuple[np.ndarray, float]:
        """(d + 1, n) columns s_i * (x_i, 1) of the held-out set, s_i = 2 y_i - 1,
        and the largest 1-norm among them.

        A hypothesis (w, b) misclassifies held-out row i iff (w, b) . column i
        is negative, except at zero, where a score of 0 predicts 1;
        _linear_wrong leaves such ties to LinearThresholdModel._decide.
        """
        signs = 2.0 * self.test_y - 1.0
        columns = np.empty((self.dimension + 1, len(signs)))
        np.multiply(self.test_x.T, signs, out=columns[:-1])
        columns[-1] = signs
        return columns, float(np.abs(columns).sum(axis=0).max(initial=0.0))

    @cached_property
    def _offsets(self) -> np.ndarray:
        """The two cluster centres, -separation/2 and +separation/2 along direction."""
        half = self.separation / 2.0
        return np.stack([(-half) * self.direction, half * self.direction])

    def sample_inputs(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count inputs: a fair cluster side per row, then the Gaussian rows."""
        return self._offsets[rng.integers(2, size=count)] + rng.standard_normal(
            (count, self.dimension)
        )

    def concept_source(self) -> ConceptSource:
        """One input per sampler call: sample_inputs(1, rng)[0], byte for byte.

        A call makes the same two draws (side, then the Gaussian row) and one
        addition of an offset row.
        """
        offsets = self._offsets
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
    comparisons would be confounded.  Every argument is checked before the
    first draw.  The probe draws its points in row blocks of at most
    _PROBE_FLOATS floats, so its memory does not grow with 10^5 * dimension.
    """
    check_count(dimension, "dimension", 2)
    if not 0.0 < separation < math.inf:
        raise DomainError(f"separation must be positive and finite, got {separation}")
    check_count(test_size, "test set size", _MIN_TEST_SIZE)
    if epsilon_target is not None and not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    check_seed(seed, "task seed")
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
    probe_sides = rng.integers(2, size=_PROBE_POINTS)
    block = max(1, _PROBE_FLOATS // dimension)
    crossed = 0
    for start in range(0, _PROBE_POINTS, block):
        sides = probe_sides[start : start + block]
        xs = rng.standard_normal((len(sides), dimension))
        xs += task._offsets[sides]
        crossed += int(np.count_nonzero((xs @ direction >= 0.0) != sides))
    measured = crossed / _PROBE_POINTS

    if epsilon_target is not None:
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
    """Misclassification fraction of a hypothesis on a labeled set.

    A TaskLabeler meets bool labels with bools, skipping predict's int64 cast.
    """
    if len(test_x) == 0:
        raise DomainError("cannot evaluate on an empty test set")
    if isinstance(hypothesis, TaskLabeler) and np.asarray(test_y).dtype == bool:
        wrong = hypothesis._decide(test_x) != test_y
    else:
        wrong = hypothesis.predict(test_x) != test_y
    return float(np.count_nonzero(wrong) / len(test_x))


def _matvec(xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """xs @ v over any leading trial axes, one BLAS call per trial slice.

    Each slice gets the bits of the 2-D ``xs @ v``.  einsum, ``(xs * v).sum``
    or one GEMM over all trials sum in other orders, but every order of a
    d-term dot product lies within gamma_d * sum_j |x_j v_j| of the exact
    value, gamma_d = d u / (1 - d u), u = 2**-53 (plus d * 2**-1074 for
    underflow); _linear_wrong uses that bound to score held-out sets with one
    GEMM and still agree with this product's sign bit for bit.
    """
    return np.matmul(xs, v[..., None])[..., 0]


def _column(values) -> np.ndarray:
    """Per-trial scalars as a column that broadcasts over each trial's rows."""
    return np.asarray(values)[..., None]


@dataclass
class LinearThresholdModel:
    """Affine score with a hard threshold, trained by logistic SGD.

    The fields may carry a leading trial axis, (T, d) weights and (T,)
    biases: predict and sgd_step then act on every trial at once, on (T, b, d)
    inputs or on (n, d) inputs shared by all trials.
    """

    weights: np.ndarray
    bias: float | np.ndarray

    @property
    def param_count(self) -> int:
        return self.weights.size + 1

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self._decide(xs).astype(np.int64)

    def _decide(self, xs: np.ndarray) -> np.ndarray:
        score = _matvec(xs, self.weights)
        score += _column(self.bias)
        return score >= 0.0

    def sgd_step(self, xs: np.ndarray, ys: np.ndarray, step_size: float) -> None:
        residual = _sigmoid(_matvec(xs, self.weights) + _column(self.bias)) - ys
        self.weights -= (
            step_size * _matvec(np.swapaxes(xs, -1, -2), residual) / ys.shape[-1]
        )
        self.bias -= step_size * residual.mean(axis=-1)


@dataclass
class OneHiddenLayerModel:
    """One tanh hidden layer, logistic output, plain SGD.

    Like LinearThresholdModel, the fields may carry a leading trial axis:
    (T, d, w), (T, w), (T, w) and (T,).
    """

    w1: np.ndarray  # (dimension, width)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width,)
    b2: float | np.ndarray

    @property
    def param_count(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1

    def _hidden(self, xs: np.ndarray) -> np.ndarray:
        hidden = np.matmul(xs, self.w1)
        hidden += self.b1[..., None, :]
        return np.tanh(hidden, out=hidden)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        score = _matvec(self._hidden(xs), self.w2) + _column(self.b2)
        return (score >= 0.0).astype(np.int64)

    def sgd_step(self, xs: np.ndarray, ys: np.ndarray, step_size: float) -> None:
        hidden = self._hidden(xs)
        residual = (
            _sigmoid(_matvec(hidden, self.w2) + _column(self.b2)) - ys
        ) / ys.shape[-1]
        grad_w2 = _matvec(np.swapaxes(hidden, -1, -2), residual)
        grad_b2 = residual.sum(axis=-1)
        back = residual[..., None] * self.w2[..., None, :] * (1.0 - hidden**2)
        self.w1 -= step_size * np.matmul(np.swapaxes(xs, -1, -2), back)
        self.b1 -= step_size * back.sum(axis=-2)
        self.w2 -= step_size * grad_w2
        self.b2 -= step_size * grad_b2


def _stack(models):
    """Models of one family as one model with a leading trial axis."""
    first = models[0]
    return replace(
        first, **{name: np.stack([getattr(m, name) for m in models]) for name in vars(first)}
    )


def _take(models, index):
    """The trials of a model stack at index: an int, a slice or a mask."""
    return replace(models, **{name: value[index] for name, value in vars(models).items()})


def _put(models, index, part) -> None:
    """Write the trials of part into a model stack at index."""
    for name, value in vars(models).items():
        value[index] = getattr(part, name)


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
        check_count(self.hidden_width, "hidden width", 1)
        if not self.step_size > 0.0:
            raise DomainError(f"step size must be positive, got {self.step_size}")
        check_count(self.batch_size, "batch size", 1)
        check_count(self.evaluation_cadence, "evaluation cadence", 1)

    def build_model(self, dimension: int, rng: np.random.Generator | None):
        """A fresh model; only the hidden layer draws from rng."""
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


def _check_noise(eta: float) -> None:
    if not 0.0 <= eta < 0.5:
        raise DomainError(f"noise at or above one-half is unlearnable: eta={eta}")


def _check_target_and_budget(epsilon_target: float, sample_budget: int) -> None:
    if not 0.0 < epsilon_target < 1.0:
        raise DomainError(f"epsilon target must lie in (0, 1), got {epsilon_target}")
    check_count(sample_budget, "sample budget", 0)


def _noisy_rows(task: SyntheticTask, eta: float, seeds, start: int, count: int, bitgen):
    """Rows [start, start + count) of each seed's noisy stream: (T, count, d)
    inputs and (T, count) labels, 0.0 or 1.0.

    Row r of seed s is words [rW, (r + 1)W) of the random_raw stream of a
    Philox keyed by the 64-bit words (s, 0), W = 4 * ceil((d' + 2) / 4) for
    d' = d rounded up to even; bitgen is a Philox reused with its state set
    per seed.  Word 0's top bit is the cluster side; word 1's top 53 bits are
    u in [0, 1), and the label flips iff u < eta; the next d' words pair up as
    Box-Muller (u1, u2), u1 in (0, 1].  Every step, the label's dot product
    included, is elementwise on fresh arrays, so a row's bits do not depend
    on what is drawn with it.
    """
    dimension, pairs = task.dimension, (task.dimension + 1) // 2
    width = 4 * -(-(2 * pairs + 2) // 4)
    state = bitgen.state
    state["state"]["counter"][:] = (start * width // 4, 0, 0, 0)
    state["state"]["key"][1], state["buffer_pos"] = 0, 4
    words = np.empty((len(seeds), count, width), dtype=np.uint64)
    for row, seed in zip(words.reshape(len(seeds), -1), seeds):
        state["state"]["key"][0] = seed
        bitgen.state = state
        row[:] = bitgen.random_raw(count * width)
    # Box-Muller in place, so that a draw holds few large temporaries
    radius = ((words[..., 2:2 + 2 * pairs:2] >> np.uint64(11)) + np.uint64(1)) * _UNIT
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = (words[..., 3:3 + 2 * pairs:2] >> np.uint64(11)) * _UNIT
    angle *= 2.0 * math.pi
    normals = np.empty(radius.shape + (2,))
    np.multiply(radius, np.cos(angle), out=normals[..., 0])
    np.multiply(radius, np.sin(angle, out=angle), out=normals[..., 1])
    xs = normals.reshape(radius.shape[:-1] + (2 * pairs,))[..., :dimension]
    xs = xs + task._offsets[words[..., 0] >> np.uint64(63)]
    score = xs[..., 0] * task.direction[0]
    for axis in range(1, dimension):
        score += xs[..., axis] * task.direction[axis]
    labels = (score >= 0.0) ^ ((words[..., 1] >> np.uint64(11)) * _UNIT < eta)
    return xs, labels.astype(np.float64)


def noisy_stream(
    task: SyntheticTask, eta: float, seed: int
) -> Iterator[tuple[np.ndarray, int]]:
    """Infinite stream of (input, concept label xor Bernoulli(eta)) pairs.

    The one-seed view of the rows run_trials draws (see _noisy_rows); seed
    is an int in [0, 2**64).
    """
    _check_noise(eta)
    check_seed(seed, "stream seed")
    if seed >= 2**64:
        raise DomainError(f"stream seed must be below 2**64, got {seed!r}")
    bitgen = np.random.Philox(0)
    blocks = (
        _noisy_rows(task, eta, [int(seed)], start, _CHUNK, bitgen)
        for start in itertools.count(0, _CHUNK)
    )
    return ((x, int(y)) for xs, ys in blocks for x, y in zip(xs[0], ys[0].tolist()))


def dataset_stream(
    dataset: Sequence[tuple[np.ndarray, int]]
) -> Iterator[tuple[np.ndarray, int]]:
    """Finite stream over an already-delivered dataset, in order."""
    return iter(dataset)


def _stream_draw(sample_stream: Iterable[tuple[np.ndarray, int]]):
    """The draw function of one trial that reads any sample stream."""
    stream = iter(sample_stream)

    def draw(active: np.ndarray, start: int, count: int):
        rows = list(itertools.islice(stream, count))
        if not rows:
            return None
        xs, ys = zip(*rows)
        return np.asarray(xs)[None], np.asarray(ys, dtype=np.float64)[None]

    return draw


def _linear_wrong(task: SyntheticTask, weights: np.ndarray, biases: np.ndarray):
    """Held-out misclassification counts of h linear hypotheses: (h, d), (h,) -> (h,).

    Each block of hypotheses is one GEMM z = [W | b] @ columns over the
    task's signed columns s_i (x_i, 1); row i is wrong iff z_i < 0.  The
    GEMM sums in its own order, so its z_i may differ in the last bits from
    LinearThresholdModel._decide, which thresholds fl(fl(x_i . w) + b) at 0.
    Both lie within gamma_{d+1} * sum_j |a_j c_j| + (d + 1) * 2**-1074 of the
    exact value (Higham 2002, section 3.1), and sum_j |a_j c_j| <= max_j |a_j|
    * C, C the largest column 1-norm; max_j |a_j| is exact, so the bound
    cannot underflow.  A hypothesis whose every |z_i| exceeds
    tol = 4 (d + 1) u max_j |a_j| C + (d + 1) * 2**-1072, about twice the
    sum of both errors (the slack covers the rounding of C and of tol), gets
    the exact verdict from the GEMM: z_i and _decide's score then share the
    sign of the exact value.  Any other hypothesis (a tie, a margin under
    tol, NaN or inf, or a scale at which a partial sum could overflow) is
    scored by _decide itself.  So the counts equal _decide's whatever the
    BLAS, its thread count or the block size.
    """
    columns, largest = task._signed_columns
    terms, count = columns.shape
    if count == 0:
        raise DomainError("cannot evaluate on an empty test set")
    rounding, underflow = 4.0 * terms * _UNIT, terms * 2.0**-1072
    wrong = np.empty(len(biases), dtype=np.int64)
    rows = max(1, _EVAL_FLOATS // count)
    for start in range(0, len(biases), rows):
        part = slice(start, start + rows)
        hypotheses = np.column_stack((weights[part], biases[part]))
        scale = np.abs(hypotheses).max(axis=1) * largest
        z = hypotheses @ columns
        wrong[part] = (z < 0.0).sum(axis=1, dtype=np.int32)  # int32: faster than intp
        margin = np.abs(z, out=z).min(axis=1)
        exact = (margin > scale * rounding + underflow) & (scale < 2.0**1020)
        slow = start + np.flatnonzero(~exact)
        if len(slow):
            model = LinearThresholdModel(weights=weights[slow], bias=biases[slow])
            wrong[slow] = np.count_nonzero(model._decide(task.test_x) != task.test_y, axis=-1)
    return wrong


def _test_errors(models, count: int, task: SyntheticTask, width: int) -> np.ndarray:
    """Held-out error of each of count stacked trials, a bounded block at a time."""
    test_x, test_y = task.test_x, task.test_y
    if isinstance(models, LinearThresholdModel):
        return _linear_wrong(task, models.weights, models.bias) / len(test_x)
    if len(test_x) == 0:
        raise DomainError("cannot evaluate on an empty test set")
    block = max(1, _EVAL_FLOATS // (len(test_x) * width))
    errors = np.empty(count)
    for start in range(0, count, block):
        part = slice(start, start + block)
        wrong = _take(models, part).predict(test_x) != test_y
        errors[part] = np.count_nonzero(wrong, axis=-1) / len(test_x)
    return errors


def _train_lockstep(
    task: SyntheticTask,
    draw,
    models,
    seeds: Sequence[int],
    epsilon_target: float,
    config: LearnerConfig,
    sample_budget: int,
):
    """Train a stack of trials together; returns (trials, final model stack).

    The trials share budget, batch size and cadence, so they are always at
    the same consumed count and evaluate together; each SGD step and each
    evaluation covers every active trial, and a trial that halts leaves the
    stack.  A step draws the rows up to the next evaluation, in whole batches
    cut at the budget and at _GROUP_FLOATS: draw(active, start, count) returns
    the (T, k, d) inputs and (T, k) labels of rows [start, start + k) of the
    active trial slots, k <= count, or None once the stream is exhausted.
    Every trial gets the record and weights of training it alone.
    """
    # models is final until the first halt compacts it into a copy; from then
    # on final keeps the weights each trial had when it left the stack.
    final = models
    active = np.arange(len(seeds))
    width = config.hidden_width if config.model == "one-hidden-layer" else 1
    batch = config.batch_size
    trials: list[LearningTrial | None] = [None] * len(seeds)

    def record(slots, done, consumed, halted, errors):
        _put(final, slots, done)
        for slot, error in zip(slots.tolist(), errors.tolist()):
            trials[slot] = LearningTrial(
                seed=seeds[slot],
                samples_consumed=consumed,
                halted=halted,
                final_test_error=error,
            )

    consumed = 0
    next_eval = config.evaluation_cadence
    errors = None
    while consumed < sample_budget and len(active):
        ahead = batch * -(-(next_eval - consumed) // batch)
        bound = batch * max(1, _GROUP_FLOATS // (len(active) * task.dimension * batch))
        drawn = draw(active, consumed, min(ahead, bound, sample_budget - consumed))
        if drawn is None:
            break
        xs, ys = drawn
        for start in range(0, ys.shape[-1], batch):
            rows = slice(start, start + batch)
            models.sgd_step(np.ascontiguousarray(xs[:, rows]), ys[:, rows], config.step_size)
        consumed += ys.shape[-1]
        errors = None
        if consumed >= next_eval:
            next_eval += config.evaluation_cadence * (
                1 + (consumed - next_eval) // config.evaluation_cadence
            )
            errors = _test_errors(models, len(active), task, width)
            halted = errors <= epsilon_target
            if halted.any():
                record(active[halted], _take(models, halted), consumed, True, errors[halted])
                kept = ~halted
                active, models, errors = active[kept], _take(models, kept), errors[kept]
    if len(active):
        if errors is None:
            errors = _test_errors(models, len(active), task, width)
        record(active, models, consumed, False, errors)
    return trials, final


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
    _check_target_and_budget(epsilon_target, sample_budget)
    models = _stack([config.build_model(task.dimension, np.random.default_rng(seed))])
    trials, final = _train_lockstep(
        task, _stream_draw(sample_stream), models, [seed], epsilon_target, config,
        sample_budget,
    )
    return trials[0], _take(final, 0)


def random_halfspace_sampler(dimension: int) -> Callable[[np.random.Generator], LinearThresholdModel]:
    """Prior over hypotheses: standard normal weights and bias."""

    def sample(rng: np.random.Generator) -> LinearThresholdModel:
        return LinearThresholdModel(
            weights=rng.standard_normal(dimension), bias=float(rng.standard_normal())
        )

    return sample


def _halfspace_errors(task: SyntheticTask, rngs: Sequence[np.random.Generator]):
    """A _search_lockstep scorer for random_halfspace_sampler draws, in blocks.

    One standard_normal((k, d + 1)) call gives the numbers of k sequential
    sampler calls, each row the d weights then the bias.  The draws of a few
    trials at a time, about _EVAL_FLOATS / n hypotheses, are scored by one
    _linear_wrong call, which certifies each verdict against the one
    hypothesis's predict; scores >= -bias there equals scores + bias >= 0,
    since normal draws are finite.
    """
    count, dimension = task.test_x.shape

    def errors(active: list[int], k: int) -> list[list[float]]:
        if count == 0:
            raise DomainError("cannot evaluate on an empty test set")
        out = np.empty((len(active), k))
        chunk = max(1, _EVAL_FLOATS // (count * k))
        for start in range(0, len(active), chunk):
            slots = active[start:start + chunk]
            draws = np.concatenate(
                [rngs[slot].standard_normal((k, dimension + 1)) for slot in slots]
            )
            wrong = _linear_wrong(task, draws[:, :dimension], draws[:, dimension])
            out[start:start + len(slots)] = wrong.reshape(len(slots), k) / count
        return out.tolist()

    return errors


def _search_lockstep(
    errors, seeds: Sequence[int], epsilon_target: float, sample_budget: int, block: int
) -> list[LearningTrial]:
    """Random-search trials in lockstep, under the one random-search halting rule.

    errors(active, k) returns, for each active trial slot in order, the
    held-out errors of the next k hypotheses it draws from its own generator.
    Each step scores a block of up to `block` draws per trial, the last block
    cut at the budget.  A trial halts at its first draw at or below the
    target and reports that draw's index and error; the rest of its block is
    discarded.  An unhalted trial reports the budget and the best error over
    exactly that many draws, 1.0 when it drew none.
    """
    trials: list[LearningTrial | None] = [None] * len(seeds)
    best = [1.0] * len(seeds)
    active = list(range(len(seeds)))
    drawn = 0
    while drawn < sample_budget and active:
        k = min(block, sample_budget - drawn)
        searching = []
        for slot, row in zip(active, errors(active, k)):
            lowest = min(row)
            if lowest > epsilon_target:
                best[slot] = min(best[slot], lowest)
                searching.append(slot)
                continue
            index = [error <= epsilon_target for error in row].index(True)
            trials[slot] = LearningTrial(
                seed=seeds[slot],
                samples_consumed=drawn + index + 1,
                halted=True,
                final_test_error=row[index],
            )
        active = searching
        drawn += k
    for slot in active:
        trials[slot] = LearningTrial(
            seed=seeds[slot],
            samples_consumed=sample_budget,
            halted=False,
            final_test_error=best[slot],
        )
    return trials


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
    This is the one-trial case of the lockstep engine, in blocks of one
    sampler call.
    """
    _check_target_and_budget(epsilon_target, sample_budget)
    rng = np.random.default_rng(seed)
    truth = task.test_y.astype(bool)

    def errors(active: list[int], k: int) -> list[list[float]]:
        return [[evaluate_error(hypothesis_sampler(rng), task.test_x, truth)]]

    return _search_lockstep(errors, [seed], epsilon_target, sample_budget, 1)[0]


# ---------------------------------------------------------------------------
# trial batches and learning-probability curves
# ---------------------------------------------------------------------------

def _hasher(const: int, multiplier: int):
    """seed_seq_fe's hash of uint32 arrays; each call steps its running constant."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * multiplier & 0xFFFFFFFF
        value *= np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return x ^ x >> np.uint32(16)


def _seed_pairs(base_seed: int, indices) -> np.ndarray:
    """(T, 2) uint32: row t is SeedSequence((base_seed, indices[t])).generate_state(2).

    SeedSequence hashes each int's little-endian 32-bit words (one at least)
    with constants that never depend on the data, so every step is one
    elementwise op over all rows.  An index in [0, 2**32) has no high word:
    inside the pool of 4 it hashes as 0, past it it is skipped.
    """
    check_seed(base_seed, "base seed")
    seed, index = int(base_seed), np.asarray(indices, dtype=np.uint64).reshape(-1)
    high = (index >> np.uint64(32)).astype(np.uint32)
    entropy = [
        np.full(len(index), seed >> shift & 0xFFFFFFFF, np.uint32)
        for shift in range(0, max(1, seed.bit_length()), 32)
    ] + [index.astype(np.uint32), high]
    hashmix = _hasher(*_HASH_A)
    padded = entropy + [np.zeros_like(high)] * _POOL_SIZE
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        present = high != 0 if word is high else True
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(present, _mix(pool[dst], hashmix(word)), pool[dst])
    output = _hasher(*_HASH_B)
    return np.stack([output(pool[0]), output(pool[1])], axis=1)


def _gradient_block(task, eta, epsilon_target, config, sample_budget, base_seed, indices):
    """The gradient trials of the given indices, in lockstep: (trials, final models).

    Trial i streams from the first word of its (base_seed, i) seed pair and
    draws its initial model from the second, which is also its record seed.
    Linear models start at zero and draw nothing, so they get no generator.
    """
    pairs = _seed_pairs(base_seed, indices)
    model_seeds = pairs[:, 1].tolist()
    if config.model == "linear-threshold":
        shape = (len(pairs), task.dimension)
        models = LinearThresholdModel(weights=np.zeros(shape), bias=np.zeros(shape[0]))
    else:
        rngs = map(np.random.default_rng, model_seeds)
        models = _stack([config.build_model(task.dimension, rng) for rng in rngs])
    bitgen = np.random.Philox(0)

    def draw(active: np.ndarray, start: int, count: int):
        return _noisy_rows(task, eta, pairs[active, 0].tolist(), start, count, bitgen)

    return _train_lockstep(
        task, draw, models, model_seeds, epsilon_target, config, sample_budget
    )


def _split(indices: range, parts: int) -> list[range]:
    """indices as at most parts contiguous, non-empty ranges of near-equal length."""
    edges = [len(indices) * k // parts for k in range(parts + 1)]
    return [indices[a:b] for a, b in zip(edges, edges[1:]) if a < b]


def _search_block(task, epsilon_target, sample_budget, base_seed, indices):
    """The random-search trials of the given indices, in lockstep.

    Trial i draws its hypotheses from the first word of its (base_seed, i)
    seed pair, which is also its record seed.
    """
    seeds = _seed_pairs(base_seed, indices)[:, 0].tolist()
    errors = _halfspace_errors(task, [np.random.default_rng(seed) for seed in seeds])
    return _search_lockstep(errors, seeds, epsilon_target, sample_budget, _SEARCH_BLOCK)


def _run_block(job) -> list[LearningTrial]:
    task, eta, epsilon_target, config, budget, base_seed, learner, indices = job
    if learner == "random-search":
        group = _SEARCH_GROUP

        def run(part):
            return _search_block(task, epsilon_target, budget, base_seed, part)
    else:
        group = max(1, _GROUP_FLOATS // (config.batch_size * task.dimension))

        def run(part):
            return _gradient_block(
                task, eta, epsilon_target, config, budget, base_seed, part
            )[0]

    return [
        trial for part in _split(indices, -(-len(indices) // group)) for trial in run(part)
    ]


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
    result list is identical no matter how many workers ran it; each worker
    runs one contiguous block of indices.  Every argument is checked before
    any trial runs, eta included even when no sample is drawn.
    """
    if learner not in ("gradient", "random-search"):
        raise DomainError(f"learner must be gradient or random-search, got {learner!r}")
    _check_noise(eta)
    _check_target_and_budget(epsilon_target, sample_budget)
    check_count(n_trials, "trial count", 1)
    check_count(workers, "worker count", 1)
    check_seed(base_seed, "base seed")
    jobs = [
        (task, eta, epsilon_target, config, sample_budget, base_seed, learner, block)
        for block in _split(range(n_trials), workers)
    ]
    if len(jobs) == 1:
        return _run_block(jobs[0])
    # imported here, so that importing the package loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return [trial for block in pool.map(_run_block, jobs) for trial in block]


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
