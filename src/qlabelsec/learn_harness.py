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

import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError, check_count, check_grid, check_interval, check_noise, check_seed,
    check_trial_count,
)
from .pac_bounds import sample_bound_noisy
from .protocol import ConceptSource
from .stats import wilson_interval

__all__ = [
    "concept_bits",
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
    "noisy_sample",
    "train_until",
    "random_halfspace_sampler",
    "random_search_learner",
    "random_search_trials",
    "run_trials",
    "estimate_learning_probability",
    "default_sample_budget",
    "log_hypothesis_count",
]

# Weights are treated as if discretized to 32 levels per parameter when a
# finite hypothesis-class size is needed for the bound formulas.
_DISCRETIZATION_LEVELS = 32

_TEST_SIZE = 2000  # held-out points per task
_BUDGET_CAP = 1_000_000  # largest default_sample_budget

# Largest per-block evaluation temporary, in float64s: held-out rows times
# hidden units (one for linear models), summed over the block's trials.  A
# linear block is one GEMM whose result is this size, 32 hypotheses against
# a 2000-point held-out set.
_EVAL_FLOATS = 65_536
# Largest draw of a lockstep step, in float64s: trials times rows times
# dimension for gradient trials, trials times _SEARCH_BLOCK hypotheses times
# (dimension + 1) for random search.  Trials whose one batch or block would
# exceed it run as several groups, so memory stays bounded whatever the trial
# count.
_GROUP_FLOATS = 131_072
# Scale of a 53-bit integer to a double in [0, 1); also the unit roundoff u.
_UNIT = 2.0**-53
# Hypotheses each random-search trial draws and scores per lockstep step.
_SEARCH_BLOCK = 8
# A linear draw's bias as the last 8 bytes of its row (see _linear_row).
_pack_float = struct.Struct("=d").pack


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def concept_bits(xs: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """[x . direction >= 0] for each row x of an (..., d) array, as bools.

    Each bit is the sign of the exact dot product, whatever the BLAS.  One
    matmul gives scores s within gamma_d * A + d * 2**-1074 of the exact value
    in any summation order, A = sum_j |x_j c_j| (Higham 2002, section 3.1); s
    has the exact sign when |s| > 2 d u A + d * 2**-1072 and A < 2**1020 (no
    partial sum overflows).  Any other finite row is a tie if each product has
    a zero factor, else summed as Fractions; a NaN or inf row keeps s >= 0.
    """
    direction = np.asarray(direction, dtype=np.float64)
    terms = direction.shape[-1]
    rows = np.asarray(xs, dtype=np.float64).reshape(-1, terms)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are decided below
        score = np.matmul(rows, direction)
        scale = np.matmul(np.abs(rows), np.abs(direction))
    bits = score >= 0.0
    certain = np.abs(score) > scale * (2.0 * terms * _UNIT) + terms * 2.0**-1072
    certain &= scale < 2.0**1020
    if not certain.all() and np.isfinite(direction).all():
        certain |= ((rows == 0.0) | (direction == 0.0)).all(axis=1)
        factors = [Fraction(c) for c in direction.tolist()]
        for row in np.flatnonzero(~certain & np.isfinite(rows).all(axis=1)).tolist():
            exact = sum(Fraction(x) * c for x, c in zip(rows[row].tolist(), factors))
            bits[row] = exact >= 0
    return bits.reshape(np.shape(xs)[:-1])


@dataclass(frozen=True)
class TaskLabeler:
    """Halfspace concept c(x) = [x . direction >= 0], as concept_bits decides it."""

    direction: np.ndarray

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return concept_bits(xs, self.direction).astype(np.int64)


@dataclass(frozen=True)
class SyntheticTask:
    """Two Gaussian clusters at +/- (separation/2) along a unit direction.

    Labels everywhere (stream and held-out set) are the halfspace concept,
    so a perfect hypothesis exists.  analytic_overlap = Phi(-separation/2)
    is the exact mass each cluster sends across the midplane: for a unit
    direction, x . direction ~ N(-/+ separation/2, 1) on the two sides.
    """

    dimension: int
    separation: float
    direction: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    analytic_overlap: float

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
        """Session inputs and labels: round r of session seed s is row r of
        the eta = 0 stream keyed by (K, 1) (see _noisy_rows), K the first
        64-bit word of SeedSequence(s).  No label flips, so each bit is
        concept_bits' label of its row."""

        def rows(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
            keys = _trial_seeds(seed, [0])
            xs, bits = _noisy_rows(self, 0.0, keys, 0, count, np.random.Philox(0), 1)
            return xs[0], bits[0]

        return ConceptSource(rows)


def generate_task(
    dimension: int,
    separation: float,
    seed: int,
    epsilon_target: float | None = None,
) -> SyntheticTask:
    """Build a task, rejecting geometries too overlapped for the target.

    When epsilon_target is given, the cluster-vs-concept overlap
    Phi(-separation/2) must stay below epsilon_target / 2; otherwise trials
    could stall for geometric reasons and noise comparisons would be
    confounded.  Every argument and the overlap are checked before the first
    draw.  The draws are the direction, then the _TEST_SIZE-point held-out
    set through sample_inputs; its labels are the concept's.
    """
    check_count(dimension, "dimension", 2)
    check_interval(separation, "separation", 0.0, math.inf, "()")
    if epsilon_target is not None:
        check_interval(epsilon_target, "epsilon target", 0.0, 1.0, "()")
    check_seed(seed, "task seed")
    analytic = 0.5 * math.erfc(separation / (2.0 * math.sqrt(2.0)))
    if epsilon_target is not None and analytic >= epsilon_target / 2.0:
        raise DomainError(
            f"separation {separation} leaves overlap {analytic:.4g} >= "
            f"{epsilon_target / 2.0:.4g}; the accuracy target {epsilon_target} "
            f"is not cleanly reachable"
        )

    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dimension)
    direction /= math.sqrt(float(direction @ direction))
    task = SyntheticTask(
        dimension=dimension,
        separation=separation,
        direction=direction,
        test_x=np.empty((0, dimension)),
        test_y=np.empty(0, dtype=np.int64),
        analytic_overlap=analytic,
    )
    test_x = task.sample_inputs(_TEST_SIZE, rng)
    test_y = concept_bits(test_x, direction).astype(np.int64)
    return replace(task, test_x=test_x, test_y=test_y)


def evaluate_error(hypothesis, test_x: np.ndarray, test_y: np.ndarray) -> float:
    """Misclassification fraction of a hypothesis on a labeled set."""
    if len(test_x) == 0:
        raise DomainError("cannot evaluate on an empty test set")
    wrong = hypothesis.predict(test_x) != test_y
    return float(np.count_nonzero(wrong) / len(test_x))


def _matvec(xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """xs @ v over any leading trial axes, one BLAS call per trial slice.

    Each slice gets the bits of the 2-D ``xs @ v``.  einsum, ``(xs * v).sum``
    or one GEMM over all trials sum in other orders, but every order lies
    within the bound concept_bits uses; _linear_wrong uses it to score
    held-out sets with one GEMM and still agree with this product's sign.
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


def _take(models, index):
    """The trials of a model stack at index: an int, a slice or a mask."""
    return replace(models, **{name: value[index] for name, value in vars(models).items()})


def _put(models, index, part) -> None:
    """Write the trials of part into a model stack at index."""
    for name, value in vars(models).items():
        value[index] = getattr(part, name)


MODEL_KINDS = ("linear-threshold", "one-hidden-layer")
LEARNER_KINDS = ("gradient", "random-search")


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
        check_interval(self.step_size, "step size", 0.0, math.inf, "()")
        check_count(self.batch_size, "batch size", 1)
        check_count(self.evaluation_cadence, "evaluation cadence", 1)

    def initial_models(self, dimension: int, seeds: Sequence[int]):
        """Fresh models for the given seeds, one model with a leading trial axis.

        A linear trial starts at zero and draws nothing.  Hidden-layer trial
        i draws w1 and then w2 from default_rng(seeds[i]); its biases start
        at zero.
        """
        count = len(seeds)
        if self.model == "linear-threshold":
            return LinearThresholdModel(
                weights=np.zeros((count, dimension)), bias=np.zeros(count)
            )
        width = self.hidden_width
        w1, w2 = np.empty((count, dimension, width)), np.empty((count, width))
        for seed, first, second in zip(seeds, w1, w2):
            rng = np.random.default_rng(seed)
            first[:] = rng.normal(0.0, 1.0 / math.sqrt(dimension), size=(dimension, width))
            second[:] = rng.normal(0.0, 0.5, size=width)
        return OneHiddenLayerModel(
            w1=w1, b1=np.zeros((count, width)), w2=w2, b2=np.zeros(count)
        )


def log_hypothesis_count(config: LearnerConfig, dimension: int) -> float:
    """ln of the effective class size: 32 levels per trainable parameter."""
    model = config.initial_models(dimension, [0])
    return sum(value.size for value in vars(model).values()) * math.log(_DISCRETIZATION_LEVELS)


def default_sample_budget(epsilon_target: float, eta: float, log_h: float) -> int:
    """50x the noisy sample bound at delta = 1/2, capped at _BUDGET_CAP.

    The bound is loose, so the default budget is generous on purpose: a
    budget that censors the halting distribution in the region being plotted
    would bias every curve downward.
    """
    bound = sample_bound_noisy(epsilon_target, 0.5, log_h, eta)
    return min(50 * bound, _BUDGET_CAP)


@dataclass(frozen=True)
class LearningTrial:
    seed: int
    samples_consumed: int
    halted: bool
    final_test_error: float


def _noisy_rows(
    task: SyntheticTask, eta: float, seeds, start: int, count: int, bitgen, word: int = 0
):
    """Rows [start, start + count) of each seed's noisy stream: (T, count, d)
    inputs and (T, count) labels, 0.0 or 1.0.

    Row r of seed s is words [rW, (r + 1)W) of the random_raw stream of a
    Philox keyed by the 64-bit words (s, word), word 0 for trial streams and
    1 for session inputs; W = 4 * ceil((d' + 2) / 4) for d' = d rounded up to
    even; bitgen is a Philox reused with its state set per seed.  Word 0's top bit is the cluster side; word 1's top 53 bits are
    u in [0, 1), and the label flips iff u < eta; the next d' words pair up as
    Box-Muller (u1, u2), u1 in (0, 1].  Every step is elementwise on fresh
    arrays and the concept label is concept_bits', so a row's bits do not
    depend on what is drawn with it.
    """
    dimension, pairs = task.dimension, (task.dimension + 1) // 2
    width = 4 * -(-(2 * pairs + 2) // 4)
    state = bitgen.state
    state["state"]["counter"][:] = (start * width // 4, 0, 0, 0)
    state["state"]["key"][1], state["buffer_pos"] = word, 4
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
    del radius, angle  # freed before the offset rows and the labels are made
    xs = normals.reshape(normals.shape[:-2] + (2 * pairs,))[..., :dimension]
    xs = xs + task._offsets[words[..., 0] >> np.uint64(63)]
    flips = (words[..., 1] >> np.uint64(11)) * _UNIT < eta
    labels = concept_bits(xs, task.direction) ^ flips
    return xs, labels.astype(np.float64)


def noisy_sample(
    task: SyntheticTask, eta: float, seed: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first count rows of one seed's noisy stream: (count, d) inputs and
    count labels, each the concept label xor Bernoulli(eta), 0 or 1.

    The one-seed view of the rows run_trials draws (see _noisy_rows); seed
    is an int in [0, 2**64).
    """
    check_noise(eta)
    check_seed(seed, "stream seed")
    if seed >= 2**64:
        raise DomainError(f"stream seed must be below 2**64, got {seed!r}")
    check_count(count, "row count", 0)
    xs, ys = _noisy_rows(task, eta, [int(seed)], 0, count, np.random.Philox(0))
    return xs[0], ys[0].astype(np.int64)


def _linear_wrong(task: SyntheticTask, hypotheses: np.ndarray) -> np.ndarray:
    """Held-out misclassification counts of h linear hypotheses: (h, d + 1) rows (w, b) -> (h,).

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
    wrong = np.empty(len(hypotheses), dtype=np.int64)
    rows = max(1, _EVAL_FLOATS // count)
    # one product buffer for all blocks rather than a large temporary per block
    products = np.empty((min(rows, len(hypotheses)), count))
    for start in range(0, len(hypotheses), rows):
        block = hypotheses[start:start + rows]
        scale = np.abs(block).max(axis=1) * largest
        z = np.matmul(block, columns, out=products[:len(block)])
        # int32: faster than intp
        wrong[start:start + rows] = (z < 0.0).sum(axis=1, dtype=np.int32)
        margin = np.abs(z, out=z).min(axis=1)
        exact = (margin > scale * rounding + underflow) & (scale < 2.0**1020)
        if not exact.all():
            slow = start + np.flatnonzero(~exact)
            uncertified = hypotheses[slow]
            model = LinearThresholdModel(weights=uncertified[:, :-1], bias=uncertified[:, -1])
            wrong[slow] = np.count_nonzero(model._decide(task.test_x) != task.test_y, axis=-1)
    return wrong


def _test_errors(models, task: SyntheticTask) -> np.ndarray:
    """Held-out error of each stacked trial, a bounded block at a time."""
    test_x, test_y = task.test_x, task.test_y
    if isinstance(models, LinearThresholdModel):
        hypotheses = np.column_stack((models.weights, models.bias))
        return _linear_wrong(task, hypotheses) / len(test_x)
    if len(test_x) == 0:
        raise DomainError("cannot evaluate on an empty test set")
    count, _, width = models.w1.shape
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
            errors = _test_errors(models, task)
            halted = errors <= epsilon_target
            if halted.any():
                record(active[halted], _take(models, halted), consumed, True, errors[halted])
                kept = ~halted
                active, models, errors = active[kept], _take(models, kept), errors[kept]
    if len(active):
        if errors is None:
            errors = _test_errors(models, task)
        record(active, models, consumed, False, errors)
    return trials, final


def train_until(
    task: SyntheticTask,
    inputs: np.ndarray,
    labels: np.ndarray,
    epsilon_target: float,
    config: LearnerConfig,
    sample_budget: int,
    seed: int = 0,
):
    """Train on the rows in order until the clean test error reaches the target.

    inputs is an (n, d) array of finite values, d = task.dimension, and
    labels holds n bits, 0 or 1: a ``noisy_sample``, or a session dataset's
    ``.inputs`` and ``.labels``.  Returns (trial, model).  The clean held-out
    set is evaluated whenever the consumed-sample count crosses a multiple of
    the cadence (at batch granularity); the trial halts at the first such
    evaluation with error at or below epsilon_target.  Exhausting the budget
    or the rows ends the trial unhalted, with a last evaluation recorded for
    reporting only, so the cadence is part of what a halting probability
    means.
    """
    check_interval(epsilon_target, "epsilon target", 0.0, 1.0, "()")
    check_count(sample_budget, "sample budget", 0)
    check_seed(seed, "model seed")
    xs = np.asarray(inputs, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != task.dimension:
        raise DomainError(f"inputs must be (n, {task.dimension}), got shape {xs.shape}")
    if ys.shape != xs.shape[:1]:
        raise DomainError(f"need {len(xs)} labels, one per input row, got shape {ys.shape}")
    if not np.isfinite(xs).all():
        raise DomainError("inputs must be finite")
    if not ((ys == 0.0) | (ys == 1.0)).all():
        raise DomainError("labels must be 0 or 1")

    def draw(active: np.ndarray, start: int, count: int):
        if start >= len(ys):
            return None
        return xs[None, start:start + count], ys[None, start:start + count]

    models = config.initial_models(task.dimension, [seed])
    trials, final = _train_lockstep(
        task, draw, models, [seed], epsilon_target, config, sample_budget
    )
    return trials[0], _take(final, 0)


@dataclass(frozen=True)
class _HalfspaceSampler:
    """Prior over hypotheses: standard normal weights, then a standard normal bias."""

    dimension: int

    def __call__(self, rng: np.random.Generator) -> LinearThresholdModel:
        return LinearThresholdModel(
            weights=rng.standard_normal(self.dimension), bias=float(rng.standard_normal())
        )


def random_halfspace_sampler(dimension: int) -> Callable[[np.random.Generator], LinearThresholdModel]:
    """Prior over hypotheses: standard normal weights and bias.

    Samplers of equal dimension compare equal; random_search_trials scores
    the draws of one whose dimension is the task's in blocks.
    """
    check_count(dimension, "dimension", 1)
    return _HalfspaceSampler(dimension)


def _halfspace_errors(task: SyntheticTask, rngs: Sequence[np.random.Generator]):
    """A _search_lockstep scorer for random_halfspace_sampler draws.

    One standard_normal((k, d + 1)) call gives the numbers of k sequential
    sampler calls, each row the d weights then the bias.  A step's draws, of
    every active trial, are scored by one _linear_wrong call, which blocks
    its GEMM and certifies each verdict against the one hypothesis's predict;
    scores >= -bias there equals scores + bias >= 0, since normal draws are
    finite.
    """
    count, dimension = task.test_x.shape

    def errors(active: list[int], k: int) -> list[list[float]]:
        draws = np.concatenate([rngs[slot].standard_normal((k, dimension + 1)) for slot in active])
        return (_linear_wrong(task, draws).reshape(len(active), k) / count).tolist()

    return errors


def _search_lockstep(
    errors, seeds: Sequence[int], epsilon_target: float, sample_budget: int
) -> list[LearningTrial]:
    """Random-search trials in lockstep, under the one random-search halting rule.

    errors(active, k) returns, for each active trial slot in order, the
    held-out errors of the next k hypotheses it draws from its own generator.
    Each step scores a block of up to _SEARCH_BLOCK draws per trial, read at
    call time, the last block cut at the budget.  A trial halts at its first
    draw at or below the target and reports that draw's index and error; the
    rest of its block is discarded.  An unhalted trial reports the budget and
    the best error over exactly that many draws, 1.0 when it drew none.
    """
    trials: list[LearningTrial | None] = [None] * len(seeds)
    best = [1.0] * len(seeds)
    active = list(range(len(seeds)))
    drawn = 0
    while drawn < sample_budget and active:
        k = min(_SEARCH_BLOCK, sample_budget - drawn)
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


def _linear_row(hypothesis, dimension: int) -> bytes | None:
    """The bytes of a linear draw's (w, b) row, or None for any other draw.

    A linear draw is a LinearThresholdModel with a float bias whose weight
    vector is a C-contiguous, native float64 array of length dimension.  The
    bytes are a copy taken now, so a draw mutated later keeps the verdict it
    had when drawn.
    """
    if type(hypothesis) is not LinearThresholdModel or not isinstance(hypothesis.bias, float):
        return None
    weights = hypothesis.weights
    if (
        type(weights) is np.ndarray
        and weights.dtype == np.float64
        and weights.shape == (dimension,)
        and weights.flags.c_contiguous
    ):
        return weights.tobytes() + _pack_float(hypothesis.bias)
    return None


def _sampler_errors(
    task: SyntheticTask, hypothesis_sampler, rngs: Sequence[np.random.Generator]
):
    """A _search_lockstep scorer for the draws of any hypothesis sampler.

    Each active trial calls the sampler k times on its own generator.  A
    linear draw (see _linear_row) is scored by its row bytes: the step's
    distinct rows are scored by one _linear_wrong call, so a finite class
    costs one GEMM row per member per step.  Any other draw is scored alone
    by evaluate_error.
    """
    test_x, test_y = task.test_x, task.test_y
    count, dimension = test_x.shape

    def errors(active: list[int], k: int) -> list[list[float]]:
        # each draw's error, or for a linear row its bytes
        found, fresh = [], {}
        for slot in active:
            rng = rngs[slot]
            for _ in range(k):
                hypothesis = hypothesis_sampler(rng)
                row = _linear_row(hypothesis, dimension)
                if row is None:
                    found.append(evaluate_error(hypothesis, test_x, test_y))
                else:
                    found.append(fresh.setdefault(row, row))
        if fresh:
            hypotheses = np.frombuffer(b"".join(fresh), dtype=np.float64)
            wrong = _linear_wrong(task, hypotheses.reshape(len(fresh), dimension + 1))
            scored = dict(zip(fresh, (wrong / count).tolist()))
            found = [scored[row] if type(row) is bytes else row for row in found]
        return [found[start:start + k] for start in range(0, len(found), k)]

    return errors


def random_search_trials(
    task: SyntheticTask,
    epsilon_target: float,
    hypothesis_sampler: Callable[[np.random.Generator], object],
    sample_budget: int,
    seeds: Sequence[int],
) -> list[LearningTrial]:
    """random_search_learner for each seed, in lockstep; records in seed order.

    The records equal [random_search_learner(..., seed=s) for s in seeds].
    Each trial draws from its own default_rng(seed); groups of trials step
    together, each step drawing a block of up to _SEARCH_BLOCK hypotheses per
    trial (see _search_lockstep), and a group holds as many trials as keep a
    step's (d + 1)-float draws within _GROUP_FLOATS.  The draws of
    random_halfspace_sampler(task.dimension) are scored in blocks by
    _halfspace_errors, those of any other sampler by _sampler_errors.  A
    trial that halts inside a block has made up to _SEARCH_BLOCK - 1 further
    sampler calls on its own generator, whose draws are discarded.  Every
    seed is checked before the first draw.
    """
    check_interval(epsilon_target, "epsilon target", 0.0, 1.0, "()")
    check_count(sample_budget, "sample budget", 0)
    seeds = list(seeds)
    for seed in seeds:
        check_seed(seed, "search seed")
    blocked = (
        type(hypothesis_sampler) is _HalfspaceSampler
        and hypothesis_sampler.dimension == task.dimension
    )
    size = max(1, _GROUP_FLOATS // (_SEARCH_BLOCK * (task.dimension + 1)))
    trials = []
    for group in _chunks(seeds, size):
        rngs = [np.random.default_rng(seed) for seed in group]
        if blocked:
            errors = _halfspace_errors(task, rngs)
        else:
            errors = _sampler_errors(task, hypothesis_sampler, rngs)
        trials += _search_lockstep(errors, group, epsilon_target, sample_budget)
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
    This is the one-seed case of random_search_trials.
    """
    return random_search_trials(
        task, epsilon_target, hypothesis_sampler, sample_budget, [seed]
    )[0]


# ---------------------------------------------------------------------------
# trial batches and learning-probability curves
# ---------------------------------------------------------------------------

def _trial_seeds(base_seed: int, indices) -> list[int]:
    """The seed of each trial index i: (K + i) mod 2**64, a Python int.

    K is the first 64-bit word of SeedSequence(base_seed), one hash per
    batch, so adjacent base seeds give unrelated trial seeds.  A trial's
    seed keys everything it draws, and is its record seed.
    """
    check_seed(base_seed, "base seed")
    key = np.random.SeedSequence(int(base_seed)).generate_state(1, np.uint64)
    # array addition wraps mod 2**64 without the warning a scalar add gives
    return (key + np.asarray(indices, dtype=np.uint64)).tolist()


def _chunks(items: Sequence, size: int) -> list:
    """items as consecutive slices of size items each, the last one possibly shorter."""
    return [items[start:start + size] for start in range(0, len(items), size)]


def _gradient_block(task, eta, epsilon_target, config, sample_budget, seeds):
    """The gradient trials of the given seeds, in lockstep: (trials, final models).

    Each seed keys its trial's label stream, the one noisy_sample(task, eta,
    seed, n) gives, and its initial model, as in train_until(..., seed=seed).
    """
    models = config.initial_models(task.dimension, seeds)
    bitgen = np.random.Philox(0)

    def draw(active: np.ndarray, start: int, count: int):
        keys = [seeds[slot] for slot in active.tolist()]
        return _noisy_rows(task, eta, keys, start, count, bitgen)

    return _train_lockstep(
        task, draw, models, seeds, epsilon_target, config, sample_budget
    )


def _run_block(task, eta, epsilon_target, config, budget, learner, seeds) -> list[LearningTrial]:
    """The trials of one block of seeds, in order.

    Random-search trial i is random_search_learner on its seed with the
    task's halfspace sampler.  Gradient trials run in lockstep groups that
    keep a step's draw within _GROUP_FLOATS.
    """
    if learner == "random-search":
        sampler = random_halfspace_sampler(task.dimension)
        return random_search_trials(task, epsilon_target, sampler, budget, seeds)
    group = max(1, _GROUP_FLOATS // (config.batch_size * task.dimension))
    return [
        trial
        for part in _chunks(seeds, group)
        for trial in _gradient_block(task, eta, epsilon_target, config, budget, part)[0]
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

    Each trial draws everything from one seed, a function of (base_seed,
    index) alone (see _trial_seeds), so the result list is identical no
    matter how many workers ran it; each worker runs one contiguous block of
    seeds.  A record replays from its own seed: noisy_sample and
    train_until for gradient trials, random_search_learner for random
    search.  Every argument is checked before any trial runs, eta included
    even when no sample is drawn.
    """
    if learner not in LEARNER_KINDS:
        raise DomainError(f"learner must be gradient or random-search, got {learner!r}")
    check_noise(eta)
    check_interval(epsilon_target, "epsilon target", 0.0, 1.0, "()")
    check_count(sample_budget, "sample budget", 0)
    check_count(n_trials, "trial count", 1)
    check_count(workers, "worker count", 1)
    blocks = _chunks(_trial_seeds(base_seed, range(n_trials)), -(-n_trials // workers))
    run = partial(_run_block, task, eta, epsilon_target, config, sample_budget, learner)
    if len(blocks) == 1:
        return run(blocks[0])
    # imported here, so that importing the package loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        return [trial for block in pool.map(run, blocks) for trial in block]


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


def estimate_learning_probability(
    trials: Sequence[LearningTrial],
    n_grid: Sequence[int],
    eta: float = 0.0,
    epsilon_target: float = 0.0,
    learner: str = "gradient",
) -> LearningProbabilityCurve:
    """Empirical halting CDF of a trial batch on the given sample grid."""
    check_trial_count(len(trials))
    grid = check_grid(n_grid)
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
