"""The interval rule: check_interval itself, and every rate, probability and
threshold argument of the package at its boundaries."""

import math

import numpy as np
import pytest

from qlabelsec import adversary, info_theory, learn_harness, pac_bounds, protocol, qubit, stats
from qlabelsec.errors import DomainError, check_interval, check_noise
from qlabelsec.qubit import Basis, Preparation

_HALF = 0.5


class TestCheckInterval:
    @pytest.mark.parametrize(
        "ends,low_in,high_in",
        [("[]", True, True), ("[)", True, False), ("(]", False, True), ("()", False, False)],
    )
    def test_each_end_is_closed_or_open_by_its_bracket(self, ends, low_in, high_in):
        check_interval(0.25, "x", 0.0, _HALF, ends)
        for value, inside in ((0.0, low_in), (_HALF, high_in)):
            if inside:
                check_interval(value, "x", 0.0, _HALF, ends)
            else:
                message = rf"^x must lie in \{ends[0]}0, 1/2\{ends[1]}, got {value}$"
                with pytest.raises(DomainError, match=message):
                    check_interval(value, "x", 0.0, _HALF, ends)
        for value in (math.nan, -math.inf, math.inf, -1e-300, math.nextafter(_HALF, 1.0)):
            with pytest.raises(DomainError, match="must lie in"):
                check_interval(value, "x", 0.0, _HALF, ends)

    def test_the_positive_reals_read_as_positive_and_finite(self):
        check_interval(1e-300, "size", 0.0, math.inf, "()")
        check_interval(1e300, "size", 0.0, math.inf, "()")
        for value in (0.0, -1.0, math.inf, math.nan):
            message = rf"^size must be positive and finite, got {value}$"
            with pytest.raises(DomainError, match=message):
                check_interval(value, "size", 0.0, math.inf, "()")

    def test_unit_interval_is_written_with_integers(self):
        with pytest.raises(DomainError, match=r"^p must lie in \[0, 1\], got 1.5$"):
            check_interval(1.5, "p", 0.0, 1.0)

    @pytest.mark.parametrize("value", [np.float64(0.3), np.float32(0.3), 0, 1])
    def test_accepts_numpy_floats_and_ints(self, value):
        check_interval(value, "p", 0.0, 1.0)


class TestCheckNoise:
    @pytest.mark.parametrize("eta", [_HALF, 0.7, math.inf])
    def test_one_half_and_above_is_unlearnable(self, eta):
        with pytest.raises(DomainError, match="noise at or above one-half is unlearnable"):
            check_noise(eta)

    @pytest.mark.parametrize("eta", [-0.1, -math.inf, math.nan])
    def test_below_zero_and_nan_are_out_of_range(self, eta):
        with pytest.raises(DomainError, match=rf"^noise rate must lie in \[0, 1/2\), got {eta}$"):
            check_noise(eta)


@pytest.fixture(scope="module")
def task():
    return learn_harness.generate_task(dimension=4, separation=6.0, seed=3)


def _source():
    def rows(seed, count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        xs = rng.standard_normal((count, 2))
        return xs, xs[:, 0] >= 0.0

    return rows


def _verdict(epsilon=0.1, eta_a=0.05, eta_e=0.2, eta_star=0.11):
    return pac_bounds.exclusivity_verdict(epsilon, eta_a, 10, eta_e, 5, eta_star)


_UNIT = (0.0, 1.0, "[]")
_OPEN_UNIT = (0.0, 1.0, "()")
_UP_TO_HALF = (0.0, _HALF, "[]")
_NOISE = (0.0, _HALF, "[)")
_POSITIVE = (0.0, math.inf, "()")
_CONFIG = learn_harness.LearnerConfig()

# (argument, (low, high, ends), call of the value and the module-scoped task)
_ARGUMENTS = [
    ("attack probability", _UNIT, lambda v, t: adversary.InterceptResend(attack_probability=v)),
    ("disturbance", _UP_TO_HALF, lambda v, t: adversary.AnalyticAttack("collective", v)),
    ("entropy argument", _UNIT, lambda v, t: info_theory.binary_entropy(v)),
    ("entropy value", _UNIT, lambda v, t: info_theory.entropy_inverse(v)),
    ("authorized flip rate", _UNIT, lambda v, t: info_theory.mutual_info_authorized(v)),
    ("eve flip rate", _UP_TO_HALF, lambda v, t: info_theory.mutual_info_eve("individual", v)),
    ("gap flip rate", _UP_TO_HALF, lambda v, t: info_theory.holevo_gap("collective", v)),
    (
        "eve noise disturbance",
        _UP_TO_HALF,
        lambda v, t: info_theory.eve_noise_from_disturbance("collective", v),
    ),
    ("separation", _POSITIVE, lambda v, t: learn_harness.generate_task(4, v, 0)),
    ("step size", _POSITIVE, lambda v, t: learn_harness.LearnerConfig(step_size=v)),
    (
        "task epsilon target",
        _OPEN_UNIT,
        lambda v, t: learn_harness.generate_task(4, 40.0, 0, epsilon_target=v),
    ),
    (
        "train_until epsilon target",
        _OPEN_UNIT,
        lambda v, t: learn_harness.train_until(
            t, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), v, _CONFIG, 0
        ),
    ),
    (
        "random search epsilon target",
        _OPEN_UNIT,
        lambda v, t: learn_harness.random_search_trials(
            t, v, learn_harness.random_halfspace_sampler(4), 0, [0]
        ),
    ),
    (
        "run_trials epsilon target",
        _OPEN_UNIT,
        lambda v, t: learn_harness.run_trials(t, 0.1, v, _CONFIG, 0, 1),
    ),
    ("noiseless epsilon", _OPEN_UNIT, lambda v, t: pac_bounds.sample_bound_noiseless(v, 0.1, 3.0)),
    ("noiseless delta", _OPEN_UNIT, lambda v, t: pac_bounds.sample_bound_noiseless(0.1, v, 3.0)),
    ("noiseless log count", _POSITIVE, lambda v, t: pac_bounds.sample_bound_noiseless(0.1, 0.1, v)),
    ("noisy epsilon", _OPEN_UNIT, lambda v, t: pac_bounds.sample_bound_noisy(v, 0.1, 3.0, 0.1)),
    ("noisy delta", _OPEN_UNIT, lambda v, t: pac_bounds.sample_bound_noisy(0.1, v, 3.0, 0.1)),
    ("noisy log count", _POSITIVE, lambda v, t: pac_bounds.sample_bound_noisy(0.1, 0.1, v, 0.1)),
    ("noisy eta", _NOISE, lambda v, t: pac_bounds.sample_bound_noisy(0.1, 0.1, 3.0, v)),
    ("gamma epsilon", _OPEN_UNIT, lambda v, t: pac_bounds.gamma(v, 0.1)),
    ("gamma eta", _NOISE, lambda v, t: pac_bounds.gamma(0.1, v)),
    ("floor epsilon", _OPEN_UNIT, lambda v, t: pac_bounds.delta_floor(v, 0.1, 10)),
    ("search probability", _UNIT, lambda v, t: pac_bounds.random_search_curve(v, 3)),
    ("learning probability", _UNIT, lambda v, t: pac_bounds.pac_condition_met(v, 0.1)),
    ("condition delta", _OPEN_UNIT, lambda v, t: pac_bounds.pac_condition_met(0.5, v)),
    ("verdict epsilon", _OPEN_UNIT, lambda v, t: _verdict(epsilon=v)),
    ("verdict eta_a", _NOISE, lambda v, t: _verdict(eta_a=v)),
    ("verdict eta_e", _NOISE, lambda v, t: _verdict(eta_e=v)),
    ("verdict eta_star", (0.0, _HALF, "()"), lambda v, t: _verdict(eta_star=v)),
    (
        "equalizing epsilon",
        _OPEN_UNIT,
        lambda v, t: pac_bounds.equalizing_epsilon(v, 0.05, 10, 0.2, 5),
    ),
    ("sample eta", _NOISE, lambda v, t: learn_harness.noisy_sample(t, v, 0, 1)),
    (
        "abort threshold",
        (0.0, _HALF, "(]"),
        lambda v, t: protocol.run_session(_source(), 5, abort_threshold=v),
    ),
    ("randomness", (0.0, 1.0, "[)"), lambda v, t: qubit.measure(Preparation.Z0, Basis.X, v)),
    ("observed rate", _UNIT, lambda v, t: stats.binomial_pull(v, 10, 0.5)),
    ("p rate", _UNIT, lambda v, t: stats.binomial_pull(0.5, 10, v)),
]


def _boundary_cases():
    """(argument, value, accepted) at NaN, the infinities, an interior point,
    each endpoint, and the float just outside each closed endpoint."""
    for name, (low, high, ends), call in _ARGUMENTS:
        interior = 1.0 if high == math.inf else (low + high) / 2.0
        points = [(math.nan, False), (-math.inf, False), (math.inf, False), (interior, True)]
        points.append((low, ends[0] == "["))
        if ends[0] == "[":
            points.append((math.nextafter(low, -math.inf), False))
        if high != math.inf:
            points.append((high, ends[1] == "]"))
            if ends[1] == "]":
                points.append((math.nextafter(high, math.inf), False))
        for value, accepted in points:
            yield pytest.param(call, value, accepted, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call,value,accepted", list(_boundary_cases()))
def test_every_interval_argument_at_its_boundaries(task, call, value, accepted):
    if accepted:
        call(value, task)
    else:
        with pytest.raises(DomainError):
            call(value, task)
