"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under `pytest -s` or in
failure output) and enforces its own wall-clock limit.  Tolerances are part
of the assertions, never adjusted to fit a run.
"""

import math
import time

import numpy as np
import pytest

import mpmath as mp

from qlabelsec.adversary import BasisPolicy, InterceptResend, NoAttack
from qlabelsec.cli import main
from qlabelsec.learn_harness import (
    LearnerConfig,
    LinearThresholdModel,
    estimate_learning_probability,
    generate_task,
    random_search_trials,
    run_trials,
)
from qlabelsec.pac_bounds import (
    _noiseless_raw,
    _noisy_raw,
    delta_floor,
    equalizing_epsilon,
    gamma,
    random_search_curve,
)
from qlabelsec.protocol import run_session
from qlabelsec.stats import binomial_pull

from _oracles import (
    bound_noiseless_raw,
    bound_noisy_raw,
    delta_floor_hp,
    gamma_hp,
    intercept_resend_exact,
    random_search_hp,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _within_limit(started: float, limit: float) -> tuple[float, bool]:
    elapsed = time.monotonic() - started
    return elapsed, elapsed < limit


@pytest.fixture(scope="module")
def default_task():
    return generate_task(dimension=8, separation=6.0, seed=42, epsilon_target=0.03)


def test_criterion_1_threshold_reproduction(capsys):
    started = time.monotonic()
    code = main(["thresholds"])
    out = capsys.readouterr().out
    rows = {
        line.split()[0]: float(line.split()[1])
        for line in out.splitlines()
        if line.startswith(("collective", "individual", "memoryless"))
    }
    checks = [
        code == 0,
        abs(rows["collective"] - 0.110) <= 0.0005,
        abs(rows["individual"] - 0.1464) <= 0.0005,
        rows["memoryless"] == 0.154,
        "solved" in out,
    ]
    elapsed, in_time = _within_limit(started, 1.0)
    with capsys.disabled():
        _report(
            "criterion 1 (threshold reproduction)",
            all(checks) and in_time,
            f"collective {rows['collective']}, individual {rows['individual']}, "
            f"memoryless {rows['memoryless']}, {elapsed:.2f}s < 1s",
        )


def test_criterion_2_bound_algebra(capsys):
    started = time.monotonic()
    rel = 1e-12
    spots = [
        (0.1, 0.05, 20 * math.log(2), 0.1),
        (0.03, 0.2, 9 * math.log(32), 0.0),
        (0.25, 0.01, 1.5, 0.3),
        (0.5, 0.5, 0.0, 0.49),
        (0.02, 0.001, 100.0, 0.11),
    ]
    worst = 0.0
    for eps, delta, log_h, eta in spots:
        pairs = [
            (_noiseless_raw(eps, delta, log_h), bound_noiseless_raw(eps, delta, log_h)),
            (_noisy_raw(eps, delta, log_h, eta), bound_noisy_raw(eps, delta, log_h, eta)),
            (gamma(eps, eta), gamma_hp(eps, eta)),
            (delta_floor(eps, eta, 4322).delta_star, delta_floor_hp(eps, eta, 4322)),
            (random_search_curve(delta, 37), random_search_hp(delta, 37)),
        ]
        eps_e = equalizing_epsilon(eps, eta, 10_000, min(0.45, eta + 0.1), 5_000)
        ref = (
            mp.mpf(eps)
            * (1 - 2 * mp.mpf(eta))
            / (1 - 2 * mp.mpf(min(0.45, eta + 0.1)))
            * mp.sqrt(mp.mpf(10_000) / 5_000)
        )
        pairs.append((eps_e, ref))
        for ours, reference in pairs:
            worst = max(worst, abs(float((mp.mpf(ours) - reference) / reference)))
    spot_ok = worst < rel

    rng = np.random.default_rng(20260814)
    ordered = 0
    draws = 10_000
    for _ in range(draws):
        eps = rng.uniform(0.01, 0.5)
        eta_a, eta_e = np.sort(rng.uniform(0.0, 0.49, size=2))
        if eta_a == eta_e:
            eta_e += 1e-6
        n_e = int(rng.integers(1, 1_000_000))
        n_a = n_e + int(rng.integers(0, 1_000_000))
        if delta_floor(eps, eta_a, n_a) < delta_floor(eps, eta_e, n_e):
            ordered += 1
    order_ok = ordered == draws

    elapsed, in_time = _within_limit(started, 5.0)
    with capsys.disabled():
        _report(
            "criterion 2 (bound algebra)",
            spot_ok and order_ok and in_time,
            f"worst oracle deviation {worst:.2e} < 1e-12, floor ordering "
            f"{ordered}/{draws}, {elapsed:.2f}s < 5s",
        )


def test_criterion_3_protocol_physics(default_task, capsys):
    started = time.monotonic()
    source = default_task.concept_source()
    cases = [
        ("none", NoAttack(), 0.0, 11),
        (
            "intercept f=1 alwaysZ",
            InterceptResend(attack_probability=1.0, basis_policy=BasisPolicy.ALWAYS_Z),
            0.5,
            12,
        ),
        (
            "intercept f=1 randomPerLeg",
            InterceptResend(
                attack_probability=1.0, basis_policy=BasisPolicy.RANDOM_PER_LEG
            ),
            0.375,
            13,
        ),
        (
            "intercept f=1/2 alwaysZ",
            InterceptResend(attack_probability=0.5, basis_policy=BasisPolicy.ALWAYS_Z),
            0.25,
            14,
        ),
    ]
    # the branch-enumeration oracle must agree with each stated constant
    assert intercept_resend_exact("alwaysZ", 1.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert intercept_resend_exact("randomPerLeg", 1.0)[0] == pytest.approx(0.375, abs=1e-12)
    assert intercept_resend_exact("alwaysZ", 0.5)[0] == pytest.approx(0.25, abs=1e-12)
    details = []
    ok = True
    for name, attack, expected, seed in cases:
        session = run_session(
            source, 100_000, attack=attack, seed=seed, keep_rounds=False
        )
        estimate = session.eta_a_estimate
        # at expected = 0 the estimate must be exactly 0 (pull 0 or inf)
        pull = binomial_pull(estimate, session.check_count, expected)
        ok = ok and pull < 4.0
        details.append(f"{name}: {estimate:.4f} vs {expected} ({pull:.2f} sigma)")
    elapsed, in_time = _within_limit(started, 30.0)
    with capsys.disabled():
        _report(
            "criterion 3 (protocol physics)",
            ok and in_time,
            "; ".join(details) + f", {elapsed:.1f}s < 30s",
        )


def test_criterion_4_random_search_law(default_task, capsys):
    started = time.monotonic()
    p = 0.1
    good = LinearThresholdModel(weights=default_task.direction, bias=0.0)
    bad = LinearThresholdModel(weights=-default_task.direction, bias=0.0)

    def sampler(rng):
        return good if rng.random() < p else bad

    seeds = np.random.default_rng(1).integers(0, 2**63, size=10_000).tolist()
    trials = random_search_trials(default_task, 0.03, sampler, 120, seeds)
    grid = (1, 2, 5, 10, 25, 50, 100)
    covered = [
        point.wilson_low <= random_search_curve(p, point.n) <= point.wilson_high
        for point in estimate_learning_probability(trials, grid).points
    ]
    elapsed, in_time = _within_limit(started, 30.0)
    with capsys.disabled():
        _report(
            "criterion 4 (random-search law)",
            all(covered) and in_time,
            f"law inside Wilson bands at {sum(covered)}/{len(grid)} grid points "
            f"over {len(trials)} trials, {elapsed:.1f}s < 30s",
        )


def test_criterion_5_tradeoff_demonstration(default_task, capsys, tmp_path):
    started = time.monotonic()
    grid = [25, 50, 100, 200]
    config = LearnerConfig()
    trained = run_trials(
        default_task, 0.0, 0.03, config, grid[-1], 150, base_seed=50, workers=2
    )
    baseline = run_trials(
        default_task, 0.0, 0.03, config, grid[-1], 150, base_seed=51, workers=2,
        learner="random-search",
    )
    trained_curve = estimate_learning_probability(trained, grid)
    baseline_curve = estimate_learning_probability(baseline, grid)
    trained_p = [pt.p_hat for pt in trained_curve.points]
    baseline_p = [pt.p_hat for pt in baseline_curve.points]
    nondecreasing = trained_p == sorted(trained_p) and baseline_p == sorted(baseline_p)
    dominates = all(t >= b for t, b in zip(trained_p, baseline_p)) and any(
        t > b for t, b in zip(trained_p, baseline_p)
    )

    code = main(
        ["sweep-eta", "--trials", "150", "--seed", "55", "--workers", "2",
         "--out", str(tmp_path)]
    )
    capsys.readouterr()
    rows = [
        line.split(",")
        for line in (tmp_path / "sweep-eta.csv").read_text().splitlines()[1:]
    ]
    separated_low = all(
        row[8] == "false" and float(row[2]) > float(row[5])
        for row in rows
        if float(row[0]) <= 0.03
    )
    nearest = min(rows, key=lambda row: abs(float(row[0]) - 0.110028))
    overlap_at_star = nearest[8] == "true"

    elapsed, in_time = _within_limit(started, 600.0)
    with capsys.disabled():
        _report(
            "criterion 5 (trade-off demonstration)",
            code == 0
            and nondecreasing
            and dominates
            and separated_low
            and overlap_at_star
            and in_time,
            f"curves nondecreasing {nondecreasing}, trained dominates baseline "
            f"{dominates}, low-noise bands separated {separated_low}, bands "
            f"overlap at eta*={float(nearest[0])} {overlap_at_star}, "
            f"{elapsed:.1f}s < 600s",
        )


def test_criterion_6_determinism(capsys, tmp_path):
    started = time.monotonic()
    for sub in ("first", "second"):
        code = main(
            ["protocol-run", "--target-data", "500", "--seed", "60",
             "--attack", "intercept-resend", "--out", str(tmp_path / sub)]
        )
        assert code == 0
    protocol_same = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in ("protocol-run.csv", "protocol-transcript.jsonl")
    )
    for sub, workers in (("w1", "1"), ("w4", "4")):
        code = main(
            ["learn", "--eta", "0.2465", "--trials", "40", "--seed", "61",
             "--workers", workers, "--out", str(tmp_path / sub)]
        )
        assert code == 0
    capsys.readouterr()
    parallel_same = all(
        (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()
        for name in ("learn-curve.csv", "learn-trials.jsonl")
    )
    elapsed, in_time = _within_limit(started, 10.0)
    with capsys.disabled():
        _report(
            "criterion 6 (determinism)",
            protocol_same and parallel_same and in_time,
            f"protocol re-run byte-identical {protocol_same}, worker counts 1 vs 4 "
            f"byte-identical {parallel_same}, {elapsed:.1f}s < 10s",
        )
