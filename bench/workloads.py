"""The benchmark's three workloads and the correctness gate they report to.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned.  Inputs derive from the workload seed
alone.  All work goes through qlabelsec's public functions, looked up on
their module at call time so that the tracer's wrappers see every call.

The workloads are chosen so that each planned optimisation has one workload
where its layer does most of the work and one where it does almost none:

* ``protocol``: large ``run_session`` calls across five attacks; the
  per-round protocol loop does nearly all the work and no learner runs.
* ``learning``: ``run_trials`` batches (paired sweep, histogram pair,
  one-hidden-layer curve, random-search baseline); no session runs.
* ``cli``: every README command in-process through ``cli.main``; small
  sessions that keep and export per-round transcripts, option resolution
  and report writing.

Timings are in reference seconds.  The host is a shared virtual machine
whose speed drifts by tens of percent over seconds to minutes, so every
timed call is bracketed by short runs of a fixed calibration loop, and its
wall time is scaled by the calibration loop's reference time over its
measured time around that call.  A run reports, for each component of its
operation, the median of these scaled times, and sums the medians.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qlabelsec import adversary, cli, info_theory, learn_harness, pac_bounds, protocol

import tracer

SIGMA_LIMIT = 4.0
EPSILON = 0.03
TASK_DIMENSION = 8
TASK_SEPARATION = 6.0
# The CLI's default task.  How many samples a learner needs depends on the
# task, so the learning and cli workloads keep it fixed and vary only the
# trial seeds with the workload seed.
TASK_SEED = 42
ETA_STAR_COLLECTIVE = 0.110028
N_OP = 25  # the sweep-eta default sample budget


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed determined by the workload seed and a path of indices."""
    return int(np.random.SeedSequence(entropy=(seed, *path)).generate_state(1)[0])


@dataclass
class Gate:
    """Counts operations and the ones whose output failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{operation}: {problem}" for problem in problems)


CALIBRATION_STEPS = 1200
# The calibration loop's wall time at reference speed: its median on the
# 2-vCPU host the benchmark was tuned on (see README.md).  A reference second
# is a wall second at that speed.
CALIBRATION_REF_S = 0.009
# Timed calls are bracketed by calibrations at most this far apart, unless a
# single call takes longer.
CALIBRATION_INTERVAL_S = 0.25


def calibration_work() -> float:
    """Fixed interpreter and numpy work that measures the machine's speed.

    It mixes what the package does: small per-item numpy draws and branches
    in a Python loop, and now and then one 2000-point vectorised evaluation.
    """
    rng = np.random.default_rng(0)
    weights = rng.normal(size=TASK_DIMENSION)
    table = rng.normal(size=(2000, TASK_DIMENSION))
    total = 0.0
    counts = {}
    for step in range(CALIBRATION_STEPS):
        x = rng.normal(size=TASK_DIMENSION)
        bit = int(x @ weights > 0)
        counts[bit] = counts.get(bit, 0) + 1
        total += abs(float(x[0]))
        if step % 25 == 0:
            total += float(np.mean(table @ weights > 0))
    return total


class Clock:
    """Reference-speed times of the components of a repeated operation.

    A component is a call that recurs with the same role in every
    repetition: one attack's session, one trial batch of a cycle, one README
    command.  Each call's wall time is scaled by CALIBRATION_REF_S over the
    mean of the calibrations just before and just after it.  With
    ``calibrate=False`` (fixed units timed for the trace overhead) calls run
    without calibrations.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.calibrations: list[float] = []
        self.calls: list[tuple[tuple, float, int]] = []
        self.medians: dict[tuple, float] = {}
        self._last = -math.inf

    def _calibrate(self) -> None:
        start = time.perf_counter()
        calibration_work()
        self._last = time.perf_counter()
        self.calibrations.append(self._last - start)

    def call(self, key: tuple, fn, *args, **kwargs):
        if self.calibrate and time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self._calibrate()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.calls.append((key, elapsed, len(self.calibrations)))
        return result

    def finish(self) -> dict[tuple, float]:
        """Median reference-speed seconds of each component."""
        self._calibrate()
        scaled = {}
        for key, seconds, after in self.calls:
            speed = (self.calibrations[after - 1] + self.calibrations[after]) / 2.0
            scaled.setdefault(key, []).append(seconds * CALIBRATION_REF_S / speed)
        self.medians = {key: statistics.median(values) for key, values in scaled.items()}
        return self.medians

    def total(self, keep=lambda key: True) -> float:
        return sum(seconds for key, seconds in self.medians.items() if keep(key))


def _rate_problem(label: str, observed: float, expected: float, count: int) -> list[str]:
    """Empty when observed is within SIGMA_LIMIT binomial sigmas of expected.

    Expected rates of exactly 0 or 1 have no spread and must match exactly.
    """
    if expected in (0.0, 1.0):
        if observed == expected:
            return []
        return [f"{label} {observed} differs from the exact {expected}"]
    sigma = math.sqrt(expected * (1.0 - expected) / count)
    pull = abs(observed - expected) / sigma
    if pull <= SIGMA_LIMIT:
        return []
    return [f"{label} {observed:.5f} is {pull:.1f} sigma from {expected:.5f}"]


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

ATTACKS = (
    ("none", adversary.NoAttack()),
    ("alwaysZ-both-f1", adversary.InterceptResend(1.0, adversary.BasisPolicy.ALWAYS_Z)),
    (
        "randomPerLeg-both-f0.5",
        adversary.InterceptResend(0.5, adversary.BasisPolicy.RANDOM_PER_LEG),
    ),
    (
        "alwaysZ-leg1-f1",
        adversary.InterceptResend(1.0, adversary.BasisPolicy.ALWAYS_Z, legs=(1,)),
    ),
    ("collective-d0.05", adversary.AnalyticAttack("collective", 0.05)),
)


def expected_rates(attack) -> tuple[float, float]:
    """(eta_a, eve label error rate) the attack induces in expectation.

    Without an attack every check round passes and Eve guesses uniformly.
    """
    if isinstance(attack, adversary.NoAttack):
        return 0.0, 0.5
    return adversary.tradeoff_point(attack)


def session_problems(session, attack, target: int) -> list[str]:
    problems = []
    for party, dataset in (
        ("authorized", session.authorized_dataset),
        ("eavesdropper", session.eavesdropper_dataset),
    ):
        if len(dataset) != target:
            problems.append(f"{party} dataset holds {len(dataset)} labels, not {target}")
    eta_a, eta_e = expected_rates(attack)
    problems += _rate_problem(
        "eta_a estimate", session.eta_a_estimate, eta_a, session.check_count
    )
    problems += _rate_problem(
        "eve label error rate", session.eve_label_error_rate, eta_e, target
    )
    return problems


class ProtocolWorkload:
    """Sessions of ``target`` labels without transcripts, cycling the attacks."""

    def __init__(self, target: int = 5_000, unit_target: int = 1_000) -> None:
        self.target = target
        self.unit_target = unit_target
        self.clock = Clock()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.task = learn_harness.generate_task(
            TASK_DIMENSION, TASK_SEPARATION, derive_seed(seed, 0)
        )

    def _session(self, index: int, target: int, gate: Gate, stream: int) -> None:
        attack_name, attack = ATTACKS[index % len(ATTACKS)]
        session = self.clock.call(
            (attack_name,),
            protocol.run_session,
            self.task.concept_source(),
            target,
            attack=attack,
            seed=derive_seed(self.seed, stream, index),
            keep_rounds=False,
        )
        gate.record(
            f"session {index} ({attack_name})", session_problems(session, attack, target)
        )

    def run(self, seconds: float, gate: Gate) -> dict[str, float]:
        """Sessions until the time is up and every attack ran at least once.

        op_s is one median session per attack, the five-attack suite, and
        items_per_s the labels it delivers per second, so the attacks weigh
        equally even when a run stops mid-cycle.
        """
        self.clock = Clock(calibrate=True)
        start = time.perf_counter()
        index = 0
        while index < len(ATTACKS) or time.perf_counter() - start < seconds:
            self._session(index, self.target, gate, 1)
            index += 1
        suite_s = sum(self.clock.finish().values())
        return {"items_per_s": len(ATTACKS) * self.target / suite_s, "op_s": suite_s}

    def unit(self, gate: Gate) -> None:
        """One small session per attack, identical on every call."""
        for index in range(len(ATTACKS)):
            self._session(index, self.unit_target, gate, 2)


# ---------------------------------------------------------------------------
# learning
# ---------------------------------------------------------------------------

def trial_problems(trials, count: int, budget: int) -> list[str]:
    """Structural invariants every trial batch must satisfy."""
    problems = []
    if len(trials) != count:
        problems.append(f"{len(trials)} trials returned, {count} requested")
    for index, trial in enumerate(trials):
        if not 0 <= trial.samples_consumed <= budget:
            problems.append(f"trial {index} consumed {trial.samples_consumed} > {budget}")
        if not 0.0 <= trial.final_test_error <= 1.0:
            problems.append(f"trial {index} error {trial.final_test_error} outside [0, 1]")
        if trial.halted and trial.final_test_error > EPSILON:
            problems.append(f"trial {index} halted at error {trial.final_test_error}")
        if not trial.halted and trial.samples_consumed != budget:
            problems.append(f"trial {index} stopped unhalted before its budget")
    return problems


def curve_problems(curve, trials) -> list[str]:
    """The curve must be the halting CDF of its trials, inside its Wilson band."""
    problems = []
    previous = 0.0
    for point in curve.points:
        halted = sum(t.halted and t.samples_consumed <= point.n for t in trials)
        if point.p_hat != halted / len(trials):
            problems.append(f"p_hat at n={point.n} is not the halted fraction")
        if point.p_hat < previous:
            problems.append(f"p_hat decreases at n={point.n}")
        if not point.wilson_low <= point.p_hat <= point.wilson_high:
            problems.append(f"p_hat at n={point.n} lies outside its Wilson band")
        previous = point.p_hat
    return problems


class LearningWorkload:
    """Cycles of four trial pieces; the sweep is the paper's headline figure.

    Component keys start with the piece ("sweep", "histograms", "curve")
    and end with "trials" for run_trials calls, which items_per_s counts.
    """

    def __init__(
        self,
        trials: int = 150,
        sweep_grid: tuple[float, ...] = (0.01, 0.03, 0.05, 0.08, 0.11),
        histogram_budget: int = 2000,
        curve_grid: tuple[int, ...] = (25, 50, 100, 200, 400),
        law_trials: int = 1000,
    ) -> None:
        self.trials = trials
        self.sweep_grid = sweep_grid
        self.histogram_budget = histogram_budget
        self.curve_grid = curve_grid
        self.law_trials = law_trials
        self.clock = Clock()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.task = learn_harness.generate_task(
            TASK_DIMENSION, TASK_SEPARATION, TASK_SEED, epsilon_target=EPSILON
        )

    def _curve(self, key, eta, config, budget, grid, base_seed, gate, learner="gradient"):
        """One run_trials batch and its curve, both checked."""
        label = " ".join(map(str, key))
        trials = self.clock.call(
            key + ("trials",), learn_harness.run_trials,
            self.task, eta, EPSILON, config, budget, self.trials,
            base_seed=base_seed, learner=learner,
        )
        gate.record(f"{label} trials", trial_problems(trials, self.trials, budget))
        curve = self.clock.call(
            key + ("curve",), learn_harness.estimate_learning_probability,
            trials, grid, eta=eta, epsilon_target=EPSILON, learner=learner,
        )
        gate.record(f"{label} curve", curve_problems(curve, trials))
        return curve

    def _eve_noise(self, key, eta_a: float) -> float:
        eta_e = self.clock.call(
            key, info_theory.eve_noise_from_disturbance, "collective", eta_a
        )
        return min(eta_e, 0.5 - 1e-12)

    def sweep(self, cycle: int, gate: Gate) -> None:
        """The paired sweep at the sweep-eta defaults."""
        config = learn_harness.LearnerConfig()
        threshold = self.clock.call(("sweep", "eta_star"), info_theory.eta_star, "collective")
        points = {}
        for index, eta_a in enumerate(self.sweep_grid):
            eta_e = self._eve_noise(("sweep", index, "eve_noise"), eta_a)
            for party, eta in enumerate((eta_a, eta_e)):
                curve = self._curve(
                    ("sweep", index, party), eta, config, N_OP, [N_OP],
                    derive_seed(self.seed, 3, cycle, index, party), gate,
                )
                points[eta_a, party] = curve.points[0]
        problems = []
        if abs(threshold - ETA_STAR_COLLECTIVE) > 1e-6:
            problems.append(f"eta_star(collective) = {threshold}, not {ETA_STAR_COLLECTIVE}")
        if 0.01 in self.sweep_grid:
            authorized, eavesdropper = points[0.01, 0], points[0.01, 1]
            if not authorized.wilson_low > eavesdropper.wilson_high:
                problems.append(
                    "at eta_a=0.01 the authorized band does not lie above the eavesdropper's"
                )
        gate.record(f"sweep {cycle}", problems)

    def histogram_pair(self, cycle: int, gate: Gate) -> None:
        config = learn_harness.LearnerConfig()
        eta_a = 0.03
        eta_e = self._eve_noise(("histograms", "eve_noise"), eta_a)
        grid = [n for n in (25, 50, 100, 200, 400, 800, 1600) if n < self.histogram_budget]
        grid.append(self.histogram_budget)
        for party, eta in enumerate((eta_a, eta_e)):
            self._curve(
                ("histograms", party), eta, config, self.histogram_budget, grid,
                derive_seed(self.seed, 4, cycle, party), gate,
            )

    def curve_batch(self, cycle: int, gate: Gate, learner: str, model: str, eta: float) -> None:
        config = learn_harness.LearnerConfig(model=model)
        budget = min(
            learn_harness.default_sample_budget(
                EPSILON, eta, learn_harness.log_hypothesis_count(config, TASK_DIMENSION)
            ),
            4 * self.curve_grid[-1],
        )
        self._curve(
            ("curve", learner, model), eta, config, budget, self.curve_grid,
            derive_seed(self.seed, 5, cycle, int(learner == "gradient")), gate,
            learner=learner,
        )

    def random_search_law(self, gate: Gate) -> None:
        """Random search with a known per-draw success rate follows the law."""
        p = 0.2
        good = self.task.labeler
        bad = learn_harness.TaskLabeler(direction=-self.task.direction)

        def sampler(rng):
            return good if rng.random() < p else bad

        seeds = np.random.default_rng(derive_seed(self.seed, 6)).integers(
            0, 2**63, size=self.law_trials
        )
        trials = [
            learn_harness.random_search_learner(self.task, EPSILON, sampler, 100, seed=int(s))
            for s in seeds
        ]
        consumed = np.array([t.samples_consumed for t in trials])
        halted = np.array([t.halted for t in trials])
        problems = []
        for n in (1, 5, 10, 25):
            law = pac_bounds.random_search_curve(p, n)
            observed = float(np.mean(halted & (consumed <= n)))
            problems += _rate_problem(f"random-search CDF at n={n}", observed, law, len(trials))
        gate.record("random-search law", problems)

    def run(self, seconds: float, gate: Gate) -> dict[str, float]:
        """Whole cycles until the time is up.

        op_s is the sweep and items_per_s the trials of one cycle per second
        of its run_trials calls, both from each component's median call.
        """
        self.random_search_law(gate)
        self.clock = Clock(calibrate=True)
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < seconds:
            self.sweep(cycle, gate)
            self.histogram_pair(cycle, gate)
            self.curve_batch(cycle, gate, "gradient", "one-hidden-layer", 0.05)
            self.curve_batch(cycle, gate, "random-search", "linear-threshold", 0.0)
            cycle += 1
        batches = [key for key in self.clock.finish() if key[-1] == "trials"]
        return {
            "items_per_s": len(batches) * self.trials
            / self.clock.total(lambda key: key[-1] == "trials"),
            "op_s": self.clock.total(lambda key: key[0] == "sweep"),
        }

    def unit(self, gate: Gate) -> None:
        """One sweep, identical on every call."""
        self.sweep(10**6, gate)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def readme_commands(seed: int, trials: int = 150, target_data: int = 2000):
    """(label, argv) for every README invocation, with the seed substituted.

    ``--workers`` is left out: the default worker count applies.
    """
    s, t = str(seed), str(trials)
    return [
        ("bounds", ["bounds", "--epsilon", "0.03", "--delta", "0.2", "--log-h", "29.7",
                    "--eta", "0.03", "--n", "1000,10000"]),
        ("thresholds", ["thresholds"]),
        ("protocol-run", ["protocol-run", "--target-data", str(target_data), "--attack",
                          "intercept-resend", "--fraction", "0.5", "--policy", "alwaysZ",
                          "--seed", s]),
        ("learn", ["learn", "--eta", "0.05", "--trials", t, "--grid", "25,50,100,200",
                   "--svg", "--seed", s]),
        ("learn-baseline", ["learn", "--learner", "random-search", "--trials", t,
                            "--seed", s]),
        ("sweep-eta", ["sweep-eta", "--eta-grid", "0.01,0.03,0.110028", "--trials", t,
                       "--svg", "--seed", s]),
        ("histograms", ["histograms", "--eta-a", "0.03", "--trials", t, "--svg",
                        "--seed", s]),
        ("selfcheck", ["selfcheck", "--seed", s]),
    ]


def _exit_code(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _deterministic_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".csv", ".jsonl")
    }


class CliWorkload:
    """Pairs of README passes; both passes of a pair share a seed."""

    def __init__(self, scratch: Path, trials: int = 150, target_data: int = 2000) -> None:
        self.scratch = Path(scratch)
        self.trials = trials
        self.target_data = target_data
        self.clock = Clock()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.task = learn_harness.generate_task(TASK_DIMENSION, TASK_SEPARATION, TASK_SEED)

    def run_pass(self, seed: int, pass_dir: Path, gate: Gate) -> None:
        """One pass over the README commands, each checked."""
        for label, argv in readme_commands(seed, self.trials, self.target_data):
            out_dir = pass_dir / label
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.clock.call((label,), _exit_code, argv + ["--out", str(out_dir)])
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
            elif label != "selfcheck" and not _deterministic_outputs(out_dir):
                problems.append("wrote no CSV or JSONL output")
            gate.record(f"{label} ({pass_dir.name})", problems)

    def pair(self, index: int, gate: Gate) -> None:
        """Two passes with one seed; their CSV/JSONL bytes must be identical."""
        seed = derive_seed(self.seed, 7, index)
        dirs = [self.scratch / f"pair{index}-pass{k}" for k in (0, 1)]
        try:
            for pass_dir in dirs:
                self.run_pass(seed, pass_dir, gate)
            problems = []
            for label, _ in readme_commands(seed):
                first, second = (_deterministic_outputs(d / label) for d in dirs)
                if first != second:
                    differing = sorted(
                        name for name in first.keys() | second.keys()
                        if first.get(name) != second.get(name)
                    )
                    problems.append(f"{label}: bytes differ in {', '.join(differing)}")
            gate.record(f"determinism pair {index}", problems)
        finally:
            for pass_dir in dirs:
                shutil.rmtree(pass_dir, ignore_errors=True)

    def run(self, seconds: float, gate: Gate) -> dict[str, float]:
        """Whole pairs until the time is up; op_s is a pass of median commands."""
        self.clock = Clock(calibrate=True)
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            self.pair(index, gate)
            index += 1
        pass_s = sum(self.clock.finish().values())
        return {"items_per_s": len(self.clock.medians) / pass_s, "op_s": pass_s}

    def unit(self, gate: Gate) -> None:
        """One pass, identical on every call."""
        pass_dir = self.scratch / "unit"
        try:
            self.run_pass(derive_seed(self.seed, 8), pass_dir, gate)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------

OVERHEAD_PAIRS = 3


def make_workload(name: str, scratch: Path):
    if name == "protocol":
        return ProtocolWorkload()
    if name == "learning":
        return LearningWorkload()
    if name == "cli":
        return CliWorkload(scratch)
    raise ValueError(f"unknown workload {name!r}")


def trace_overhead(workload, gate: Gate) -> float:
    """Median traced over median untraced time of one fixed unit, minus one."""
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        start = time.perf_counter()
        workload.unit(gate)
        plain.append(time.perf_counter() - start)
        probe = tracer.Tracer()
        probe.install()
        try:
            start = time.perf_counter()
            workload.unit(gate)
            traced.append(time.perf_counter() - start)
        finally:
            probe.uninstall()
    return statistics.median(traced) / statistics.median(plain) - 1.0


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run the workload once; returns (metrics, detail, gate).

    metrics maps a name to (value, unit).  Untraced runs give the end-to-end
    metrics other than set-up time, which the parent process measures, and
    as detail the median reference-speed time of every component and the
    calibration times; traced runs give the
    per-layer metrics and as detail the full span table.
    """
    gate = Gate()
    workload.setup(seed)
    if not trace:
        values = workload.run(seconds, gate)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "items_per_s": (values["items_per_s"], "1/s"),
            "op_s": (values["op_s"], "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        clock = workload.clock
        detail = {
            "component_ref_s": {" ".join(map(str, k)): s for k, s in clock.medians.items()},
            "calibration_s": {
                "count": len(clock.calibrations),
                "min": min(clock.calibrations),
                "median": statistics.median(clock.calibrations),
                "max": max(clock.calibrations),
            },
        }
        return metrics, detail, gate
    overhead = trace_overhead(workload, gate)
    spans = tracer.Tracer()
    spans.install()
    start = time.perf_counter()
    try:
        workload.setup(seed)
        workload.run(seconds, gate)
    finally:
        wall = time.perf_counter() - start
        spans.uninstall()
    cost = tracer.wrapper_cost()
    table = spans.table(cost)
    tracer_s = cost * len(spans.span_start)
    metrics = tracer.layer_metrics(table, spans.counters, wall, overhead, tracer_s)
    return metrics, table, gate
