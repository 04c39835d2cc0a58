"""Command-line surface for bounds, thresholds, protocol runs, and sweeps.

Each option is declared once, as an ``Option`` in ``_COMMANDS``; that
record builds the flag and its help and drives the resolver.  Option
layering, in decreasing precedence: explicit flag, key in the JSON config
file, environment override (output directory and worker count only),
built-in default; every source gets the same cast and choices check.
Exit codes: 0 success, 2 domain or configuration error, 3 a statistical
self-check failed.  All CSV/JSONL outputs are byte-stable under a fixed
(config, seed); wall-clock provenance is confined to the summary files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .adversary import AnalyticAttack, BasisPolicy, InterceptResend, NoAttack
from .errors import (
    MIN_TRIALS,
    ConfigError,
    DomainError,
    ProtocolError,
    StatisticalCheckError,
    check_grid,
    check_seed,
    check_trial_count,
)
from .info_theory import eta_star, eve_noise_from_disturbance, info_curve
from .learn_harness import (
    LEARNER_KINDS,
    MODEL_KINDS,
    CurvePoint,
    LearnerConfig,
    LinearThresholdModel,
    default_sample_budget,
    estimate_learning_probability,
    generate_task,
    log_hypothesis_count,
    random_search_trials,
    run_trials,
)
from .pac_bounds import (
    delta_floor,
    gamma,
    random_search_curve,
    sample_bound_noiseless,
    sample_bound_noisy,
)
from .protocol import export_transcript, run_session
from .reports import (
    ChartSeries,
    HISTOGRAM_BIN_COUNT,
    ResultBundle,
    error_histogram,
    load_config,
    svg_chart,
)
from .stats import binomial_pull

__all__ = ["main"]

_ENV_OUTDIR = "QLABELSEC_OUTDIR"
_ENV_WORKERS = "QLABELSEC_WORKERS"

_LEG_CHOICES = {"both": (1, 2), "1": (1,), "2": (2,)}

_THRESHOLD_METHOD_TAGS = {
    "bisection": "solved",
    "closed-form": "closed-form",
    "tabulated": "constant (no curve)",
}

# selfcheck's pull limit: each statistic must lie within this many sigma.
_MAX_SIGMA = 4.0


# ---------------------------------------------------------------------------
# option layering
# ---------------------------------------------------------------------------

def _as_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"expected a JSON boolean, got {value!r}")


def _as_float_list(value) -> list[float]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, list):
        raise ConfigError(f"expected a comma list or JSON array, got {value!r}")
    return [float(v) for v in value]


def _as_int_list(value) -> list[int]:
    return [_as_int(v) for v in _as_float_list(value)]


@dataclass(frozen=True)
class Option:
    """One settable value: its flag, config key, default, cast and help.

    ``key`` is the config key; the flag is ``--key`` with dashes.  A switch
    is a flag without a value that sets True.
    """

    key: str
    default: object
    cast: Callable
    help: str
    choices: tuple[str, ...] | None = None
    env: str | None = None
    switch: bool = False

    def add_to(self, sub: argparse.ArgumentParser) -> None:
        """Add the flag, its help stating the default and the environment variable."""
        help_text = self.help
        if not self.switch and self.default not in (None, []):
            shown = self.default
            if isinstance(shown, list):
                shown = ",".join(str(v) for v in shown)
            help_text += f" (default {shown})"
        if self.env is not None:
            help_text += f" (env {self.env})"
        if self.switch:
            kwargs = {"action": "store_const", "const": True}
        else:
            kwargs = {"choices": self.choices}
        sub.add_argument("--" + self.key.replace("_", "-"), help=help_text, **kwargs)

    def resolve(self, value):
        """Cast ``value`` and check it against the declared choices."""
        if value is not None:
            try:
                value = self.cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {self.key!r}: {exc}") from None
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"{self.key} must be one of {', '.join(self.choices)}, got {value!r}"
            )
        return value


def _resolve_options(args: argparse.Namespace) -> dict:
    """Apply flag > config > environment > default to the command's options."""
    config = load_config(args.config) if args.config else {}
    unknown = set(config) - {opt.key for opt in args.options}
    if unknown:
        raise ConfigError(
            f"unknown config keys for {args.command}: {', '.join(sorted(unknown))}"
        )
    resolved = {}
    for opt in args.options:
        flag = getattr(args, opt.key)
        if flag is not None:
            value = flag
        elif opt.key in config:
            value = config[opt.key]
        elif opt.env is not None and os.environ.get(opt.env, "") != "":
            value = os.environ[opt.env]
        else:
            value = opt.default
        resolved[opt.key] = opt.resolve(value)
    return resolved


def _check_out(out: str | None) -> None:
    """Refuse an output directory that cannot be created, without creating it.

    Commands make their directory after their work, so this runs first: the
    nearest existing ancestor of out must be a writable directory.
    """
    if out is None:
        return
    ancestor = Path(out).absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        reason = f"{ancestor} is not a directory"
    elif not os.access(ancestor, os.W_OK | os.X_OK):
        reason = f"{ancestor} is not writable"
    else:
        return
    raise ConfigError(f"cannot create output directory {out}: {reason}")


def _bundle(opts: dict, command: str) -> ResultBundle | None:
    if opts["out"] is None:
        return None
    echo = {k: v for k, v in opts.items() if k != "out"}
    return ResultBundle(
        out_dir=Path(opts["out"]), command=command, config=echo, seed=opts["seed"]
    )


def _learner_config(opts: dict) -> LearnerConfig:
    return LearnerConfig(
        model=opts["model"],
        hidden_width=opts["hidden_width"],
        step_size=opts["step_size"],
        batch_size=opts["batch_size"],
        evaluation_cadence=opts["cadence"],
    )


def _trial_task(opts: dict):
    return generate_task(
        opts["dimension"], opts["separation"], opts["task_seed"],
        epsilon_target=opts["epsilon_target"],
    )


def _trials(task, opts, config, eta, budget, base_seed, learner="gradient"):
    return run_trials(
        task, eta, opts["epsilon_target"], config, budget, opts["trials"],
        base_seed=base_seed, workers=opts["workers"], learner=learner,
    )


def _eve_noise(kind: str, eta_a: float) -> float:
    """Eavesdropper label noise, kept just below 1/2 so trials stay defined."""
    return min(eve_noise_from_disturbance(kind, eta_a), 0.5 - 1e-12)


def _point_seed(seed: int, *path: int) -> int:
    check_seed(seed)
    return int(np.random.SeedSequence(entropy=(seed, *path)).generate_state(1)[0])


def _check_disturbances(values, name: str) -> None:
    """A paired experiment needs each eta_a in (0, 1/2); run before any trial."""
    for eta_a in values:
        if not 0.0 < eta_a < 0.5:
            raise ConfigError(
                f"{name} must lie in (0, 1/2); got {eta_a} "
                "(at 0 the eavesdropper stream is a signal-free coin flip)"
            )


def _party_trials(task, opts, config, eta_a, budget, *path):
    """The paired experiment at eta_a: eta_e, then the authorized learner's
    batch on eta_a and the eavesdropper's on eta_e.

    Party p (0 authorized, 1 eavesdropper) runs from base seed
    _point_seed(seed, *path, p), so each batch replays on its own.
    """
    eta_e = _eve_noise(opts["attack_kind"], eta_a)
    return eta_e, *(
        _trials(task, opts, config, eta, budget, _point_seed(opts["seed"], *path, party))
        for party, eta in enumerate((eta_a, eta_e))
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_bounds(opts: dict) -> int:
    for key in ("epsilon", "delta", "log_h"):
        if opts[key] is None:
            raise ConfigError(f"bounds requires --{key.replace('_', '-')}")
    eps, delta, log_h, eta = opts["epsilon"], opts["delta"], opts["log_h"], opts["eta"]
    rows = [
        ("sample_bound_noiseless", sample_bound_noiseless(eps, delta, log_h)),
        ("sample_bound_noisy", sample_bound_noisy(eps, delta, log_h, eta)),
        ("gamma", gamma(eps, eta)),
    ]
    floor_rows = []
    for n in opts["n"]:
        floor = delta_floor(eps, eta, n)
        floor_rows.append((n, floor.gamma, floor.delta_star, floor.log_delta_star))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    for n, _, delta_star, log_delta_star in floor_rows:
        print(f"{'delta_star[n=' + str(n) + ']':<{width}}  {delta_star}  (log {log_delta_star})")
    bundle = _bundle(opts, "bounds")
    if bundle is not None:
        bundle.add_csv("bounds.csv", ("quantity", "value"), rows)
        if floor_rows:
            bundle.add_csv(
                "bounds-delta-star.csv",
                ("n", "gamma", "delta_star", "log_delta_star"),
                floor_rows,
            )
        bundle.write_summary(
            {"bounds": {name: value for name, value in rows},
             "delta_star": [
                 {"n": n, "delta_star": ds, "log_delta_star": lds}
                 for n, _, ds, lds in floor_rows
             ]}
        )
    return 0


def _cmd_thresholds(opts: dict) -> int:
    rows = []
    for kind in ("collective", "individual", "memoryless"):
        curve = info_curve(kind)
        tag = _THRESHOLD_METHOD_TAGS[curve.method]
        residual = "n/a" if curve.residual is None else f"{curve.residual:.3e}"
        rows.append((kind, f"{curve.eta_star:.6f}", tag, residual))
    print(f"{'attack':<12}{'eta_star':<12}{'method':<22}residual")
    for kind, value, tag, residual in rows:
        print(f"{kind:<12}{value:<12}{tag:<22}{residual}")
    bundle = _bundle(opts, "thresholds")
    if bundle is not None:
        bundle.add_csv("thresholds.csv", ("attack", "eta_star", "method", "residual"), rows)
        bundle.write_summary(
            {"thresholds": {kind: float(value) for kind, value, _, _ in rows}}
        )
    return 0


def _build_attack(opts: dict):
    """The chosen attack; all are built, so any out-of-range option exits 2."""
    attacks = {
        "none": NoAttack(),
        "intercept-resend": InterceptResend(
            attack_probability=opts["fraction"],
            basis_policy=BasisPolicy(opts["policy"]),
            legs=_LEG_CHOICES[opts["legs"]],
        ),
    }
    for kind in ("collective", "individual"):
        attacks[kind] = AnalyticAttack(curve_kind=kind, disturbance=opts["disturbance"])
    return attacks[opts["attack"]]


def _cmd_protocol_run(opts: dict) -> int:
    task = generate_task(opts["dimension"], opts["separation"], opts["task_seed"])
    attack = _build_attack(opts)
    session = run_session(
        task.concept_source(),
        opts["target_data"],
        attack=attack,
        abort_threshold=opts["abort_threshold"],
        seed=opts["seed"],
        strict_abort=opts["strict_abort"],
        keep_rounds=opts["out"] is not None and not opts["no_transcript"],
    )
    results = {
        "eta_a_estimate": session.eta_a_estimate,
        "check_count": session.check_count,
        "check_error_count": session.check_error_count,
        "authorized_dataset_size": len(session.authorized_dataset),
        "eavesdropper_dataset_size": len(session.eavesdropper_dataset),
        "authorized_label_error_rate": session.authorized_label_error_rate,
        "eve_label_error_rate": session.eve_label_error_rate,
        "ensemble_fidelity": session.ensemble_fidelity,
        "aborted": session.aborted,
    }
    for key, value in results.items():
        print(f"{key:<28} {value}")
    bundle = _bundle(opts, "protocol-run")
    if bundle is not None:
        if not opts["no_transcript"]:
            export_transcript(session, bundle.note_file("protocol-transcript.jsonl"))
        bundle.add_csv(
            "protocol-run.csv",
            ("quantity", "value"),
            list(results.items()),
        )
        bundle.write_summary(results)
    return 0


def _cmd_learn(opts: dict) -> int:
    task = _trial_task(opts)
    config = _learner_config(opts)
    grid = opts["grid"]
    if grid is None:
        grid = [config.evaluation_cadence * k for k in (1, 2, 4, 8, 16)]
    grid = check_grid(grid)  # before any trial runs
    check_trial_count(opts["trials"])
    budget = opts["budget"]
    if budget is None:
        budget = default_sample_budget(
            opts["epsilon_target"], opts["eta"],
            log_hypothesis_count(config, opts["dimension"]),
        )
        budget = min(budget, 4 * grid[-1])
    trials = _trials(
        task, opts, config, opts["eta"], budget, opts["seed"], learner=opts["learner"]
    )
    curve = estimate_learning_probability(
        trials, grid, eta=opts["eta"],
        epsilon_target=opts["epsilon_target"], learner=opts["learner"],
    )
    print(f"{'n':>8}  {'p_hat':>8}  {'wilson_low':>10}  {'wilson_high':>11}")
    for point in curve.points:
        print(
            f"{point.n:>8}  {point.p_hat:>8.4f}  "
            f"{point.wilson_low:>10.4f}  {point.wilson_high:>11.4f}"
        )
    bundle = _bundle(opts, "learn")
    if bundle is not None:
        bundle.add_jsonl(
            "learn-trials.jsonl", ({"index": i, **vars(t)} for i, t in enumerate(trials))
        )
        bundle.add_csv(
            "learn-curve.csv", [f.name for f in fields(CurvePoint)], map(astuple, curve.points)
        )
        if opts["svg"]:
            chart = svg_chart(
                [
                    ChartSeries(
                        name=f"eta={opts['eta']}",
                        xs=[p.n for p in curve.points],
                        ys=[p.p_hat for p in curve.points],
                        low=[p.wilson_low for p in curve.points],
                        high=[p.wilson_high for p in curve.points],
                    )
                ],
                title="learning probability",
                x_label="samples n",
                y_label="P(halted within n)",
            )
            bundle.add_text("learn-curve.svg", chart)
        bundle.write_summary(
            {
                "budget": budget,
                "halted_fraction": sum(t.halted for t in trials) / len(trials),
                "grid": grid,
                "log_hypothesis_count": log_hypothesis_count(config, opts["dimension"]),
            }
        )
    return 0


def _cmd_sweep_eta(opts: dict) -> int:
    if not opts["eta_grid"]:
        raise ConfigError("eta grid is empty; give at least one value in (0, 1/2)")
    _check_disturbances(opts["eta_grid"], "eta grid values")
    check_trial_count(opts["trials"])
    n_op = opts["n_op"]
    check_grid([n_op])
    kind = opts["attack_kind"]
    threshold = eta_star(kind)
    task = _trial_task(opts)
    config = _learner_config(opts)
    rows = []
    for index, eta_a in enumerate(opts["eta_grid"]):
        eta_e, *batches = _party_trials(task, opts, config, eta_a, n_op, index)
        a, e = (estimate_learning_probability(t, [n_op]).points[0] for t in batches)
        overlap = not (a.wilson_low > e.wilson_high or e.wilson_low > a.wilson_high)
        rows.append((
            eta_a, eta_e, a.p_hat, a.wilson_low, a.wilson_high,
            e.p_hat, e.wilson_low, e.wilson_high, overlap, opts["trials"],
        ))
    header = (
        "eta_a", "eta_e",
        "p_hat_a", "wilson_low_a", "wilson_high_a",
        "p_hat_e", "wilson_low_e", "wilson_high_e",
        "bands_overlap", "trials",
    )
    print(
        f"{'eta_a':>8}  {'eta_e':>8}  {'p_hat_a':>8}  {'p_hat_e':>8}  bands_overlap"
    )
    for row in rows:
        print(
            f"{row[0]:>8.4f}  {row[1]:>8.4f}  {row[2]:>8.4f}  {row[5]:>8.4f}  {row[8]}"
        )
    nearest = min(rows, key=lambda row: abs(row[0] - threshold))
    crossing = {
        "eta_star": threshold,
        "nearest_eta_a": nearest[0],
        "bands_overlap_at_nearest": nearest[8],
    }
    print(
        f"crossing: eta_star({kind}) = {threshold:.6f}, nearest grid point "
        f"{nearest[0]:.4f}, bands overlap: {nearest[8]}"
    )
    bundle = _bundle(opts, "sweep-eta")
    if bundle is not None:
        bundle.add_csv("sweep-eta.csv", header, rows)
        if opts["svg"]:
            chart = svg_chart(
                [
                    ChartSeries(
                        name=party,
                        xs=[r[0] for r in rows],
                        ys=[r[col] for r in rows],
                        low=[r[col + 1] for r in rows],
                        high=[r[col + 2] for r in rows],
                    )
                    for party, col in (("authorized", 2), ("eavesdropper", 5))
                ],
                title=f"halting probability at n={n_op}",
                x_label="authorized disturbance eta_a",
                y_label="P(halted)",
            )
            bundle.add_text("sweep-eta.svg", chart)
        bundle.write_summary({"crossing": crossing, "n_op": n_op})
    return 0


def _cmd_histograms(opts: dict) -> int:
    _check_disturbances([opts["eta_a"]], "eta_a")
    task = _trial_task(opts)
    config = _learner_config(opts)
    eta_e, *batches = _party_trials(task, opts, config, opts["eta_a"], opts["budget"])
    counts = [
        error_histogram([t.final_test_error for t in trials], len(task.test_y))
        for trials in batches
    ]
    rows = [
        (round(i / HISTOGRAM_BIN_COUNT, 2), round((i + 1) / HISTOGRAM_BIN_COUNT, 2), a, e)
        for i, (a, e) in enumerate(zip(*counts))
    ]
    occupied = [row for row in rows if row[2] or row[3]]
    print(f"{'bin_low':>8}  {'bin_high':>8}  {'authorized':>10}  {'eavesdropper':>12}")
    for row in occupied:
        print(f"{row[0]:>8.2f}  {row[1]:>8.2f}  {row[2]:>10}  {row[3]:>12}")
    bundle = _bundle(opts, "histograms")
    if bundle is not None:
        bundle.add_csv(
            "histograms.csv",
            ("bin_low", "bin_high", "count_authorized", "count_eavesdropper"),
            rows,
        )
        if opts["svg"]:
            chart = svg_chart(
                [
                    ChartSeries(
                        name=party,
                        xs=[r[0] for r in rows],
                        ys=[float(r[col]) for r in rows],
                    )
                    for party, col in (("authorized", 2), ("eavesdropper", 3))
                ],
                title="final test error distribution",
                x_label="test error",
                y_label="trials",
                step=True,
            )
            bundle.add_text("histograms.svg", chart)
        bundle.write_summary(
            {
                "eta_a": opts["eta_a"],
                "eta_e": eta_e,
                "total_authorized": sum(counts[0]),
                "total_eavesdropper": sum(counts[1]),
            }
        )
    return 0


def _cmd_selfcheck(opts: dict) -> int:
    check_seed(opts["seed"])  # before any check prints a line
    curve = info_curve("collective")
    if curve.residual is None or curve.residual >= 1e-9:
        raise StatisticalCheckError(
            f"collective threshold residual {curve.residual} not below 1e-9"
        )
    print(f"ok thresholds: collective residual {curve.residual:.3e}")

    task = generate_task(8, 6.0, seed=opts["seed"] + 1)
    session = run_session(
        task.concept_source(),
        5000,
        attack=InterceptResend(),
        seed=opts["seed"],
        keep_rounds=False,
    )
    protocol_pull = binomial_pull(session.eta_a_estimate, session.check_count, 0.5)
    if protocol_pull > _MAX_SIGMA:
        raise StatisticalCheckError(
            f"intercept-resend disturbance estimate {session.eta_a_estimate:.4f} "
            f"is {protocol_pull:.1f} sigma from 0.5 (limit {_MAX_SIGMA})"
        )
    print(f"ok protocol: full-attack disturbance pull {protocol_pull:.2f} sigma")
    if session.eve_label_error_rate != 0.0:
        raise StatisticalCheckError(
            "full Z-basis interception must read every data label exactly"
        )
    print("ok protocol: full-attack eavesdropper labels exact")

    p = 0.2
    good = LinearThresholdModel(weights=task.direction, bias=0.0)
    bad = LinearThresholdModel(weights=-task.direction, bias=0.0)
    rng_gate = np.random.default_rng(opts["seed"] + 2)

    def sampler(rng):
        return good if rng.random() < p else bad

    seeds = rng_gate.integers(0, 2**63, size=1000).tolist()
    trials = random_search_trials(task, 0.03, sampler, 100, seeds)
    law_pulls = []
    for point in estimate_learning_probability(trials, (1, 5, 10, 25)).points:
        law = random_search_curve(p, point.n)
        pull = binomial_pull(point.p_hat, point.trials, law)
        if pull > _MAX_SIGMA:
            raise StatisticalCheckError(
                f"random-search CDF at n={point.n}: observed {point.p_hat:.4f} vs law "
                f"{law:.4f} is {pull:.1f} sigma off (limit {_MAX_SIGMA})"
            )
        print(f"ok random-search law at n={point.n}: pull {pull:.2f} sigma")
        law_pulls.append({"n": point.n, "pull": pull})
    print("selfcheck passed")
    bundle = _bundle(opts, "selfcheck")
    if bundle is not None:
        bundle.write_summary(
            {
                "collective_residual": curve.residual,
                "protocol_pull": protocol_pull,
                "eve_label_error_rate": session.eve_label_error_rate,
                "random_search_law": law_pulls,
            }
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_SEED = Option("seed", 0, _as_int, "base seed")
_WORKERS = Option("workers", 1, _as_int, "trial parallelism", env=_ENV_WORKERS)
_SVG = Option("svg", False, _as_bool, "also render SVG charts", switch=True)
_EPSILON_TARGET = Option("epsilon_target", 0.03, float, "halting error target")
_ATTACK_KIND = Option(
    "attack_kind", "collective", str, "eavesdropper noise curve",
    choices=("collective", "individual"),
)


def _out(default: str | None) -> Option:
    return Option(
        "out", default, str, "output directory for tables and summaries", env=_ENV_OUTDIR
    )


_REPORT = (_SEED, _out(None))
_TRIAL_REPORT = (_SEED, _out("qlabelsec-out"), _WORKERS, _SVG)

_TASK = (
    Option("dimension", 8, _as_int, "task input dimension"),
    Option("separation", 6.0, float, "cluster separation"),
    Option("task_seed", 42, _as_int, "task generation seed"),
)

_LEARNER = (
    Option("model", "linear-threshold", str, "model family", choices=MODEL_KINDS),
    Option("hidden_width", 8, _as_int, "hidden layer width"),
    Option("step_size", 0.3, float, "SGD step size"),
    Option("batch_size", 5, _as_int, "SGD batch size"),
    Option("cadence", 25, _as_int, "samples between test evaluations"),
)

# subcommand -> (help, handler, the options it reads); flags are listed in
# this order in --help.
_COMMANDS = {
    "bounds": ("sample-complexity bounds and delta floors", _cmd_bounds, (
        Option("epsilon", None, float, "inaccuracy target in (0,1)"),
        Option("delta", None, float, "failure probability in (0,1)"),
        Option("log_h", None, float, "ln of the hypothesis count"),
        Option("eta", 0.0, float, "label noise rate in [0, 1/2)"),
        Option("n", [], _as_int_list, "comma list of sample counts for delta-star rows"),
        *_REPORT,
    )),
    "thresholds": ("critical disturbance rates per attack model", _cmd_thresholds, _REPORT),
    "protocol-run": ("simulate one label-delivery session", _cmd_protocol_run, (
        Option("target_data", 1000, _as_int, "data labels to deliver"),
        Option(
            "attack", "none", str, "eavesdropping model",
            choices=("none", "intercept-resend", "collective", "individual"),
        ),
        Option("fraction", 1.0, float, "attacked round fraction for intercept-resend"),
        Option(
            "policy", "alwaysZ", str, "interception basis policy",
            choices=("alwaysZ", "randomPerLeg"),
        ),
        Option(
            "legs", "both", str, "which channel legs are attacked",
            choices=tuple(_LEG_CHOICES),
        ),
        Option("disturbance", 0.05, float, "induced disturbance for analytic attacks"),
        Option("abort_threshold", None, float, "abort when the estimate exceeds this"),
        Option("strict_abort", False, _as_bool, "discard datasets on abort", switch=True),
        Option(
            "no_transcript", False, _as_bool,
            "skip per-round records (faster, no transcript file)", switch=True,
        ),
        *_TASK,
        *_REPORT,
    )),
    "learn": ("estimate a learning-probability curve", _cmd_learn, (
        Option("eta", 0.0, float, "stream label noise"),
        _EPSILON_TARGET,
        Option("trials", 100, _as_int, f"Monte Carlo trials, at least {MIN_TRIALS}"),
        Option("budget", None, _as_int, "per-trial sample budget"),
        Option("grid", None, _as_int_list, "comma list of sample counts to report"),
        Option(
            "learner", "gradient", str, "trained learner or the baseline", choices=LEARNER_KINDS
        ),
        *_LEARNER,
        *_TASK,
        *_TRIAL_REPORT,
    )),
    "sweep-eta": (
        "paired authorized/eavesdropper sweep over disturbance", _cmd_sweep_eta, (
            Option(
                "eta_grid", [0.01, 0.03, 0.05, 0.08, 0.11], _as_float_list,
                "comma list of authorized disturbances",
            ),
            Option("n_op", 25, _as_int, "sample count the halting probability is read at"),
            Option("trials", 150, _as_int, "trials per grid point"),
            _EPSILON_TARGET,
            _ATTACK_KIND,
            *_LEARNER,
            *_TASK,
            *_TRIAL_REPORT,
        ),
    ),
    "histograms": ("final-error histograms for the paired learners", _cmd_histograms, (
        Option("eta_a", 0.03, float, "authorized disturbance"),
        _EPSILON_TARGET,
        Option("trials", 150, _as_int, "trials per learner"),
        Option("budget", 2000, _as_int, "per-trial sample budget"),
        _ATTACK_KIND,
        *_LEARNER,
        *_TASK,
        *_TRIAL_REPORT,
    )),
    "selfcheck": ("fast statistical self-checks (exit 3 on failure)", _cmd_selfcheck, _REPORT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlabelsec",
        description="PAC bounds, disturbance thresholds, a one-qubit label "
        "delivery protocol, and learning-probability experiments.",
    )
    parser.add_argument("--version", action="version", version=f"qlabelsec {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for opt in options:
            opt.add_to(sub)
        sub.add_argument("--config", type=Path, help="JSON config file; flags override it")
        sub.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        _check_out(opts["out"])
        return args.handler(opts)
    except (DomainError, ConfigError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatisticalCheckError as exc:
        print(f"selfcheck failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
