"""Boundary tracer for the benchmark: spans around qlabelsec's public functions.

The tracer lives entirely in the benchmark.  It replaces each traced function
with a wrapper in every ``qlabelsec`` namespace that binds it (the defining
module included, so calls inside one module are traced as well) and restores
the originals on ``uninstall``.  Each call records one span: name, parent
span, start and end.  Spans are kept in flat in-memory arrays and reduced to
a per-name table once, when the run ends; nothing is written while the
workload runs.

A name that a later version of the package no longer defines is skipped, and
a wrapped name that is never called simply has zero calls: both show up as
zeros in the per-layer table instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "qlabelsec"

LAYERS = (
    "cli",
    "protocol",
    "qubit",
    "adversary",
    "info_theory",
    "pac_bounds",
    "learn_harness",
    "reports",
)

# Entropy helpers that eta_star and eve_noise_from_disturbance call dozens of
# times per bisection.  Wrapping them would bill tracer cost to their callers,
# so their time counts as info_theory self time of the wrapped caller.
_UNWRAPPED = {
    "info_theory": frozenset(
        {
            "binary_entropy",
            "entropy_inverse",
            "mutual_info_authorized",
            "mutual_info_eve",
            "holevo_gap",
        }
    ),
}

# Methods traced under "<layer>.<method>": per-round input draws, and the two
# report writers that do not go through write_csv/write_jsonl.
_METHODS = {
    "learn_harness": (("SyntheticTask", "sample_inputs"),),
    "reports": (("ResultBundle", "add_text"), ("ResultBundle", "write_summary")),
}


def _count_session(counters, args, kwargs, session) -> None:
    data = len(session.authorized_dataset)
    counters["protocol.rounds"] += session.check_count + data
    counters["protocol.labels"] += data


def _count_trials(counters, args, kwargs, trials) -> None:
    counters["learn_harness.trials"] += len(trials)
    counters["learn_harness.samples_consumed"] += sum(t.samples_consumed for t in trials)
    counters["learn_harness.halted"] += sum(bool(t.halted) for t in trials)


def _count_transcript(counters, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    counters["protocol.transcript_bytes"] += os.path.getsize(path)


def _count_written_arg(counters, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[0]
    counters["reports.bytes_written"] += os.path.getsize(path)


def _count_written_result(counters, args, kwargs, path) -> None:
    counters["reports.bytes_written"] += os.path.getsize(path)


# Counters taken from a traced call's arguments and result, after the call.
_AFTER = {
    "protocol.run_session": _count_session,
    "protocol.export_transcript": _count_transcript,
    "learn_harness.run_trials": _count_trials,
    "reports.write_csv": _count_written_arg,
    "reports.write_jsonl": _count_written_arg,
    "reports.add_text": _count_written_result,
    "reports.write_summary": _count_written_result,
}


def traced_targets():
    """(traced name, owner, attribute, original) for every function to wrap.

    owner is the defining module for functions and the class for methods.
    """
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        skip = _UNWRAPPED.get(layer, frozenset())
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and attr not in skip
            ):
                targets.append((f"{layer}.{attr}", module, attr, fn))
        for class_name, method in _METHODS.get(layer, ()):
            cls = getattr(module, class_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if inspect.isfunction(fn):
                targets.append((f"{layer}.{method}", cls, method, fn))
    return targets


class Tracer:
    """Records one span per call of a traced function.

    Spans are stored column-wise: name id, parent span index (-1 for a span
    the benchmark opened), start and end in ``perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """A wrapper around fn that records a span per call."""
        name_id = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function in every namespace that binds it."""
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None
            and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        for name, owner, attr, fn in traced_targets():
            wrapper = self.wrap(name, fn, _AFTER.get(name))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, bound_name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self, child_cost: float = 0.0) -> dict[str, dict[str, float]]:
        return span_table(
            self.names,
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int64),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            child_cost,
        )


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to its caller's self time.

    That is the wrapper's work outside its own span: recording name, parent
    and end, pushing and popping the stack, the extra frame.  It is measured
    as a loop's time over a wrapped no-op, minus the no-op's spans, minus the
    same loop's time over the plain no-op; the median of a few repeats.
    """

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("noop", noop)

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    costs = []
    for _ in range(repeats):
        plain = loop(noop)
        first = len(probe.span_start)
        traced = loop(wrapped)
        inside = sum(probe.span_end[first:]) - sum(probe.span_start[first:])
        costs.append((traced - inside - plain) / calls)
    return max(0.0, statistics.median(costs))


def span_table(names, span_name, span_parent, span_start, span_end, child_cost=0.0):
    """Per-name calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, minus ``child_cost`` per direct child: the tracer's own work
    around each child span, which would otherwise count as the parent's.
    The program is single-threaded, so children of one span never overlap
    and their summed duration is exactly the part of the parent's interval
    they cover.
    """
    count = len(span_start)
    duration = span_end - span_start
    has_parent = span_parent >= 0
    child = np.bincount(
        span_parent[has_parent], weights=duration[has_parent], minlength=count
    )[:count]
    children = np.bincount(span_parent[has_parent], minlength=count)[:count]
    self_time = duration - child - child_cost * children
    width = len(names)
    calls = np.bincount(span_name, minlength=width)
    total = np.bincount(span_name, weights=duration, minlength=width)
    selfs = np.bincount(span_name, weights=self_time, minlength=width)
    return {
        name: {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(selfs[i]),
        }
        for i, name in enumerate(names)
    }


# Functions reported by name in the per-layer table, by what is reported.
_REPORT_CALLS = (
    "protocol.run_session",
    "qubit.measure",
    "qubit.apply_oracle",
    "qubit.fidelity",
    "adversary.measure_and_resend",
    "adversary.pick_policy_basis",
    "adversary.infer_label",
    "learn_harness.sample_inputs",
    "learn_harness.evaluate_error",
    "info_theory.eta_star",
)
_REPORT_SELF_S = (
    "protocol.export_transcript",
    "learn_harness.train_until",
    "learn_harness.random_search_learner",
    "learn_harness.generate_task",
    "reports.write_csv",
    "reports.write_jsonl",
    "reports.write_summary",
    "reports.svg_chart",
    "reports.error_histogram",
)
_REPORT_US_PER_CALL = (
    "qubit.measure",
    "learn_harness.evaluate_error",
    "info_theory.eta_star",
    "info_theory.eve_noise_from_disturbance",
)
_REPORT_COUNTERS = (
    ("protocol.rounds", "count"),
    ("protocol.transcript_bytes", "B"),
    ("learn_harness.trials", "count"),
    ("learn_harness.samples_consumed", "count"),
    ("reports.bytes_written", "B"),
)


def layer_metrics(
    table: dict, counters: dict, wall: float, overhead: float, tracer_s: float = 0.0
) -> dict:
    """The per-layer table as name -> (value, unit).

    tracer_s is the tracer's own work around all spans, taken out of the
    callers' self times (see ``span_table``).  Layer self times, tracer_s
    (``trace.self_s``) and ``untraced.self_s``, the benchmark's own time
    between spans, add up to the traced wall time.
    """

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def in_layer(name: str, layer: str) -> bool:
        return name.split(".")[0] == layer

    metrics = {}
    for layer in LAYERS:
        self_s = sum(r["self_s"] for n, r in table.items() if in_layer(n, layer))
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "frac")
    remainder = wall - tracer_s - sum(r["self_s"] for r in table.values())
    metrics["untraced.self_s"] = (remainder, "s")
    metrics["untraced.share"] = (remainder / wall, "frac")

    for name in _REPORT_CALLS:
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in _REPORT_SELF_S:
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in _REPORT_US_PER_CALL:
        metrics[f"{name}.us_per_call"] = (
            1e6 * ratio(row(name)["total_s"], row(name)["calls"]), "us"
        )
    for name, unit in _REPORT_COUNTERS:
        metrics[name] = (counters.get(name, 0.0), unit)

    rounds = counters.get("protocol.rounds", 0.0)
    trials = counters.get("learn_harness.trials", 0.0)
    pac_calls = sum(r["calls"] for n, r in table.items() if in_layer(n, "pac_bounds"))
    metrics.update(
        {
            "protocol.rounds_per_s": (
                ratio(rounds, row("protocol.run_session")["total_s"]), "1/s"
            ),
            "protocol.data_yield": (ratio(counters.get("protocol.labels", 0.0), rounds), "frac"),
            "learn_harness.halted_frac": (
                ratio(counters.get("learn_harness.halted", 0.0), trials), "frac"
            ),
            "pac_bounds.calls": (pac_calls, "count"),
            "pac_bounds.us_per_call": (
                1e6 * ratio(metrics["pac_bounds.self_s"][0], pac_calls), "us"
            ),
            "trace.overhead_frac": (overhead, "frac"),
            "trace.self_s": (tracer_s, "s"),
            "trace.wall_s": (wall, "s"),
        }
    )
    return metrics
