"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They cover the span arithmetic, the tracer's patching, a tiny run of every
workload in both modes, the correctness gate, and the runner's refusal to
run in a directory without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from qlabelsec import adversary, learn_harness, protocol, qubit  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_direct_children():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 6];
    # C [11, 12] is a second root.
    names = ["A", "B", "C"]
    span_name = np.array([0, 1, 2, 1, 2], dtype=np.int32)
    span_parent = np.array([-1, 0, 1, 0, -1], dtype=np.int64)
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 6.0, 12.0])
    table = tracer.span_table(names, span_name, span_parent, start, end)
    assert table["A"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert table["B"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert table["C"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    roots = (end - start)[span_parent < 0].sum()
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(roots)

    # The tracer's cost per child comes out of the parent's self time only.
    table = tracer.span_table(names, span_name, span_parent, start, end, child_cost=0.25)
    assert table["A"]["self_s"] == 5.5
    assert table["B"]["self_s"] == 2.75
    assert table["C"]["self_s"] == 2.0
    children = int((span_parent >= 0).sum())
    assert sum(row["self_s"] for row in table.values()) + 0.25 * children == pytest.approx(roots)


def test_layer_times_the_tracer_and_the_remainder_add_up_to_the_wall_time():
    table = {
        "protocol.run_session": {"calls": 2, "total_s": 3.0, "self_s": 2.0},
        "qubit.measure": {"calls": 9, "total_s": 0.5, "self_s": 0.5},
    }
    metrics = tracer.layer_metrics(table, {}, wall=4.0, overhead=0.1, tracer_s=0.25)
    assert metrics["trace.self_s"] == (0.25, "s")
    assert metrics["untraced.self_s"] == (1.25, "s")
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert layers + 0.25 + metrics["untraced.self_s"][0] == pytest.approx(4.0)


def test_tracer_sees_calls_inside_a_module_and_restores_the_originals():
    original = learn_harness.generate_task
    original_method = vars(learn_harness.SyntheticTask)["sample_inputs"]
    spans = tracer.Tracer()
    spans.install()
    try:
        learn_harness.generate_task(8, 6.0, 1)
    finally:
        spans.uninstall()
    assert learn_harness.generate_task is original
    assert vars(learn_harness.SyntheticTask)["sample_inputs"] is original_method
    table = spans.table()
    assert table["learn_harness.generate_task"]["calls"] == 1
    # generate_task draws its test set through the traced method.
    assert table["learn_harness.sample_inputs"]["calls"] == 1
    sample_id = spans.names.index("learn_harness.sample_inputs")
    parent = spans.span_parent[list(spans.span_name).index(sample_id)]
    assert spans.names[spans.span_name[parent]] == "learn_harness.generate_task"


def test_missing_and_uncalled_names_read_as_zero(monkeypatch):
    monkeypatch.setattr(
        qubit, "__all__", [name for name in qubit.__all__ if name != "measure"] + ["gone"]
    )
    names = [name for name, *_ in tracer.traced_targets()]
    assert "qubit.measure" not in names
    assert "qubit.gone" not in names
    metrics = tracer.layer_metrics({}, {}, wall=1.0, overhead=0.0)
    assert metrics["qubit.measure.calls"] == (0, "count")
    assert metrics["untraced.share"] == (1.0, "frac")


def _tiny(name: str, scratch: Path):
    if name == "protocol":
        return workloads.ProtocolWorkload(target=300, unit_target=100)
    if name == "learning":
        return workloads.LearningWorkload(
            trials=30, sweep_grid=(0.01, 0.11), histogram_budget=200,
            curve_grid=(25, 50), law_trials=200,
        )
    return workloads.CliWorkload(scratch, trials=30, target_data=200)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["protocol", "learning", "cli"])
def test_tiny_run_emits_every_named_metric_with_its_unit(name, trace, tmp_path):
    metrics, detail, gate = workloads.measure(_tiny(name, tmp_path), 5, 0.0, trace)
    assert detail
    if trace:
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        # set-up time is measured by run.py, from outside the process
        expected = {
            m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] if m["name"] != "setup_s"
        }
        assert all(value > 0 for value, _ in metrics.values())
    assert {key: unit for key, (_, unit) in metrics.items()} == expected
    assert gate.attempted > 0
    assert gate.failed == 0, gate.problems


def test_gate_counts_a_session_whose_disturbance_estimate_is_off():
    task = learn_harness.generate_task(8, 6.0, 3)
    attack = adversary.InterceptResend()
    session = protocol.run_session(
        task.concept_source(), 500, attack=attack, seed=3, keep_rounds=False
    )
    gate = workloads.Gate()
    gate.record("honest", workloads.session_problems(session, attack, 500))
    # Full Z-basis interception disturbs half of the check rounds.
    off = dataclasses.replace(session, eta_a_estimate=0.3)
    gate.record("off", workloads.session_problems(off, attack, 500))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.problems[0].startswith("off: eta_a estimate")


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "protocol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
