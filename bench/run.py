"""Benchmark entry point: one workload, measured in fresh processes.

    python3 bench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  The last line of stdout is
the result object ``{"correct", "attempted", "failed", "metrics"}``; earlier
lines carry the machine facts and, for ``--trace 1``, the full span table.
See ``bench/README.md`` for the workloads and metrics.

Set-up time is measured here, from outside: the median over several fresh
processes of the time from spawn until the process has imported
``qlabelsec`` and ``qlabelsec.cli`` and generated the workload's task.  It
stays in wall seconds: a calibration loop timed in a process that has just
started varied more than the probes themselves.  The
workload itself then runs in one more fresh process, so its peak memory is
its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 8
# Each run must end within 180 s; the worker gets what the probes left.
RUN_DEADLINE_S = 170.0


def probe_setup(command: list[str], timeout: float) -> float:
    """Seconds from spawning a probe until it reports that set-up is done."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qlabelsec benchmark")
    parser.add_argument("--workload", required=True, choices=("protocol", "learning", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qlabelsec" / "__init__.py").is_file():
        print(f"error: no qlabelsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    probes = None
    if not args.trace:
        try:
            # The first probe compiles bytecode caches; it is not timed.
            probe_setup(base + ["--probe-setup"], timeout=60)
            probes = [
                probe_setup(base + ["--probe-setup"], timeout=60)
                for _ in range(SETUP_PROBES)
            ]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        completed = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        print(f"error: the workload exited with code {completed.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if probes is not None:
        print(json.dumps({"setup_probes_s": probes}))
        setup_s = statistics.median(probes)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
