"""One benchmark workload in one fresh process.

Started by ``run.py``; not meant to be run by hand, though it can be:

    python3 bench/worker.py --workload protocol --seed 1 --seconds 35 --trace 0

With ``--probe-setup`` it only imports the package and generates the
workload's task, prints ``ready`` and exits, so that the parent can time
set-up from process start.  Otherwise it runs the workload and prints, on
separate lines of stdout, the machine facts, then either the median
reference-speed time of every component with the calibration times
(untraced runs) or the full span table (traced runs), and last the result
object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy loads: the
# benchmark measures a single process, and OpenBLAS would otherwise start up
# to 64 threads on a box with two cores.  The trial pool is left at its
# default size, whatever the environment says.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"
os.environ.pop("QLABELSEC_WORKERS", None)

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
sys.path.insert(0, str(SOURCE))

import numpy as np  # noqa: E402

import qlabelsec  # noqa: E402

if not Path(qlabelsec.__file__).resolve().is_relative_to(SOURCE):
    sys.exit(f"error: qlabelsec was imported from {qlabelsec.__file__}, not from {SOURCE}")

import qlabelsec.cli  # noqa: E402,F401

import workloads  # noqa: E402


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "learning", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true")
    args = parser.parse_args(argv)

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    workload = workloads.make_workload(args.workload, scratch)
    if args.probe_setup:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        metrics, detail, gate = workloads.measure(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    for problem in gate.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({"trace_table" if args.trace else "clock": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
