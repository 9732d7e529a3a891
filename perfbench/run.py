"""Scan benchmark for spectral-cliques.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are made
from the seed and written under ``.perfbench-work/`` as one or more shard
files; then ``scl scan`` is called in a closed loop, one call at a time,
each on the next shard in turn, each in a fresh spawned interpreter that
runs ``spectral_cliques.cli.main`` in-process with stdout captured.  A call
is started only while it is expected to end within S seconds of the first,
so a run measures at most S seconds of calls (or one call, if a single call
takes longer).  Every call's stdout is checked against values computed
apart from the program (``checks.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
the untraced calls, medians over the calls.  Their times are calibrated:
each is scaled by the speed of the CPU it ran on, read from a fixed
reference task timed next to it (``scanproc.reference_s``).  With ``--trace 1`` the loop
runs at ``--jobs 1``, one more call is made on the first shard with the
layer tracer installed (``tracer.py``), and the last line carries the
per-layer metrics of that call.  The line before the last holds the
machine record and the per-call figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import scanproc
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
#: input generation plus a fresh package import, repeated; the median counts
SETUP_REPS = 3
#: one BLAS thread per process, so --jobs 2 does not oversubscribe two cores
BLAS_THREADS = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def calibrated(seconds: float, ref_s: float) -> float:
    """Seconds at the speed at which the reference task takes REFERENCE_S."""
    return seconds * scanproc.REFERENCE_S / ref_s


def run(args) -> dict:
    import checks  # numpy, which it imports, reads OPENBLAS_NUM_THREADS once

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        setup = []
        for _ in range(SETUP_REPS):
            ref_s = scanproc.reference_s()
            started = time.perf_counter()
            inputs = workloads.make_inputs(args.workload, args.seed, workdir)
            written = time.perf_counter() - started
            ref_s = (ref_s + scanproc.reference_s()) / 2
            imported = scanproc.run_call(None)
            setup.append(calibrated(written, ref_s)
                         + calibrated(imported["import_s"], imported["ref_s"]))

        jobs = 1 if args.trace else None
        shards = len(inputs.shards)
        calls = []
        started = time.perf_counter()
        while True:
            shard = len(calls) % shards
            calls.append(scanproc.run_call(inputs.argv(workdir, shard, jobs)))
            calls[-1]["shard"] = shard
            # start another call only if it should end within the run
            elapsed = time.perf_counter() - started
            if elapsed * (len(calls) + 1) / len(calls) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = scanproc.run_call(inputs.argv(workdir, 0, jobs), trace=True)
            traced["shard"] = 0

        checking = time.perf_counter()
        checker = checks.Checker(inputs, workdir)
        attempted = failed = 0
        problems: set[str] = set()
        for call in calls + ([traced] if traced else []):
            bad, found = checker.check(call["code"], call["stdout"], call["shard"])
            attempted += len(inputs.shards[call["shard"]])
            failed += bad
            problems.update(found)
        if traced and traced["stdout"] != calls[0]["stdout"]:
            problems.add("stdout of the traced call differs from the untraced one")
        check_s = time.perf_counter() - checking
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [c["wall_s"] for c in calls]
    wall = statistics.median(walls)
    cal_walls = [calibrated(c["wall_s"], c["ref_s"]) for c in calls]
    if args.trace:
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in traced["layers"].items()}
        metrics["cli.stdout_bytes"] = _metric(len(traced["stdout"].encode()), "bytes")
        metrics["trace.overhead_s"] = _metric(traced["wall_s"] - wall, "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(cal_walls), "s"),
            "graphs_per_s": _metric(statistics.median(
                len(inputs.shards[c["shard"]]) / w for c, w in zip(calls, cal_walls)), "1/s"),
            "cpu_s": _metric(statistics.median(
                calibrated(c["cpu_s"], c["ref_s"]) for c in calls), "s"),
            "peak_rss_mb": _metric(statistics.median(c["peak_rss_mb"] for c in calls), "MB"),
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs or inputs.jobs,
        "shard_sizes": [len(shard) for shard in inputs.shards],
        "calls": len(calls),
        "wall_s_each": walls,
        "ref_s_each": [c["ref_s"] for c in calls],
        "calibrated_wall_s_each": cal_walls,
        "setup_s_each": setup,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "check_s": check_s,
        "problems": sorted(problems),
        "machine": machine_record(),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spectral_cliques" / "__init__.py").is_file():
        print(f"error: no spectral_cliques sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        scanproc.stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
