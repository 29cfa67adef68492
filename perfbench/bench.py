"""Run one benchmark workload and print its result as the last stdout line.

A run sets the workload up several times (each set-up ends with one untimed
warm-up operation), runs the once-per-run checks, measures the peak heap of
one operation in a pass of its own, then repeats whole rounds of operations
for the requested number of seconds, checking every one.  A calibration
kernel timed before every set-up and operation scales all reported times to
the reference speed (see workloads.Calibration).  With --trace 1 the layer
wrappers of `tracing` record spans and the run reports per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from tracing import PER_LAYER, Tracer, per_layer_metrics
from workloads import WORKLOADS, Calibration

# set up at least SETUPS times and for at least SETUP_SECONDS, so that the
# median of a cheap set-up rests on more than three noisy samples
SETUPS = 3
SETUP_SECONDS = 1.0
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_mb": "MB"}


def environment():
    """CPU count, BLAS threading and library versions of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def run(workload, seed, seconds, trace, spans_path=None):
    """Run one workload; returns the result mapping, the failed checks and
    a summary of the operation times."""
    tracer = Tracer()
    cal = Calibration()
    if trace:
        tracer.install()
        tracer.enabled = True
    try:
        setup_times = []
        begin = time.perf_counter()
        while len(setup_times) < SETUPS or time.perf_counter() - begin < SETUP_SECONDS:
            cal.sample()
            t0 = time.perf_counter()
            st = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        with tracer.paused():
            run_faults = workload.run_faults(st)
            peak = None if trace else workload.peak_mb(st)
        ops = workload.measure(st, seconds, tracer, cal)
        tracer.enabled = False
    finally:
        tracer.uninstall()

    times = ops.passed_times() or ops.times
    if trace:
        metrics = per_layer_metrics(tracer, ops.attempted, times, len(setup_times))
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {"setup_s": statistics.median(setup_times),
                   "op_s": statistics.median(times),
                   "peak_mb": peak}
    units = PER_LAYER if trace else END_TO_END
    scale = cal.scale()
    metrics = {k: v * scale if units[k] == "s" else v for k, v in metrics.items()}
    faults = run_faults + [f for fs in ops.faults for f in fs]
    summary = {"n": len(times), "min": min(times), "median": statistics.median(times),
               "max": max(times), "setups": setup_times, "scale": scale}
    return {
        "correct": not run_faults,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }, faults, summary


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spans_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
    result, faults, op_summary = run(WORKLOADS[args.workload](), args.seed,
                                     args.seconds, args.trace, spans_path)
    for fault in faults[:10]:
        print(f"check failed: {fault}", file=sys.stderr)
    print(f"ops {json.dumps(op_summary)}")
    print("env " + json.dumps(environment()))
    print(json.dumps(result))
    return 0
