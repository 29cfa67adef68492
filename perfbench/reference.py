"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py

Runs perfbench/run.py once per workload and seed, one run after the other,
for the run length of BENCHMARK.json.  Untraced runs use SEEDS and traced
runs TRACE_SEEDS.  Prints for every metric its median over the seeds and the
spread: the distance between the first and third quartiles as a share of the
median; for the traced runs also the tracing overhead, traced op_s over
untraced op_s on the same seeds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("radon-pgd", "radon-ista", "net-paper", "train-toy")
SEEDS = {0: range(1, 11), 1: range(1, 4)}   # trace flag -> seeds


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(runs):
    """{metric: (median, spread, min, max)} over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        out[name] = (statistics.median(vals), spread(vals), min(vals), max(vals))
    return out


def main():
    seconds = run_seconds()
    report = {}
    for workload in WORKLOADS:
        for trace, seeds in SEEDS.items():
            runs = []
            for seed in seeds:
                t0 = time.perf_counter()
                r = one_run(workload, seed, seconds, trace)
                runs.append(r)
                print(f"{workload} trace={trace} seed={seed} "
                      f"wall={time.perf_counter() - t0:.1f}s correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in r["metrics"].items()
                                 if trace == 0 or k == "trace.op_s"),
                      flush=True)
            report[(workload, trace)] = (summarize(runs), runs)

    print()
    for (workload, trace), (summary, runs) in report.items():
        fails = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"## {workload} ({'traced' if trace else 'untraced'}, "
              f"{len(runs)} seeds, failed share {fails})")
        for name, (med, spr, lo, hi) in summary.items():
            print(f"  {name:34s} median {med:<12.6g} spread {spr:6.3f} "
                  f"range [{lo:.6g}, {hi:.6g}]")
        if trace:
            _, base_runs = report[(workload, 0)]
            base = statistics.median(
                r["metrics"]["op_s"]["value"]
                for r, s in zip(base_runs, SEEDS[0]) if s in SEEDS[1])
            print(f"  tracing overhead: traced op_s / op_s on the same seeds = "
                  f"{summary['trace.op_s'][0] / base:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
