"""Record the benchmark's end-to-end numbers in BENCH_<commit>.json.

    python3 tools/bench_record.py [--root DIR] [--out DIR]
        [--workloads radon-pgd,...] [--seconds T]

Runs the committed `perfbench/run.py --workload W --seed S --seconds T
--trace 0` of the checkout at --root (default: this one) once for each
workload and seed 1-5, one run at a time, and parses each run's `env` line
and result line; it measures nothing itself.  The workloads and T are the
checkout's BENCHMARK.json `workloads` and `run_seconds` unless --workloads
or --seconds overrides them.  It writes BENCH_<short commit hash>.json to
--out (default: the checkout's root), BENCH_<short hash>-dirty.json when
the tree has uncommitted changes (the file is never named after a commit
that does not hold the measured code).  The file holds the commit hash,
whether the tree was clean, the `env` line of the first run, and per
workload the median, min and quartiles of `setup_s`, `op_s` and `peak_mb`
over the seeds, `attempted` and `failed` summed over the runs, `correct`
(every run's once-per-run checks passed) and each run's raw numbers.  At 4
workloads and 15 s a file takes about 6 minutes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3, 4, 5)
METRICS = ("setup_s", "op_s", "peak_mb")


def _git(root, *args):
    """Output of a git command in root, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _run(root, workload, seed, seconds):
    """(env dict, result dict) of one benchmark run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        sys.exit(f"bench_record: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    return json.loads(lines[-2][len("env "):]), json.loads(lines[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3}


def record(root, workloads, seconds):
    """The BENCH_*.json mapping for the checkout at root."""
    env, per_workload = None, {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            run_env, result = _run(root, workload, seed, seconds)
            env = env or run_env
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: result["metrics"][k]["value"] for k in METRICS}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {runs[-1][k]:.4g}" for k in METRICS), file=sys.stderr)
        per_workload[workload] = {
            **{k: _summary([r[k] for r in runs]) for k in METRICS},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "runs": runs,
        }
    status = _git(root, "status", "--porcelain")
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "clean": None if status is None else status == "",
            "seconds": seconds, "seeds": list(SEEDS), "env": env,
            "workloads": per_workload}


def label(bench):
    """The file name's label for a record: its short commit hash, with a
    -dirty suffix when the tree held uncommitted changes."""
    short = (bench["commit"] or "unknown")[:7]
    return f"{short}-dirty" if bench["clean"] is False else short


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(HERE))
    ap.add_argument("--out")
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bench = record(args.root, workloads, seconds)
    path = os.path.join(args.out or args.root, f"BENCH_{label(bench)}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
