import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_recorder_writes_the_bench_keys(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_record.py"),
         "--workloads", "train-toy", "--seconds", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True)
    path = proc.stdout.strip()
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path).startswith("BENCH_")
    with open(path) as fh:
        bench = json.load(fh)
    assert {"commit", "clean", "env", "workloads"} <= set(bench)
    assert "OPENBLAS_NUM_THREADS" in bench["env"]
    assert list(bench["workloads"]) == ["train-toy"]
    toy = bench["workloads"]["train-toy"]
    for metric in ("setup_s", "op_s", "peak_mb"):
        got = toy[metric]
        assert set(got) == {"median", "min", "q1", "q3"}
        assert got["min"] <= got["q1"] <= got["median"] <= got["q3"]
    assert toy["attempted"] >= 5 and toy["failed"] == 0 and toy["correct"]
    assert [run["seed"] for run in toy["runs"]] == [1, 2, 3, 4, 5]
