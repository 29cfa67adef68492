import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_recorder():
    path = os.path.join(ROOT, "tools", "bench_record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("commit,clean,expect", [
    ("f216383d97e72cda6f342a07a8cb1b7906cea11e", True, "f216383"),
    ("f216383d97e72cda6f342a07a8cb1b7906cea11e", False, "f216383-dirty"),
    (None, None, "unknown")], ids=["clean", "dirty", "no-git"])
def test_a_dirty_tree_is_not_named_after_its_commit(commit, clean, expect):
    assert load_recorder().label({"commit": commit, "clean": clean}) == expect


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
