"""Tests of the benchmark itself: tiny-size runs of every workload, and proof
that each correctness check rejects a deliberately wrong output."""

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    LAM,
    MU,
    NET_PAPER,
    RADON_PGD,
    TRAIN_TOY,
    NetTrain,
    RadonSolve,
)

from cginvert.drcgnet import NetConfig, param_count  # noqa: E402

TINY_NET = NetConfig(K=1, J=2, depth=2, channels=(2, 1))
# Radon 8x8 with 4 angles has m=48 < n=64 (Woodbury route, as at paper
# scale); with 6 angles m=72 > n=64 (direct route, as train-toy)
TINY = {
    "radon-pgd": RadonSolve(replace(RADON_PGD, side=8, angles=4, samples=2,
                                    K=2, J=2)),
    "radon-ista": RadonSolve(replace(RADON_PGD, method="ista", side=8,
                                     angles=4, samples=2, K=2, J=2)),
    "net-paper": NetTrain(replace(NET_PAPER, side=8, angles=4, samples=2,
                                  net=TINY_NET, fd_steps=(1e-8, 1e-9),
                                  expected_params=param_count(TINY_NET, 64))),
    "train-toy": NetTrain(replace(TRAIN_TOY, samples=2, net=TINY_NET)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run(name):
    result, faults, _ = bench.run(TINY[name], seed=3, seconds=0.0, trace=0)
    assert faults == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["radon-ista", "train-toy"])
def test_tiny_traced_counts_repeat(name):
    first, _, _ = bench.run(TINY[name], seed=3, seconds=0.0, trace=1)
    second, _, _ = bench.run(TINY[name], seed=3, seconds=0.0, trace=1)
    assert list(first["metrics"]) == list(tracing.PER_LAYER)
    counts = [k for k in tracing.PER_LAYER
              if k.endswith((".calls", "_mb", ".halvings", ".iterations"))]
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["tikhonov.solve.calls"]["value"] > 0


def test_tracer_restores_the_program():
    from cginvert import gcgls, sensing, tikhonov

    before = (gcgls.solve, sensing.SensingModel.apply, tikhonov.sla)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert gcgls.solve is not before[0]
    finally:
        tracer.uninstall()
    assert (gcgls.solve, sensing.SensingModel.apply, tikhonov.sla) == before


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _radon_report():
    w = TINY["radon-pgd"]
    st = w.setup(3)
    w.run_faults(st)
    return w, st, w._op(st, 1)


def test_normal_equations_check_rejects_moved_u():
    w, st, report = _radon_report()
    assert w.faults(st, 1, report) == []
    u, z = report.state.u, report.state.z
    y = st["ys"][1]
    assert checks.normal_equations_fault(u, z, st["a"], y, LAM) is None
    assert checks.normal_equations_fault(u * (1 + 1e-6), z, st["a"], y, LAM)


def test_cost_checks_reject_wrong_reports():
    _, st, report = _radon_report()
    report.f_final *= 1 + 1e-8
    assert checks.final_cost_fault(report, st["a"], st["ys"][1], LAM, MU)
    report.state.trace[2].f_value = report.state.trace[0].f_value * 2
    assert checks.cost_trace_fault(report)


@pytest.mark.parametrize("name", ["net-paper", "train-toy"])
def test_gradient_check_rejects_flipped_entry(name):
    w = TINY[name]
    st = w.setup(3)
    w.run_faults(st)
    params = st["params"]
    loss, grads = w.gradient_inputs(st, params)
    args = (params.values, grads, st["direction"], w.spec.fd_steps,
            w.spec.fd_rtol)
    assert checks.directional_fault(loss, *args) is None
    key = max(grads, key=lambda k: np.max(np.abs(grads[k])))
    flat = grads[key].reshape(-1)
    flat[np.argmax(np.abs(flat))] *= -1.0
    assert checks.directional_fault(loss, *args)


def test_c9_check_rejects_perturbed_output():
    w = TINY["net-paper"]
    st = w.setup(3)
    c_net, c_solver = w.c9_outputs(st)
    assert checks.bit_identical_fault(c_net, c_solver) is None
    c_net[5] = np.nextafter(c_net[5], np.inf)
    assert checks.bit_identical_fault(c_net, c_solver)


def test_replay_check_names_differing_epochs():
    w = TINY["train-toy"]
    st = w.setup(3)
    assert w.replay_mismatches(st, []) == []
    losses = []
    w._train(st, st["params"].copy(), 3,
             lambda e, h: losses.append(h["train_mae"][-1]))
    assert w.replay_mismatches(st, losses) == []
    losses[1] = np.nextafter(losses[1], np.inf)
    assert w.replay_mismatches(st, losses) == [1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "radon-pgd", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
