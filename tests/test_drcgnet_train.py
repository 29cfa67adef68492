import importlib
import multiprocessing
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cginvert.drcgnet import (
    NetConfig,
    TrainConfig,
    evaluate_mae,
    forward,
    init_params,
    load_checkpoint,
    mae,
    param_count,
    save_checkpoint,
    train,
)
from cginvert.drcgnet import conv
from cginvert.errors import NanLossError, WorkerError
from cginvert.data_metrics import gen_dataset
from cginvert.sensing import build_radon

# the package re-exports the train function under the module's name
train_module = importlib.import_module("cginvert.drcgnet.train")


def toy_setup(n_samples=4, seed=11):
    model = build_radon(8, 6)
    ds = gen_dataset("synthetic", model, 60.0, n_samples, seed=seed)
    cfg = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(8, 1),
                    variant="ista", cov_kind="scaled_identity",
                    gamma_max=1.0, refine=True)
    return model, ds, cfg


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=0.0, epochs=3, seed=0)
        before = init_params(cfg, model.n, seed=0, cov_init=0.1)
        params, _ = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        for key in before.values:
            assert np.array_equal(params.values[key], before.values[key]), key

    def test_loss_decreases(self):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=2e-3, epochs=40, seed=0)
        init_mae = evaluate_mae(
            ds.pairs, model, init_params(cfg, model.n, seed=0, cov_init=0.1))
        params, _ = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert evaluate_mae(ds.pairs, model, params) < 0.7 * init_mae

    def test_deterministic_history(self):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e-3, epochs=5, seed=3)
        _, h1 = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        _, h2 = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert h1["train_mae"] == h2["train_mae"]

    def test_nan_loss_aborts_with_dump(self):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e12, epochs=50, seed=0)
        with pytest.raises(NanLossError) as info:
            train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert "epoch" in info.value.dump

    def test_diverged_only_update_aborts_with_dump(self):
        # measurements and images 1e3 times brighter push a batch gradient
        # entry above 2, so lr * gradient overflows on the one update
        model, ds, cfg = toy_setup()
        pairs = [(1e3 * y, 1e3 * c) for y, c in ds.pairs]
        tcfg = TrainConfig(lr=1e308, epochs=1, seed=0)
        with pytest.raises(NanLossError, match="non-finite parameters") as info, \
                np.errstate(over="ignore"):
            train(pairs, model, cfg, tcfg, cov_init=0.1)
        assert "epoch" in info.value.dump

    def test_full_batch_history_is_mae_before_each_update(self):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e-3, epochs=3, seed=0)
        _, hist = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        for e in range(tcfg.epochs):
            if e > 0:
                params, _ = train(ds.pairs, model, cfg,
                                  TrainConfig(lr=1e-3, epochs=e, seed=0),
                                  cov_init=0.1)
            assert hist["train_mae"][e] == pytest.approx(
                evaluate_mae(ds.pairs, model, params), rel=1e-12), e

    def test_one_taped_forward_per_sample_per_epoch(self, monkeypatch):
        real_forward = train_module.forward
        taped = []

        def counting_forward(*args, **kwargs):
            taped.append(kwargs.get("want_tape", True))
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "forward", counting_forward)
        model, ds, cfg = toy_setup(n_samples=5)
        tcfg = TrainConfig(lr=1e-3, epochs=3, batch=2, seed=0)
        train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert taped == [True] * (tcfg.epochs * len(ds.pairs))

    def test_early_stopping_returns_best(self):
        model, ds, cfg = toy_setup(n_samples=6)
        tcfg = TrainConfig(lr=5e-3, epochs=30, seed=0, patience=3)
        params, hist = train(ds.pairs[:4], model, cfg, tcfg,
                             val_pairs=ds.pairs[4:], cov_init=0.1)
        vm = evaluate_mae(ds.pairs[4:], model, params)
        assert vm == pytest.approx(min(hist["val_mae"]), rel=1e-12)

    def test_each_tape_is_freed_before_the_next_forward(self, monkeypatch):
        real_forward = train_module.forward
        tapes = []

        def forward_keeping_refs(*args, **kwargs):
            assert all(ref() is None for ref in tapes)
            c_hat, tape = real_forward(*args, **kwargs)
            if tape is not None:
                tapes.append(weakref.ref(tape))
            return c_hat, tape

        monkeypatch.setattr(train_module, "forward", forward_keeping_refs)
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch=2, seed=0)
        train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert len(tapes) == 2 * len(ds.pairs)

    def test_batching_covers_all_samples(self):
        model, ds, cfg = toy_setup(n_samples=5)
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch=2, seed=0)
        _, hist = train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert len(hist["train_mae"]) == 2


class RecordingWorker(train_module._Worker):
    """Stands in for the training worker: records each one started and the
    samples submitted to it."""

    started = []

    def __init__(self, *args):
        self.submitted = []
        self.started.append(self)
        super().__init__(*args)

    def submit(self, idx, inv):
        self.submitted.append(idx)
        super().submit(idx, inv)


@pytest.fixture
def workers(monkeypatch):
    """Record every training worker started; the list of them."""
    monkeypatch.setattr(RecordingWorker, "started", [])
    monkeypatch.setattr(train_module, "_Worker", RecordingWorker)
    return RecordingWorker.started


@pytest.fixture
def forked(workers, monkeypatch):
    """Split every batch of two or more samples across the worker process,
    as for a large net on a machine with two usable CPUs."""
    monkeypatch.setattr(conv, "_CPUS", 2)
    monkeypatch.setattr(train_module, "_FORK_MACS", 0)
    return workers


def recorded_run(monkeypatch, tmp_path, name, *args, **kwargs):
    """Train; return (history, the batch gradient of every update, the
    bytes of the trained parameters' checkpoint)."""
    steps = []
    real_step = train_module.Adam.step

    def recording_step(self, params, grads):
        steps.append({k: v.copy() for k, v in grads.items()})
        real_step(self, params, grads)

    with monkeypatch.context() as m:
        m.setattr(train_module.Adam, "step", recording_step)
        params, hist = train(*args, **kwargs)
    save_checkpoint(tmp_path / name, params)
    blobs = [(tmp_path / name / f).read_bytes()
             for f in ("manifest.json", "params.bin")]
    return hist, steps, blobs


def fail_on_sample(monkeypatch, pairs, idx, fail):
    """Make the taped forward of sample idx call fail() instead."""
    real_forward = train_module.forward

    def forward_failing(y, *args, **kwargs):
        if y is pairs[idx][0]:
            fail()
        return real_forward(y, *args, **kwargs)

    monkeypatch.setattr(train_module, "forward", forward_failing)


def breakdown():
    raise np.linalg.LinAlgError("leading minor not positive definite")


class TestWorkerProcess:
    @pytest.mark.parametrize("batch", [1, 2, 3, 0])
    @pytest.mark.parametrize("cov_kind,u_mode", [
        ("scaled_identity", "exact"), ("diagonal", "exact"),
        ("scaled_identity", "nagd"), ("diagonal", "nagd")])
    def test_same_bits_as_one_process(self, forked, monkeypatch, tmp_path,
                                      batch, cov_kind, u_mode):
        # nagd_steps=3 keeps the replayed covariance terms within the
        # gradient's size, so the diagonal nagd net may fork too
        model, ds, cfg = toy_setup(n_samples=5)
        cfg = replace(cfg, cov_kind=cov_kind, u_mode=u_mode, nagd_eta=0.05,
                      nagd_steps=3)
        tcfg = TrainConfig(lr=1e-3, epochs=3, batch=batch, seed=0)
        args = (ds.pairs, model, cfg, tcfg)
        with monkeypatch.context() as m:
            m.setattr(train_module, "_FORK_MACS", float("inf"))
            serial = recorded_run(monkeypatch, tmp_path, "serial", *args)
        assert forked == []
        split = recorded_run(monkeypatch, tmp_path, "split", *args)
        # batches of 2, 3 and 5 samples send the second of each pair
        expect = {1: [], 2: [1, 3], 3: [1, 4], 0: [1, 3]}[batch]
        assert [w.submitted for w in forked] == \
            ([expect * tcfg.epochs] if expect else [])
        assert split[0] == serial[0]
        assert len(split[1]) == len(serial[1])
        for got, ref in zip(split[1], serial[1]):
            for key in ref:
                assert np.array_equal(got[key], ref[key]), key
        assert split[2] == serial[2]
        assert multiprocessing.active_children() == []

    def test_worker_breakdown_ends_as_on_one_process(self, forked,
                                                      monkeypatch):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch=2, seed=0)
        fail_on_sample(monkeypatch, ds.pairs, 1, breakdown)
        errors = []
        for floor in (float("inf"), 0):
            monkeypatch.setattr(train_module, "_FORK_MACS", floor)
            with pytest.raises(NanLossError, match="solver breakdown at "
                               "epoch 0: leading minor") as info:
                train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
            errors.append((str(info.value), info.value.dump))
            assert multiprocessing.active_children() == []
        assert [w.submitted for w in forked] == [[1]]
        assert errors[0] == errors[1]

    def test_dead_worker_is_a_one_line_error(self, forked, monkeypatch):
        model, ds, cfg = toy_setup()
        fail_on_sample(monkeypatch, ds.pairs, 3, lambda: os._exit(3))
        with pytest.raises(WorkerError, match="exit code 3") as info:
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
                  cov_init=0.1)
        assert "\n" not in str(info.value)
        assert multiprocessing.active_children() == []

    def test_nan_loss_stops_the_worker(self, forked):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e12, epochs=50, batch=2, seed=0)
        with pytest.raises(NanLossError):
            train(ds.pairs, model, cfg, tcfg, cov_init=0.1)
        assert len(forked) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
    def test_callback_exception_stops_the_worker(self, forked, stop):
        model, ds, cfg = toy_setup()

        def callback(epoch, history):
            if epoch == 1:
                raise stop

        with pytest.raises(stop):
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=5, batch=2),
                  cov_init=0.1, callback=callback)
        assert len(forked) == 1
        assert multiprocessing.active_children() == []

    def test_return_joins_the_worker(self, forked):
        model, ds, cfg = toy_setup()
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
              cov_init=0.1)
        assert len(forked) == 1 and forked[0].proc.exitcode is not None
        assert multiprocessing.active_children() == []

    def test_small_net_never_forks(self, workers, monkeypatch):
        # a train-toy epoch takes about 20 ms; a fork costs about 10
        monkeypatch.setattr(conv, "_CPUS", 2)
        model, ds, cfg = toy_setup(n_samples=6)
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
              cov_init=0.1)
        assert workers == []

    def test_gate(self, monkeypatch):
        monkeypatch.setattr(conv, "_CPUS", 2)
        paper = NetConfig()
        _, _, toy = toy_setup()
        assert train_module._forks(paper, 32 * 32)
        assert not train_module._forks(toy, 64)
        # a dense covariance's terms outweigh the gradient at 100 nagd steps
        dense = NetConfig(cov_kind="full", u_mode="nagd", nagd_eta=0.1)
        assert train_module._replay_size(dense, 1024) > param_count(dense, 1024)
        assert not train_module._forks(dense, 32 * 32)
        monkeypatch.setattr(conv, "_CPUS", 1)
        assert not train_module._forks(paper, 32 * 32)
        monkeypatch.setattr(conv, "_CPUS", 2)
        monkeypatch.delattr(os, "fork")
        assert not train_module._forks(paper, 32 * 32)


class TestMae:
    def test_formula(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.5, 2.0, 2.0, 4.0])
        assert mae(a, b) == pytest.approx((0.5 + 1.0) / 4.0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=9, cov_init=0.1)
        tcfg = TrainConfig(lr=1e-3, epochs=1, seed=9)
        save_checkpoint(tmp_path / "ck", params, train_cfg=tcfg, epoch=1,
                        losses={"train_mae": [0.5]})
        loaded, manifest = load_checkpoint(tmp_path / "ck")
        assert NetConfig(**manifest["net"]) == cfg
        assert manifest["net"]["channels"] == list(cfg.channels)
        assert manifest["epoch"] == 1
        for key in params.values:
            assert np.array_equal(loaded.values[key], params.values[key])

    def test_blob_is_little_endian_in_declared_order(self, tmp_path):
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=2, cov_init=0.1)
        save_checkpoint(tmp_path / "ck", params)
        import json

        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        blob = np.fromfile(tmp_path / "ck" / "params.bin", dtype="<f8")
        expect = np.concatenate(
            [params.values[k].ravel() for k in manifest["order"]])
        assert np.array_equal(blob, expect)

    def test_forward_identical_after_reload(self, tmp_path):
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=4, cov_init=0.1)
        save_checkpoint(tmp_path / "ck", params)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        y = ds.pairs[0][0]
        a, _ = forward(y, model, params, want_tape=False)
        b, _ = forward(y, model, loaded, want_tape=False)
        assert np.array_equal(a, b)
