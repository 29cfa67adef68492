import errno
import importlib
import multiprocessing
import multiprocessing.connection
import os
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cginvert.drcgnet import (
    NetConfig,
    NetParams,
    TrainConfig,
    conv2d_backward,
    evaluate_mae,
    forward,
    init_params,
    load_checkpoint,
    mae,
    save_checkpoint,
    train,
)
from cginvert.drcgnet.conv import body, padded
from cginvert.drcgnet.params import param_shapes
from cginvert.errors import DivergenceError, NanLossError, WorkerError
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
        with pytest.raises(NanLossError, match=r"at epoch \d+"):
            train(ds.pairs, model, cfg, tcfg, cov_init=0.1)

    def test_diverged_only_update_aborts_with_dump(self):
        # measurements and images 1e3 times brighter push a batch gradient
        # entry above 2, so lr * gradient overflows on the one update
        model, ds, cfg = toy_setup()
        pairs = [(1e3 * y, 1e3 * c) for y, c in ds.pairs]
        tcfg = TrainConfig(lr=1e308, epochs=1, seed=0)
        with pytest.raises(NanLossError, match="non-finite parameters after "
                           "an update at epoch 0"), np.errstate(over="ignore"):
            train(pairs, model, cfg, tcfg, cov_init=0.1)

    def test_non_finite_loss_aborts(self):
        # the accelerated u-update's reverse has no finite checks, so a
        # refinement blown up to 1e200 reaches the loss itself; lr=0 keeps
        # the update from raising first
        model, ds, _ = toy_setup()
        cfg = NetConfig(K=1, J=1, depth=2, kernel=3, channels=(4, 1),
                        u_mode="nagd", nagd_eta=1e-4, nagd_steps=3)
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        for key in ("delta.refine", "w.refine.1", "w.refine.2"):
            params.values[key][...] = 1e200
        with pytest.raises(NanLossError, match="^non-finite loss at epoch 0$"), \
                np.errstate(over="ignore", invalid="ignore"):
            train(ds.pairs, model, cfg, TrainConfig(lr=0.0, epochs=1),
                  params=params)

    def test_breakdown_in_validation_names_its_epoch(self):
        # the update diverges the parameters without breaking the training
        # batch; the validation forward then loses a Cholesky pivot
        model, ds, cfg = toy_setup(n_samples=5)
        tcfg = TrainConfig(lr=1e3, epochs=1, seed=0)
        with pytest.raises(NanLossError, match="^solver breakdown in "
                           "validation after epoch 0: u-update system is not "
                           "positive definite"):
            train(ds.pairs[:4], model, cfg, tcfg, val_pairs=ds.pairs[4:],
                  cov_init=0.1)

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
    list of samples of each message submitted to it."""

    started = []

    def __init__(self, *args):
        self.submitted = []
        self.started.append(self)
        super().__init__(*args)

    def submit(self, todo, inv):
        self.submitted.append(todo)
        super().submit(todo, inv)


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
    monkeypatch.setattr(train_module, "_CPUS", 2)
    monkeypatch.setattr(train_module, "_FORK_MACS", 0)
    return workers


def recorded_run(monkeypatch, tmp_path, name, *args, **kwargs):
    """Train; return (history, the batch gradient of every update, the
    bytes of the trained parameters' checkpoint)."""
    steps = []
    real_step = train_module.Adam.step

    def recording_step(self, params, grad):
        steps.append(grad.copy())
        real_step(self, params, grad)

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


def divergence():
    raise DivergenceError("u-objective grew for 3 consecutive accelerated "
                          "steps (eta=0.05)")


class TestWorkerProcess:
    @pytest.mark.parametrize("batch", [1, 2, 3, 0])
    @pytest.mark.parametrize("cov_kind,u_mode", [
        ("scaled_identity", "exact"), ("diagonal", "exact"),
        ("scaled_identity", "nagd"), ("diagonal", "nagd"),
        ("tridiagonal", "exact"), ("full", "exact"),
        ("tridiagonal", "nagd"), ("full", "nagd")])
    def test_same_bits_as_one_process(self, forked, monkeypatch, tmp_path,
                                      batch, cov_kind, u_mode):
        # nagd_eta 2e-5 is below 1/L of every u-block these runs take (L is
        # 25-18172); at 0.05 every accelerated step rises (DivergenceError)
        model, ds, cfg = toy_setup(n_samples=5)
        cfg = replace(cfg, cov_kind=cov_kind, u_mode=u_mode, nagd_eta=2e-5,
                      nagd_steps=3)
        tcfg = TrainConfig(lr=1e-3, epochs=3, batch=batch, seed=0)
        args = (ds.pairs, model, cfg, tcfg)
        with monkeypatch.context() as m:
            m.setattr(train_module, "_FORK_MACS", float("inf"))
            serial = recorded_run(monkeypatch, tmp_path, "serial", *args)
        assert forked == []
        split = recorded_run(monkeypatch, tmp_path, "split", *args)
        # batches of 2, 3 and 5 samples send their last floor(B/2)
        expect = {1: [], 2: [[1], [3]], 3: [[2], [4]], 0: [[3, 4]]}[batch]
        assert [w.submitted for w in forked] == \
            ([expect * tcfg.epochs] if expect else [])
        assert split[0] == serial[0]
        assert len(split[1]) == len(serial[1])
        for got, ref in zip(split[1], serial[1]):
            assert np.array_equal(got, ref)
        assert split[2] == serial[2]
        assert multiprocessing.active_children() == []

    def test_worker_breakdown_ends_as_on_one_process(self, forked,
                                                      monkeypatch):
        # a factorization breakdown and a diverged accelerated u-update
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch=2, seed=0)
        for fail, cause in ((breakdown, "leading minor"),
                            (divergence, "u-objective grew")):
            with monkeypatch.context() as m:
                fail_on_sample(m, ds.pairs, 1, fail)
                errors = []
                for floor in (float("inf"), 0):
                    m.setattr(train_module, "_FORK_MACS", floor)
                    params = init_params(cfg, model.n, seed=0, cov_init=0.1)
                    flat = params.flat
                    with pytest.raises(NanLossError, match="solver breakdown "
                                       f"at epoch 0: {cause}") as info:
                        train(ds.pairs, model, cfg, tcfg, params=params)
                    errors.append(str(info.value))
                    assert_ends_on(params, flat)
            assert errors[0] == errors[1]
        assert [w.submitted for w in forked] == [[[1]], [[1]]]

    def test_dead_worker_is_a_one_line_error(self, forked, monkeypatch):
        model, ds, cfg = toy_setup()
        fail_on_sample(monkeypatch, ds.pairs, 3, lambda: os._exit(3))
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        flat = params.flat
        with pytest.raises(WorkerError, match="exit code 3") as info:
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
                  params=params)
        assert "\n" not in str(info.value)
        assert_ends_on(params, flat)

    def test_worker_that_cannot_start_is_a_one_line_error(self, forked,
                                                          monkeypatch):
        def start(process):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        flat, before = params.flat, params.flat.copy()
        with pytest.raises(WorkerError, match="cannot start a training worker "
                           f"process: {os.strerror(errno.EAGAIN)}") as info:
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
                  params=params)
        assert "\n" not in str(info.value)
        assert len(forked) == 1
        assert np.array_equal(flat, before)
        assert_ends_on(params, flat)

    def test_nan_loss_stops_the_worker(self, forked):
        model, ds, cfg = toy_setup()
        tcfg = TrainConfig(lr=1e12, epochs=50, batch=2, seed=0)
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        flat = params.flat
        with pytest.raises(NanLossError):
            train(ds.pairs, model, cfg, tcfg, params=params)
        assert len(forked) == 1
        assert_ends_on(params, flat)

    @pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
    def test_callback_exception_stops_the_worker(self, forked, stop):
        model, ds, cfg = toy_setup()

        def callback(epoch, history):
            if epoch == 1:
                raise stop

        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        flat = params.flat
        with pytest.raises(stop):
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=5, batch=2),
                  params=params, callback=callback)
        assert len(forked) == 1
        assert_ends_on(params, flat)

    def test_return_joins_the_worker(self, forked):
        model, ds, cfg = toy_setup()
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=2),
              cov_init=0.1)
        assert len(forked) == 1 and forked[0].proc.exitcode is not None
        assert multiprocessing.active_children() == []

    def test_library_starts_no_thread(self, forked):
        # a worker forked from a single-threaded process inherits no lock
        # that another thread held, so both steps must leave the count be
        before = threading.active_count()
        rng = np.random.default_rng(0)
        k, side, ch = 3, 32, 32
        xp = padded(rng.standard_normal((side, side, ch)), k)
        d = body(padded(rng.standard_normal((side, side, ch)), k), k, side,
                 side)
        conv2d_backward(d, xp, rng.standard_normal((k, k, ch, ch)), side, side)
        model, ds, cfg = toy_setup()
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=1, batch=2),
              cov_init=0.1)
        assert len(forked) == 1
        assert threading.active_count() == before

    def test_small_net_forks_over_many_epochs(self, workers, monkeypatch):
        # 20 README-net samples, full batch: a one-epoch call broke even
        # with the worker (the fork costs about a toy epoch's time), two
        # epochs took 0.82x the serial time
        monkeypatch.setattr(train_module, "_CPUS", 2)
        model, ds, cfg = toy_setup(n_samples=20)
        for epochs in (1, 2):
            train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=epochs),
                  cov_init=0.1)
        assert [w.submitted for w in workers] == [[list(range(10, 20))] * 2]
        assert multiprocessing.active_children() == []

    def test_one_round_trip_per_batch(self, forked, monkeypatch):
        # the worker takes each batch's last half in one message, not one
        # message per pair of samples
        calls = []
        for name in ("send", "recv"):
            real = getattr(multiprocessing.connection.Connection, name)

            def counted(conn, *args, name=name, real=real):
                calls.append(name)
                return real(conn, *args)

            monkeypatch.setattr(multiprocessing.connection.Connection, name,
                                counted)
        model, ds, cfg = toy_setup(n_samples=6)
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=2, batch=0),
              cov_init=0.1)
        # the counts of this process only: the worker's are its own
        assert calls == ["send", "recv"] * 2
        assert multiprocessing.active_children() == []

    def test_u_update_work_counts_toward_the_floor(self, workers,
                                                   monkeypatch):
        # the README net on Radon 32x32/15: 0.74M conv multiply-adds, 329M
        # with the Cholesky factors
        monkeypatch.setattr(train_module, "_CPUS", 2)
        model = build_radon(32, 15)
        ds = gen_dataset("synthetic", model, 60.0, 2, seed=11)
        _, _, cfg = toy_setup()
        train(ds.pairs, model, cfg, TrainConfig(lr=1e-3, epochs=1, batch=2),
              cov_init=0.1)
        assert [w.submitted for w in workers] == [[[1]]]
        assert multiprocessing.active_children() == []

    def test_gate_weighs_the_trained_params(self, monkeypatch):
        # cfg_net only builds params when none are passed
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        seen = []
        real_forks = train_module._forks

        def spy(net, *args):
            seen.append(net)
            return real_forks(net, *args)

        monkeypatch.setattr(train_module, "_forks", spy)
        train(ds.pairs, model, NetConfig(), TrainConfig(lr=1e-3, epochs=1),
              params=params)
        assert seen == [params.cfg]

    def test_gate(self, monkeypatch):
        # (m, n) of Radon 32x32/15 and 8x8/6
        big, small = (690, 32 * 32), (72, 64)
        monkeypatch.setattr(train_module, "_CPUS", 2)
        paper = NetConfig()
        _, _, toy = toy_setup()
        # the paper net forks at one epoch, as it does in the benchmark
        assert train_module._forks(paper, *big, 1, 2)
        # 20 README-net samples count 1M multiply-adds each, the floor: a
        # one-epoch call stays serial, longer ones fork
        assert not train_module._forks(toy, *small, 1, 20)
        assert train_module._forks(toy, *small, 2, 20)
        # at 32x32/15 the u-update's factors carry the README net over
        assert train_module._forks(toy, *big, 1, 2)
        # a dense covariance at 100 nagd steps forks like any other net
        dense = NetConfig(cov_kind="full", u_mode="nagd", nagd_eta=0.1)
        assert train_module._forks(dense, *big, 1, 2)
        monkeypatch.setattr(train_module, "_CPUS", 1)
        assert not train_module._forks(paper, *big, 1, 2)
        monkeypatch.setattr(train_module, "_CPUS", 2)
        monkeypatch.delattr(os, "fork")
        assert not train_module._forks(paper, *big, 1, 2)

    @pytest.mark.parametrize("channels,forks", [
        ((8,) * 7 + (1,), False), ((16,) * 7 + (1,), True),
        ((16, 16, 16, 1), False)])
    def test_small_image_nets_fork_by_call_work(self, monkeypatch, channels,
                                                forks):
        # one-epoch calls on 4 samples in batches of 2 of 8x8 nets of 3-12M
        # multiply-adds per sample: 13.4M and 17.7M in all took 1.01x and
        # 1.39x the serial time with the worker, 48.4M took 0.97x; on 20
        # samples all three took 0.69-0.79x
        monkeypatch.setattr(train_module, "_CPUS", 2)
        cfg = NetConfig(depth=len(channels), channels=channels)
        assert 3e6 < train_module._sample_macs(cfg, 72, 64) < 13e6
        assert train_module._forks(cfg, 72, 64, 1, 4) is forks
        assert train_module._forks(cfg, 72, 64, 1, 20)

    def test_sample_macs(self):
        _, _, toy = toy_setup()
        # 5 stacks of 9 (1*8 + 8*1) multiply-adds per pixel, and three
        # factors of a 64 x 64 system
        assert train_module._sample_macs(toy, 72, 64) == \
            5 * 64 * 9 * 16 + 3 * 64 ** 3 // 3
        nagd = replace(toy, u_mode="nagd", nagd_eta=0.1)
        assert train_module._sample_macs(nagd, 72, 64) == 5 * 64 * 9 * 16


class TestMae:
    def test_formula(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.5, 2.0, 2.0, 4.0])
        assert mae(a, b) == pytest.approx((0.5 + 1.0) / 4.0)


def assert_laid_out(params):
    """Each params.values entry is its param_shapes view of params.flat."""
    shapes = param_shapes(params.cfg, params.n)
    assert list(params.values) == list(shapes)
    assert params.flat.dtype == np.float64
    start = 0
    for name, shape in shapes.items():
        val = params.values[name]
        assert val.shape == shape, name
        assert val.dtype == np.float64, name
        # the same memory as its stretch of flat, not a copy of it
        part = params.flat[start:start + val.size]
        assert val.__array_interface__["data"] == part.__array_interface__["data"]
        start += val.size
    assert start == params.flat.size


def assert_ends_on(params, flat):
    """What every train call leaves, however it ends: params laid out on
    flat, the caller's vector in private memory, and no worker process."""
    assert params.flat is flat and flat.base is None
    assert_laid_out(params)
    assert multiprocessing.active_children() == []


class TestLayout:
    def test_values_are_views_of_flat(self):
        model, _, cfg = toy_setup()
        for kind in ("scaled_identity", "diagonal", "tridiagonal", "full"):
            params = init_params(replace(cfg, cov_kind=kind), model.n, seed=3)
            assert_laid_out(params)
            assert_laid_out(params.copy())
            params.flat[:] = np.arange(params.flat.size)
            assert params.values["w.refine.2"].ravel()[-1] == params.flat.size - 1

    def test_copy_shares_no_memory(self):
        model, _, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=3)
        twin = params.copy()
        assert np.array_equal(twin.flat, params.flat)
        assert not np.shares_memory(twin.flat, params.flat)
        for key, val in twin.values.items():
            assert not np.shares_memory(val, params.flat), key
        twin.values["delta"][...] = 7.0
        assert params.values["delta"].max() == 1.0

    def test_zero_grads_match_the_layout(self):
        model, _, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=3)
        grads = params.zero_grads()
        assert list(grads) == list(params.values)
        for key, val in grads.items():
            assert val.shape == params.values[key].shape and not val.any(), key
            assert not np.shares_memory(val, params.flat), key

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float64])
    def test_constructor_copies_into_float64(self, dtype):
        model, _, cfg = toy_setup()
        source = {name: np.ones(shape, dtype=dtype)
                  for name, shape in param_shapes(cfg, model.n).items()}
        params = NetParams(cfg, model.n, source)
        assert_laid_out(params)
        source["delta"][...] = 5
        assert params.values["delta"].max() == 1.0
        params.values["w.1.1.1"][...] = 3.0
        assert source["w.1.1.1"].max() == 1

    @pytest.mark.parametrize("fork,given,batch", [
        (False, True, 0), (True, True, 0), (True, False, 2)],
        ids=["serial", "forked", "forked-own-vector"])
    def test_train_keeps_the_callers_vector(self, workers, monkeypatch, fork,
                                            given, batch):
        # on one process or two, the vector passed in is trained in place,
        # so views of it taken before the call read the trained values; one
        # that train makes itself (params=None) ends in NumPy's own memory
        # too: it pins no gradient slot, and a later fork gets a
        # copy-on-write copy of it
        if fork:
            monkeypatch.setattr(train_module, "_CPUS", 2)
            monkeypatch.setattr(train_module, "_FORK_MACS", 0)
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        before = params.flat.copy()
        if given:
            flat, values = params.flat, dict(params.values)
        out, _ = train(ds.pairs, model, cfg,
                       TrainConfig(lr=1e-3, epochs=1, batch=batch),
                       params=params if given else None, cov_init=0.1)
        assert len(workers) == fork
        if fork:
            assert workers[0].slots
        if not given:
            params, flat, values = out, out.flat, dict(out.values)
        assert out is params
        assert_ends_on(params, flat)
        for key, val in values.items():
            assert np.array_equal(params.values[key], val), key
        if not fork:
            assert all(params.values[k] is v for k, v in values.items())
        assert not np.array_equal(flat, before)


class TestCheckpoint:
    @pytest.mark.parametrize("cov_kind", ["scaled_identity", "diagonal",
                                          "tridiagonal", "full"])
    def test_array_count_is_the_number_of_shapes(self, cov_kind):
        # load_checkpoint weighs a manifest's order by the count first
        params_module = importlib.import_module("cginvert.drcgnet.params")
        for K, J, depth in ((1, 1, 1), (2, 3, 2), (3, 4, 8)):
            cfg = NetConfig(K=K, J=J, depth=depth,
                            channels=(4,) * (depth - 1) + (1,),
                            cov_kind=cov_kind)
            assert params_module._array_count(cfg, 16) == \
                len(param_shapes(cfg, 16))

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
        assert_laid_out(loaded)

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
        # the blob is the parameter vector itself
        assert (tmp_path / "ck" / "params.bin").read_bytes() == \
            params.flat.astype("<f8").tobytes()

    def test_manifest_order_need_not_be_canonical(self, tmp_path):
        import json

        model, ds, cfg = toy_setup()
        params = init_params(replace(cfg, cov_kind="tridiagonal"), model.n,
                             seed=5, cov_init=0.1)
        save_checkpoint(tmp_path / "ck", params)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["order"].reverse()
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        np.concatenate([params.values[k].ravel() for k in manifest["order"]]
                       ).astype("<f8").tofile(tmp_path / "ck" / "params.bin")
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert_laid_out(loaded)
        assert np.array_equal(loaded.flat, params.flat)

    def test_forward_identical_after_reload(self, tmp_path):
        model, ds, cfg = toy_setup()
        params = init_params(cfg, model.n, seed=4, cov_init=0.1)
        save_checkpoint(tmp_path / "ck", params)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        y = ds.pairs[0][0]
        a, _ = forward(y, model, params, want_tape=False)
        b, _ = forward(y, model, loaded, want_tape=False)
        assert np.array_equal(a, b)
