import importlib
import weakref

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
    save_checkpoint,
    train,
)
from cginvert.errors import NanLossError
from cginvert.data_metrics import gen_dataset
from cginvert.sensing import build_radon


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
        train_module = importlib.import_module("cginvert.drcgnet.train")
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
        # the package re-exports the train function under the module's name
        train_module = importlib.import_module("cginvert.drcgnet.train")
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
