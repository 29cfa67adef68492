import json
import os

import numpy as np
import pytest

from cginvert.cli import main

BASE = """
sensing.kind = radon
sensing.side = 8
sensing.angles = 6
data.source = synthetic
data.samples = 3
data.snr_db = 80
data.seed = 4
reg.kind = logsq
reg.mu = 0.05
solver.K = 30
solver.J = 2
solver.cov = scaled_identity
solver.cov_value = 10
zstep.method = ista
net.K = 1
net.J = 1
net.depth = 2
net.kernel = 3
net.channels = 4,1
net.variant = ista
train.lr = 0.002
train.epochs = 4
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestGenData:
    def test_minimal_config_creates_dataset(self, cfg_path, tmp_path):
        out = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_samples"] == 3
        assert (out / "y_0.f64").exists()

    def test_missing_sensing_kind_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("data.samples = 2\n")
        code = run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2
        assert "sensing.kind" in capsys.readouterr().err

    def test_unknown_key_rejected_by_name(self, cfg_path, tmp_path, capsys):
        code = run("gen-data", "--config", cfg_path,
                   "--set", "sensing.bogus=1", "--out", str(tmp_path / "d"))
        assert code == 2
        assert "sensing.bogus" in capsys.readouterr().err

    def test_same_config_same_fingerprint(self, cfg_path, tmp_path):
        for sub in ("d1", "d2"):
            assert run("gen-data", "--config", cfg_path,
                       "--out", str(tmp_path / sub)) == 0
        f1 = json.loads((tmp_path / "d1" / "manifest.json").read_text())
        f2 = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert f1["dataset_fingerprint"] == f2["dataset_fingerprint"]


class TestSolve:
    def test_easy_instance_metrics(self, cfg_path, tmp_path):
        ds = tmp_path / "ds"
        out = tmp_path / "out"
        assert run("gen-data", "--config", cfg_path, "--out", str(ds)) == 0
        assert run("solve", "--config", cfg_path, "--dataset", str(ds),
                   "--out", str(out), "--repro") == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["id", "psnr", "ssim", "F_final", "stationarity_u",
                          "stationarity_z", "iters", "seconds"]
        for line in lines[1:]:
            vals = dict(zip(header, line.split(",")))
            assert float(vals["psnr"]) > 20.0
        # trace row count: 1 header + 1 + K*(J+1)
        trace = (out / "trace_0.csv").read_text().splitlines()
        assert len(trace) == 1 + 1 + 30 * (2 + 1)
        assert (out / "c_0.pgm").exists()
        assert (out / "c_0.f64").exists()

    def test_rerun_identical_bytes(self, cfg_path, tmp_path):
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        for sub in ("o1", "o2"):
            assert run("solve", "--config", cfg_path, "--dataset", str(ds),
                       "--out", str(tmp_path / sub), "--repro") == 0
        a = (tmp_path / "o1" / "metrics.csv").read_bytes()
        b = (tmp_path / "o2" / "metrics.csv").read_bytes()
        assert a == b

    def test_jobs_parallel_matches_serial(self, cfg_path, tmp_path):
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        run("solve", "--config", cfg_path, "--dataset", str(ds),
            "--out", str(tmp_path / "s1"), "--repro")
        run("solve", "--config", cfg_path, "--dataset", str(ds),
            "--out", str(tmp_path / "s2"), "--repro", "--jobs", "3")
        assert (tmp_path / "s1" / "metrics.csv").read_bytes() == \
            (tmp_path / "s2" / "metrics.csv").read_bytes()

    def test_fingerprint_mismatch_is_data_error(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        code = run("solve", "--config", cfg_path, "--set", "sensing.angles=5",
                   "--dataset", str(ds), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err


class TestMalformedInput:
    """Corrupt files end in the documented exit code with a one-line message."""

    def gen(self, cfg_path, tmp_path):
        ds = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--out", str(ds)) == 0
        return ds

    def solve_code(self, cfg_path, tmp_path, ds, capsys):
        capsys.readouterr()
        code = run("solve", "--config", cfg_path, "--dataset", str(ds),
                   "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: ")
        return code, err

    def test_missing_sample_file(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        (ds / "y_1.f64").unlink()
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "y_1.f64" in err

    def test_manifest_missing_key(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["m"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "'m'" in err

    @pytest.mark.parametrize("name", ["y_0.f64", "c_2.f64"])
    def test_non_finite_sample(self, cfg_path, tmp_path, capsys, name):
        ds = self.gen(cfg_path, tmp_path)
        vals = np.fromfile(ds / name, dtype="<f8")
        vals[3] = np.nan
        vals.tofile(ds / name)
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "non-finite" in err

    def test_truncated_pgm(self, cfg_path, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        for i in range(3):
            (images / f"im{i}.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(64))
        (images / "im1.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(40))
        capsys.readouterr()
        code = run("gen-data", "--config", cfg_path, "--set",
                   f"data.source={images}", "--out", str(tmp_path / "ds"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "im1.pgm" in err

    def test_short_checkpoint_blob(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        ck = tmp_path / "ck"
        assert run("train", "--config", cfg_path, "--set", "train.epochs=1",
                   "--dataset", str(ds), "--out", str(ck)) == 0
        blob = (ck / "params.bin").read_bytes()
        (ck / "params.bin").write_bytes(blob[:-16])
        capsys.readouterr()
        code = run("eval", "--config", cfg_path, "--set", "train.epochs=1",
                   "--dataset", str(ds), "--checkpoint", str(ck),
                   "--out", str(tmp_path / "ev"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "checkpoint blob" in err


class TestTrainEval:
    def test_train_then_eval_matches_final_mae(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        ck = tmp_path / "ck"
        ev = tmp_path / "ev"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        assert run("train", "--config", cfg_path, "--dataset", str(ds),
                   "--out", str(ck)) == 0
        hist = (ck / "loss_history.csv").read_text().splitlines()
        final_mae = float(hist[-1].split(",")[1])
        assert run("eval", "--config", cfg_path, "--dataset", str(ds),
                   "--checkpoint", str(ck), "--out", str(ev)) == 0
        rows = (ev / "metrics.csv").read_text().splitlines()[1:]
        maes = [float(r.split(",")[3]) for r in rows]
        assert abs(float(np.mean(maes)) - final_mae) < 1e-12

    def test_config_mismatch_rejected(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        ck = tmp_path / "ck"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        run("train", "--config", cfg_path, "--dataset", str(ds), "--out", str(ck))
        code = run("eval", "--config", cfg_path, "--set", "net.refine=false",
                   "--dataset", str(ds), "--checkpoint", str(ck),
                   "--out", str(tmp_path / "ev"))
        assert code == 2
        assert "refine" in capsys.readouterr().err

    def test_nan_training_exits_4(self, cfg_path, tmp_path):
        # the deeper unroll compounds the diverged parameters into a
        # numerical breakdown within a few epochs
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        code = run("train", "--config", cfg_path, "--set", "train.lr=1e12",
                   "--set", "net.K=2", "--set", "net.J=2", "--set",
                   "net.channels=8,1", "--set", "train.epochs=50",
                   "--dataset", str(ds), "--out", str(tmp_path / "ck"))
        assert code == 4


class TestParamCount:
    def test_paper_scale_value(self, tmp_path, capsys):
        cfg = tmp_path / "pc.cfg"
        cfg.write_text(
            "sensing.kind = radon\nsensing.side = 32\nsensing.angles = 15\n"
            "net.K = 3\nnet.J = 4\nnet.depth = 8\nnet.kernel = 3\n"
            "net.channels = 32,32,32,32,32,32,32,1\nnet.cov = scaled_identity\n")
        assert run("param-count", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.strip() == "726350"


class TestDiagnose:
    def test_writes_summary(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        out = tmp_path / "diag.json"
        assert run("diagnose", "--config", cfg_path, "--dataset", str(ds),
                   "--index", "1", "--out", str(out)) == 0
        summary = json.loads(out.read_text())
        assert summary["telescoping_holds"] is True
        assert summary["z_steps"] == 30 * 2


class TestSeeds:
    def test_env_seed_fallback(self, cfg_path, tmp_path, monkeypatch):
        monkeypatch.setenv("CG_INVERT_SEED", "99")
        out = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generation"]["seed"] == 99

    def test_seed_flag_overrides(self, cfg_path, tmp_path):
        out = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--seed", "7",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generation"]["seed"] == 7
