import json
import os

import numpy as np
import pytest

from cginvert.cli import main
from cginvert.data_metrics import load_dataset
from cginvert.sensing import build_radon

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

    def test_train_rerun_identical_bytes(self, cfg_path, tmp_path):
        # train writes no timings, so it needs no --repro to be byte-stable
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        for sub in ("t1", "t2"):
            assert run("train", "--config", cfg_path, "--dataset", str(ds),
                       "--out", str(tmp_path / sub)) == 0
        names = sorted(os.listdir(tmp_path / "t1"))
        assert names == ["loss_history.csv", "manifest.json", "params.bin"]
        assert names == sorted(os.listdir(tmp_path / "t2"))
        for name in names:
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t2" / name).read_bytes(), name

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

    def test_manifest_invalid_json(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        (ds / "manifest.json").write_text('{"m": 3,')
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "not valid JSON" in err

    def test_manifest_not_an_object(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        (ds / "manifest.json").write_text("[1, 2]")
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "not an object" in err

    def test_manifest_mistyped_value(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["m"] = "3"
        (ds / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "'m' should be int, not str" in err

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

    @staticmethod
    def one_line_error(capsys, *argv):
        """Run argv; return (exit code, its one-line stderr message)."""
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("command,sets,expect", [
        ("solve", ["solver.cov_value=nan"], "finite"),
        ("train", ["net.cov_init=nan"], "finite"),
        ("train", ["net.eps=0", "net.cov_init=0"], "eps"),
        ("solve", ["solver.eps=0", "solver.cov_value=0"], "eps"),
        ("solve", ["solver.eps=-1"], "eps"),
        ("train", ["net.cov=bogus"], "bogus"),
        ("solve", ["sensing.side=0"], "side"),
        ("solve", ["sensing.angles=0"], "n_angles"),
        ("solve", ["sensing.kind=gaussian", "sensing.m=1000"], "m=1000"),
        ("train", ["train.epochs=0"], "train.epochs"),
        ("train", ["train.lr=nan"], "learning rate"),
        ("train", ["train.beta1=nan"], "beta1"),
        ("train", ["train.eps_adam=nan"], "eps_adam"),
        ("train", ["net.gamma_max=nan"], "gamma_max"),
        ("train", ["net.b=nan"], "b must be > 0"),
        ("solve", ["solver.b=nan"], "clamp bound b"),
        ("solve", ["reg.mu=-1"], "mu > 0"),
        ("train", ["train.val_fraction=2"], "no training samples"),
        ("solve", ["zstep.eta=nan", "zstep.linesearch=fixed"],
         "linesearch eta"),
        ("solve", ["tikhonov.eta=nan"], "NagdConfig.eta"),
        ("train", ["net.u_mode=nagd", "net.nagd_eta=nan"], "NagdConfig.eta"),
    ], ids=["cov_value-nan", "cov_init-nan", "net-eps-0", "solver-eps-0",
            "solver-eps-negative", "net-cov-unknown", "side-0", "angles-0",
            "gaussian-m-above-n", "epochs-0", "lr-nan", "beta1-nan",
            "eps_adam-nan", "gamma_max-nan", "net-b-nan", "solver-b-nan",
            "mu-negative", "val_fraction-2", "zstep-eta-nan",
            "tikhonov-eta-nan", "nagd-eta-nan"])
    def test_bad_config_value(self, cfg_path, tmp_path, capsys, command, sets,
                              expect):
        ds = self.gen(cfg_path, tmp_path)
        overrides = [arg for kv in sets for arg in ("--set", kv)]
        code, err = self.one_line_error(
            capsys, command, "--config", cfg_path, *overrides,
            "--dataset", str(ds), "--out", str(tmp_path / "out"))
        assert code == 2 and err.startswith("config error: ") and expect in err

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_gen_data_snr_not_a_number(self, cfg_path, tmp_path, capsys, snr):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            f"data.snr_db={snr}", "--out", str(tmp_path / "ds"))
        assert code == 2 and "data.snr_db" in err
        assert not (tmp_path / "ds").exists()

    def test_gen_data_infinite_snr_is_noiseless(self, cfg_path, tmp_path):
        ds = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--set",
                   "data.snr_db=inf", "--out", str(ds)) == 0
        y, c = load_dataset(str(ds)).pairs[0]
        assert np.array_equal(y, build_radon(8, 6).apply(c))

    def test_gen_data_without_samples(self, cfg_path, tmp_path, capsys):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set", "data.samples=0",
            "--out", str(tmp_path / "ds"))
        assert code == 2 and "data.samples" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_without_samples(self, cfg_path, tmp_path, capsys, command):
        ds = self.gen(cfg_path, tmp_path)
        extra = []
        if command == "eval":
            ck = tmp_path / "ck"
            assert run("train", "--config", cfg_path, "--set", "train.epochs=1",
                       "--dataset", str(ds), "--out", str(ck)) == 0
            extra = ["--checkpoint", str(ck)]
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["n_samples"] = 0
        (ds / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.one_line_error(
            capsys, command, "--config", cfg_path, "--set", "train.epochs=1",
            "--dataset", str(ds), *extra, "--out", str(tmp_path / "out"))
        assert code == 3 and "no samples" in err

    @pytest.mark.parametrize("index", ["3", "99", "-1"])
    def test_diagnose_index_out_of_range(self, cfg_path, tmp_path, capsys, index):
        ds = self.gen(cfg_path, tmp_path)
        code, err = self.one_line_error(
            capsys, "diagnose", "--config", cfg_path, "--dataset", str(ds),
            "--index", index)
        assert code == 2 and f"--index {index}" in err

    def eval_corrupt_checkpoint(self, cfg_path, tmp_path, capsys, corrupt,
                                *sets):
        """Train one epoch, apply corrupt(ck) and return eval's stderr."""
        ds = self.gen(cfg_path, tmp_path)
        ck = tmp_path / "ck"
        overrides = [arg for kv in ("train.epochs=1",) + sets
                     for arg in ("--set", kv)]
        assert run("train", "--config", cfg_path, *overrides,
                   "--dataset", str(ds), "--out", str(ck)) == 0
        corrupt(ck)
        capsys.readouterr()
        code = run("eval", "--config", cfg_path, *overrides,
                   "--dataset", str(ds), "--checkpoint", str(ck),
                   "--out", str(tmp_path / "ev"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error: ")
        return err

    def test_short_checkpoint_blob(self, cfg_path, tmp_path, capsys):
        def corrupt(ck):
            blob = (ck / "params.bin").read_bytes()
            (ck / "params.bin").write_bytes(blob[:-16])

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert "checkpoint blob" in err

    @pytest.mark.parametrize("key", ["net", "order", "shapes", "n"])
    def test_checkpoint_manifest_missing_key(self, cfg_path, tmp_path, capsys, key):
        def corrupt(ck):
            manifest = json.loads((ck / "manifest.json").read_text())
            del manifest[key]
            (ck / "manifest.json").write_text(json.dumps(manifest))

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert f"'{key}'" in err

    def test_checkpoint_manifest_invalid_json(self, cfg_path, tmp_path, capsys):
        def corrupt(ck):
            (ck / "manifest.json").write_text('{"net": {')

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert "not valid JSON" in err

    def test_checkpoint_manifest_not_an_object(self, cfg_path, tmp_path, capsys):
        def corrupt(ck):
            (ck / "manifest.json").write_text("[1, 2]")

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert "not an object" in err

    @pytest.mark.parametrize("path,expect", [
        (("n",), "'n' should be int, not str"),
        (("net", "K"), "malformed"),
        (("shapes", "w.1.1.1"), "malformed")], ids=["n", "net.K", "shape"])
    def test_checkpoint_manifest_mistyped_value(self, cfg_path, tmp_path, capsys,
                                                path, expect):
        def corrupt(ck):
            manifest = json.loads((ck / "manifest.json").read_text())
            parent = manifest
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = "x"
            (ck / "manifest.json").write_text(json.dumps(manifest))

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert expect in err

    @pytest.mark.parametrize("name,shape,sets", [
        ("w.1.1.1", [4, 1, 3, 3], ()),
        ("cov.diag", [2, 32], ("net.cov=diagonal",))], ids=["kernel", "cov"])
    def test_checkpoint_array_shape_mismatch(self, cfg_path, tmp_path, capsys,
                                             name, shape, sets):
        def corrupt(ck):
            manifest = json.loads((ck / "manifest.json").read_text())
            manifest["shapes"][name] = shape
            (ck / "manifest.json").write_text(json.dumps(manifest))

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt,
                                           *sets)
        assert f"checkpoint array {name} has shape {tuple(shape)}" in err

    @pytest.mark.parametrize("name", ["params.bin", "manifest.json"])
    def test_checkpoint_missing_file(self, cfg_path, tmp_path, capsys, name):
        err = self.eval_corrupt_checkpoint(
            cfg_path, tmp_path, capsys, lambda ck: (ck / name).unlink())
        assert name in err


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

    def test_nan_training_on_woodbury_route_exits_4(self, cfg_path, tmp_path,
                                                    capsys):
        # 4 angles give m=48 < n=64: the diverged scales reach the Woodbury
        # system, whose finite check raises before the factorization
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--set", "sensing.angles=4",
            "--out", str(ds))
        capsys.readouterr()
        code = run("train", "--config", cfg_path, "--set", "sensing.angles=4",
                   "--set", "train.lr=1e200", "--set", "net.K=2", "--set",
                   "net.J=2", "--set", "net.channels=8,1", "--set",
                   "train.epochs=20", "--dataset", str(ds),
                   "--out", str(tmp_path / "ck"))
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: solver breakdown")


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
