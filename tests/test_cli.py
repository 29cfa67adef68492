import json
import os
import warnings

import numpy as np
import pytest

from cginvert.cli import main
from cginvert.data_metrics import load_dataset
from cginvert.drcgnet import evaluate_mae, load_checkpoint
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

    def test_fingerprint_mismatch_is_data_error(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        code = run("solve", "--config", cfg_path, "--set", "sensing.angles=5",
                   "--dataset", str(ds), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err


class TestMalformedInput:
    """Corrupt files end in the documented exit code with a one-line message."""

    def gen(self, cfg_path, tmp_path, *sets):
        ds = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, *sets, "--out",
                   str(ds)) == 0
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

    @pytest.mark.parametrize("name", ["y_1.f64", "manifest.json"])
    def test_dataset_file_is_a_directory(self, cfg_path, tmp_path, capsys, name):
        ds = self.gen(cfg_path, tmp_path)
        (ds / name).unlink()
        (ds / name).mkdir()
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and name in err

    def test_sample_file_with_a_partial_value(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        with open(ds / "c_1.f64", "ab") as fh:
            fh.write(bytes(3))
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "c_1.f64 has 515 bytes, expected 512" in err

    def test_manifest_not_utf8(self, cfg_path, tmp_path, capsys):
        ds = self.gen(cfg_path, tmp_path)
        (ds / "manifest.json").write_bytes(b'{"m": "\xff"}')
        code, err = self.solve_code(cfg_path, tmp_path, ds, capsys)
        assert code == 3 and "not valid JSON" in err

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

    @pytest.mark.parametrize("header,pixels,expect", [
        (b"P2\n8 abc\n255\n", b"1 " * 64, "non-integer PGM header token"),
        (b"P2\n8 8\n255\n", b"1 2 x " + b"1 " * 61,
         "non-integer PGM pixel token"),
        (b"P2\n-8 8\n255\n", b"1 " * 64, "bad size -8x8"),
    ], ids=["header-token", "pixel-token", "negative-width"])
    def test_malformed_pgm(self, cfg_path, tmp_path, capsys, header, pixels,
                           expect):
        images = tmp_path / "images"
        images.mkdir()
        for i in range(3):
            (images / f"im{i}.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(64))
        (images / "im1.pgm").write_bytes(header + pixels)
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            f"data.source={images}", "--out", str(tmp_path / "ds"))
        assert code == 3 and err.startswith("data error: ") and "im1.pgm" in err
        assert expect in err

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

    def test_pgm_is_a_directory(self, cfg_path, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        for name in ("im0.pgm", "im2.pgm"):
            (images / name).write_bytes(b"P5\n8 8\n255\n" + bytes(64))
        (images / "im1.pgm").mkdir()
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            f"data.source={images}", "--out", str(tmp_path / "ds"))
        assert code == 3 and err.startswith("data error: ") and "im1.pgm" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"sensing.kind = radon\n# \xff\n")
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", str(path), "--out", str(tmp_path / "ds"))
        assert code == 2 and err.startswith(f"config error: config file {path}")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command",
                             ["gen-data", "solve", "train", "eval", "diagnose"])
    def test_out_cannot_be_created(self, cfg_path, tmp_path, capsys, command):
        ds = self.gen(cfg_path, tmp_path)
        inputs = [] if command == "gen-data" else ["--dataset", str(ds)]
        if command == "eval":
            ck = tmp_path / "ck"
            assert run("train", "--config", cfg_path, "--set", "train.epochs=1",
                       "--dataset", str(ds), "--out", str(ck)) == 0
            inputs += ["--checkpoint", str(ck)]
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        code, err = self.one_line_error(
            capsys, command, "--config", cfg_path, "--set", "train.epochs=1",
            *inputs, "--out", str(out))
        assert code == 2 and err.startswith(f"config error: {out}: ")

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
        ("solve", ["solver.cov_value=-1"], "solver.cov_value must be > 0"),
        ("solve", ["solver.cov_value=0"], "solver.cov_value must be > 0"),
        ("train", ["net.cov_init=-1"], "net.cov_init must be > 0"),
        ("train", ["net.cov_init=0"], "net.cov_init must be > 0"),
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
        ("train", ["data.samples=1", "train.val_fraction=0.5"],
         "leaves no training samples out of 1"),
        ("train", ["data.samples=1", "train.val_fraction=0.5",
                   "train.patience=1"], "leaves no training samples out of 1"),
        ("solve", ["zstep.eta=nan", "zstep.linesearch=fixed"],
         "linesearch eta"),
        ("solve", ["tikhonov.eta=nan"], "NagdConfig.eta"),
        ("train", ["net.u_mode=nagd", "net.nagd_eta=nan"], "NagdConfig.eta"),
        ("solve", ["solver.stop_tol=nan"], "stop_tol"),
        ("train", ["train.batch=-1"], "batch must be >= 0"),
        ("train", ["train.val_fraction=-0.5"], "train.val_fraction must be"),
        ("train", ["train.patience=-1", "train.val_fraction=0.34"],
         "patience must be >= 0"),
        ("train", ["net.channels=0,1"], "channel widths must be >= 1"),
        ("train", ["net.kernel=-1"], "kernel size must be odd and >= 1"),
        ("train", ["net.depth=0", "net.channels="], "depth must be >= 1"),
    ], ids=["cov_value-nan", "cov_init-nan", "cov_value-negative",
            "cov_value-0", "cov_init-negative", "cov_init-0", "net-eps-0", "solver-eps-0",
            "solver-eps-negative", "net-cov-unknown", "side-0", "angles-0",
            "gaussian-m-above-n", "epochs-0", "lr-nan", "beta1-nan",
            "eps_adam-nan", "gamma_max-nan", "net-b-nan", "solver-b-nan",
            "mu-negative", "val_fraction-2", "val_fraction-one-sample",
            "patience-one-sample", "zstep-eta-nan",
            "tikhonov-eta-nan", "nagd-eta-nan", "stop_tol-nan", "batch-negative",
            "val_fraction-negative", "patience-negative", "channels-zero",
            "kernel-negative", "depth-zero"])
    def test_bad_config_value(self, cfg_path, tmp_path, capsys, command, sets,
                              expect):
        # data.* values make the dataset; the command gets every value
        ds = self.gen(cfg_path, tmp_path,
                      *[arg for kv in sets if kv.startswith("data.")
                        for arg in ("--set", kv)])
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

    @pytest.mark.parametrize("snr", ["80", "inf"])
    def test_gen_data_overflowing_measurements(self, cfg_path, tmp_path, capsys,
                                               snr):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            "sensing.scale=1e160", "--set", f"data.snr_db={snr}",
            "--out", str(tmp_path / "ds"))
        assert code == 4 and err.startswith("numerical failure: ")
        assert "||A c|| = inf is not finite" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command,key", [("solve", "solver.cov_value"),
                                             ("train", "net.cov_init")])
    def test_covariance_too_large_to_factor(self, cfg_path, tmp_path, capsys,
                                            command, key):
        # on Radon 6x6/4 a covariance of 1e308 passes the config checks and
        # rounding leaves the u-update system a non-positive pivot
        small = ["--set", "sensing.side=6", "--set", "sensing.angles=4"]
        ds = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, *small, "--out", str(ds)) == 0
        code, err = self.one_line_error(
            capsys, command, "--config", cfg_path, *small,
            "--set", f"{key}=1e308", "--dataset", str(ds),
            "--out", str(tmp_path / "out"))
        assert code == 4 and err.startswith("numerical failure: ")
        assert "u-update system is not positive definite (" in err

    def test_gen_data_overflowing_snr(self, cfg_path, tmp_path, capsys):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            "data.snr_db=1e308", "--out", str(tmp_path / "ds"))
        assert code == 4 and err.startswith("numerical failure: ")
        assert "overflows at 1e+308 dB SNR" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("kind", ["file", "missing"])
    def test_gen_data_source_not_a_directory(self, cfg_path, tmp_path, capsys,
                                             kind):
        source = tmp_path / "images"
        if kind == "file":
            source.write_bytes(b"P5\n8 8\n255\n" + bytes(64))
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            f"data.source={source}", "--out", str(tmp_path / "ds"))
        assert code == 3 and err.startswith("data error: ")
        assert f"{source} is not a directory" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("scale", ["nan", "0"])
    def test_gen_data_bad_sensing_scale(self, cfg_path, tmp_path, capsys, scale):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, "--set",
            f"sensing.scale={scale}", "--out", str(tmp_path / "ds"))
        assert code == 2 and err.startswith("config error: ")
        assert "sensing.scale" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("how", [["--set", "data.seed=-1"], ["--seed", "-1"]])
    def test_gen_data_negative_seed(self, cfg_path, tmp_path, capsys, how):
        code, err = self.one_line_error(
            capsys, "gen-data", "--config", cfg_path, *how,
            "--out", str(tmp_path / "ds"))
        assert code == 2 and err.startswith("config error: ")
        assert "data.seed must be >= 0" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("how", ["flag", "env", "set"])
    def test_train_negative_seed(self, cfg_path, tmp_path, capsys, monkeypatch,
                                 how):
        ds = self.gen(cfg_path, tmp_path)
        argv = {"flag": ["--seed", "-5"], "env": [],
                "set": ["--set", "train.seed=-1"]}[how]
        if how == "env":
            monkeypatch.setenv("CG_INVERT_SEED", "-1")
        code, err = self.one_line_error(
            capsys, "train", "--config", cfg_path, *argv,
            "--dataset", str(ds), "--out", str(tmp_path / "ck"))
        assert code == 2 and err.startswith("config error: ")
        assert "train.seed must be >= 0" in err
        assert not (tmp_path / "ck").exists()

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

    @pytest.mark.parametrize("jobs", ["0", "-1", "3"])
    def test_solve_jobs_is_unknown(self, cfg_path, tmp_path, capsys, jobs):
        # solve runs its samples one after the other; --jobs is gone
        ds = self.gen(cfg_path, tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("solve", "--config", cfg_path, "--dataset", str(ds),
                "--out", str(tmp_path / "out"), "--jobs", jobs)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("index", ["3", "99", "-1"])
    def test_diagnose_index_out_of_range(self, cfg_path, tmp_path, capsys, index):
        ds = self.gen(cfg_path, tmp_path)
        code, err = self.one_line_error(
            capsys, "diagnose", "--config", cfg_path, "--dataset", str(ds),
            "--index", index)
        assert code == 2 and f"--index {index}" in err

    def eval_corrupt_checkpoint(self, cfg_path, tmp_path, capsys, corrupt,
                                *sets, code=2, kind="config error"):
        """Train one epoch, apply corrupt(ck) and return eval's stderr, which
        must be one line of the given kind with the given exit code."""
        ds = self.gen(cfg_path, tmp_path)
        ck = tmp_path / "ck"
        overrides = [arg for kv in ("train.epochs=1",) + sets
                     for arg in ("--set", kv)]
        assert run("train", "--config", cfg_path, *overrides,
                   "--dataset", str(ds), "--out", str(ck)) == 0
        corrupt(ck)
        capsys.readouterr()
        got = run("eval", "--config", cfg_path, *overrides,
                  "--dataset", str(ds), "--checkpoint", str(ck),
                  "--out", str(tmp_path / "ev"))
        err = capsys.readouterr().err
        assert got == code
        assert err.count("\n") == 1 and err.startswith(f"{kind}: ")
        return err

    def test_checkpoint_for_another_image_size(self, cfg_path, tmp_path, capsys):
        # a scaled-identity covariance and the kernels have no n-shaped
        # array, so only the manifest's n tells an 8x8 checkpoint from a
        # 6x6 one
        ds = self.gen(cfg_path, tmp_path)
        ck = tmp_path / "ck"
        assert run("train", "--config", cfg_path, "--set", "train.epochs=1",
                   "--dataset", str(ds), "--out", str(ck)) == 0
        small = tmp_path / "ds6"
        assert run("gen-data", "--config", cfg_path, "--set", "sensing.side=6",
                   "--out", str(small)) == 0
        code, err = self.one_line_error(
            capsys, "eval", "--config", cfg_path, "--set", "sensing.side=6",
            "--dataset", str(small), "--checkpoint", str(ck),
            "--out", str(tmp_path / "ev"))
        assert code == 2 and err.startswith("config error: ")
        assert "n=64" in err and "n=36" in err

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

    @pytest.mark.parametrize("name", ["params.bin", "manifest.json"])
    def test_checkpoint_file_is_a_directory(self, cfg_path, tmp_path, capsys, name):
        def corrupt(ck):
            (ck / name).unlink()
            (ck / name).mkdir()

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert name in err

    def test_checkpoint_non_finite_value(self, cfg_path, tmp_path, capsys):
        def corrupt(ck):
            blob = np.fromfile(ck / "params.bin", dtype="<f8")
            blob[-1] = np.nan
            blob.tofile(ck / "params.bin")

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt)
        assert "params.bin holds non-finite values" in err

    @pytest.mark.parametrize("prefix,factor,expect", [
        ("w.", 1e200, "u-update system has non-finite entries"),
        ("w.refine.", 1e300, "network output for sample 0 is not finite")],
        ids=["kernels-1e200", "refine-kernels-1e300"])
    def test_checkpoint_overflowing_kernels(self, cfg_path, tmp_path, capsys,
                                            prefix, factor, expect):
        # finite kernels this large overflow the forward pass: either the
        # Tikhonov system or, after the last one, the output turns non-finite
        def corrupt(ck):
            manifest = json.loads((ck / "manifest.json").read_text())
            blob = np.fromfile(ck / "params.bin", dtype="<f8")
            pos = 0
            for name in manifest["order"]:
                size = int(np.prod(manifest["shapes"][name]))
                if name.startswith(prefix):
                    blob[pos:pos + size] *= factor
                pos += size
            blob.tofile(ck / "params.bin")

        err = self.eval_corrupt_checkpoint(cfg_path, tmp_path, capsys, corrupt,
                                           code=4, kind="numerical failure")
        assert expect in err


class TestTrainEval:
    def test_train_then_eval_matches_final_mae(self, cfg_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        ck = tmp_path / "ck"
        ev = tmp_path / "ev"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        assert run("train", "--config", cfg_path, "--dataset", str(ds),
                   "--out", str(ck)) == 0
        params, _ = load_checkpoint(ck)
        final_mae = evaluate_mae(load_dataset(str(ds)).pairs, build_radon(8, 6),
                                 params)
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

    def test_diverging_accelerated_u_update_exits_4(self, cfg_path, tmp_path,
                                                    capsys):
        # 3 steps, fewer than the guard's run of 10 rising steps; nagd_eta
        # 0.05 is 17-50 times 1/L of the first u-block on this data (L is
        # 337-1036), so every step rises
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        capsys.readouterr()
        code = run("train", "--config", cfg_path, "--set", "net.u_mode=nagd",
                   "--set", "net.nagd_eta=0.05", "--set", "net.nagd_steps=3",
                   "--dataset", str(ds), "--out", str(tmp_path / "ck"))
        err = capsys.readouterr().err
        assert code == 4
        assert err == ("numerical failure: solver breakdown at epoch 0: "
                       "u-objective grew for 3 consecutive accelerated steps "
                       "(eta=0.05)\n")

    def test_nan_training_on_woodbury_route_exits_4(self, cfg_path, tmp_path,
                                                    capsys):
        # 4 angles give m=48 < n=64: the diverged scales reach the Woodbury
        # system, whose finite check raises before the factorization
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--set", "sensing.angles=4",
            "--out", str(ds))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("train", "--config", cfg_path, "--set", "sensing.angles=4",
                       "--set", "train.lr=1e200", "--set", "net.K=2", "--set",
                       "net.J=2", "--set", "net.channels=8,1", "--set",
                       "train.epochs=20", "--dataset", str(ds),
                       "--out", str(tmp_path / "ck"))
        err = capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 4
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: solver breakdown")


class TestDenseCovarianceBreakdown:
    """A run that breaks down on a tridiagonal or full covariance ends as on
    a diagonal one: exit 4 and one line naming P or the u-update."""

    NAGD_DIVERGED = ("u-objective is not finite after 5 accelerated steps "
                     "(eta=1e+30)")
    CASES = {
        # the diverged parameters overflow P's own factors
        "train-lr": (["train", "--set", "train.lr=1e200",
                      "--set", "train.epochs=5"],
                     "solver breakdown at epoch 1: covariance P has "
                     "non-finite entries"),
        "train-nagd": (["train", "--set", "net.u_mode=nagd",
                        "--set", "net.nagd_eta=1e30",
                        "--set", "net.nagd_steps=20",
                        "--set", "train.epochs=2"],
                       "solver breakdown at epoch 0: " + NAGD_DIVERGED),
        "solve-nagd": (["solve", "--set", "tikhonov.mode=nagd",
                        "--set", "tikhonov.eta=1e30",
                        "--set", "tikhonov.nagd_steps=20"], NAGD_DIVERGED),
    }

    def run_case(self, cfg_path, tmp_path, capsys, case, kind):
        (command, *sets), expect = self.CASES[case]
        ds = tmp_path / "ds"
        run("gen-data", "--config", cfg_path, "--out", str(ds))
        key = "net.cov" if command == "train" else "solver.cov"
        code, err = TestMalformedInput.one_line_error(
            capsys, command, "--config", cfg_path, *sets,
            "--set", f"{key}={kind}", "--dataset", str(ds),
            "--out", str(tmp_path / "out"))
        assert code == 4
        assert err == f"numerical failure: {expect}\n"

    @pytest.mark.parametrize("kind", ["tridiagonal", "full"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_dense_covariance_exits_4(self, cfg_path, tmp_path, capsys, case,
                                      kind):
        self.run_case(cfg_path, tmp_path, capsys, case, kind)

    @pytest.mark.parametrize("kind", ["scaled_identity", "diagonal"])
    def test_solve_names_the_accelerated_u_update(self, cfg_path, tmp_path,
                                                  capsys, kind):
        # a non-finite u-objective once reached the z-step, which blamed
        # its own backtracking
        self.run_case(cfg_path, tmp_path, capsys, "solve-nagd", kind)


def metric_rows(path):
    """The rows of a CSV as {column: value} dicts."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestSettingsOffTheDefaults:
    """Settings the other tests leave at their defaults, on Radon 6x6/4."""

    small = ["--set", "sensing.side=6", "--set", "sensing.angles=4"]

    def gen(self, cfg_path, tmp_path, *sets):
        ds = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, *self.small, *sets,
                   "--out", str(ds)) == 0
        return ds

    def test_dct_dictionary_round_trip(self, cfg_path, tmp_path):
        dct = [*self.small, "--set", "sensing.dict=dct"]
        ds = self.gen(cfg_path, tmp_path, *dct)
        ck = tmp_path / "ck"
        assert run("solve", "--config", cfg_path, *dct, "--dataset", str(ds),
                   "--out", str(tmp_path / "solve"), "--repro") == 0
        assert run("train", "--config", cfg_path, *dct, "--dataset", str(ds),
                   "--out", str(ck)) == 0
        assert run("eval", "--config", cfg_path, *dct, "--dataset", str(ds),
                   "--checkpoint", str(ck), "--out", str(tmp_path / "eval")) == 0
        for name in ("solve", "eval"):
            rows = metric_rows(tmp_path / name / "metrics.csv")
            assert len(rows) == 3
            assert all(np.isfinite(float(v)) for row in rows for v in row.values())

    def test_zero_regularizer_solve(self, cfg_path, tmp_path):
        ds = self.gen(cfg_path, tmp_path)
        out = tmp_path / "out"
        assert run("solve", "--config", cfg_path, *self.small, "--set",
                   "reg.kind=zero", "--dataset", str(ds), "--out", str(out),
                   "--repro") == 0
        assert len(metric_rows(out / "metrics.csv")) == 3

    def test_validation_split(self, cfg_path, tmp_path):
        ds = self.gen(cfg_path, tmp_path)
        ck = tmp_path / "ck"
        assert run("train", "--config", cfg_path, *self.small, "--set",
                   "train.val_fraction=0.25", "--set", "train.patience=1",
                   "--dataset", str(ds), "--out", str(ck)) == 0
        rows = metric_rows(ck / "loss_history.csv")
        assert rows and all(np.isfinite(float(row["val_mae"])) for row in rows)


class TestParamCount:
    def test_paper_scale_value(self, tmp_path, capsys):
        cfg = tmp_path / "pc.cfg"
        cfg.write_text(
            "sensing.kind = radon\nsensing.side = 32\nsensing.angles = 15\n"
            "net.K = 3\nnet.J = 4\nnet.depth = 8\nnet.kernel = 3\n"
            "net.channels = 32,32,32,32,32,32,32,1\nnet.cov = scaled_identity\n")
        assert run("param-count", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.strip() == "726350"

    @pytest.mark.parametrize("sets", [
        ["sensing.side=0"], ["sensing.side=0", "net.cov=tridiagonal"],
        ["sensing.side=-3"]], ids=["side-0", "side-0-tridiagonal", "side-negative"])
    def test_side_below_one(self, capsys, sets):
        code, err = TestMalformedInput.one_line_error(
            capsys, "param-count", *[arg for kv in sets for arg in ("--set", kv)])
        assert code == 2 and err.startswith("config error: sensing.side must "
                                            "be >= 1")


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

    def test_non_integer_env_seed_is_a_config_error(self, cfg_path, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("CG_INVERT_SEED", "abc")
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run("gen-data", "--config", cfg_path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert "CG_INVERT_SEED" in err
        assert not out.exists()

    def test_seed_flag_overrides(self, cfg_path, tmp_path):
        out = tmp_path / "ds"
        assert run("gen-data", "--config", cfg_path, "--seed", "7",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generation"]["seed"] == 7

    def test_seed_before_the_subcommand_is_rejected(self, cfg_path, tmp_path):
        # the flag belongs to each subcommand; before one it would be lost
        out = tmp_path / "ds"
        with pytest.raises(SystemExit) as exc:
            run("--seed", "7", "gen-data", "--config", cfg_path, "--out", str(out))
        assert exc.value.code == 2
        assert not out.exists()
