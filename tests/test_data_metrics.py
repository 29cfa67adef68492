import numpy as np
import pytest

from cginvert.data_metrics import (
    fingerprint,
    gen_dataset,
    load_dataset,
    psnr,
    save_dataset,
    ssim,
    synthetic_image,
)
from cginvert.errors import DataError
from cginvert.imageio import write_pgm
from cginvert.sensing import SensingModel, build_dct, build_gaussian, build_radon


class TestPsnr:
    def test_identical_is_infinite(self):
        x = np.random.default_rng(0).uniform(0, 1, 16)
        assert psnr(x, x) == float("inf")

    def test_constant_offset_anchor(self):
        ref = np.full(64, 0.5)
        x = ref + 0.1
        assert psnr(x, ref, peak=1.0) == pytest.approx(20.0, abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 25)
        ref = rng.uniform(0, 1, 25)
        acc = sum((float(a) - float(b)) ** 2 for a, b in zip(x, ref)) / 25
        expect = 10.0 * np.log10(1.0 / acc)
        assert psnr(x, ref) == pytest.approx(expect, abs=1e-10)

    def test_strictly_decreasing_in_noise(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(0, 1, 64)
        vals = []
        for level in (0.01, 0.02, 0.05, 0.1, 0.2):
            noise = rng.standard_normal(64)
            noise *= level / np.linalg.norm(noise)
            vals.append(psnr(ref + noise, ref))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_shape_and_peak_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            psnr(np.zeros(4), np.zeros(4), peak=0.0)


class TestSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(3).uniform(0, 1, (8, 8))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform(0, 1, (10, 10))
            b = rng.uniform(0, 1, (10, 10))
            v = ssim(a, b)
            assert -1.0 <= v <= 1.0
            assert v < 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (9, 9))
        b = rng.uniform(0, 1, (9, 9))
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        vals = []
        for i in range(2):
            for j in range(2):
                wa = a[i:i + 8, j:j + 8].ravel()
                wb = b[i:i + 8, j:j + 8].ravel()
                ma, mb = wa.mean(), wb.mean()
                va = ((wa - ma) ** 2).mean()
                vb = ((wb - mb) ** 2).mean()
                cab = ((wa - ma) * (wb - mb)).mean()
                vals.append((2 * ma * mb + c1) * (2 * cab + c2)
                            / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
        assert ssim(a, b) == pytest.approx(float(np.mean(vals)), abs=1e-10)

    @staticmethod
    def window_loop_ssim(x, ref, peak=1.0, window=8):
        """SSIM one window at a time, as a Python loop over the windows."""
        h, w = x.shape
        win = min(window, h, w)
        c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
        vals = []
        for i in range(h - win + 1):
            for j in range(w - win + 1):
                a = x[i:i + win, j:j + win]
                b = ref[i:i + win, j:j + win]
                ma, mb = a.mean(), b.mean()
                va = (a * a).mean() - ma * ma
                vb = (b * b).mean() - mb * mb
                cab = (a * b).mean() - ma * mb
                vals.append(((2 * ma * mb + c1) * (2 * cab + c2))
                            / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
        return float(np.mean(vals))

    @pytest.mark.parametrize("shape,window,peak", [
        ((8, 8), 8, 1.0), ((32, 32), 8, 1.0), ((13, 21), 8, 1.0),
        ((5, 9), 8, 2.0), ((16, 16), 3, 0.5)])
    def test_matches_window_loop(self, shape, window, peak):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            ref = rng.uniform(0, peak, shape)
            x = ref + rng.normal(0, 0.1 * peak, shape)
            expect = self.window_loop_ssim(x, ref, peak, window)
            assert ssim(x, ref, peak, window) == pytest.approx(expect, abs=1e-10)

    def test_vector_input_reshapes(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, (8, 8))
        assert ssim(img.ravel(), img.ravel()) == pytest.approx(1.0)


class TestDataset:
    def test_empty_dataset_is_valid(self):
        model = build_radon(8, 4)
        ds = gen_dataset("synthetic", model, 60.0, 0, seed=0)
        assert len(ds) == 0
        assert ds.model_fingerprint

    def test_deterministic_bytes(self, tmp_path):
        model = build_radon(8, 4)
        for sub in ("a", "b"):
            ds = gen_dataset("synthetic", model, 60.0, 3, seed=5)
            save_dataset(ds, tmp_path / sub)
        for name in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / name.name
            assert name.read_bytes() == other.read_bytes(), name.name

    def test_round_trip(self, tmp_path):
        model = build_radon(8, 4)
        ds = gen_dataset("synthetic", model, 40.0, 3, seed=6)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.dataset_fingerprint == ds.dataset_fingerprint
        for (y1, c1), (y2, c2) in zip(ds.pairs, back.pairs):
            assert np.array_equal(y1, y2)
            assert np.array_equal(c1, c2)

    def test_fingerprint_changes_with_any_parameter(self):
        model = build_radon(8, 4)
        base = gen_dataset("synthetic", model, 60.0, 3, seed=5)
        variants = [
            gen_dataset("synthetic", model, 40.0, 3, seed=5),
            gen_dataset("synthetic", model, 60.0, 4, seed=5),
            gen_dataset("synthetic", model, 60.0, 3, seed=6),
            gen_dataset("synthetic", build_radon(8, 5), 60.0, 3, seed=5),
        ]
        for v in variants:
            assert v.dataset_fingerprint != base.dataset_fingerprint

    def test_dct_dictionary_stores_coefficients(self):
        rng = np.random.default_rng(7)
        psi = rng.standard_normal((20, 64))
        model = SensingModel(psi, phi=build_dct(64), side=8,
                             meta={"kind": "gaussian"})
        ds = gen_dataset("synthetic", model, 60.0, 2, seed=8)
        for _, c in ds.pairs:
            s = model.phi @ c  # back to the image domain
            assert np.all(s >= -1e-9)
            assert np.all(s <= 1.0 + 1e-9)

    def test_image_directory_source(self, tmp_path):
        rng = np.random.default_rng(9)
        for i in range(3):
            write_pgm(tmp_path / f"img_{i}.pgm", rng.uniform(0, 1, (8, 8)))
        model = build_radon(8, 4)
        ds = gen_dataset(str(tmp_path), model, 60.0, 3, seed=0)
        assert len(ds) == 3

    def test_insufficient_images_error(self, tmp_path):
        model = build_radon(8, 4)
        with pytest.raises(DataError):
            gen_dataset(str(tmp_path), model, 60.0, 2, seed=0)

    def test_targets_in_unit_range(self):
        model = build_radon(8, 4)
        ds = gen_dataset("synthetic", model, 60.0, 5, seed=10)
        for _, c in ds.pairs:
            assert np.all(c >= 0.0)
            assert np.all(c <= 1.0)

    def test_synthetic_image_deterministic(self):
        a = synthetic_image(8, np.random.default_rng(3))
        b = synthetic_image(8, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = fingerprint({"x": 1, "y": [1, 2]})
        assert a == fingerprint({"y": [1, 2], "x": 1})
        assert a != fingerprint({"x": 2, "y": [1, 2]})
