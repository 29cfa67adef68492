"""Dataset synthesis and persistence plus reconstruction quality metrics."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .imageio import read_pgm
from .sensing import measure

__all__ = [
    "Dataset",
    "fingerprint",
    "synthetic_image",
    "gen_dataset",
    "save_dataset",
    "load_dataset",
    "psnr",
    "ssim",
]


def fingerprint(config):
    """Short stable hash of a JSON-serializable config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Dataset:
    """Measurement/target pairs tied to one sensing model."""

    pairs: list                     # [(y_i, c_i)]
    model_fingerprint: str
    dataset_fingerprint: str
    snr_db: float
    seeds: list
    side: int
    m: int
    n: int
    generation: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.pairs)


def synthetic_image(side, rng):
    """Random smooth blobs plus axis-aligned rectangles, clipped to [0, 1]."""
    img = np.zeros((side, side))
    yy, xx = np.mgrid[0:side, 0:side]
    for _ in range(rng.integers(1, 4)):
        cy, cx = rng.uniform(0, side, 2)
        w = rng.uniform(side / 8, side / 2)
        amp = rng.uniform(0.3, 1.0)
        img += amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * w * w)))
    for _ in range(rng.integers(1, 3)):
        y0, x0 = rng.integers(0, side, 2)
        hgt = int(rng.integers(1, max(side // 2, 2)))
        wid = int(rng.integers(1, max(side // 2, 2)))
        img[y0:y0 + hgt, x0:x0 + wid] += rng.uniform(0.2, 0.8)
    return np.clip(img, 0.0, 1.0)


def _load_image_rasters(images_dir, side, n_samples):
    names = sorted(f for f in os.listdir(images_dir)
                   if f.lower().endswith(".pgm"))
    if len(names) < n_samples:
        raise DataError(
            f"need {n_samples} images, found {len(names)} in {images_dir}")
    rasters = []
    for name in names[:n_samples]:
        img = read_pgm(os.path.join(images_dir, name))
        if img.shape != (side, side):
            raise DataError(f"{name}: expected {side}x{side}, got {img.shape}")
        rasters.append(img.reshape(-1))
    return rasters


def gen_dataset(source, model, snr_db, n_samples, seed):
    """Create a dataset from PGM images in a directory or synthetically.

    source is either "synthetic" or a directory path.  Image rasters s live
    in [0, 1]; when the model carries a dictionary the stored target is the
    coefficient vector c = Phi^T s, otherwise c = s.
    """
    if model.side is None:
        raise DataError("dataset generation needs an image-shaped model")
    side = model.side
    if source == "synthetic":
        rng = np.random.default_rng(seed)
        rasters = [synthetic_image(side, rng).reshape(-1)
                   for _ in range(n_samples)]
    else:
        rasters = _load_image_rasters(source, side, n_samples)

    pairs = []
    seeds = []
    for i, s in enumerate(rasters):
        c = model.phi.T @ s if model.phi is not None else s
        noise_seed = seed + 1000003 * (i + 1)
        y = measure(model, c, snr_db, seed=noise_seed).y
        pairs.append((y, c))
        seeds.append(noise_seed)

    model_fp = fingerprint(model.fingerprint_config())
    generation = {
        "source": source,
        "snr_db": snr_db,
        "n_samples": n_samples,
        "seed": seed,
        "model": model.fingerprint_config(),
    }
    return Dataset(
        pairs=pairs,
        model_fingerprint=model_fp,
        dataset_fingerprint=fingerprint(generation),
        snr_db=snr_db,
        seeds=seeds,
        side=side,
        m=model.m,
        n=model.n,
        generation=generation,
    )


def save_dataset(ds, out_dir):
    """Write manifest.json plus per-sample little-endian float64 binaries."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "model_fingerprint": ds.model_fingerprint,
        "dataset_fingerprint": ds.dataset_fingerprint,
        "snr_db": ds.snr_db,
        "seeds": ds.seeds,
        "side": ds.side,
        "m": ds.m,
        "n": ds.n,
        "n_samples": len(ds.pairs),
        "generation": ds.generation,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    for i, (y, c) in enumerate(ds.pairs):
        y.astype("<f8").tofile(os.path.join(out_dir, f"y_{i}.f64"))
        c.astype("<f8").tofile(os.path.join(out_dir, f"c_{i}.f64"))


def _load_vector(in_dir, name, size):
    path = os.path.join(in_dir, name)
    if not os.path.exists(path):
        raise DataError(f"missing sample file {path}")
    v = np.fromfile(path, dtype="<f8")
    if v.size != size:
        raise DataError(f"{path} has {v.size} values, expected {size}")
    if not np.isfinite(v).all():
        raise DataError(f"{path} holds non-finite values")
    return v


def load_dataset(in_dir):
    """Read save_dataset output; missing files or keys, wrong lengths and
    non-finite values raise DataError."""
    path = os.path.join(in_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"no dataset manifest in {in_dir}")
    with open(path) as fh:
        manifest = json.load(fh)
    try:
        pairs = [(_load_vector(in_dir, f"y_{i}.f64", manifest["m"]),
                  _load_vector(in_dir, f"c_{i}.f64", manifest["n"]))
                 for i in range(manifest["n_samples"])]
        return Dataset(
            pairs=pairs,
            model_fingerprint=manifest["model_fingerprint"],
            dataset_fingerprint=manifest["dataset_fingerprint"],
            snr_db=manifest["snr_db"],
            seeds=manifest["seeds"],
            side=manifest["side"],
            m=manifest["m"],
            n=manifest["n"],
            generation=manifest["generation"],
        )
    except KeyError as exc:
        raise DataError(f"dataset manifest in {in_dir} lacks key {exc}") from None


def psnr(x, ref, peak=1.0):
    """10*log10(peak^2 / MSE); +inf on exact equality."""
    if peak <= 0:
        raise ValueError("peak must be positive")
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("psnr needs equal shapes")
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def ssim(x, ref, peak=1.0, window=8):
    """Mean structural similarity over unit-stride square windows.

    Uses plain (population) moments per window and the customary stability
    constants C1 = (0.01 peak)^2, C2 = (0.03 peak)^2.
    """
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("ssim needs equal shapes")
    if x.ndim == 1:
        side = int(round(np.sqrt(x.size)))
        if side * side != x.size:
            raise ValueError("ssim on vectors needs square rasters")
        x = x.reshape(side, side)
        ref = ref.reshape(side, side)
    h, w = x.shape
    win = min(window, h, w)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
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
