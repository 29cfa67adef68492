"""Dataset synthesis and persistence plus reconstruction quality metrics."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, read_f64, read_manifest, write_store
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


# every field but pairs is a manifest key; the samples are files
_STORED = [f for f in fields(Dataset) if f.name != "pairs"]


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
    if not os.path.isdir(images_dir):
        raise DataError(f"image source {images_dir} is not a directory")
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
        y = measure(model, c, snr_db, seed=noise_seed)
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
    manifest = {f.name: getattr(ds, f.name) for f in _STORED}
    manifest["n_samples"] = len(ds)
    arrays = {}
    for i, (y, c) in enumerate(ds.pairs):
        arrays.update({f"y_{i}.f64": y, f"c_{i}.f64": c})
    write_store(out_dir, manifest, arrays)


def load_dataset(in_dir):
    """Read save_dataset output; unreadable files, missing keys, a manifest
    that is not a JSON object or has a mistyped value, no samples, wrong
    lengths and non-finite values raise DataError."""
    manifest = read_manifest(os.path.join(in_dir, "manifest.json"), DataError, {
        "m": int, "n": int, "n_samples": int, "side": int, "seeds": list})
    if manifest["n_samples"] < 1:
        raise DataError(f"dataset in {in_dir} holds no samples")

    def sample(name, size):
        return read_f64(os.path.join(in_dir, name), size, DataError, "sample file")

    pairs = [(sample(f"y_{i}.f64", manifest["m"]), sample(f"c_{i}.f64", manifest["n"]))
             for i in range(manifest["n_samples"])]
    try:
        return Dataset(pairs, **{f.name: manifest[f.name] for f in _STORED})
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

    def means(a):
        return sliding_window_view(a, (win, win)).mean(axis=(2, 3))

    ma, mb = means(x), means(ref)
    va = means(x * x) - ma * ma
    vb = means(ref * ref) - mb * mb
    cab = means(x * ref) - ma * mb
    vals = (((2 * ma * mb + c1) * (2 * cab + c2))
            / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(vals.mean())
