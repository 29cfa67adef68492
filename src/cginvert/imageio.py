"""Image I/O: binary/ASCII PGM and CSV rasters.

PGM pixel values are scaled to [0, 1] on load by dividing by the header
maxval.  CSV files hold one image per row (row-major raster) and are taken
as already scaled to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

__all__ = ["read_pgm", "write_pgm", "read_csv_images", "write_csv_images"]


def _pgm_tokens(data):
    # Token scanner honoring '#' comments in the PGM header.
    i = 0
    while True:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            return
        yield data[start:i], i


def read_pgm(path):
    """Load a P2/P5 PGM file as a float image in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _pgm_tokens(data)
    try:
        magic, _ = next(toks)
        (w, _), (h, _), (maxval, end) = (next(toks) for _ in range(3))
    except StopIteration:
        raise DataError(f"{path}: truncated PGM header")
    magic = magic.decode()
    w, h, maxval = int(w), int(h), int(maxval)
    if magic not in ("P2", "P5"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    if maxval <= 0:
        raise DataError(f"{path}: bad maxval {maxval}")
    if magic == "P5":
        raw = data[end + 1 :]
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        if len(raw) < w * h * dtype.itemsize:
            raise DataError(f"{path}: expected {w * h} pixels, got "
                            f"{len(raw) // dtype.itemsize}")
        img = np.frombuffer(raw, dtype=dtype, count=w * h).astype(np.float64)
    else:
        vals = [int(t) for t, _ in _pgm_tokens(data[end:])]
        if len(vals) < w * h:
            raise DataError(f"{path}: expected {w * h} pixels, got {len(vals)}")
        img = np.array(vals[: w * h], dtype=np.float64)
    return (img / maxval).reshape(h, w)


def write_pgm(path, img, binary=True):
    """Write a [0, 1] float image as 8-bit PGM (P5 by default, P2 otherwise)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("write_pgm expects a 2-D image")
    pix = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        if binary:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(pix.tobytes())
        else:
            fh.write(f"P2\n{w} {h}\n255\n".encode())
            for row in pix:
                fh.write((" ".join(str(v) for v in row) + "\n").encode())


def read_csv_images(path):
    """Load a CSV of rasters: one image per row, row-major, values in [0, 1]."""
    arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return [row.copy() for row in arr]


def write_csv_images(path, rasters):
    """Write rasters (iterable of 1-D arrays) one per CSV row."""
    with open(path, "w") as fh:
        for r in rasters:
            fh.write(",".join(repr(float(v)) for v in np.asarray(r).ravel()))
            fh.write("\n")
