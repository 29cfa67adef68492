"""Image I/O: PGM reading (P2/P5) and binary PGM writing.

PGM pixel values are scaled to [0, 1] on load by dividing by the header
maxval.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DataError

__all__ = ["read_pgm", "write_pgm"]


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


def _pgm_ints(path, what, tokens):
    """The tokens as ints; a token that is not an integer is a DataError."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise DataError(f"{path}: non-integer PGM {what} token") from None


def read_pgm(path):
    """Load a P2/P5 PGM file as a float image in [0, 1]."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    head = list(itertools.islice(_pgm_tokens(data), 4))
    if len(head) < 4:
        raise DataError(f"{path}: truncated PGM header")
    (magic, _), (w, _), (h, _), (maxval, end) = head
    magic = magic.decode()
    w, h, maxval = _pgm_ints(path, "header", (w, h, maxval))
    if magic not in ("P2", "P5"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad size {w}x{h}")
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
        vals = _pgm_ints(path, "pixel", (t for t, _ in _pgm_tokens(data[end:])))
        if len(vals) < w * h:
            raise DataError(f"{path}: expected {w * h} pixels, got {len(vals)}")
        img = np.array(vals[: w * h], dtype=np.float64)
    return (img / maxval).reshape(h, w)


def write_pgm(path, img):
    """Write a [0, 1] float image as 8-bit binary PGM (P5)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("write_pgm expects a 2-D image")
    pix = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pix.tobytes())

