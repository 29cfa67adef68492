"""Sensing operators and noisy measurement synthesis.

The forward model is y = A c + noise with A = Psi @ Phi, where Psi is the
measurement matrix (parallel-beam Radon or i.i.d. Gaussian) and Phi an
optional orthonormal dictionary (2-D DCT) or the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct as _dct

from .errors import DataError

__all__ = [
    "SensingModel",
    "Measurement",
    "build_radon",
    "build_gaussian",
    "build_dct",
    "measure",
    "spectral_norm",
    "export_operator_csv",
]


def spectral_norm(matvec, rmatvec, n, iters=100, tol=1e-8, seed=0):
    """Estimate the largest singular value of an operator by power iteration.

    Runs on A^T A; deterministic start vector from the given seed.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = rmatvec(matvec(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * max(nw, 1.0):
            lam = nw
            break
        lam = nw
    return math.sqrt(lam)


class SensingModel:
    """The operator A = Psi @ Phi with apply/adjoint and metadata.

    psi is dense or CSR sparse (m x n); phi is a dense n x n dictionary or
    None for the identity marker.  psi_t is Psi^T, kept as CSR when psi is
    sparse so adjoints never transpose again.  a_norm caches a
    power-iteration estimate of ||A||_2.  side is the image side length when
    n is a perfect square.
    """

    def __init__(self, psi, phi=None, side=None, meta=None):
        m, n = psi.shape
        if phi is not None and phi.shape != (n, n):
            raise ValueError(f"phi must be {n}x{n}, got {phi.shape}")
        self.psi = psi
        self.psi_t = psi.T.tocsr() if sp.issparse(psi) else psi.T
        self.phi = phi
        self.m = m
        self.n = n
        if side is None:
            r = int(round(math.sqrt(n)))
            side = r if r * r == n else None
        self.side = side
        self.meta = dict(meta or {})
        self._dense_a = None
        self._gram_map = None
        self.a_norm = spectral_norm(self.apply, self.adjoint, n)

    # -- operator surface ---------------------------------------------------

    def apply(self, x):
        """Return A x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {x.shape}")
        if self.phi is not None:
            x = self.phi @ x
        return self.psi @ x

    def adjoint(self, w):
        """Return A^T w."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}, got {w.shape}")
        out = self.psi_t @ w
        if self.phi is not None:
            out = self.phi.T @ out
        return out

    def dense_a(self):
        """Materialized dense A (cached); intended for desk-scale solves."""
        if self._dense_a is None:
            psi = self.psi.toarray() if sp.issparse(self.psi) else np.asarray(self.psi)
            self._dense_a = psi @ self.phi if self.phi is not None else psi.copy()
        return self._dense_a

    def gram_map(self):
        """Map from pixel weights w to the lower triangle of Psi Diag(w) Psi^T
        (cached; sparse Psi only).

        Returns (flat, gram): the column-major flat positions j*m + i, i >= j,
        of the structural nonzeros of that triangle, and a CSR matrix with
        gram[e, k] = Psi[i, k] Psi[j, k] for the pair at flat[e], so that the
        triangle's values are gram @ w.  It depends on Psi alone: the symbolic
        half of forming the Woodbury system, one O(sum_k nnz(Psi[:, k])^2)
        pass instead of a sparse-sparse product per call.
        """
        if self._gram_map is None:
            csc = self.psi.tocsc(copy=True)
            csc.sum_duplicates()  # sorted rows, one entry per (row, column)
            counts = np.diff(csc.indptr)
            start = np.repeat(csc.indptr[:-1], counts)
            # the entry at position p of its column pairs with positions
            # 0..p of that column, whose rows are no larger
            reps = np.arange(csc.nnz) - start + 1
            first = np.repeat(np.arange(csc.nnz), reps)
            second = (np.arange(first.size) + start[first]
                      - np.repeat(np.cumsum(reps) - reps, reps))
            rows = csc.indices.astype(np.int64)
            flat, slot = np.unique(rows[second] * self.m + rows[first],
                                   return_inverse=True)
            pixel = np.repeat(np.arange(self.n), counts)[first]
            gram = sp.csr_matrix(
                (csc.data[first] * csc.data[second], (slot, pixel)),
                shape=(flat.size, self.n))
            self._gram_map = (flat, gram)
        return self._gram_map

    def fingerprint_config(self):
        cfg = {"m": self.m, "n": self.n, "side": self.side}
        cfg.update(self.meta)
        return cfg


@dataclass
class Measurement:
    """A noisy measurement vector with its configured SNR and noise seed."""

    y: np.ndarray
    snr_db: float
    noise_seed: int = 0


def _radon_ray_weights(side, theta, t):
    """Intersection lengths of one ray with every pixel of a side x side grid.

    The grid covers [-side/2, side/2]^2 with unit pixels; the ray is the line
    {t*(cos, sin) + s*(-sin, cos)} for the angle theta.  Returns (pixel_idx,
    weights) with row-major pixel indices (row 0 at the top of the image).
    """
    h = side / 2.0
    c, s0 = math.cos(theta), math.sin(theta)
    # entry/exit of the ray in the bounding box via Liang-Barsky in s
    lo, hi = -np.inf, np.inf
    # x(s) = t*c - s*s0 in [-h, h]
    if s0 != 0.0:
        s_a = (t * c - (-h)) / s0
        s_b = (t * c - h) / s0
        lo, hi = max(lo, min(s_a, s_b)), min(hi, max(s_a, s_b))
    elif not (-h <= t * c <= h):
        return np.empty(0, dtype=np.int64), np.empty(0)
    # y(s) = t*s0 + s*c in [-h, h]
    if c != 0.0:
        s_a = ((-h) - t * s0) / c
        s_b = (h - t * s0) / c
        lo, hi = max(lo, min(s_a, s_b)), min(hi, max(s_a, s_b))
    elif not (-h <= t * s0 <= h):
        return np.empty(0, dtype=np.int64), np.empty(0)
    if not (lo < hi) or not np.isfinite(lo) or not np.isfinite(hi):
        return np.empty(0, dtype=np.int64), np.empty(0)

    lines = np.arange(side + 1) - h
    crossings = [np.array([lo, hi])]
    if s0 != 0.0:
        crossings.append((t * c - lines) / s0)
    if c != 0.0:
        crossings.append((lines - t * s0) / c)
    svals = np.concatenate(crossings)
    svals = np.unique(svals[(svals >= lo) & (svals <= hi)])
    if svals.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0)

    mids = 0.5 * (svals[1:] + svals[:-1])
    seglen = np.diff(svals)
    xm = t * c - mids * s0
    ym = t * s0 + mids * c
    cols = np.floor(xm + h).astype(np.int64)
    rows = np.floor(h - ym).astype(np.int64)
    keep = (
        (seglen > 1e-12)
        & (cols >= 0)
        & (cols < side)
        & (rows >= 0)
        & (rows < side)
    )
    return rows[keep] * side + cols[keep], seglen[keep]


def build_radon(side, n_angles):
    """Parallel-beam Radon sensing model on a side x side pixel grid.

    Angles are i * 180/n_angles degrees for i = 0..n_angles-1; each angle has
    ceil(sqrt(2)*side) unit-spaced detector bins centered on the image.  Row
    weights are exact ray/pixel intersection lengths; rows are ordered
    angle-major then detector.
    """
    if side < 1 or n_angles < 1:
        raise ValueError("side and n_angles must be >= 1")
    n_det = math.ceil(math.sqrt(2.0) * side)
    n = side * side
    m = n_angles * n_det
    offsets = (np.arange(n_det) + 0.5) - n_det / 2.0

    rows, cols, vals = [], [], []
    for i in range(n_angles):
        theta = i * math.pi / n_angles
        for d in range(n_det):
            idx, w = _radon_ray_weights(side, theta, offsets[d])
            if idx.size:
                r = i * n_det + d
                rows.append(np.full(idx.size, r, dtype=np.int64))
                cols.append(idx)
                vals.append(w)
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    psi = sp.csr_matrix((vals, (rows, cols)), shape=(m, n), dtype=np.float64)
    meta = {"kind": "radon", "angles": n_angles, "detectors": n_det}
    return SensingModel(psi, phi=None, side=side, meta=meta)


def build_gaussian(m, n, seed):
    """Sensing model with i.i.d. standard-normal Psi (m x n), m <= n."""
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((m, n))
    meta = {"kind": "gaussian", "seed": seed, "ratio": m / n}
    return SensingModel(psi, phi=None, meta=meta)


def build_dct(n):
    """Orthonormal 2-D DCT-II synthesis dictionary as an n x n matrix.

    Columns are the 2-D cosine basis images in row-major raster order, so
    s = Phi c maps DCT coefficients to an image raster.
    """
    side = int(round(math.sqrt(n)))
    if side * side != n:
        raise ValueError(f"n={n} is not a perfect square image size")
    d1 = _dct(np.eye(side), axis=0, norm="ortho")  # analysis: c = d1 @ s
    return np.kron(d1.T, d1.T)


def measure(model, c, snr_db, seed=0):
    """Synthesize y = A c + noise with the realized SNR equal to snr_db.

    White Gaussian noise is rescaled after sampling so that
    10*log10(||Ac||^2 / ||noise||^2) hits snr_db exactly.  snr_db = inf
    yields noiseless measurements.
    """
    if not snr_db > -np.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db!r}")
    clean = model.apply(c)
    if snr_db == np.inf:
        return Measurement(y=clean, snr_db=snr_db, noise_seed=seed)
    sig = np.linalg.norm(clean)
    if sig == 0.0:
        raise DataError("zero signal: ||A c|| = 0 with finite SNR requested")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(model.m)
    g *= sig / (np.linalg.norm(g) * 10.0 ** (snr_db / 20.0))
    return Measurement(y=clean + g, snr_db=snr_db, noise_seed=seed)


def export_operator_csv(model, path):
    """Write A in (row, col, value) triplet CSV form for inspection."""
    a = model.dense_a() if model.phi is not None else model.psi
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        if sp.issparse(a):
            coo = a.tocoo()
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r},{c},{float(v)!r}\n")
        else:
            for r in range(a.shape[0]):
                for c in range(a.shape[1]):
                    v = a[r, c]
                    if v != 0.0:
                        fh.write(f"{r},{c},{float(v)!r}\n")
