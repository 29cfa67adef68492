"""Sensing operators and noisy measurement synthesis.

The forward model is y = A c + noise with A = Psi @ Phi, where Psi is the
measurement matrix (parallel-beam Radon or i.i.d. Gaussian) and Phi an
optional orthonormal dictionary (2-D DCT) or the identity.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericalError

__all__ = [
    "SensingModel",
    "build_radon",
    "build_gaussian",
    "build_dct",
    "measure",
    "spectral_norm",
]


def spectral_norm(matvec, rmatvec, n, tol=1e-8):
    """Estimate the largest singular value of an operator by power iteration.

    Runs at most 100 iterations on A^T A from a start vector drawn with
    seed 0, so the estimate is deterministic.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(100):
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
        self._dense_ata = None
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

    def dense_ata(self):
        """Materialized dense A^T A (cached): the one O(m n^2) product the
        direct u-update needs, formed once per operator."""
        if self._dense_ata is None:
            a = self.dense_a()
            self._dense_ata = a.T @ a
        return self._dense_ata

    def gram_map(self):
        """Map from pixel weights w to the lower triangle of I + Psi Diag(w)
        Psi^T on Psi's live rows, those with a stored entry (cached; sparse
        Psi only).

        Returns (live, gram): the live row indices, increasing, and a CSC
        matrix of shape (r*r, n+1), r = live.size, whose row j*r + i is the
        column-major position of entry (i, j), i >= j, of the r x r system.
        gram[j*r + i, k] = Psi[live[i], k] Psi[live[j], k] for pixel k < n,
        and the last column holds 1.0 at each diagonal position i*(r+1), so
        gram @ append(w, 1.0) is the whole lower triangle, zeros above it,
        in the order LAPACK reads a Fortran array.  A CSC mat-vec sums each
        entry from 0 over the columns in increasing order: pixel by pixel,
        then the identity last, as a sorted row sum followed by += 1.0 does.
        An empty row's row and column of the product are zero.  It depends
        on Psi alone: the symbolic half of forming the Woodbury system, one
        O(sum_k nnz(Psi[:, k])^2) pass instead of a sparse-sparse product
        per call.  Nothing is sorted: a row's rank among the live rows is a
        cumsum of m bool marks, and pairing each entry with those at and
        below it in its column makes each column's rows increase.
        """
        if self._gram_map is None:
            csc = self.psi.tocsc(copy=True)
            csc.sum_duplicates()  # sorted rows, one entry per (row, column)
            counts = np.diff(csc.indptr)
            # the entry at position p of its column pairs with positions
            # p.. of that column, whose rows are no smaller
            reps = np.repeat(csc.indptr[1:], counts) - np.arange(csc.nnz)
            first = np.repeat(np.arange(csc.nnz), reps)
            second = (np.arange(first.size) + first
                      - np.repeat(np.cumsum(reps) - reps, reps))
            mark = np.zeros(self.m, dtype=bool)
            mark[csc.indices] = True
            live = np.flatnonzero(mark)
            r = live.size
            rows = (np.cumsum(mark) - 1)[csc.indices]
            # column k of gram holds the counts[k] (counts[k] + 1) / 2 pairs
            # of Psi's column k, its rows increasing; column n the r
            # diagonal ones
            indptr = np.cumsum(np.concatenate(
                ([0], counts * (counts + 1) // 2, [r])))
            gram = sp.csc_matrix(
                (np.concatenate((csc.data[first] * csc.data[second], np.ones(r))),
                 np.concatenate((rows[first] * r + rows[second],
                                 np.arange(r) * (r + 1))),
                 indptr), shape=(r * r, self.n + 1))
            self._gram_map = (live, gram)
        return self._gram_map

    def fingerprint_config(self):
        cfg = {"m": self.m, "n": self.n, "side": self.side}
        cfg.update(self.meta)
        return cfg


def _radon_angle(side, theta, t):
    """Intersection lengths of the rays of one angle with the pixels of a
    side x side grid, all detector offsets t at once.

    The grid covers [-side/2, side/2]^2 with unit pixels; the ray at offset
    t is the line {t*(cos, sin) + s*(-sin, cos)} for the angle theta.  Each
    ray is clipped to the grid (Liang-Barsky in s), its grid-line crossings
    are clipped into [lo, hi] and sorted row-wise, and each segment between
    consecutive values goes to the pixel holding its midpoint; a repeated
    value makes a zero-length segment, which the length filter drops.
    Returns (ray, pixel, weight) in ray order and increasing s within a ray,
    with ray indices into t and row-major pixel indices (row 0 at the top of
    the image).
    """
    h = side / 2.0
    c, s0 = math.cos(theta), math.sin(theta)
    lines = np.arange(side + 1) - h
    lo = np.full(t.shape, -np.inf)
    hi = np.full(t.shape, np.inf)
    ok = np.ones(t.shape, dtype=bool)
    crossings = []
    # x(s) = t*c - s*s0 and y(s) = t*s0 + s*c, each base + s*slope, in [-h, h]
    for base, slope in ((t * c, -s0), (t * s0, c)):
        if slope != 0.0:
            s_a = (-h - base) / slope
            s_b = (h - base) / slope
            lo = np.maximum(lo, np.minimum(s_a, s_b))
            hi = np.minimum(hi, np.maximum(s_a, s_b))
            crossings.append((lines - base[:, None]) / slope)
        else:
            ok &= (-h <= base) & (base <= h)
    # one of s0, c is nonzero, so lo and hi are finite
    ok &= lo < hi

    lo, hi, t = lo[ok, None], hi[ok, None], t[ok, None]
    svals = np.concatenate([lo, hi] + [x[ok] for x in crossings], axis=1)
    svals = np.sort(np.clip(svals, lo, hi), axis=1)
    mids = 0.5 * (svals[:, 1:] + svals[:, :-1])
    seglen = np.diff(svals, axis=1)
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
    ray = np.broadcast_to(np.flatnonzero(ok)[:, None], keep.shape)[keep]
    return ray, rows[keep] * side + cols[keep], seglen[keep]


def build_radon(side, n_angles):
    """Parallel-beam Radon sensing model on a side x side pixel grid.

    Angles are i * 180/n_angles degrees for i = 0..n_angles-1; each angle has
    ceil(sqrt(2)*side) unit-spaced detector bins centered on the image.  Row
    weights are exact ray/pixel intersection lengths, traced one angle at a
    time; rows are ordered angle-major then detector.
    """
    if side < 1 or n_angles < 1:
        raise ValueError("side and n_angles must be >= 1")
    n_det = math.ceil(math.sqrt(2.0) * side)
    n = side * side
    m = n_angles * n_det
    offsets = (np.arange(n_det) + 0.5) - n_det / 2.0

    rows, cols, vals = [], [], []
    for i in range(n_angles):
        ray, pixel, w = _radon_angle(side, i * math.pi / n_angles, offsets)
        rows.append(i * n_det + ray)
        cols.append(pixel)
        vals.append(w)
    psi = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, n), dtype=np.float64)
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
    # imported here, its only use: loading scipy.fft adds about 65 ms to
    # every command that imports the package
    from scipy.fft import dct

    d1 = dct(np.eye(side), axis=0, norm="ortho")  # analysis: c = d1 @ s
    return np.kron(d1.T, d1.T)


def measure(model, c, snr_db, seed=0):
    """Return y = A c + noise with the realized SNR equal to snr_db.

    White Gaussian noise is rescaled after sampling so that
    10*log10(||Ac||^2 / ||noise||^2) hits snr_db exactly.  snr_db = inf
    yields noiseless measurements.  A non-finite A c, ||A c|| or y, or an
    SNR whose amplitude ratio 10^(snr_db/20) overflows, raises
    NumericalError.
    """
    if not snr_db > -np.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db!r}")
    clean = model.apply(c)
    sig = np.linalg.norm(clean)
    if not np.isfinite(sig):
        raise NumericalError(f"||A c|| = {float(sig):g} is not finite")
    if snr_db == np.inf:
        return clean
    if sig == 0.0:
        raise DataError("zero signal: ||A c|| = 0 with finite SNR requested")
    try:
        gain = 10.0 ** (float(snr_db) / 20.0)
    except OverflowError:
        raise NumericalError(
            f"10^(snr_db/20) overflows at {float(snr_db):g} dB SNR") from None
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(model.m)
    g *= sig / (np.linalg.norm(g) * gain)
    y = clean + g
    if not np.isfinite(y).all():
        raise NumericalError(f"measurements at {float(snr_db):g} dB SNR are not finite")
    return y

