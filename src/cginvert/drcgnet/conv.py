"""Zero-padded same-size 2-D convolutions (correlation convention), one
in-place GEMM per kernel tap, and the matching reverse-mode backward.

Kernel tensors have shape (k, k, c_in, c_out); feature maps are
channels-last, (h, w, channels).  No bias terms anywhere.  The padded input
xp, the only thing kept for backward, is x zero-padded by pad = k // 2 on
every side plus one zero row at the bottom, pixels flattened to the rows of
a C-ordered ((h+2pad+1)*wp, c_in) array with wp = w + 2pad.  Tap (di, dj)
reads the contiguous row block of length span = h*wp starting at
di*wp + dj; the extra row keeps the last block in bounds, and the last 2pad
pixels of each output row are dropped.

Every multi-channel tap adds its product straight into the accumulator:
BLAS dgemm with beta=1 and overwrite_c, so no (c_out, span) temporary is
made and no second pass adds it in.  The accumulators (the (span, c_out)
output, the (L, c_in) input gradient) are C-ordered, so their transposes,
and every column slice of those, are the Fortran-contiguous arrays dgemm
writes in place.  They must stay so: f2py silently copies an operand that
is not Fortran-contiguous, and the sum then lands in the copy.  The tap
windows and kernel slices are passed transposed for the same reason.

A single-channel end (the forward of a 1-channel input, the backward of a
1-channel output) stacks the k*k shifted windows of its one channel and
runs one GEMM instead of k*k rank-1 products; at a 1-channel output the
same stack also gives the kernel gradient in one GEMM.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

__all__ = ["conv2d_forward", "conv2d_backward", "glorot_uniform", "interior"]


def interior(xp, k, h, w):
    """The (h, w, c) view of the unpadded map inside a padded buffer."""
    pad = k // 2
    return xp.reshape(h + 2 * pad + 1, w + 2 * pad, xp.shape[1])[
        pad:pad + h, pad:pad + w]


def _taps(k, wp):
    """Flat offsets di*wp + dj of the k*k kernel taps, di-major like kern."""
    return (np.arange(k)[:, None] * wp + np.arange(k)).ravel()


def conv2d_forward(x, kern):
    """Correlate x (h, w, c_in) with kern (k, k, c_in, c_out).

    Returns (out, xp) where out is (h, w, c_out) and xp is the padded,
    pixel-flattened input that the backward pass reads its windows from.
    """
    h, w, cin = x.shape
    k = kern.shape[0]
    pad = k // 2
    wp = w + 2 * pad
    span = h * wp
    xp = np.zeros(((h + 2 * pad + 1) * wp, cin))
    interior(xp, k, h, w)[...] = x
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, cin, -1)
    if cin == 1:
        cols = np.empty((k * k, span))
        for t, o in enumerate(taps):
            cols[t] = xp[o:o + span, 0]
        out = cols.T @ flat_kern[:, 0]
    else:
        out = np.zeros((span, kern.shape[3]))
        for t, o in enumerate(taps):
            dgemm(1.0, flat_kern[t].T, xp[o:o + span].T, beta=1.0, c=out.T,
                  overwrite_c=1)
    return out.reshape(h, wp, -1)[:, :w], xp


def conv2d_backward(dout, xp, kern, x_shape):
    """Gradients of conv2d_forward w.r.t. its input and kernel.

    dout is (h, w, c_out) and xp the padded input conv2d_forward returned;
    returns (dx, dkern) with the shapes of x and kern.
    """
    h, w, _ = x_shape
    k = kern.shape[0]
    wp = w + 2 * (k // 2)
    span = h * wp
    d = np.zeros((h, wp, dout.shape[2]))
    d[:, :w] = dout
    d = d.reshape(span, -1)
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, kern.shape[2], -1)
    dkern = np.empty(flat_kern.shape)
    if d.shape[1] == 1:
        shifted = np.zeros((k * k, xp.shape[0]))
        for t, o in enumerate(taps):
            shifted[t, o:o + span] = d[:, 0]
        dxp = shifted.T @ flat_kern[:, :, 0]
        dkern[:, :, 0] = shifted @ xp
    else:
        dxp = np.zeros(xp.shape)
        for t, o in enumerate(taps):
            dkern[t] = xp[o:o + span].T @ d
            dgemm(1.0, flat_kern[t].T, d.T, beta=1.0, c=dxp.T[:, o:o + span],
                  trans_a=1, overwrite_c=1)
    return interior(dxp, k, h, w), dkern.reshape(kern.shape)


def glorot_uniform(rng, k, cin, cout):
    """Kernel initialization: U(-lim, lim), lim = sqrt(6/(fan_in + fan_out))."""
    fan_in = cin * k * k
    fan_out = cout * k * k
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(k, k, cin, cout))
