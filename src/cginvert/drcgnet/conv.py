"""Zero-padded same-size 2-D convolutions (correlation convention), one
GEMM per kernel tap, and the matching reverse-mode backward.

Kernel tensors have shape (k, k, c_in, c_out); feature maps are
(channels, h, w).  No bias terms anywhere.  The padded input xp, the only
thing kept for backward, is x zero-padded by pad = k // 2 on every side
plus one zero row at the bottom, rows flattened to (c_in, (h+2pad+1)*wp)
with wp = w + 2pad.  Tap (di, dj) reads the column slice of length h*wp
starting at di*wp + dj; the extra row keeps the last slice in bounds, and
the last 2pad columns of each output row are dropped.  A single-channel end
(the forward of a 1-channel input, the input gradient of a 1-channel output)
stacks the k*k shifted slices of its one row and runs one GEMM instead of
k*k rank-1 products.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv2d_forward", "conv2d_backward", "glorot_uniform", "interior"]


def interior(xp, k, h, w):
    """The (c, h, w) view of the unpadded map inside a padded buffer."""
    pad = k // 2
    return xp.reshape(xp.shape[0], h + 2 * pad + 1, w + 2 * pad)[
        :, pad:pad + h, pad:pad + w]


def _taps(k, wp):
    """Flat offsets di*wp + dj of the k*k kernel taps, di-major like kern."""
    return (np.arange(k)[:, None] * wp + np.arange(k)).ravel()


def conv2d_forward(x, kern):
    """Correlate x (c_in, h, w) with kern (k, k, c_in, c_out).

    Returns (out, xp) where out is (c_out, h, w) and xp is the padded,
    row-flattened input that the backward pass reads its windows from.
    """
    cin, h, w = x.shape
    k = kern.shape[0]
    pad = k // 2
    wp = w + 2 * pad
    span = h * wp
    xp = np.zeros((cin, (h + 2 * pad + 1) * wp))
    interior(xp, k, h, w)[...] = x
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, cin, -1)
    if cin == 1:
        cols = np.empty((k * k, span))
        for t, o in enumerate(taps):
            cols[t] = xp[0, o:o + span]
        out = flat_kern[:, 0].T @ cols
    else:
        out = np.zeros((kern.shape[3], span))
        for t, o in enumerate(taps):
            out += flat_kern[t].T @ xp[:, o:o + span]
    return out.reshape(-1, h, wp)[:, :, :w], xp


def conv2d_backward(dout, xp, kern, x_shape):
    """Gradients of conv2d_forward w.r.t. its input and kernel.

    dout is (c_out, h, w) and xp the padded input conv2d_forward returned;
    returns (dx, dkern) with the shapes of x and kern.
    """
    _, h, w = x_shape
    k = kern.shape[0]
    wp = w + 2 * (k // 2)
    span = h * wp
    d = np.zeros((dout.shape[0], h, wp))
    d[:, :, :w] = dout
    d = d.reshape(-1, span)
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, kern.shape[2], -1)
    dkern = np.empty(flat_kern.shape)
    for t, o in enumerate(taps):
        dkern[t] = xp[:, o:o + span] @ d.T
    if d.shape[0] == 1:
        shifted = np.zeros((k * k, xp.shape[1]))
        for t, o in enumerate(taps):
            shifted[t, o:o + span] = d[0]
        dxp = flat_kern[:, :, 0].T @ shifted
    else:
        dxp = np.zeros_like(xp)
        for t, o in enumerate(taps):
            dxp[:, o:o + span] += flat_kern[t] @ d
    return interior(dxp, k, h, w), dkern.reshape(kern.shape)


def glorot_uniform(rng, k, cin, cout):
    """Kernel initialization: U(-lim, lim), lim = sqrt(6/(fan_in + fan_out))."""
    fan_in = cin * k * k
    fan_out = cout * k * k
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(k, k, cin, cout))
