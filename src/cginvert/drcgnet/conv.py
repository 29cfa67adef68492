"""Zero-padded same-size 2-D convolutions (correlation convention), one
GEMM per kernel tap, and the matching reverse-mode backward.

Kernel tensors have shape (k, k, c_in, c_out); feature maps are
(channels, h, w).  No bias terms anywhere.  The padded input xp, the only
thing kept for backward, is x zero-padded by pad = k // 2 on every side
plus one zero row at the bottom, rows flattened to (c_in, (h+2pad+1)*wp)
with wp = w + 2pad.  Tap (di, dj) reads the column slice of length h*wp
starting at di*wp + dj; the extra row keeps the last slice in bounds, and
the last 2pad columns of each output row are dropped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv2d_forward", "conv2d_backward", "glorot_uniform", "interior"]


def interior(xp, k, h, w):
    """The (c, h, w) view of the unpadded map inside a padded buffer."""
    pad = k // 2
    return xp.reshape(xp.shape[0], h + 2 * pad + 1, w + 2 * pad)[
        :, pad:pad + h, pad:pad + w]


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
    out = np.zeros((kern.shape[3], span))
    for di in range(k):
        for dj in range(k):
            o = di * wp + dj
            out += kern[di, dj].T @ xp[:, o:o + span]
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
    dkern = np.empty(kern.shape)
    dxp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            o = di * wp + dj
            dkern[di, dj] = xp[:, o:o + span] @ d.T
            dxp[:, o:o + span] += kern[di, dj] @ d
    return interior(dxp, k, h, w), dkern


def glorot_uniform(rng, k, cin, cout):
    """Kernel initialization: U(-lim, lim), lim = sqrt(6/(fan_in + fan_out))."""
    fan_in = cin * k * k
    fan_out = cout * k * k
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(k, k, cin, cout))
