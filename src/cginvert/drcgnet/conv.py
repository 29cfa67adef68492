"""Zero-padded same-size 2-D convolutions (correlation convention) on padded
channels-last buffers, one in-place GEMM per kernel tap, and the matching
reverse-mode backward.

Kernel tensors have shape (k, k, c_in, c_out); no bias terms anywhere.  An
(h, w) map of c channels lives in a padded buffer: the map zero-padded by
pad = k // 2 on every side plus one zero row at the bottom, pixels flattened
to the rows of a C-ordered ((h+2pad+1)*wp, c) array with wp = w + 2pad.
Tap (di, dj) reads the contiguous row block of length span = h*wp starting
at di*wp + dj; the extra row keeps the last block in bounds.

A layer's output, in that same (span, c_out) row order, is the body of the
next layer's padded buffer: the row block of length span starting at
pad*wp + pad.  Row i of the body holds the w pixels of map row i and then
2pad wrap-around entries, which are pad ring of the buffer (the right pad of
row i and the left pad of row i+1; the last row's reach into the bottom
ring).  So each layer's GEMMs accumulate straight into the buffer the next
layer reads, ReLU runs in place there, and zeroing the wrap entries restores
the ring: a stack makes no pad, unpad or ReLU copies.  In backward, the body
of the input gradient is the gradient of the layer below's output in the
same order; masking it in place by body(xp) > 0, the layer's own input,
applies the ReLU and zeroes the wrap entries at once, since the ring of xp
is 0.  Every layer of a stack has the same k, so one layout serves them all.

Every multi-channel tap adds its product straight into the accumulator:
BLAS dgemm with beta=1 and overwrite_c, so no (c_out, span) temporary is
made and no second pass adds it in.  The accumulators (the body of the
output buffer, the (L, c_in) input gradient) are C-ordered, so their
transposes, and every column slice of those, are the Fortran-contiguous
arrays dgemm writes in place.  They must stay so: f2py silently copies an
operand that is not Fortran-contiguous, and the sum then lands in the copy.
The tap windows and kernel slices are passed transposed for the same reason.

A single-channel end (the forward of a 1-channel input, the backward of a
1-channel output) stacks the k*k shifted windows of its one channel and
runs one GEMM instead of k*k rank-1 products; at a 1-channel output the
same stack also gives the kernel gradient in one GEMM.

Any other backward takes the whole kernel gradient in one np.matmul over a
read-only strided (k, k, span, c_in) view of the tap windows, the same
per-tap GEMMs in the same order as a loop, and the input gradient in the
per-tap dgemm loop, both on the calling thread.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.blas import dgemm

__all__ = ["conv2d_forward", "conv2d_backward", "glorot_uniform", "padded",
           "interior", "body"]


def _layout(k, h, w):
    """(pad, wp, span) of the padded buffer of an (h, w) map."""
    pad = k // 2
    wp = w + 2 * pad
    return pad, wp, h * wp


def padded(x, k):
    """A new padded buffer holding the (h, w, c) map x, zero elsewhere."""
    h, w, c = x.shape
    pad, wp, _ = _layout(k, h, w)
    xp = np.zeros(((h + 2 * pad + 1) * wp, c))
    interior(xp, k, h, w)[...] = x
    return xp


def interior(xp, k, h, w):
    """The (h, w, c) view of the map inside a padded buffer."""
    pad, wp, _ = _layout(k, h, w)
    return xp.reshape(h + 2 * pad + 1, wp, xp.shape[1])[
        pad:pad + h, pad:pad + w]


def body(xp, k, h, w):
    """The C-contiguous (span, c) view a layer's output fills: the map's rows,
    each followed by its 2pad wrap-around entries of the pad ring."""
    pad, wp, span = _layout(k, h, w)
    start = pad * wp + pad
    return xp[start:start + span]


@functools.cache
def _taps(k, wp):
    """Flat offsets di*wp + dj of the k*k kernel taps, di-major like kern."""
    return tuple(di * wp + dj for di in range(k) for dj in range(k))


def _windows(xp, k, wp, span):
    """The read-only (k, k, span, c) view of the C-contiguous buffer xp whose
    [di, dj] is tap (di, dj)'s window.  Built by the ndarray constructor:
    as_strided makes the same view in about 4x the time (4.8 against 1.1
    us)."""
    row, col = xp.strides
    windows = np.ndarray((k, k, span, xp.shape[1]), xp.dtype, xp, 0,
                         (wp * row, row, row, col))
    windows.flags.writeable = False
    return windows


def conv2d_forward(xp, kern, h, w, relu):
    """Correlate the (h, w) map in padded buffer xp with kern (k, k, c_in,
    c_out).

    Returns (yp, xp): yp is a new padded buffer holding the (h, w, c_out)
    result, after ReLU if relu, and is the next layer's input; xp is passed
    back unchanged as the buffer conv2d_backward reads its windows from.
    """
    k, _, cin, cout = kern.shape
    _, wp, span = _layout(k, h, w)
    yp = np.zeros((xp.shape[0], cout))
    out = body(yp, k, h, w)
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, cin, cout)
    if cin == 1:
        cols = np.empty((k * k, span))
        for t, o in enumerate(taps):
            cols[t] = xp[o:o + span, 0]
        np.matmul(cols.T, flat_kern[:, 0], out=out)
    else:
        for t, o in enumerate(taps):
            dgemm(1.0, flat_kern[t].T, xp[o:o + span].T, beta=1.0, c=out.T,
                  overwrite_c=1)
    if relu:
        np.maximum(out, 0.0, out=out)
    out.reshape(h, wp, cout)[:, w:] = 0.0
    return yp, xp


def conv2d_backward(d, xp, kern, h, w):
    """Gradients of conv2d_forward w.r.t. its input buffer and kernel.

    d is the (span, c_out) gradient of the output in body order, zero at the
    wrap entries; xp is the buffer conv2d_forward read.  Returns (dxp, dkern):
    dxp, with xp's shape, is the gradient w.r.t. every entry of xp (its body
    is the gradient of the layer below's output, its interior that of the
    map), and dkern has kern's shape.
    """
    k, _, cin, cout = kern.shape
    _, wp, span = _layout(k, h, w)
    taps = _taps(k, wp)
    flat_kern = kern.reshape(k * k, cin, cout)
    if cout == 1:
        shifted = np.zeros((k * k, xp.shape[0]))
        for t, o in enumerate(taps):
            shifted[t, o:o + span] = d[:, 0]
        dxp = shifted.T @ flat_kern[:, :, 0]
        return dxp, (shifted @ xp).reshape(kern.shape)
    windows = _windows(xp, k, wp, span)
    dkern = np.matmul(windows.swapaxes(2, 3), d)
    dxp = np.zeros(xp.shape)
    for t, o in enumerate(taps):
        dgemm(1.0, flat_kern[t].T, d.T, beta=1.0, c=dxp.T[:, o:o + span],
              trans_a=1, overwrite_c=1)
    return dxp, dkern


def glorot_uniform(rng, k, cin, cout):
    """Kernel initialization: U(-lim, lim), lim = sqrt(6/(fan_in + fan_out))."""
    fan_in = cin * k * k
    fan_out = cout * k * k
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(k, k, cin, cout))
