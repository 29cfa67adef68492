"""Unrolled network forward pass with a reverse-mode tape.

The forward pass mirrors the iterative block solver exactly: a clamped
adjoint initialization of the scales, an initial Tikhonov update, K rounds
of J learnable scale updates followed by a Tikhonov update, the Hadamard
product, and an optional refinement step on the full signal.  Every block
records what the hand-written backward pass needs, and the backward walks the
same block loop in reverse; gradients through the exact Tikhonov solve use
the implicit relation of the linear system with the forward factorization
reused.
"""

from __future__ import annotations

import numpy as np

from ..gcgls import initial_scale
from ..tikhonov import (
    NagdConfig,
    nagd_momentum,
    tikhonov_adjoint,
    tikhonov_factored,
    tikhonov_nagd,
    tikhonov_solve,
)
# Unused here, but perfbench/tracing.py wraps these names in this module and
# fails without them; drop this line once its TARGETS stop listing them.
from ..tikhonov import _tikhonov_direct_with_factor, _tikhonov_woodbury_with_factor, sla  # noqa: E501,F401
from .conv import body, conv2d_backward, conv2d_forward, interior, padded

__all__ = ["forward", "backward", "Tape"]


# -- convolution stack -------------------------------------------------------

def _stack_forward(kernels, x_vec, side, keep=True):
    """Run the D-layer stack on a vector: padded buffer -> convs -> vec.

    ReLU follows every layer except the last (linear output layer).
    Returns (out_vec, cache) where cache holds each layer's padded input
    buffer and nothing else: the ReLU mask of layer d is the positive part
    of layer d+1's input.  With keep False the cache is None, and each
    buffer is freed once the next layer has read it.
    """
    k = kernels[0].shape[0]
    xp = padded(x_vec.reshape(side, side, 1), k)
    cache = [] if keep else None
    last = len(kernels) - 1
    for d, kern in enumerate(kernels):
        xp, held = conv2d_forward(xp, kern, side, side, relu=d != last)
        if keep:
            cache.append(held)
    return interior(xp, k, side, side).reshape(-1), cache


def _stack_backward(dout_vec, kernels, cache, side):
    """Reverse the stack; returns (dx_vec, [dkern per layer])."""
    k = kernels[0].shape[0]
    d = body(padded(dout_vec.reshape(side, side, 1), k), k, side, side)
    dkerns = [None] * len(kernels)
    for layer in range(len(kernels) - 1, -1, -1):
        dxp, dkerns[layer] = conv2d_backward(d, cache[layer], kernels[layer],
                                             side, side)
        if layer:
            d = body(dxp, k, side, side)
            d *= body(cache[layer], k, side, side) > 0.0
    return interior(dxp, k, side, side).reshape(-1), dkerns


# -- one learnable scale update ----------------------------------------------

def _gmap_forward(z, u, model, y, delta, gamma_max, kernels, variant, side,
                  keep=True):
    """ReLU-composed scale update with a normalized data-fidelity step.

    The effective step is delta * min(1, gamma_max/||grad||); pgd adds the
    stack of the incoming z to the gradient step, ista runs the stack (with
    skip) on the gradient step itself.  keep False records no conv cache.
    """
    t = model.apply(u * z) - y
    t_adj = model.adjoint(t)
    g = u * t_adj
    norm = float(np.linalg.norm(g))
    s = 1.0 if norm <= gamma_max else gamma_max / norm
    eta = delta * s
    r = z - eta * g
    stack_out, cache = _stack_forward(kernels, z if variant == "pgd" else r,
                                      side, keep)
    pre = r + stack_out
    z_out = np.maximum(pre, 0.0)
    return z_out, {
        "z_in": z, "u": u, "t_adj": t_adj, "g": g, "norm": norm, "s": s,
        "delta": delta, "gamma_max": gamma_max, "cache": cache, "pre": pre,
        "variant": variant,
    }


def _gmap_backward(zbar_out, rec, model, kernels):
    """Backward through one scale update.

    Returns (zbar_in, ubar, delta_bar, dkerns).  The u slot of the
    refinement block is a constant; its ubar is simply discarded by the
    caller.
    """
    u, z, g = rec["u"], rec["z_in"], rec["g"]
    qbar = zbar_out * (rec["pre"] > 0.0)
    side = int(np.sqrt(z.size))
    stack_in_bar, dkerns = _stack_backward(qbar, kernels, rec["cache"], side)
    if rec["variant"] == "pgd":
        rbar = qbar
        zbar = stack_in_bar.copy()
    else:
        rbar = qbar + stack_in_bar
        zbar = np.zeros_like(z)

    # r = z - (delta * s(g)) * g
    delta_bar = -rec["s"] * float(rbar @ g)
    if rec["norm"] <= rec["gamma_max"]:
        gbar = -rec["delta"] * rec["s"] * rbar
    else:
        nrm = rec["norm"]
        coef = -rec["delta"] * rec["gamma_max"] / nrm
        gbar = coef * (rbar - g * (float(g @ rbar) / (nrm * nrm)))
    zbar += rbar

    # g = u * A^T (A (u*z) - y)
    h = model.adjoint(model.apply(u * gbar))
    ubar = gbar * rec["t_adj"] + z * h
    zbar += u * h
    return zbar, ubar, delta_bar, dkerns


# -- Tikhonov blocks -----------------------------------------------------------

def _tikh_forward(z, u_prev, model, y, p, cfg, keep=True):
    """Tikhonov block; returns (u, record).  keep False records nothing
    (None) and runs the plain solve: no packed factor, no NAGD trace."""
    if cfg.u_mode == "nagd":
        nagd = NagdConfig(steps=cfg.nagd_steps, eta=cfg.nagd_eta)
        if not keep:
            return tikhonov_nagd(u_prev, z, model, y, p, nagd), None
        u, trace = tikhonov_nagd(u_prev, z, model, y, p, nagd, want_trace=True)
        return u, {"z": z, "u": u, "trace": trace, "eta": cfg.nagd_eta}
    if not keep:
        return tikhonov_solve(z, model, y, p), None
    u, factor = tikhonov_factored(z, model, y, p)
    return u, {"z": z, "u": u, "factor": factor}


def _cov_term(a, b, p, scale, cov):
    """Add scale times the P-derivative of <a, A_z^T y - (A_z^T A_z + P^{-1}) b>,
    b held fixed, to cov."""
    for key, g in p.outer_grad(p.solve(a), p.solve(b), scale).items():
        cov[key] += g


def _z_term(a, b, z, model, ay):
    """z-gradient of the same pairing: a*A^T y - a*A^T A(z*b) - b*A^T A(z*a)."""
    return a * ay - a * model.adjoint(model.apply(z * b)) \
        - b * model.adjoint(model.apply(z * a))


def _tikh_backward(ubar, rec, model, ay, p, cov, first):
    """Backward through a Tikhonov block; ay is A^T y.

    Returns (zbar_contribution, ubar_prev), ubar_prev being the gradient
    w.r.t. the accelerated mode's warm start and None for the exact solve.
    The first block's z and warm start are constants of the input, so there
    both are None and neither is computed.  The block's covariance terms are
    added to cov, the sample's covariance sum.
    """
    z = rec["z"]
    if "factor" in rec:
        w = tikhonov_adjoint(ubar, z, model, p, rec["factor"])
        _cov_term(w, rec["u"], p, 1.0, cov)
        return (None if first else _z_term(w, rec["u"], z, model, ay)), None

    # accelerated mode: reverse through the momentum recursion
    # u_{j+1} = (1+beta_j) r(u_j) - beta_j r(u_{j-1}), r(u_{-1}) = r(u_0);
    # a1 and a2 are the gradients w.r.t. u_{j+1} and u_{j+2}
    trace, eta = rec["trace"], rec["eta"]
    a1, a2 = ubar, None
    zbar = None if first else np.zeros_like(z)
    for j in range(len(trace) - 2, -1, -1):
        beta = nagd_momentum(j)
        rb = (1.0 + beta) * a1
        if a2 is not None:
            rb -= nagd_momentum(j + 1) * a2
        if j == 0:
            rb -= beta * a1
        uj = trace[j]
        if j or not first:
            # through r(u) = u - eta*(A_z^T(A_z u - y) + P^{-1} u) at u_j;
            # the first block's u_0 is the constant zero vector
            a1, a2 = rb - eta * (z * model.adjoint(model.apply(z * rb))
                                 + p.solve(rb)), a1
        _cov_term(rb, uj, p, eta, cov)
        if zbar is not None:
            zbar += eta * _z_term(rb, uj, z, model, ay)
    return zbar, (None if first else a1)


# -- end-to-end forward / backward ---------------------------------------------

class Tape:
    """Recorded intermediates of one forward pass.

    records holds one dict per block in forward order: U_0's Tikhonov
    update, then for each k its J scale updates and its Tikhonov update,
    then the refinement update when cfg.refine is set.  An exact Tikhonov
    record keeps its Cholesky factor packed, r(r+1)/2 floats for r the order
    of the system it solved (tikhonov_factored).  cov is the forward's
    CovarianceParam, which the backward reuses with its factor.
    """

    def __init__(self, model, y, cov):
        self.model = model
        self.y = y
        self.cov = cov
        self.records = []


def forward(y, model, params, want_tape=True):
    """Run the unrolled network; returns (c_hat, tape), the tape None when
    want_tape is False.

    Structure: scale init (clamped normalized adjoint), Tikhonov U_0, then
    K rounds of J learnable scale updates and a Tikhonov update, the
    Hadamard product C = U_K * Z_K, and optionally one refinement update of
    C against a ones vector.
    """
    cfg = params.cfg
    n = model.n
    side = int(np.sqrt(n))
    if side * side != n:
        raise ValueError("network needs image-shaped signals (square n)")
    p = params.cov()
    # without a tape, each block's record and conv buffers die when the next
    # block replaces them
    tape = Tape(model, y, p) if want_tape else None
    record = tape.records.append if want_tape else lambda rec: None

    z = initial_scale(model, y, cfg.b)
    u_prev = np.zeros(n) if cfg.u_mode == "nagd" else None
    u, rec = _tikh_forward(z, u_prev, model, y, p, cfg, want_tape)
    record(rec)
    for k in range(1, cfg.K + 1):
        for j in range(1, cfg.J + 1):
            z, rec = _gmap_forward(z, u, model, y, params.delta(k, j),
                                   cfg.gamma_max, params.kernels(k, j),
                                   cfg.variant, side, want_tape)
            record(rec)
        u, rec = _tikh_forward(z, u, model, y, p, cfg, want_tape)
        record(rec)

    out = u * z
    if cfg.refine:
        out, rec = _gmap_forward(out, np.ones(n), model, y,
                                 params.delta_refine(), cfg.gamma_max,
                                 params.refine_kernels(), cfg.variant, side,
                                 want_tape)
        record(rec)
    return out, tape


def backward(tape, grad_out, params, grads=None):
    """Exact reverse-mode gradients of <grad_out, forward output> w.r.t.
    every learnable parameter, added into grads (a dict matching
    params.values; fresh zeros when None), which is returned.  Each
    parameter array receives exactly one term per call: the covariance,
    shared by every Tikhonov block, sums its block terms in a fixed order
    first.  So a batch sum built by passing one dict through its samples'
    calls is deterministic, and adding a sample's gradient taken from zeros
    gives the same bits as passing the dict."""
    cfg = params.cfg
    model, y, p = tape.model, tape.y, tape.cov
    if grads is None:
        grads = params.zero_grads()
    cov = {key: np.zeros_like(val) for key, val in p.arrays.items()}
    ay = model.adjoint(y)
    recs = reversed(tape.records)

    cbar = np.asarray(grad_out, dtype=np.float64)
    if cfg.refine:
        cbar, _, dbar, dkerns = _gmap_backward(cbar, next(recs), model,
                                               params.refine_kernels())
        grads["delta.refine"] += dbar
        for d, dk in enumerate(dkerns, start=1):
            grads[f"w.refine.{d}"] += dk

    # C = U_K * Z_K: the last Tikhonov record holds both factors
    rec = next(recs)
    ubar, zbar = cbar * rec["z"], cbar * rec["u"]
    for k in range(cfg.K, 0, -1):
        zc, ubar = _tikh_backward(ubar, rec, model, ay, p, cov, first=False)
        zbar = zbar + zc
        for j in range(cfg.J, 0, -1):
            zbar, ub, dbar, dkerns = _gmap_backward(zbar, next(recs), model,
                                                    params.kernels(k, j))
            ubar = ub if ubar is None else ubar + ub
            grads["delta"][k - 1, j - 1] += dbar
            for d, dk in enumerate(dkerns, start=1):
                grads[f"w.{k}.{j}.{d}"] += dk
        rec = next(recs)
    _tikh_backward(ubar, rec, model, ay, p, cov, first=True)
    for key, g in cov.items():
        grads[key] += g
    return grads
