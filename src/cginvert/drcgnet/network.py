"""Unrolled network forward pass with a reverse-mode tape.

The forward pass mirrors the iterative block solver exactly: a clamped
adjoint initialization of the scales, an initial Tikhonov update, K rounds
of J learnable scale updates followed by a Tikhonov update, the Hadamard
product, and an optional refinement step on the full signal.  Every block
records what the hand-written backward pass needs; gradients through the
exact Tikhonov solve use the implicit relation of the linear system with
the forward factorization reused.
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
)
# Unused here, but perfbench/tracing.py wraps these names in this module and
# fails without them; drop this line once its TARGETS stop listing them.
from ..tikhonov import _tikhonov_direct_with_factor, _tikhonov_woodbury_with_factor, sla  # noqa: E501,F401
from .conv import conv2d_backward, conv2d_forward

__all__ = ["subnet_forward", "intermediate_map", "forward", "backward", "Tape"]


# -- convolution stack -------------------------------------------------------

def _stack_forward(kernels, x_vec, side):
    """Run the D-layer stack on a vector: mat -> convs -> vec.

    ReLU follows every layer except the last (linear output layer).
    Returns (out_vec, cache) with per-layer (input, cols, preact).
    """
    a = x_vec.reshape(1, side, side)
    cache = []
    last = len(kernels) - 1
    for d, kern in enumerate(kernels):
        out, cols = conv2d_forward(a, kern)
        cache.append((a, cols, out))
        a = out if d == last else np.maximum(out, 0.0)
    return a.reshape(-1), cache


def _stack_backward(dout_vec, kernels, cache, side):
    """Reverse the stack; returns (dx_vec, [dkern per layer])."""
    da = dout_vec.reshape(1, side, side)
    dkerns = [None] * len(kernels)
    last = len(kernels) - 1
    for d in range(last, -1, -1):
        a_in, cols, pre = cache[d]
        if d != last:
            da = da * (pre > 0.0)
        da, dkerns[d] = conv2d_backward(da, cols, kernels[d], a_in.shape)
    return da.reshape(-1), dkerns


def subnet_forward(kernels, x_vec, side, variant):
    """The learnable correction network applied to a length-n vector.

    The "pgd" variant returns the conv-stack output; the "ista" variant adds
    a skip connection x + stack(x).
    """
    out, _ = _stack_forward(kernels, np.asarray(x_vec, dtype=np.float64), side)
    return x_vec + out if variant == "ista" else out


# -- one learnable scale update ----------------------------------------------

def _gmap_forward(z, u, model, y, delta, gamma_max, kernels, variant, side):
    """ReLU-composed scale update with a normalized data-fidelity step.

    The effective step is delta * min(1, gamma_max/||grad||); pgd adds the
    stack of the incoming z to the gradient step, ista runs the stack (with
    skip) on the gradient step itself.
    """
    t = model.apply(u * z) - y
    t_adj = model.adjoint(t)
    g = u * t_adj
    norm = float(np.linalg.norm(g))
    s = 1.0 if norm <= gamma_max else gamma_max / norm
    eta = delta * s
    r = z - eta * g
    stack_out, cache = _stack_forward(kernels, z if variant == "pgd" else r, side)
    pre = r + stack_out
    z_out = np.maximum(pre, 0.0)
    return z_out, {
        "z_in": z, "u": u, "t_adj": t_adj, "g": g, "norm": norm, "s": s,
        "eta": eta, "delta": delta, "gamma_max": gamma_max, "r": r,
        "cache": cache, "pre": pre, "variant": variant,
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


def intermediate_map(z, u, model, y, delta, gamma_max, kernels, variant):
    """Public single scale update (forward values only)."""
    side = int(np.sqrt(z.size))
    z_out, _ = _gmap_forward(z, u, model, y, delta, gamma_max, kernels,
                             variant, side)
    return z_out


# -- Tikhonov blocks -----------------------------------------------------------

def _tikh_forward(z, u_prev, model, y, p, cfg):
    if cfg.u_mode == "nagd":
        u, trace, eta = tikhonov_nagd(
            u_prev, z, model, y, p,
            NagdConfig(steps=cfg.nagd_steps, eta=cfg.nagd_eta), want_trace=True)
        return u, {"mode": "nagd", "z": z, "u": u, "trace": trace, "eta": eta}
    u, factor = tikhonov_factored(z, model, y, p)
    return u, {"mode": "exact", "z": z, "u": u, "factor": factor}


def _z_term(a, b, z, model, ay, p, scale, pbar_sink):
    """z-gradient of <a, A_z^T y - (A_z^T A_z + P^{-1}) b> with b held fixed:
    a*A^T y - a*A^T A(z*b) - b*A^T A(z*a).  The matching covariance term,
    scale times the P-derivative of the same pairing, goes into pbar_sink."""
    pbar_sink.append((p.solve(a), p.solve(b), scale))
    return a * ay - a * model.adjoint(model.apply(z * b)) \
        - b * model.adjoint(model.apply(z * a))


def _tikh_backward(ubar, rec, model, y, p, pbar_sink):
    """Backward through a Tikhonov block.

    Returns (zbar_contribution, ubar_prev) where ubar_prev is nonzero only
    for the accelerated mode (gradient w.r.t. the warm start).
    Covariance gradients are accumulated into pbar_sink via the chain rule
    on outer-product terms.
    """
    z = rec["z"]
    ay = model.adjoint(y)

    if rec["mode"] == "exact":
        w = tikhonov_adjoint(ubar, z, model, p, rec["factor"])
        zbar = _z_term(w, rec["u"], z, model, ay, p, 1.0, pbar_sink)
        return zbar, np.zeros_like(ubar)

    # accelerated mode: reverse through the momentum recursion
    # u_{j+1} = (1+beta_j) r(u_j) - beta_j r(u_{j-1}), r(u_{-1}) = r(u_0)
    trace, eta = rec["trace"], rec["eta"]
    steps = len(trace) - 1
    rbars = [np.zeros_like(ubar) for _ in range(steps)]
    ubars = [np.zeros_like(ubar) for _ in range(steps + 1)]
    ubars[steps] = ubar.copy()
    zbar = np.zeros_like(z)
    for j in range(steps - 1, -1, -1):
        beta = nagd_momentum(j)
        ub = ubars[j + 1]
        rbars[j] += (1.0 + beta) * ub
        rbars[j - 1 if j >= 1 else 0] += -beta * ub
        # rbars[j] is final here: its other contribution arrived from j+1
        rb = rbars[j]
        if not rb.any():
            continue
        uj = trace[j]
        # through r(u) = u - eta*(A_z^T(A_z u - y) + P^{-1} u) at u_j
        ubars[j] += rb - eta * (z * model.adjoint(model.apply(z * rb)) + p.solve(rb))
        zbar += eta * _z_term(rb, uj, z, model, ay, p, eta, pbar_sink)
    return zbar, ubars[0]


# -- end-to-end forward / backward ---------------------------------------------

class Tape:
    """Recorded intermediates of one forward pass."""

    def __init__(self, model, y, cfg, n):
        self.model = model
        self.y = y
        self.cfg = cfg
        self.n = n
        self.records = []
        self.output = None

    def count(self, kind):
        return sum(1 for r in self.records if r[0] == kind)


def forward(y, model, params, want_tape=True):
    """Run the unrolled network; returns (c_hat, tape).

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
    tape = Tape(model, y, cfg, n)

    z = initial_scale(model, y, cfg.b)
    tape.records.append(("init", {"z0": z}))
    u_prev = np.zeros(n) if cfg.u_mode == "nagd" else None
    u, rec = _tikh_forward(z, u_prev, model, y, p, cfg)
    rec["k"] = 0
    tape.records.append(("tikhonov", rec))

    for k in range(1, cfg.K + 1):
        for j in range(1, cfg.J + 1):
            z, grec = _gmap_forward(z, u, model, y, params.delta(k, j),
                                    cfg.gamma_max, params.kernels(k, j),
                                    cfg.variant, side)
            grec.update(k=k, j=j, refine=False)
            tape.records.append(("gmap", grec))
        u, rec = _tikh_forward(z, u, model, y, p, cfg)
        rec["k"] = k
        tape.records.append(("tikhonov", rec))

    c = u * z
    tape.records.append(("hadamard", {"u": u, "z": z}))
    out = c
    if cfg.refine:
        ones = np.ones(n)
        out, grec = _gmap_forward(c, ones, model, y, params.delta_refine(),
                                  cfg.gamma_max, params.refine_kernels(),
                                  cfg.variant, side)
        grec.update(k=cfg.K + 1, j=1, refine=True)
        tape.records.append(("gmap", grec))
    tape.output = out
    return (out, tape) if want_tape else (out, None)


def backward(tape, grad_out, params):
    """Exact reverse-mode gradients of <grad_out, forward output> w.r.t.
    every learnable parameter.  Returns a dict matching params.values."""
    cfg = params.cfg
    model, y = tape.model, tape.y
    p = params.cov()
    grads = params.zero_grads()
    pbar_terms = []

    recs = tape.records
    i = len(recs) - 1
    cbar = np.asarray(grad_out, dtype=np.float64)

    # optional refinement block
    if recs[i][0] == "gmap" and recs[i][1]["refine"]:
        rec = recs[i][1]
        kerns = params.refine_kernels()
        cbar, _ubar_unused, dbar, dkerns = _gmap_backward(cbar, rec, model, kerns)
        grads["delta.refine"] += dbar
        for d, dk in enumerate(dkerns, start=1):
            grads[f"w.refine.{d}"] += dk
        i -= 1

    kind, rec = recs[i]
    if kind != "hadamard":
        raise ValueError("tape does not match the expected block layout")
    ubar = cbar * rec["z"]
    zbar = cbar * rec["u"]
    i -= 1

    while i >= 0:
        kind, rec = recs[i]
        if kind == "tikhonov":
            zc, ubar_prev = _tikh_backward(ubar, rec, model, y, p, pbar_terms)
            ubar = ubar_prev
            if rec["k"] == 0:
                # z0 is a constant of the input; its gradient stops here
                i -= 1
                continue
            zbar = zbar + zc
        elif kind == "gmap":
            kerns = params.kernels(rec["k"], rec["j"])
            zbar, ub, dbar, dkerns = _gmap_backward(zbar, rec, model, kerns)
            ubar = ubar + ub
            grads["delta"][rec["k"] - 1, rec["j"] - 1] += dbar
            for d, dk in enumerate(dkerns, start=1):
                grads[f"w.{rec['k']}.{rec['j']}.{d}"] += dk
        elif kind == "init":
            pass
        i -= 1

    # chain the accumulated outer-product covariance terms
    for x, v, scale in pbar_terms:
        for key, g in _chain_cov_outer(p, x, v, scale).items():
            grads[key] += g
    return grads


def _chain_cov_outer(p, x, v, scale):
    """Gradients of scale * x^T dP v onto the covariance parameter arrays."""
    if p.kind == "scaled_identity":
        g = scale * float(x @ v) if p.lam > p.eps else 0.0
        return {"cov.lam": np.array([g])}
    if p.kind == "diagonal":
        g = scale * x * v
        g[p.diag <= p.eps] = 0.0
        return {"cov.diag": g}
    L = p._l_matrix()
    lbar = scale * (np.outer(x, L.T @ v) + np.outer(v, L.T @ x))
    n = p.n
    if p.kind == "tridiagonal":
        return {
            "cov.d1": np.diagonal(lbar).copy(),
            "cov.d2": lbar[np.arange(1, n), np.arange(n - 1)].copy(),
        }
    return {"cov.L": lbar[np.tril_indices(n)].copy()}
