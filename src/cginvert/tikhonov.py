"""Minimizing the joint cost over the Gaussian factor u for fixed scales z.

Three routes: the direct n x n symmetric solve, the Woodbury rewrite that
solves an m x m system instead, and a Nesterov-accelerated gradient descent
approximation for problems where a factorization is unwanted.  With a sparse
Psi, no dictionary and a diagonal P, the Woodbury system
Psi Diag(z^2 d) Psi^T + I is formed from a per-operator map of Psi's Gram
pattern (SensingModel.gram_map): one sparse mat-vec per u-update fills its
lower triangle, and the dense A is never built.  tikhonov_factored alone
picks the exact route, and tikhonov_adjoint solves against its factor for
the network backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .covariance import CovarianceParam
from .errors import DivergenceError
from .sensing import spectral_norm

__all__ = [
    "NagdConfig",
    "CovarianceParam",
    "tikhonov_exact",
    "tikhonov_woodbury",
    "tikhonov_solve",
    "tikhonov_factored",
    "tikhonov_adjoint",
    "r_u_step",
    "tikhonov_nagd",
    "nagd_momentum",
    "u_objective",
    "grad_u",
]


@dataclass
class NagdConfig:
    """Accelerated-gradient settings for the approximate u solve."""

    steps: int = 100
    eta: float | None = None  # None -> 1/L with L estimated per call

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("NagdConfig.steps must be >= 1")


def _a_z(z, model):
    return model.dense_a() * z[None, :]


def u_objective(u, z, model, y, p):
    """0.5*||A_z u - y||^2 + 0.5*u^T P^{-1} u (the u-dependent part of F)."""
    r = model.apply(z * u) - y
    return 0.5 * float(r @ r) + 0.5 * p.quad_inv(u)


def grad_u(u, z, model, y, p):
    """Gradient of the joint cost in u:  A_z^T (A_z u - y) + P^{-1} u."""
    return z * model.adjoint(model.apply(z * u) - y) + p.solve(u)


def tikhonov_exact(z, model, y, p):
    """Direct n x n solve of (A_z^T A_z + P^{-1}) u = A_z^T y."""
    u, _ = _tikhonov_direct_with_factor(z, model, y, p)
    return u


def _tikhonov_direct_with_factor(z, model, y, p):
    az = _a_z(z, model)
    g = az.T @ az
    p.add_inverse_to(g)
    rhs = az.T @ y
    cho = sla.cho_factor(g, lower=True)
    return sla.cho_solve(cho, rhs), cho


def tikhonov_woodbury(z, model, y, p):
    """Woodbury form  u = P A_z^T (I + A_z P A_z^T)^{-1} y  (m x m solve)."""
    u, _ = _tikhonov_woodbury_with_factor(z, model, y, p)
    return u


def _tikhonov_woodbury_with_factor(z, model, y, p):
    d = p.diag_values()
    sparse = d is not None and model.phi is None and sp.issparse(model.psi)
    if sparse:
        # A_z P A_z^T = Psi Diag(z^2 d) Psi^T and P A_z^T = Diag(d z) Psi^T.
        # Only the lower triangle is filled: cho_factor(lower=True) and the
        # cho_solve calls against its factor (tikhonov_adjoint's too) read
        # no other entry, so half the products are skipped.
        flat, gram = model.gram_map()
        s = np.zeros(model.m * model.m)
        s[flat] = gram @ (z * z * d)
        s = s.reshape(model.m, model.m)
    else:
        az = _a_z(z, model)
        azp = az * d[None, :] if d is not None else az @ p.materialize()
        s = azp @ az.T
    s[np.diag_indices(model.m)] += 1.0
    cho = sla.cho_factor(s, lower=True)
    v = sla.cho_solve(cho, y)
    u = d * z * model.adjoint(v) if sparse else azp.T @ v
    return u, cho


def tikhonov_solve(z, model, y, p):
    """Routed exact solve (see tikhonov_factored)."""
    return tikhonov_factored(z, model, y, p)[0]


def tikhonov_factored(z, model, y, p):
    """Routed exact solve, Woodbury when m < n and direct otherwise; returns
    (u, factor) with the factor that tikhonov_adjoint solves against."""
    if model.m < model.n:
        u, cho = _tikhonov_woodbury_with_factor(z, model, y, p)
        return u, ("woodbury", cho)
    u, cho = _tikhonov_direct_with_factor(z, model, y, p)
    return u, ("direct", cho)


def tikhonov_adjoint(b, z, model, p, factor):
    """(A_z^T A_z + P^{-1})^{-1} b against a factor from tikhonov_factored;
    the Woodbury route reads P b - P A_z^T (I + A_z P A_z^T)^{-1} A_z P b."""
    route, cho = factor
    if route == "direct":
        return sla.cho_solve(cho, b)
    pb = p.apply(b)
    return pb - p.apply(z * model.adjoint(
        sla.cho_solve(cho, model.apply(z * pb))))


def r_u_step(u, z, model, y, p, eta):
    """One plain gradient step  u - eta * grad_u(u, z)."""
    return u - eta * grad_u(u, z, model, y, p)


def nagd_momentum(j):
    """Momentum weight used for the step that produces iterate j+1."""
    return 1.0 - 3.0 / (6.0 + j)


def estimate_u_lipschitz(z, model, p):
    """Power-iteration estimate of ||A_z^T A_z + P^{-1}||_2."""
    op = lambda v: z * model.adjoint(model.apply(z * v)) + p.solve(v)
    return spectral_norm(op, lambda w: w, model.n) ** 2


def tikhonov_nagd(u0, z, model, y, p, cfg, want_trace=False):
    """Approximate the Tikhonov solution by Nesterov-accelerated descent.

    u^(j+1) = r_u(u^(j)) + beta_j (r_u(u^(j)) - r_u(u^(j-1))) with
    beta_j = 1 - 3/(6+j) and u^(0) = u^(-1) = u0.  Raises DivergenceError
    once the u-objective grows for 10 consecutive steps while sitting above
    its starting value; momentum ripples below the start level are benign.
    """
    eta = cfg.eta
    if eta is None:
        lip = estimate_u_lipschitz(z, model, p)
        eta = 1.0 / lip if lip > 0 else 1.0
    u_prev = np.array(u0, dtype=np.float64, copy=True)
    r_prev = r_u_step(u_prev, z, model, y, p, eta)
    trace = [u_prev.copy()] if want_trace else None
    u = u_prev
    f_start = u_objective(u, z, model, y, p)
    f_last = f_start
    grow = 0
    for j in range(cfg.steps):
        r_cur = r_u_step(u, z, model, y, p, eta) if j > 0 else r_prev
        beta = nagd_momentum(j)
        u_next = r_cur + beta * (r_cur - r_prev)
        r_prev = r_cur
        u = u_next
        if want_trace:
            trace.append(u.copy())
        f_now = u_objective(u, z, model, y, p)
        grow = grow + 1 if (f_now > f_last and f_now > f_start) else 0
        if grow >= 10:
            raise DivergenceError(
                f"u-objective grew for 10 consecutive accelerated steps (eta={eta:g})"
            )
        f_last = f_now
    if want_trace:
        return u, trace, eta
    return u
