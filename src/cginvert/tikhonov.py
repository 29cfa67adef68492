"""Minimizing the joint cost over the Gaussian factor u for fixed scales z.

Three routes: the direct n x n symmetric solve, the Woodbury rewrite that
solves an m x m system instead, and a Nesterov-accelerated gradient descent
approximation for problems where a factorization is unwanted.  With a sparse
Psi, no dictionary and a diagonal P, the Woodbury system
Psi Diag(z^2 d) Psi^T + I is formed from a per-operator map of Psi's Gram
pattern (SensingModel.gram_map): one sparse mat-vec per u-update writes its
lower triangle in column-major order, where LAPACK factors it in place, and
the dense A is never built.  The O(m^3) Cholesky is then the only m^2-sized
work left per update: no second m x m copy is made, and the finite checks
read the diagonal and the right-hand sides only.  tikhonov_factored alone
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
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError(f"NagdConfig.eta must be finite and > 0, got {self.eta!r}")


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


def _factor(s, psd_plus_identity=False):
    """Cholesky factor of the SPD matrix s, computed in place.

    s must be Fortran-ordered: LAPACK reads its lower triangle where it lies
    and writes the factor over it, with no copy.  A non-finite s raises
    LinAlgError, the error a non-positive pivot raises.  For s = I + Psi W
    Psi^T with W >= 0 the diagonal suffices: |s_ij| <= sqrt(s_ii s_jj), and
    a non-finite w_k reaches every s_ii with Psi[i, k] != 0.
    """
    if not np.isfinite(np.diagonal(s) if psd_plus_identity else s).all():
        raise np.linalg.LinAlgError("u-update system has non-finite entries")
    return sla.cho_factor(s, lower=True, overwrite_a=True, check_finite=False)


def _backsolve(cho, b):
    """Solve against a factor from _factor; a non-finite b raises LinAlgError."""
    if not np.isfinite(b).all():
        raise np.linalg.LinAlgError("u-update right-hand side has non-finite entries")
    return sla.cho_solve(cho, b, check_finite=False)


def _tikhonov_direct_with_factor(z, model, y, p):
    az = _a_z(z, model)
    g = az.T @ az
    p.add_inverse_to(g)
    rhs = az.T @ y
    cho = _factor(np.asfortranarray(g))
    return _backsolve(cho, rhs), cho


def tikhonov_woodbury(z, model, y, p):
    """Woodbury form  u = P A_z^T (I + A_z P A_z^T)^{-1} y  (m x m solve)."""
    u, _ = _tikhonov_woodbury_with_factor(z, model, y, p)
    return u


def _tikhonov_woodbury_with_factor(z, model, y, p):
    d = p.diag_values()
    sparse = d is not None and model.phi is None and sp.issparse(model.psi)
    m = model.m
    if sparse:
        # A_z P A_z^T = Psi Diag(z^2 d) Psi^T and P A_z^T = Diag(d z) Psi^T.
        # Only the lower triangle is filled, at its column-major positions,
        # so the transposed view is the Fortran array LAPACK factors in
        # place; the factor and every solve against it read no other entry.
        flat, gram = model.gram_map()
        s = np.zeros(m * m)
        s[flat] = gram @ (z * z * d)
        s = s.reshape(m, m).T
    else:
        az = _a_z(z, model)
        azp = az * d[None, :] if d is not None else az @ p.materialize()
        s = np.asfortranarray(azp @ az.T)
    s[np.diag_indices(m)] += 1.0
    cho = _factor(s, psd_plus_identity=sparse)
    v = _backsolve(cho, y)
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
        return _backsolve(cho, b)
    pb = p.apply(b)
    return pb - p.apply(z * model.adjoint(
        _backsolve(cho, model.apply(z * pb))))


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
