"""One descent step in the scale variable z for fixed u.

Two maps: projected gradient descent on the smooth objective
f(z) = 0.5*||A_u z - y||^2 + R(z), and the proximal (shrinkage) map that
takes a gradient step on the data term only and then applies prox of R.
Both support a fixed step size or a backtracking halving linesearch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LinesearchFailure
from .regularizer import data_misfit, grad_z_datafit
from .sensing import spectral_norm

__all__ = [
    "LinesearchConfig",
    "StationarityResidual",
    "pgd_step",
    "ista_step",
    "stationarity_residual",
    "estimate_au_norm_sq",
]

# absolute slack when accepting a backtracking candidate, to absorb
# floating-point cancellation in nearly-converged objective differences
_ACCEPT_SLACK = 1e-12


@dataclass
class LinesearchConfig:
    """Step-size policy for the z updates.

    mode "fixed" uses eta (or an automatic 1/L estimate when eta is None);
    mode "backtrack" halves from eta_init until the sufficient-decrease
    test with constant alpha holds.
    """

    mode: str = "backtrack"
    eta: float | None = None
    alpha: float = 0.3
    shrink: float = 0.5
    eta_init: float = 1.0
    max_halvings: int = 50

    def __post_init__(self):
        if self.mode not in ("fixed", "backtrack"):
            raise ValueError(f"unknown linesearch mode {self.mode!r}")
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError(f"linesearch eta must be finite and > 0, got {self.eta!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.eta_init <= 1.0:
            raise ValueError("eta_init must lie in (0, 1]")


class StationarityResidual(NamedTuple):
    absolute: float
    relative: float


def estimate_au_norm_sq(u, model, iters=100, tol=1e-10, seed=0):
    """||A_u||_2^2 via power iteration on A_u^T A_u."""
    nrm = spectral_norm(
        lambda x: model.apply(u * x),
        lambda w: u * model.adjoint(w),
        model.n,
        iters=iters,
        tol=tol,
        seed=seed,
    )
    return nrm * nrm


def _fixed_eta(u, model, ls, curvature):
    """ls.eta, else 0.95/L with L = ||A_u||^2 + curvature(), R's share of L
    (nonzero only for the PGD step, whose gradient includes R)."""
    if ls.eta is not None:
        return ls.eta
    lip = estimate_au_norm_sq(u, model) + curvature()
    return 0.95 / max(lip, 1e-30)


def pgd_step(z, u, model, y, r, ls):
    """Projected gradient step on f(z) = data term + R(z).

    Returns (z_new, eta_used).  Backtracking accepts the largest halved
    eta <= eta_init with f(z') <= f(z) - alpha * <grad f(z), z - z'>.
    """
    grad = grad_z_datafit(z, u, model, y) + r.grad(z)
    if ls.mode == "fixed":
        eta = _fixed_eta(u, model, ls, lambda: r.curvature_bound(z))
        return r.project(z - eta * grad), eta

    f0 = data_misfit(z, u, model, y) + r.value(z)
    eta = ls.eta_init
    for _ in range(ls.max_halvings + 1):
        cand = r.project(z - eta * grad)
        f1 = data_misfit(cand, u, model, y) + r.value(cand)
        if f1 <= f0 - ls.alpha * float(grad @ (z - cand)) + _ACCEPT_SLACK:
            return cand, eta
        eta *= ls.shrink
    raise LinesearchFailure(
        f"projected-gradient backtracking failed after {ls.max_halvings} halvings"
    )


def ista_step(z, u, model, y, r, ls):
    """Proximal gradient step: prox of eta*R after a data-term gradient step.

    Returns (z_new, eta_used).  Backtracking accepts eta once
    f(z') <= f(z) + <grad f(z), z' - z> + ||z' - z||^2 / (2 eta)
    holds for the smooth data term f alone.
    """
    grad = grad_z_datafit(z, u, model, y)
    if ls.mode == "fixed":
        eta = _fixed_eta(u, model, ls, lambda: 0.0)
        return r.prox(z - eta * grad, eta), eta

    f0 = data_misfit(z, u, model, y)
    eta = ls.eta_init
    for _ in range(ls.max_halvings + 1):
        cand = r.prox(z - eta * grad, eta)
        d = cand - z
        f1 = data_misfit(cand, u, model, y)
        if f1 <= f0 + float(grad @ d) + float(d @ d) / (2.0 * eta) + _ACCEPT_SLACK:
            return cand, eta
        eta *= ls.shrink
    raise LinesearchFailure(
        f"proximal-gradient backtracking failed after {ls.max_halvings} halvings"
    )


def stationarity_residual(z, u, model, y, r, eta_probe, method="pgd"):
    """Fixed-point residual ||z - step(z)||_inf of the configured map.

    Zero exactly at stationary points; reported both absolutely and
    relative to ||z||_inf.
    """
    if eta_probe <= 0:
        raise ValueError("eta_probe must be positive")
    if method == "pgd":
        cand = r.project(z - eta_probe * (grad_z_datafit(z, u, model, y) + r.grad(z)))
    elif method == "ista":
        cand = r.prox(z - eta_probe * grad_z_datafit(z, u, model, y), eta_probe)
    else:
        raise ValueError(f"unknown method {method!r}")
    absolute = float(np.max(np.abs(z - cand))) if z.size else 0.0
    scale = float(np.max(np.abs(z))) if z.size else 0.0
    return StationarityResidual(absolute, absolute / max(scale, 1e-300))
