"""One descent step in the scale variable z for fixed u.

Two maps: projected gradient descent on the smooth objective
f(z) = 0.5*||A_u z - y||^2 + R(z), and the proximal (shrinkage) map that
takes a gradient step on the data term only and then applies prox of R.
Both support a fixed step size or a backtracking halving linesearch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import LinesearchFailure
from .regularizer import data_misfit
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
    mode "backtrack" halves from eta_init, at most max_halvings times, until
    the sufficient-decrease test with constant alpha holds.
    """

    mode: str = "backtrack"
    eta: float | None = None
    alpha: float = 0.3
    eta_init: ClassVar[float] = 1.0
    shrink: ClassVar[float] = 0.5
    max_halvings: ClassVar[int] = 50

    def __post_init__(self):
        if self.mode not in ("fixed", "backtrack"):
            raise ValueError(f"unknown linesearch mode {self.mode!r}")
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError(f"linesearch eta must be finite and > 0, got {self.eta!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")


class StationarityResidual(NamedTuple):
    absolute: float
    relative: float


def estimate_au_norm_sq(u, model):
    """||A_u||_2^2 via power iteration on A_u^T A_u."""
    nrm = spectral_norm(
        lambda x: model.apply(u * x),
        lambda w: u * model.adjoint(w),
        model.n,
        tol=1e-10,
    )
    return nrm * nrm


def _fixed_eta(u, model, ls, curvature):
    """ls.eta, else 0.95/L with L = ||A_u||^2 + curvature(), R's share of L
    (nonzero only for the PGD step, whose gradient includes R).

    ||A_u||^2 is a power-iteration estimate, which can undershoot the true
    value, and the 0.95 factor is the only margin over it.  A step that
    raises the cost anyway is caught by the solver's monotonicity guard
    (exit 4).  On the paper operator (Radon 32x32/15) every such z-step
    descends.
    """
    if ls.eta is not None:
        return ls.eta
    lip = estimate_au_norm_sq(u, model) + curvature()
    return 0.95 / max(lip, 1e-30)


def pgd_step(z, u, model, y, r, ls, res=None):
    """Projected gradient step on f(z) = data term + R(z).

    Returns (z_new, eta_used).  Backtracking accepts the largest halved
    eta <= eta_init with f(z') <= f(z) - alpha * <grad f(z), z - z'>.
    res, when given, is the residual A(u*z) - y at z, which is then not
    formed again.
    """
    if res is None:
        res = model.apply(u * z) - y
    grad = u * model.adjoint(res) + r.grad(z)
    if ls.mode == "fixed":
        eta = _fixed_eta(u, model, ls, lambda: r.curvature_bound(z))
        return r.project(z - eta * grad), eta

    f0 = 0.5 * float(res @ res) + r.value(z)
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


def ista_step(z, u, model, y, r, ls, res=None):
    """Proximal gradient step: prox of eta*R after a data-term gradient step.

    Returns (z_new, eta_used).  Backtracking accepts eta once
    f(z') <= f(z) + <grad f(z), z' - z> + ||z' - z||^2 / (2 eta)
    holds for the smooth data term f alone.  res is as in pgd_step.
    """
    if res is None:
        res = model.apply(u * z) - y
    grad = u * model.adjoint(res)
    if ls.mode == "fixed":
        eta = _fixed_eta(u, model, ls, lambda: 0.0)
        return r.prox(z - eta * grad, eta), eta

    f0 = 0.5 * float(res @ res)
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


def stationarity_residual(z, u, model, y, r, eta_probe, step):
    """Fixed-point residual ||z - step(z)||_inf of the map step (pgd_step or
    ista_step).

    Zero exactly at stationary points; reported both absolutely and
    relative to ||z||_inf.  The probe is one fixed step of size eta_probe,
    so a non-positive eta_probe raises ValueError.
    """
    cand, _ = step(z, u, model, y, r,
                   LinesearchConfig(mode="fixed", eta=eta_probe))
    absolute = float(np.max(np.abs(z - cand))) if z.size else 0.0
    scale = float(np.max(np.abs(z))) if z.size else 0.0
    return StationarityResidual(absolute, absolute / max(scale, 1e-300))
