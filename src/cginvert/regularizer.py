"""Scale-variable regularizers, the joint cost function, and the MAP check.

The joint objective over the Gaussian factor u and positive scale factor z is

    F(u, z) = 0.5*||y - A(z*u)||^2 + 0.5*u^T P^{-1} u + R(z)

with R the scale regularizer.  Built-in R: Zero (ablation) and LogSquared,
R(z) = mu * sum_i log(z_i)^2 on (0, inf)^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "ScaleRegularizer",
    "CGState",
    "TraceRecord",
    "cost",
    "data_misfit",
    "grad_z_datafit",
    "map_equivalence_check",
    "MapEquivalenceReport",
]

DEFAULT_FLOOR = 1e-8


class ScaleRegularizer:
    """R(z): value, gradient, proximal map, and its domain handling.

    kind "logsq" lives on the open orthant and uses floor eps_z for
    projections onto its closure; kind "zero" lives on [0, inf)^n; kind
    "external" wraps user-supplied callables.
    """

    def __init__(self, kind, mu=1.0, floor=DEFAULT_FLOOR,
                 value_fn=None, grad_fn=None, prox_fn=None):
        if kind not in ("logsq", "zero", "external"):
            raise ValueError(f"unknown regularizer kind {kind!r}")
        if kind == "logsq" and mu <= 0:
            raise ValueError("logsq needs mu > 0")
        self.kind = kind
        self.mu = float(mu)
        self.floor = float(floor)
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._prox_fn = prox_fn

    @classmethod
    def log_squared(cls, mu=1.0, floor=DEFAULT_FLOOR):
        return cls("logsq", mu=mu, floor=floor)

    @classmethod
    def zero(cls):
        return cls("zero", mu=0.0, floor=0.0)

    @classmethod
    def external(cls, value_fn, grad_fn=None, prox_fn=None, floor=DEFAULT_FLOOR):
        return cls("external", floor=floor, value_fn=value_fn,
                   grad_fn=grad_fn, prox_fn=prox_fn)

    @property
    def open_domain(self):
        return self.kind == "logsq"

    def check_domain(self, z):
        if self.open_domain and np.any(z <= 0.0):
            raise DomainError("z has non-positive entries outside (0, inf)^n")
        if self.kind == "zero" and np.any(z < 0.0):
            raise DomainError("z has negative entries outside [0, inf)^n")

    def value(self, z):
        if self.kind == "zero":
            return 0.0
        if self.kind == "external":
            return float(self._value_fn(z))
        self.check_domain(z)
        lg = np.log(z)
        return self.mu * float(lg @ lg)

    def grad(self, z):
        if self.kind == "zero":
            return np.zeros_like(z)
        if self.kind == "external":
            return np.asarray(self._grad_fn(z), dtype=np.float64)
        self.check_domain(z)
        return 2.0 * self.mu * np.log(z) / z

    def project(self, z):
        """Projection onto the (closure of the) domain."""
        return np.maximum(z, self.floor)

    def prox(self, v, eta):
        """prox_{eta R}(v), coordinate-wise."""
        if eta <= 0.0:
            raise ValueError("prox needs eta > 0")
        if self.kind == "zero":
            return np.maximum(v, 0.0)
        if self.kind == "external":
            return np.asarray(self._prox_fn(v, eta), dtype=np.float64)
        return _prox_log_squared(np.asarray(v, dtype=np.float64), eta * self.mu)

    def curvature_bound(self, z, span=3.0, samples=9):
        """Max |R''| sampled over per-coordinate ranges around the current z.

        Used as the regularizer part of a local Lipschitz estimate; samples
        multiplicative factors in [1/span, span] around each coordinate.
        """
        if self.kind != "logsq":
            return 0.0
        z = np.maximum(np.asarray(z, dtype=np.float64), self.floor)
        factors = np.geomspace(1.0 / span, span, samples)
        t = np.maximum(z[None, :] * factors[:, None], self.floor)
        curv = 2.0 * self.mu * np.abs(1.0 - np.log(t)) / (t * t)
        return float(curv.max())


def _prox_log_squared(v, a, tol=1e-13):
    """argmin_{t > 0} 0.5*(t - v)^2 + a*log(t)^2 per coordinate (a > 0).

    Global grid scan (the objective can be bimodal) followed by safeguarded
    Newton on the stationarity residual with a bisection fallback.
    """
    v = np.atleast_1d(v)
    hi = np.maximum(v, 1.0) + 1.0          # minimizer satisfies t <= max(v, 1)
    lo = np.full_like(hi, 1e-10)
    npts = 240
    # per-coordinate log grid from lo to hi
    grid = lo[:, None] * (hi / lo)[:, None] ** (np.arange(npts) / (npts - 1.0))
    lg = np.log(grid)
    obj = 0.5 * (grid - v[:, None]) ** 2 + a * lg * lg
    best = np.argmin(obj, axis=1)
    t = grid[np.arange(v.size), best]
    t_lo = grid[np.arange(v.size), np.maximum(best - 1, 0)]
    t_hi = grid[np.arange(v.size), np.minimum(best + 1, npts - 1)]

    def resid(t_):
        return (t_ - v) + 2.0 * a * np.log(t_) / t_

    def dresid(t_):
        return 1.0 + 2.0 * a * (1.0 - np.log(t_)) / (t_ * t_)

    for _ in range(100):
        r = resid(t)
        if np.all(np.abs(r) < tol):
            break
        # contract the bisection bracket around the root
        neg = r < 0.0
        t_lo = np.where(neg, t, t_lo)
        t_hi = np.where(neg, t_hi, t)
        step = r / dresid(t)
        cand = t - step
        bad = (cand <= t_lo) | (cand >= t_hi) | ~np.isfinite(cand)
        t = np.where(bad, 0.5 * (t_lo + t_hi), cand)
    return t


@dataclass
class TraceRecord:
    """One per-block record of the solver trace."""

    index: int
    block: str           # "init" | "z" | "u"
    k: int
    j: int
    f_value: float
    step_norm: float
    eta: float
    decrease: float      # F before the block minus F after
    margin_c: float      # sufficient-decrease constant claimed for this step


@dataclass
class CGState:
    """The iterate pair (u, z) plus the per-iteration trace."""

    u: np.ndarray
    z: np.ndarray
    trace: list = field(default_factory=list)


def data_misfit(z, u, model, y):
    """0.5 * ||A(z*u) - y||^2."""
    r = model.apply(z * u) - y
    return 0.5 * float(r @ r)


def cost(u, z, model, y, p, r):
    """Joint objective F(u, z); raises DomainError outside the domain of R."""
    r.check_domain(z)
    return data_misfit(z, u, model, y) + 0.5 * p.quad_inv(u) + r.value(z)


def grad_z_datafit(z, u, model, y):
    """Gradient of the data term in z:  A_u^T (A_u z - y), A_u = A Diag(u)."""
    return u * model.adjoint(model.apply(u * z) - y)


@dataclass
class MapEquivalenceReport:
    f_argmin: tuple
    posterior_argmax: tuple
    agree: bool
    boundary_warning: bool
    f_values: np.ndarray
    log_posterior: np.ndarray


def map_equivalence_check(model, y, p, r, u_grid, z_grid, sigma=1.0):
    """Compare the grid argmin of F with the grid argmax of the posterior.

    The posterior is built from actual densities: the noise likelihood
    N(y; A(z*u), sigma^2 I), a Gaussian prior on u with covariance
    sigma^2 * P, and a scale prior depending on R.  For the log-squared R
    with weight mu the matched scale prior is coordinate-wise log-normal
    with log-mean and log-variance both sigma^2/(2 mu); for the zero R the
    scale prior is flat.  Agreement of the two grid optima verifies that
    minimizing F is a MAP estimate under these priors.

    Only intended for tiny instances (n <= 3); the grid is the tensor power
    of u_grid and z_grid over coordinates.
    """
    n = model.n
    if n > 3:
        raise ValueError("map_equivalence_check is for n <= 3")
    u_grid = np.asarray(u_grid, dtype=np.float64)
    z_grid = np.asarray(z_grid, dtype=np.float64)
    shape = (len(u_grid),) * n + (len(z_grid),) * n
    f_vals = np.empty(shape)
    log_post = np.empty(shape)
    sig2 = sigma * sigma

    def log_scale_prior(z):
        if r.kind == "logsq":
            # coordinate-wise log-normal, log-mean = log-var = sigma^2/(2 mu)
            s2 = sig2 / (2.0 * r.mu)
            lg = np.log(z)
            return float(np.sum(-((lg - s2) ** 2) / (2.0 * s2) - lg))
        if r.kind == "zero":
            return 0.0
        return -r.value(z) / sig2

    for idx in np.ndindex(shape):
        u = u_grid[list(idx[:n])]
        z = z_grid[list(idx[n:])]
        f_vals[idx] = cost(u, z, model, y, p, r)
        resid = model.apply(z * u) - y
        ll = -0.5 * float(resid @ resid) / sig2
        lpu = -0.5 * p.quad_inv(u) / sig2
        log_post[idx] = ll + lpu + log_scale_prior(z)

    amin = np.unravel_index(np.argmin(f_vals), shape)
    amax = np.unravel_index(np.argmax(log_post), shape)
    sizes = (len(u_grid),) * n + (len(z_grid),) * n
    boundary = any(i == 0 or i == s - 1 for i, s in zip(amin, sizes))
    return MapEquivalenceReport(
        f_argmin=tuple(amin),
        posterior_argmax=tuple(amax),
        agree=amin == amax,
        boundary_warning=boundary,
        f_values=f_vals,
        log_posterior=log_post,
    )
