"""Scale-variable regularizers, the joint cost function, and the MAP check.

The joint objective over the Gaussian factor u and positive scale factor z is

    F(u, z) = 0.5*||y - A(z*u)||^2 + 0.5*u^T P^{-1} u + R(z)

with R the scale regularizer.  Built-in R: Zero (ablation) and LogSquared,
R(z) = mu * sum_i log(z_i)^2 on (0, inf)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ScaleRegularizer",
    "cost",
    "data_misfit",
    "map_equivalence_check",
    "MapEquivalenceReport",
]

DEFAULT_FLOOR = 1e-8


class ScaleRegularizer:
    """R(z): value, gradient, proximal map, and its domain handling.

    kind "logsq" lives on the open orthant and uses the floor eps_z =
    DEFAULT_FLOOR for projections onto its closure; kind "zero" lives on
    [0, inf)^n, floor 0.
    """

    def __init__(self, kind, mu=1.0):
        if kind not in ("logsq", "zero"):
            raise ValueError(f"unknown regularizer kind {kind!r}")
        if kind == "logsq" and not 0 < mu < math.inf:
            raise ValueError(f"logsq needs a finite mu > 0, got {mu!r}")
        self.kind = kind
        self.mu = float(mu)
        self.floor = DEFAULT_FLOOR if kind == "logsq" else 0.0

    @classmethod
    def log_squared(cls, mu=1.0):
        return cls("logsq", mu=mu)

    @classmethod
    def zero(cls):
        return cls("zero", mu=0.0)

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
        self.check_domain(z)
        lg = np.log(z)
        return self.mu * float(lg @ lg)

    def grad(self, z):
        if self.kind == "zero":
            return np.zeros_like(z)
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
        return _prox_log_squared(np.asarray(v, dtype=np.float64), eta * self.mu)

    def curvature_bound(self, z):
        """Max of |R''| over t in [max(z/3, floor), 3z], every coordinate.

        |R''(t)| = 2mu|1 - log t|/t^2 falls on (0, e], is 0 at e, rises to
        mu/e^3 at e^{3/2} and falls beyond, so its maximum on an interval is
        the larger end value, or mu/e^3 when e^{3/2} lies inside.  This is
        R's share of the fixed PGD step's Lipschitz constant (zstep.eta
        unset), which is certified only while the step keeps every
        coordinate inside its interval; outside, the solver's monotonicity
        check is the guard (exit 4).
        """
        if self.kind != "logsq":
            return 0.0
        z = np.maximum(np.asarray(z, dtype=np.float64), self.floor)
        lo, hi = np.maximum(z / 3.0, self.floor), 3.0 * z
        t = np.concatenate([lo, hi])
        bound = float((2.0 * self.mu * np.abs(1.0 - np.log(t)) / (t * t)).max())
        if np.any((lo <= np.exp(1.5)) & (np.exp(1.5) <= hi)):
            bound = max(bound, self.mu * np.exp(-3.0))
        return bound


def _prox_log_squared(v, a, tol=1e-13):
    """argmin_{t > 0} 0.5*(t - v)^2 + a*log(t)^2 per coordinate (a > 0).

    The minimizer is a root of g(t) = t - v + 2a*log(t)/t in (1e-10,
    max(v, 1) + 1].  Since (1 - log t)/t^2 >= -1/(2e^3), with equality at
    t = e^{3/2}, g'(t) = 1 + 2a(1 - log t)/t^2 >= 1 - a/e^3: for a <= e^3
    the objective is convex, g has one root, and safeguarded Newton starts
    from v clipped into the bracket (v > 0) or from the estimate below
    (v <= 0).  Above e^3 the objective can be bimodal, so a 240-point
    log-grid scan first picks the global basin.  Newton runs only on
    coordinates with |g| >= tol, with a bisection fallback whenever a step
    leaves the bracket.

    For v <= 0 the root lies in (0, 1), where Newton in t only about doubles
    t per pass from the bracket end.  There Newton runs in s = log t instead:
    h(s) = 0.5*(e^s - v)^2 + a*s^2 has h'(s) = t*g(t), increasing and
    convex in s, since h''(s) = 2t^2 - v*t + 2a > 0 and its derivative is
    4t^2 - v*t > 0.  So Newton on h' converges from any start, from above
    after at most one step.  The start is the root of t^2 - v*t = 2a*l,
    which is t*g(t) = 0 with log t frozen at -l, l = max(1, log(1/a)); from
    there it takes at most 5 steps for v in [-5, 0] and a in [1e-8, 20].
    """
    v = np.atleast_1d(v)
    hi = np.maximum(v, 1.0) + 1.0          # minimizer satisfies t <= max(v, 1)
    lo = np.full_like(hi, 1e-10)
    in_log = bool((v <= 0.0).any())       # some coordinates step in log t
    if a <= np.exp(3.0):
        start = v
        if in_log:
            w, al = np.minimum(v, 0.0), a * max(1.0, -math.log(a))
            start = np.where(v > 0.0, v, 4.0 * al / (np.sqrt(w * w + 8.0 * al) - w))
        t, t_lo, t_hi = np.clip(start, lo, hi), lo, hi
    else:
        npts = 240
        # per-coordinate log grid from lo to hi
        grid = lo[:, None] * (hi / lo)[:, None] ** (np.arange(npts) / (npts - 1.0))
        lg = np.log(grid)
        obj = 0.5 * (grid - v[:, None]) ** 2 + a * lg * lg
        best = np.argmin(obj, axis=1)
        t = grid[np.arange(v.size), best]
        t_lo = grid[np.arange(v.size), np.maximum(best - 1, 0)]
        t_hi = grid[np.arange(v.size), np.minimum(best + 1, npts - 1)]

    # Newton state of the coordinates not yet converged; t holds the rest
    act = np.arange(v.size)
    ta, va = t, v
    for _ in range(100):
        lga = np.log(ta)
        r = (ta - va) + 2.0 * a * lga / ta
        live = np.abs(r) >= tol
        if not live.any():
            break
        if not live.all():
            act, ta, va, r, lga = act[live], ta[live], va[live], r[live], lga[live]
            t_lo, t_hi = t_lo[live], t_hi[live]
        # contract the bisection bracket around the root
        neg = r < 0.0
        t_lo = np.where(neg, ta, t_lo)
        t_hi = np.where(neg, t_hi, ta)
        cand = ta - r / (1.0 + 2.0 * a * (1.0 - lga) / (ta * ta))
        if in_log:
            neg_v = va <= 0.0
            tn, vn = ta[neg_v], va[neg_v]
            cand[neg_v] = tn * np.exp(-tn * r[neg_v] / ((2.0 * tn - vn) * tn + 2.0 * a))
        bad = (cand <= t_lo) | (cand >= t_hi) | ~np.isfinite(cand)
        ta = np.where(bad, 0.5 * (t_lo + t_hi), cand)
        t[act] = ta
    return t


def data_misfit(z, u, model, y):
    """0.5 * ||A(z*u) - y||^2."""
    r = model.apply(z * u) - y
    return 0.5 * float(r @ r)


def cost(u, z, model, y, p, r, res=None):
    """Joint objective F(u, z); raises DomainError outside the domain of R.

    res, when given, is the residual A(z*u) - y, which is then not formed
    again: the solver forms it once per iterate for F and the next z-step.
    """
    r.check_domain(z)
    if res is None:
        res = model.apply(z * u) - y
    return 0.5 * float(res @ res) + 0.5 * p.quad_inv(u) + r.value(z)


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
        if r.kind == "zero":
            return 0.0
        # coordinate-wise log-normal, log-mean = log-var = sigma^2/(2 mu)
        s2 = sig2 / (2.0 * r.mu)
        lg = np.log(z)
        return float(np.sum(-((lg - s2) ** 2) / (2.0 * s2) - lg))

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
