"""Minimizing the joint cost over the Gaussian factor u for fixed scales z.

Three routes: the direct n x n symmetric solve (its system formed in O(n^2)
from the operator's cached A^T A), the Woodbury rewrite that solves an m x m
system instead, and a Nesterov-accelerated gradient descent approximation
for problems where a factorization is unwanted.  With a sparse
Psi, no dictionary and a diagonal P, the Woodbury system
Psi Diag(z^2 d) Psi^T + I is formed on Psi's live rows only, those with a
stored entry: an empty row contributes an identity row and column whose
solution entry Psi^T never reads, so dropping it is exact (78 of the 690
Radon 32x32/15 rows are empty).  A per-operator map of Psi's Gram pattern
(SensingModel.gram_map) is built once, without a sort: an (r^2) x (n+1)
sparse matrix, r the number of live rows, whose last column adds the
identity.  One sparse mat-vec per u-update then writes the system's whole
lower triangle in column-major order, the array LAPACK factors in place,
with no scatter and no diagonal pass, and the dense A is never built; it
sums each entry over the pixels in increasing order and adds the identity
last, the bits of a row sum followed by += 1.0.  The O(r^3) Cholesky is then
the only r^2-sized work left per update: no second copy is made, and the
finite checks read the diagonal and the whole right-hand side only.
The factor calls LAPACK's dpotrf directly, bound once at import, as do the
solves: SciPy's cho_factor and cho_solve would add about 11 us of batch and
array-API dispatch to each call, as much as a 64 x 64 factor or solve
itself takes (SciPy 1.17 on a 2-core Xeon: 29.5 us against 18.4 us per
factor, 17.0 us against 6.2 us per solve).  So a factor has cho_factor's
bits.  A vector right-hand side against a factor of order _DTRSV_MIN or
more, such as every paper-scale u-update's solve, takes two BLAS dtrsv
calls, forward then back substitution: a third of dpotrs's time at
612 x 612 (one BLAS thread, 0.07 against 0.21 ms per solve), and a result
that differs from dpotrs's, cho_solve's kernel, by about 1e-15 relative.
Below that order the second call's overhead outweighs the gain, so a
smaller factor takes dpotrs, as a matrix right-hand side does, and keeps
cho_solve's bits.  CovarianceParam factors and solves a tridiagonal or
full P with the same two helpers.
One router picks the exact route for both entry points: tikhonov_solve
returns u alone, and tikhonov_factored also keeps the factor for the
network backward, packed (LAPACK's dtrttp: its lower triangle, column by
column, r(r+1)/2 floats, half the r x r array the update factors in, 1.50
against 3.00 MB at r = 612), so each taped exact block holds no entry the
backward never reads.  tikhonov_adjoint solves against that packed factor,
live rows included, with one dpptrs: as fast as the dtrsv pair at order
612, and within about 1e-15 relative of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DivergenceError
from .sensing import spectral_norm

_dpotrf = sla.lapack.dpotrf
_dpotrs = sla.lapack.dpotrs
_dpptrs = sla.lapack.dpptrs
_dtrttp = sla.lapack.dtrttp
_dtrsv = sla.blas.dtrsv
# below this factor order, two dtrsv calls on a vector cost more than one
# dpotrs: each f2py call adds about 0.7 us (one BLAS thread: 4.4 against
# 4.2 us at order 72, 4.7 against 4.8 us at 80)
_DTRSV_MIN = 80

__all__ = [
    "NagdConfig",
    "tikhonov_solve",
    "tikhonov_factored",
    "tikhonov_adjoint",
    "tikhonov_nagd",
    "nagd_momentum",
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


def grad_u(u, z, model, y, p):
    """Gradient of the joint cost in u:  A_z^T (A_z u - y) + P^{-1} u."""
    return z * model.adjoint(model.apply(z * u) - y) + p.solve(u)


def _factor(s, psd_plus_identity=False, name="u-update system"):
    """Cholesky factor of the SPD matrix s, computed in place.

    s must be Fortran-ordered: LAPACK reads its lower triangle where it lies
    and writes the factor over it, with no copy.  A non-finite s raises
    LinAlgError, the error a non-positive pivot raises.  For s = I + Psi W
    Psi^T with W >= 0 the diagonal suffices: |s_ij| <= sqrt(s_ii s_jj), and
    a non-finite w_k reaches every s_ii with Psi[i, k] != 0.  A pivot that
    is not positive, such as one lost to rounding in a system of entries
    near 1e308, raises LinAlgError.  Both messages begin with name.
    """
    if not np.isfinite(np.diagonal(s) if psd_plus_identity else s).all():
        raise np.linalg.LinAlgError(f"{name} has non-finite entries")
    c, info = _dpotrf(s, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} is not positive definite "
                                    f"({info}-th leading minor)")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def _backsolve(c, b, live=slice(None), name="u-update"):
    """Solve against a factor from _factor, or its packed lower triangle
    from tikhonov_factored, on the rows live of b, all by default; the
    solution is 0 on the other rows.  A packed factor takes dpptrs.  A
    vector b against a square factor of order _DTRSV_MIN or more takes two
    dtrsv calls, L w = b then L^T x = w; any other b takes dpotrs.  A square
    c must be Fortran-ordered, as _factor's result is: f2py copies any other
    array on every call.  A non-finite entry of b, on any row, raises
    LinAlgError naming name's right-hand side."""
    if not np.isfinite(b).all():
        raise np.linalg.LinAlgError(f"{name} right-hand side has non-finite entries")
    x = np.zeros(b.shape)
    rhs = b[live]
    if c.ndim == 2 and b.ndim == 1 and c.shape[0] >= _DTRSV_MIN:
        w = _dtrsv(c, rhs, lower=1)
        x[live] = _dtrsv(c, w, lower=1, trans=1, overwrite_x=1)
    elif c.size:  # dpotrs rejects an empty system
        x[live], info = (_dpotrs(c, rhs, lower=1) if c.ndim == 2
                         else _dpptrs(rhs.shape[0], c, rhs, lower=1))
        if info:
            raise ValueError(f"illegal value in argument {-info} of the solve")
    return x


def _tikhonov_direct_with_factor(z, model, y, p):
    """Direct n x n solve of (A_z^T A_z + P^{-1}) u = A_z^T y; returns
    (u, Cholesky factor).  A_z^T A_z = Diag(z) A^T A Diag(z) is formed from
    the operator's cached A^T A in O(n^2); the system is symmetric, so its
    .T view is the Fortran array LAPACK factors in place."""
    g = z[:, None] * model.dense_ata() * z
    p.add_inverse_to(g)
    cho = _factor(g.T)
    return _backsolve(cho, z * (model.dense_a().T @ y)), cho


def _tikhonov_woodbury_with_factor(z, model, y, p):
    """Woodbury form u = P A_z^T (I + A_z P A_z^T)^{-1} y, an m x m solve;
    returns (u, Cholesky factor, the rows it covers)."""
    d = p.diag_values()
    sparse = d is not None and model.phi is None and sp.issparse(model.psi)
    if sparse:
        # A_z P A_z^T = Psi Diag(z^2 d) Psi^T and P A_z^T = Diag(d z) Psi^T.
        # An empty row i of Psi makes row and column i of the system e_i, so
        # v_i = y_i, which Psi^T never reads: the system is solved on the
        # live rows alone.  One product writes the lower triangle, identity
        # included, at its column-major positions, so the transposed view
        # is the Fortran array LAPACK factors in place; the factor and every
        # solve against it read no other entry.
        live, gram = model.gram_map()
        r = live.size
        s = (gram @ np.append(z * z * d, 1.0)).reshape(r, r).T
    else:
        live = slice(None)
        az = model.dense_a() * z[None, :]
        azp = az * d[None, :] if d is not None else az @ p.materialize()
        s = np.asfortranarray(azp @ az.T)
        s[np.diag_indices(s.shape[0])] += 1.0
    cho = _factor(s, psd_plus_identity=sparse)
    v = _backsolve(cho, y, live)
    u = d * z * model.adjoint(v) if sparse else azp.T @ v
    return u, cho, live


def _route(z, model, y, p):
    """Exact solve, Woodbury when m < n and direct otherwise; returns
    (u, (route, square Cholesky factor, the rows it covers))."""
    if model.m < model.n:
        u, cho, live = _tikhonov_woodbury_with_factor(z, model, y, p)
        return u, ("woodbury", cho, live)
    u, cho = _tikhonov_direct_with_factor(z, model, y, p)
    return u, ("direct", cho, slice(None))


def tikhonov_solve(z, model, y, p):
    """Routed exact solve (see tikhonov_factored); keeps no factor."""
    return _route(z, model, y, p)[0]


def tikhonov_factored(z, model, y, p):
    """Routed exact solve; returns (u, factor) with the factor that
    tikhonov_adjoint solves against: (route, the Cholesky factor's lower
    triangle packed by dtrttp, the rows it covers).  u is tikhonov_solve's,
    bit for bit; the square factor is freed on return."""
    u, (route, cho, live) = _route(z, model, y, p)
    packed, _ = _dtrttp(cho, uplo="L")
    return u, (route, packed, live)


def tikhonov_adjoint(b, z, model, p, factor):
    """(A_z^T A_z + P^{-1})^{-1} b against a factor from tikhonov_factored;
    the Woodbury route reads P b - P A_z^T (I + A_z P A_z^T)^{-1} A_z P b.
    Either route makes one dpptrs against the packed factor."""
    route, packed, live = factor
    if route == "direct":
        return _backsolve(packed, b)
    pb = p.apply(b)
    return pb - p.apply(z * model.adjoint(
        _backsolve(packed, model.apply(z * pb), live)))


def nagd_momentum(j):
    """Momentum weight used for the step that produces iterate j+1."""
    return 1.0 - 3.0 / (6.0 + j)


def estimate_u_lipschitz(z, model, p):
    """Power-iteration estimate of ||A_z^T A_z + P^{-1}||_2."""
    op = lambda v: z * model.adjoint(model.apply(z * v)) + p.solve(v)
    return spectral_norm(op, lambda w: w, model.n) ** 2


def tikhonov_nagd(u0, z, model, y, p, cfg, want_trace=False):
    """Approximate the Tikhonov solution by Nesterov-accelerated descent.

    u^(j+1) = r(u^(j)) + beta_j (r(u^(j)) - r(u^(j-1))), where r(u) =
    u - eta * grad_u(u, z) is a plain gradient step, beta_j = 1 - 3/(6+j)
    and u^(0) = u^(-1) = u0.  One apply and one P-solve per iterate give
    both its u-objective and, with one adjoint, its gradient step, so
    `steps` steps make steps+1 applies and P-solves and `steps` adjoints.
    Raises DivergenceError as soon as an iterate or its u-objective is not
    finite, and once it has risen for min(10, steps) consecutive steps while
    above its starting value; momentum ripples below the start level are
    benign, and the first step is a plain gradient step, which does not rise
    for eta below 2/L.  With want_trace, returns (u, [u^(0), ..., u^(steps)]).
    """
    eta = cfg.eta
    if eta is None:
        lip = estimate_u_lipschitz(z, model, p)
        eta = 1.0 / lip if lip > 0 else 1.0
    u = np.array(u0, dtype=np.float64, copy=True)
    trace = [u] if want_trace else None
    limit = min(10, cfg.steps)
    grow = 0
    for j in range(cfg.steps + 1):
        res = model.apply(z * u) - y
        f = np.inf
        if np.isfinite(u).all():  # a dense P's solve rejects u otherwise
            pu = p.solve(u)
            f = 0.5 * float(res @ res) + 0.5 * float(u @ pu)  # F's u part
        if not np.isfinite(f):
            raise DivergenceError(f"u-objective is not finite after {j} "
                                  f"accelerated steps (eta={eta:g})")
        if j == 0:
            f_start = f_last = f
        grow = grow + 1 if (f > f_last and f > f_start) else 0
        if grow >= limit:
            raise DivergenceError(f"u-objective grew for {limit} consecutive "
                                  f"accelerated steps (eta={eta:g})")
        f_last = f
        if j == cfg.steps:
            return (u, trace) if want_trace else u
        r = u - eta * (z * model.adjoint(res) + pu)
        if j == 0:  # r(u^(-1)) = r(u^(0))
            r_prev = r
        u = r + nagd_momentum(j) * (r - r_prev)
        r_prev = r
        if want_trace:
            trace.append(u)
