"""Structured SPD covariance parameterizations for the Gaussian factor.

Four structures are supported, each guaranteed symmetric positive definite
through a floor eps:

    scaled identity  P = max(lam, eps) * I
    diagonal         P = Diag(max(lam_i, eps))
    tridiagonal      P = L L^T + eps*I, L lower-bidiagonal from (d1, d2)
    full             P = L L^T + eps*I, L lower-triangular
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = ["CovarianceParam"]

KINDS = ("scaled_identity", "diagonal", "tridiagonal", "full")


class CovarianceParam:
    """A structured covariance P with cached solves."""

    def __init__(self, kind, n, eps=1e-4, lam=None, diag=None, d1=None, d2=None, tril=None):
        if kind not in KINDS:
            raise ValueError(f"unknown covariance kind {kind!r}")
        self.kind = kind
        self.n = n
        self.eps = float(eps)
        self.lam = None if lam is None else float(lam)
        self.diag = None if diag is None else np.asarray(diag, dtype=np.float64)
        self.d1 = None if d1 is None else np.asarray(d1, dtype=np.float64)
        self.d2 = None if d2 is None else np.asarray(d2, dtype=np.float64)
        self.tril = None if tril is None else np.asarray(tril, dtype=np.float64)
        self._check_shapes()
        self._dense = None
        self._cho = None

    def _check_shapes(self):
        k, n = self.kind, self.n
        if k == "scaled_identity" and self.lam is None:
            raise ValueError("scaled_identity needs lam")
        if k == "diagonal" and (self.diag is None or self.diag.shape != (n,)):
            raise ValueError("diagonal needs a length-n diag vector")
        if k == "tridiagonal":
            if self.d1 is None or self.d1.shape != (n,):
                raise ValueError("tridiagonal needs d1 of length n")
            if self.d2 is None or self.d2.shape != (n - 1,):
                raise ValueError("tridiagonal needs d2 of length n-1")
        if k == "full" and (self.tril is None or self.tril.shape != (n * (n + 1) // 2,)):
            raise ValueError("full needs a packed lower triangle of length n(n+1)/2")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scaled_identity(cls, n, lam, eps=1e-4):
        return cls("scaled_identity", n, eps=eps, lam=lam)

    @classmethod
    def diagonal(cls, n, diag, eps=1e-4):
        return cls("diagonal", n, eps=eps, diag=diag)

    @classmethod
    def tridiagonal(cls, n, d1, d2, eps=1e-4):
        return cls("tridiagonal", n, eps=eps, d1=d1, d2=d2)

    @classmethod
    def full(cls, n, tril, eps=1e-4):
        return cls("full", n, eps=eps, tril=tril)

    @classmethod
    def init_default(cls, kind, n, diag_value, eps=1e-4):
        """Initialize so that the realized P equals diag_value * I exactly."""
        if kind == "scaled_identity":
            return cls.scaled_identity(n, diag_value, eps)
        if kind == "diagonal":
            return cls.diagonal(n, np.full(n, diag_value), eps)
        root = np.sqrt(max(diag_value - eps, 0.0))
        if kind == "tridiagonal":
            return cls.tridiagonal(n, np.full(n, root), np.zeros(n - 1), eps)
        if kind == "full":
            tril = np.zeros(n * (n + 1) // 2)
            tril[_diag_positions(n)] = root
            return cls.full(n, tril, eps)
        raise ValueError(f"unknown covariance kind {kind!r}")

    def param_arrays(self):
        """Learnable arrays in canonical order (for flattening/training)."""
        if self.kind == "scaled_identity":
            return {"cov.lam": np.array([self.lam])}
        if self.kind == "diagonal":
            return {"cov.diag": self.diag}
        if self.kind == "tridiagonal":
            return {"cov.d1": self.d1, "cov.d2": self.d2}
        return {"cov.L": self.tril}

    @classmethod
    def from_param_arrays(cls, kind, n, arrays, eps=1e-4):
        if kind == "scaled_identity":
            return cls.scaled_identity(n, float(arrays["cov.lam"][0]), eps)
        if kind == "diagonal":
            return cls.diagonal(n, arrays["cov.diag"], eps)
        if kind == "tridiagonal":
            return cls.tridiagonal(n, arrays["cov.d1"], arrays["cov.d2"], eps)
        return cls.full(n, arrays["cov.L"], eps)

    # -- realized matrix ------------------------------------------------------

    def _l_matrix(self):
        n = self.n
        L = np.zeros((n, n))
        if self.kind == "tridiagonal":
            L[np.arange(n), np.arange(n)] = self.d1
            L[np.arange(1, n), np.arange(n - 1)] = self.d2
        else:
            L[np.tril_indices(n)] = self.tril
        return L

    def materialize(self):
        """Dense realized P."""
        if self._dense is None:
            n = self.n
            if self.kind == "scaled_identity":
                self._dense = max(self.lam, self.eps) * np.eye(n)
            elif self.kind == "diagonal":
                self._dense = np.diag(np.maximum(self.diag, self.eps))
            else:
                L = self._l_matrix()
                self._dense = L @ L.T + self.eps * np.eye(n)
        return self._dense

    def diag_values(self):
        """Realized diagonal for scaled_identity/diagonal kinds, else None."""
        if self.kind == "scaled_identity":
            return np.full(self.n, max(self.lam, self.eps))
        if self.kind == "diagonal":
            return np.maximum(self.diag, self.eps)
        return None

    def _chofac(self):
        if self._cho is None:
            self._cho = sla.cho_factor(self.materialize(), lower=True)
        return self._cho

    # -- linear algebra surface ----------------------------------------------

    def apply(self, x):
        """P @ x."""
        d = self.diag_values()
        if d is not None:
            return d * x
        return self.materialize() @ x

    def solve(self, x):
        """P^{-1} @ x."""
        d = self.diag_values()
        if d is not None:
            return x / d
        return sla.cho_solve(self._chofac(), x)

    def quad_inv(self, u):
        """u^T P^{-1} u."""
        return float(u @ self.solve(u))

    def add_inverse_to(self, g):
        """Add P^{-1} into the dense matrix g in place."""
        d = self.diag_values()
        if d is not None:
            g[np.diag_indices(self.n)] += 1.0 / d
        else:
            g += sla.cho_solve(self._chofac(), np.eye(self.n))
        return g


def _diag_positions(n):
    """Indices of diagonal entries inside a packed lower triangle."""
    rows, cols = np.tril_indices(n)
    return np.nonzero(rows == cols)[0]
