"""Structured SPD covariance parameterizations for the Gaussian factor.

Four structures are supported, each guaranteed symmetric positive definite
through a finite floor eps > 0:

    scaled identity  P = max(lam, eps) * I
    diagonal         P = Diag(max(lam_i, eps))
    tridiagonal      P = L L^T + eps*I, L lower-bidiagonal from (d1, d2)
    full             P = L L^T + eps*I, L lower-triangular

This module is the only one that knows the structures: a CovarianceParam
holds its learnable arrays under their checkpoint names and chains
gradients back onto them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

__all__ = ["CovarianceParam"]

DEFAULT_EPS = 1e-4

# kind -> {checkpoint name: shape} of its learnable arrays for signal length n
_SHAPES = {
    "scaled_identity": lambda n: {"cov.lam": (1,)},
    "diagonal": lambda n: {"cov.diag": (n,)},
    "tridiagonal": lambda n: {"cov.d1": (n,), "cov.d2": (n - 1,)},
    "full": lambda n: {"cov.L": (n * (n + 1) // 2,)},
}
KINDS = tuple(_SHAPES)


class CovarianceParam:
    """A structured covariance P with cached solves.

    arrays maps each learnable array of the kind to its values under its
    checkpoint name; other entries are ignored, so a network's whole
    parameter dict can be passed.  A kind, floor or array shape outside
    the documented ones raises ValueError.
    """

    def __init__(self, kind, n, arrays, eps=DEFAULT_EPS):
        self.check(kind, eps)
        self.kind = kind
        self.n = n
        self.eps = float(eps)
        self.arrays = {}
        for name, shape in self.array_shapes(kind, n).items():
            if name not in arrays:
                raise ValueError(f"{kind} covariance needs {name}")
            a = np.asarray(arrays[name], dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{kind} covariance needs {name} of shape "
                                 f"{shape}, got {a.shape}")
            self.arrays[name] = a
        self._dense = None
        self._cho = None

    @staticmethod
    def check(kind, eps):
        """Raise ValueError unless kind is known and eps is finite and > 0."""
        if kind not in _SHAPES:
            raise ValueError(f"unknown covariance kind {kind!r}")
        if not 0.0 < eps < math.inf:
            raise ValueError(f"covariance floor eps must be finite and > 0, "
                             f"got {eps!r}")

    @staticmethod
    def array_shapes(kind, n):
        """{checkpoint name: shape} of the learnable arrays of a kind."""
        return _SHAPES[kind](n)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scaled_identity(cls, n, lam, eps=DEFAULT_EPS):
        return cls("scaled_identity", n, {"cov.lam": [lam]}, eps)

    @classmethod
    def diagonal(cls, n, diag, eps=DEFAULT_EPS):
        return cls("diagonal", n, {"cov.diag": diag}, eps)

    @classmethod
    def tridiagonal(cls, n, d1, d2, eps=DEFAULT_EPS):
        return cls("tridiagonal", n, {"cov.d1": d1, "cov.d2": d2}, eps)

    @classmethod
    def full(cls, n, tril, eps=DEFAULT_EPS):
        return cls("full", n, {"cov.L": tril}, eps)

    @classmethod
    def init_default(cls, kind, n, diag_value, eps=DEFAULT_EPS):
        """Initialize so that the realized P equals max(diag_value, eps) * I
        exactly; a non-finite diag_value raises ValueError."""
        if not math.isfinite(diag_value):
            raise ValueError(f"covariance initial value must be finite, "
                             f"got {diag_value!r}")
        cls.check(kind, eps)
        if kind == "scaled_identity":
            return cls.scaled_identity(n, diag_value, eps)
        if kind == "diagonal":
            return cls.diagonal(n, np.full(n, diag_value), eps)
        root = np.sqrt(max(diag_value - eps, 0.0))
        if kind == "tridiagonal":
            return cls.tridiagonal(n, np.full(n, root), np.zeros(n - 1), eps)
        tril = np.zeros(n * (n + 1) // 2)
        i = np.arange(n)
        tril[i * (i + 3) // 2] = root      # (i, i) in the packed lower triangle
        return cls.full(n, tril, eps)

    # -- realized matrix ------------------------------------------------------

    def _l_matrix(self):
        n = self.n
        L = np.zeros((n, n))
        if self.kind == "tridiagonal":
            L[np.arange(n), np.arange(n)] = self.arrays["cov.d1"]
            L[np.arange(1, n), np.arange(n - 1)] = self.arrays["cov.d2"]
        else:
            L[np.tril_indices(n)] = self.arrays["cov.L"]
        return L

    def materialize(self):
        """Dense realized P."""
        if self._dense is None:
            d = self.diag_values()
            if d is not None:
                self._dense = np.diag(d)
            else:
                L = self._l_matrix()
                self._dense = L @ L.T + self.eps * np.eye(self.n)
        return self._dense

    def diag_values(self):
        """Realized diagonal for scaled_identity/diagonal kinds, else None."""
        if self.kind == "scaled_identity":
            lam = float(self.arrays["cov.lam"][0])
            return np.full(self.n, max(lam, self.eps))
        if self.kind == "diagonal":
            return np.maximum(self.arrays["cov.diag"], self.eps)
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

    # -- gradient ---------------------------------------------------------------

    def outer_grad(self, x, v, scale):
        """Gradient of scale * x^T P v with respect to each learnable array,
        keyed by checkpoint name.  Entries held at the floor eps get 0."""
        if self.kind == "scaled_identity":
            lam = float(self.arrays["cov.lam"][0])
            g = scale * float(x @ v) if lam > self.eps else 0.0
            return {"cov.lam": np.array([g])}
        if self.kind == "diagonal":
            g = scale * x * v
            g[self.arrays["cov.diag"] <= self.eps] = 0.0
            return {"cov.diag": g}
        L = self._l_matrix()
        lbar = scale * (np.outer(x, L.T @ v) + np.outer(v, L.T @ x))
        n = self.n
        if self.kind == "tridiagonal":
            return {"cov.d1": np.diagonal(lbar).copy(),
                    "cov.d2": lbar[np.arange(1, n), np.arange(n - 1)]}
        return {"cov.L": lbar[np.tril_indices(n)]}
