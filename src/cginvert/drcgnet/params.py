"""Network configuration, the learnable parameter set, and checkpoints.

Parameters: one shared structured covariance, a step scalar per unrolled
scale update (plus one for the refinement block), and the per-update
convolution stacks (plus one refinement stack).  The refinement parameters
are always materialized; the refine flag only controls whether the block
executes in the forward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..covariance import CovarianceParam
from ..errors import ConfigError
from .conv import glorot_uniform

__all__ = ["NetConfig", "TrainConfig", "NetParams", "param_count",
           "init_params", "save_checkpoint", "load_checkpoint"]


@dataclass
class NetConfig:
    """Architecture settings for the unrolled network."""

    K: int = 3
    J: int = 4
    depth: int = 8
    kernel: int = 3
    channels: tuple = (32, 32, 32, 32, 32, 32, 32, 1)
    variant: str = "ista"              # "pgd" | "ista"
    cov_kind: str = "scaled_identity"
    gamma_max: float = 1.0
    b: float = 10.0
    u_mode: str = "exact"              # "exact" | "nagd"
    nagd_steps: int = 100
    nagd_eta: float | None = None      # required for u_mode="nagd"
    refine: bool = True
    eps: float = 1e-4

    def __post_init__(self):
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if self.kernel % 2 != 1:
            raise ValueError("kernel size must be odd")
        if len(self.channels) != self.depth:
            raise ValueError("channels must list one width per layer")
        if self.channels[-1] != 1:
            raise ValueError("the final layer must have one output channel")
        if self.variant not in ("pgd", "ista"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.u_mode not in ("exact", "nagd"):
            raise ValueError(f"unknown u_mode {self.u_mode!r}")
        if self.u_mode == "nagd" and self.nagd_eta is None:
            raise ValueError("u_mode='nagd' needs an explicit nagd_eta "
                             "(kept constant so training gradients stay exact)")

    def layer_channels(self):
        """(f_0, ..., f_D) with f_0 = 1."""
        return (1,) + tuple(self.channels)

    def to_dict(self):
        return {
            "K": self.K, "J": self.J, "depth": self.depth,
            "kernel": self.kernel, "channels": list(self.channels),
            "variant": self.variant, "cov_kind": self.cov_kind,
            "gamma_max": self.gamma_max, "b": self.b,
            "u_mode": self.u_mode, "nagd_steps": self.nagd_steps,
            "nagd_eta": self.nagd_eta, "refine": self.refine, "eps": self.eps,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["channels"] = tuple(d["channels"])
        return cls(**d)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 2000
    batch: int = 0                 # 0 -> full dataset per batch
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0
    patience: int | None = None    # early stopping on validation MAE

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")


def _cov_dim(kind, n):
    return {
        "scaled_identity": 1,
        "diagonal": n,
        "tridiagonal": 2 * n - 1,
        "full": n * (n + 1) // 2,
    }[kind]


def param_count(cfg, n):
    """Closed-form number of learnable scalars for the given configuration.

    p = sum_d f_{d-1} f_d k^2 per convolution stack; every one of the K*J
    scale updates plus the refinement step owns a stack and a step scalar.
    """
    f = cfg.layer_channels()
    p = sum(f[d - 1] * f[d] * cfg.kernel ** 2 for d in range(1, cfg.depth + 1))
    return _cov_dim(cfg.cov_kind, n) + (cfg.K * cfg.J + 1) * (p + 1)


class NetParams:
    """Dict-of-arrays parameter store with a canonical flattening order."""

    def __init__(self, cfg, n, values):
        self.cfg = cfg
        self.n = n
        self.values = values
        self.order = list(values.keys())

    def cov(self):
        return CovarianceParam.from_param_arrays(
            self.cfg.cov_kind, self.n, self.values, eps=self.cfg.eps)

    def kernels(self, k, j):
        return [self.values[f"w.{k}.{j}.{d}"] for d in range(1, self.cfg.depth + 1)]

    def refine_kernels(self):
        return [self.values[f"w.refine.{d}"] for d in range(1, self.cfg.depth + 1)]

    def delta(self, k, j):
        return float(self.values["delta"][k - 1, j - 1])

    def delta_refine(self):
        return float(self.values["delta.refine"])

    def total_scalars(self):
        return sum(v.size for v in self.values.values())

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.values.items()}

    def copy(self):
        return NetParams(self.cfg, self.n,
                         {k: v.copy() for k, v in self.values.items()})


def init_params(cfg, n, seed=0, cov_init=0.1):
    """Fresh parameters: Glorot-uniform kernels, unit step scalars, and a
    covariance realizing cov_init * I exactly."""
    rng = np.random.default_rng(seed)
    values = {}
    cov = CovarianceParam.init_default(cfg.cov_kind, n, cov_init, eps=cfg.eps)
    values.update({k: v.copy() for k, v in cov.param_arrays().items()})
    values["delta"] = np.ones((cfg.K, cfg.J))
    values["delta.refine"] = np.array(1.0)
    f = cfg.layer_channels()
    for k in range(1, cfg.K + 1):
        for j in range(1, cfg.J + 1):
            for d in range(1, cfg.depth + 1):
                values[f"w.{k}.{j}.{d}"] = glorot_uniform(rng, cfg.kernel, f[d - 1], f[d])
    for d in range(1, cfg.depth + 1):
        values[f"w.refine.{d}"] = glorot_uniform(rng, cfg.kernel, f[d - 1], f[d])
    return NetParams(cfg, n, values)


def save_checkpoint(path_dir, params, train_cfg=None, epoch=None, losses=None,
                    extra=None):
    """Write manifest.json plus a little-endian float64 blob of parameters.

    The manifest declares the parameter order and shapes; the blob holds the
    arrays concatenated in that order.
    """
    import os

    os.makedirs(path_dir, exist_ok=True)
    manifest = {
        "net": params.cfg.to_dict(),
        "n": params.n,
        "order": params.order,
        "shapes": {k: list(params.values[k].shape) for k in params.order},
        "epoch": epoch,
        "losses": losses or {},
    }
    if train_cfg is not None:
        manifest["train"] = {
            "lr": train_cfg.lr, "epochs": train_cfg.epochs,
            "batch": train_cfg.batch, "beta1": train_cfg.beta1,
            "beta2": train_cfg.beta2, "eps_adam": train_cfg.eps_adam,
            "seed": train_cfg.seed, "patience": train_cfg.patience,
        }
    if extra:
        manifest.update(extra)
    with open(os.path.join(path_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    blob = np.concatenate([params.values[k].ravel() for k in params.order])
    blob.astype("<f8").tofile(os.path.join(path_dir, "params.bin"))


def load_checkpoint(path_dir):
    """Read back a checkpoint; returns (NetParams, manifest dict)."""
    import os

    with open(os.path.join(path_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    cfg = NetConfig.from_dict(manifest["net"])
    blob = np.fromfile(os.path.join(path_dir, "params.bin"), dtype="<f8")
    shapes = [tuple(manifest["shapes"][name]) for name in manifest["order"]]
    expected = sum(int(np.prod(shape)) for shape in shapes)
    if blob.size != expected:
        raise ConfigError(f"checkpoint blob has {blob.size} scalars, expected {expected}")
    values, pos = {}, 0
    for name, shape in zip(manifest["order"], shapes):
        size = int(np.prod(shape))
        values[name] = blob[pos:pos + size].reshape(shape).astype(np.float64)
        pos += size
    return NetParams(cfg, manifest["n"], values), manifest
