"""Network configuration, the learnable parameter set, and checkpoints.

Parameters: one shared structured covariance, a step scalar per unrolled
scale update (plus one for the refinement block), and the per-update
convolution stacks (plus one refinement stack).  The refinement parameters
are always materialized; the refine flag only controls whether the block
executes in the forward pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..covariance import DEFAULT_EPS, CovarianceParam
from ..errors import ConfigError, read_f64, read_manifest, write_store
from ..tikhonov import NagdConfig
from .conv import glorot_uniform

__all__ = ["NetConfig", "TrainConfig", "NetParams", "param_count",
           "param_shapes", "init_params", "save_checkpoint", "load_checkpoint"]


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
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        self.channels = tuple(self.channels)
        ints = [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.type == "int"] + [("channels", c) for c in self.channels]
        for name, value in ints:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if self.kernel < 1 or self.kernel % 2 != 1:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.kernel!r}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth!r}")
        if len(self.channels) != self.depth:
            raise ValueError("channels must list one width per layer")
        if min(self.channels) < 1:
            raise ValueError(f"channel widths must be >= 1, got {list(self.channels)!r}")
        if self.channels[-1] != 1:
            raise ValueError("the final layer must have one output channel")
        if self.variant not in ("pgd", "ista"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.u_mode not in ("exact", "nagd"):
            raise ValueError(f"unknown u_mode {self.u_mode!r}")
        if self.u_mode == "nagd" and self.nagd_eta is None:
            raise ValueError("u_mode='nagd' needs an explicit nagd_eta "
                             "(kept constant so training gradients stay exact)")
        NagdConfig(steps=self.nagd_steps, eta=self.nagd_eta)
        if not (self.gamma_max > 0 and self.b > 0):
            raise ValueError(f"gamma_max and b must be > 0, got "
                             f"{self.gamma_max!r} and {self.b!r}")
        CovarianceParam.check(self.cov_kind, self.eps)

    def layer_channels(self):
        """(f_0, ..., f_D) with f_0 = 1."""
        return (1,) + self.channels


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
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr!r}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"Adam beta1 and beta2 must lie in [0, 1), got "
                             f"{self.beta1!r} and {self.beta2!r}")
        if not 0 < self.eps_adam < math.inf:
            raise ValueError(f"eps_adam must be finite and > 0, got {self.eps_adam!r}")
        if self.batch < 0:
            raise ValueError(f"batch must be >= 0 (0: full batch), got {self.batch!r}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience!r}")


def param_shapes(cfg, n):
    """{name: shape} of every learnable array, in the canonical order."""
    shapes = dict(CovarianceParam.array_shapes(cfg.cov_kind, n))
    shapes["delta"] = (cfg.K, cfg.J)
    shapes["delta.refine"] = ()
    f = cfg.layer_channels()
    stacks = [f"{k}.{j}" for k in range(1, cfg.K + 1) for j in range(1, cfg.J + 1)]
    for stack in stacks + ["refine"]:
        for d in range(1, cfg.depth + 1):
            shapes[f"w.{stack}.{d}"] = (cfg.kernel, cfg.kernel, f[d - 1], f[d])
    return shapes


def param_count(cfg, n):
    """Number of learnable scalars for the given configuration.

    p = sum_d f_{d-1} f_d k^2 per convolution stack; every one of the K*J
    scale updates plus the refinement step owns a stack and a step scalar.
    """
    return sum(map(math.prod, param_shapes(cfg, n).values()))


class NetParams:
    """The parameters as one float64 vector, flat, which the constructor
    copies the given {name: array} into; values maps each name to its view
    of flat, the views laid out in the given mapping's order (param_shapes
    order for every mapping the package builds)."""

    def __init__(self, cfg, n, values):
        self.cfg = cfg
        self.n = n
        self.values = values
        self.bind(np.concatenate([np.ravel(v) for v in values.values()],
                                 dtype=np.float64))

    def views(self, flat):
        """{name: the array's view of flat}, flat laid out as self.flat."""
        out, start = {}, 0
        for key, val in self.values.items():
            out[key] = flat[start:start + np.size(val)].reshape(np.shape(val))
            start += np.size(val)
        return out

    def bind(self, flat):
        """Make flat, a vector laid out as self.flat, the parameters."""
        self.values = self.views(flat)
        self.flat = flat

    def cov(self):
        return CovarianceParam(self.cfg.cov_kind, self.n, self.values, self.cfg.eps)

    def kernels(self, k, j):
        return [self.values[f"w.{k}.{j}.{d}"] for d in range(1, self.cfg.depth + 1)]

    def refine_kernels(self):
        return [self.values[f"w.refine.{d}"] for d in range(1, self.cfg.depth + 1)]

    def delta(self, k, j):
        return float(self.values["delta"][k - 1, j - 1])

    def delta_refine(self):
        return float(self.values["delta.refine"])

    def zero_grads(self):
        return self.views(np.zeros_like(self.flat))

    def copy(self):
        return NetParams(self.cfg, self.n, self.values)


def init_params(cfg, n, seed=0, cov_init=0.1):
    """Fresh parameters: Glorot-uniform kernels, unit step scalars, and a
    covariance realizing cov_init * I exactly."""
    rng = np.random.default_rng(seed)
    cov = CovarianceParam.init_default(cfg.cov_kind, n, cov_init, eps=cfg.eps)
    values = dict(cov.arrays)
    for name, shape in param_shapes(cfg, n).items():
        if name.startswith("delta"):
            values[name] = np.ones(shape)
        elif name.startswith("w."):
            k, _, c_in, c_out = shape
            values[name] = glorot_uniform(rng, k, c_in, c_out)
    return NetParams(cfg, n, values)


def save_checkpoint(path_dir, params, train_cfg=None, epoch=None, losses=None,
                    extra=None):
    """Write manifest.json plus a little-endian float64 blob of parameters.

    The manifest declares the parameter order and shapes; the blob is
    params.flat, the arrays one after another in that order.
    """
    manifest = {
        "net": asdict(params.cfg),
        "n": params.n,
        "order": list(params.values),
        "shapes": {k: list(v.shape) for k, v in params.values.items()},
        "epoch": epoch,
        "losses": losses or {},
    }
    if train_cfg is not None:
        manifest["train"] = asdict(train_cfg)
    if extra:
        manifest.update(extra)
    write_store(path_dir, manifest, {"params.bin": params.flat})


def load_checkpoint(path_dir):
    """Read back a checkpoint; returns (NetParams, manifest dict).

    An unreadable file, a manifest that is not a JSON object, lacks a key or
    has a mistyped value, an order that lists an array twice, an array set
    or shape other than the one its net and n give, and a blob of the wrong
    length or with non-finite values raise ConfigError.  The arrays load in
    param_shapes order."""
    manifest = read_manifest(os.path.join(path_dir, "manifest.json"), ConfigError, {
        "net": dict, "order": list, "shapes": dict, "n": int})
    try:
        cfg = NetConfig(**manifest["net"])
        shapes = [tuple(int(d) for d in manifest["shapes"][name])
                  for name in manifest["order"]]
        n = manifest["n"]
    except KeyError as exc:
        raise ConfigError(f"checkpoint manifest in {path_dir} lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint manifest in {path_dir} is malformed: {exc}") from None
    want, got = param_shapes(cfg, n), dict(zip(manifest["order"], shapes))
    if len(got) < len(shapes):
        raise ConfigError(f"checkpoint manifest in {path_dir} lists an array twice")
    for name in sorted(want.keys() | got.keys()):
        if got.get(name) != want.get(name):
            raise ConfigError(f"checkpoint array {name} has shape {got.get(name)}, "
                              f"its network config gives {want.get(name)}")
    sizes = [math.prod(shape) for shape in shapes]
    blob = read_f64(os.path.join(path_dir, "params.bin"), sum(sizes), ConfigError,
                    "checkpoint blob")
    parts = dict(zip(manifest["order"], np.split(blob, np.cumsum(sizes)[:-1])))
    return NetParams(cfg, n, {k: parts[k].reshape(s) for k, s in want.items()}), manifest
