"""Flat key=value run configuration with a strict key registry.

Sections: sensing.*, reg.*, tikhonov.*, zstep.*, solver.*, net.*, train.*,
data.*.  Unknown keys are rejected by name; CLI --set overrides file values.
"""

from __future__ import annotations

from .covariance import CovarianceParam
from .drcgnet.params import NetConfig, TrainConfig
from .errors import ConfigError
from .gcgls import SolverConfig
from .regularizer import ScaleRegularizer
from .scale_step import LinesearchConfig
from .sensing import SensingModel, build_dct, build_gaussian, build_radon
from .tikhonov import NagdConfig

__all__ = ["RunConfig", "build_model", "build_regularizer", "build_covariance",
           "build_solver_config", "build_net_config", "build_train_config"]


def _bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _float_or_auto(s):
    return None if s.lower() in ("auto", "none") else float(s)


def _int_or_none(s):
    return None if s.lower() in ("none", "off") else int(s)


def _int_list(s):
    return tuple(int(t) for t in s.split(",") if t.strip())


_REGISTRY = {
    "sensing.kind": (str, None),
    "sensing.side": (int, 8),
    "sensing.angles": (int, 6),
    "sensing.m": (int, None),
    "sensing.seed": (int, 0),
    "sensing.scale": (float, 1.0),
    "sensing.dict": (str, "identity"),
    "reg.kind": (str, "logsq"),
    "reg.mu": (float, 1.0),
    "tikhonov.mode": (str, "exact"),
    "tikhonov.nagd_steps": (int, 100),
    "tikhonov.eta": (_float_or_auto, None),
    "zstep.method": (str, "pgd"),
    "zstep.linesearch": (str, "backtrack"),
    "zstep.eta": (_float_or_auto, None),
    "zstep.alpha": (float, 0.3),
    "solver.K": (int, 50),
    "solver.J": (int, 3),
    "solver.b": (float, 10.0),
    "solver.stop_tol": (float, 0.0),
    "solver.cov": (str, "scaled_identity"),
    "solver.cov_value": (float, 1.0),
    "solver.eps": (float, 1e-4),
    "net.K": (int, 3),
    "net.J": (int, 4),
    "net.depth": (int, 8),
    "net.kernel": (int, 3),
    "net.channels": (_int_list, (32, 32, 32, 32, 32, 32, 32, 1)),
    "net.variant": (str, "ista"),
    "net.cov": (str, "scaled_identity"),
    "net.gamma_max": (float, 1.0),
    "net.b": (float, 10.0),
    "net.u_mode": (str, "exact"),
    "net.nagd_steps": (int, 100),
    "net.nagd_eta": (_float_or_auto, None),
    "net.refine": (_bool, True),
    "net.eps": (float, 1e-4),
    "net.cov_init": (_float_or_auto, None),
    "train.lr": (float, 1e-4),
    "train.epochs": (int, 2000),
    "train.batch": (int, 0),
    "train.beta1": (float, 0.9),
    "train.beta2": (float, 0.999),
    "train.eps_adam": (float, 1e-8),
    "train.seed": (int, 0),
    "train.patience": (_int_or_none, None),
    "train.val_fraction": (float, 0.0),
    "data.source": (str, "synthetic"),
    "data.samples": (int, 10),
    "data.snr_db": (float, 60.0),
    "data.seed": (int, 0),
}


class RunConfig:
    """Typed view over the flat configuration."""

    def __init__(self, values=None):
        self.values = dict(values or {})

    @classmethod
    def load(cls, path=None, overrides=()):
        cfg = cls()
        if path is not None:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, val = (t.strip() for t in line.split("=", 1))
                    cfg.set(key, val)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not key=value")
            key, val = (t.strip() for t in item.split("=", 1))
            cfg.set(key, val)
        return cfg

    def set(self, key, raw_value):
        if key not in _REGISTRY:
            raise ConfigError(f"unknown configuration key: {key}")
        parser, _ = _REGISTRY[key]
        try:
            self.values[key] = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw_value!r} ({exc})")

    def get(self, key):
        if key not in _REGISTRY:
            raise ConfigError(f"unknown configuration key: {key}")
        if key in self.values:
            return self.values[key]
        return _REGISTRY[key][1]

    def require(self, key):
        val = self.get(key)
        if val is None:
            raise ConfigError(f"missing required configuration key: {key}")
        return val


def build_model(cfg):
    """SensingModel from the sensing.* section."""
    kind = cfg.require("sensing.kind")
    side = cfg.get("sensing.side")
    n = side * side
    scale = cfg.get("sensing.scale")
    if kind == "radon":
        base = build_radon(side, cfg.get("sensing.angles"))
        psi = base.psi
        meta = dict(base.meta)
    elif kind == "gaussian":
        m = cfg.get("sensing.m")
        if m is None:
            raise ConfigError("missing required configuration key: sensing.m")
        base = build_gaussian(m, n, cfg.get("sensing.seed"))
        psi = base.psi
        meta = dict(base.meta)
    else:
        raise ConfigError(f"unknown sensing.kind: {kind}")
    if scale != 1.0:
        psi = psi * scale
        meta["scale"] = scale
    dict_kind = cfg.get("sensing.dict")
    if dict_kind == "identity":
        phi = None
    elif dict_kind == "dct":
        phi = build_dct(n)
        meta["dict"] = "dct"
    else:
        raise ConfigError(f"unknown sensing.dict: {dict_kind}")
    return SensingModel(psi, phi=phi, side=side, meta=meta)


def build_regularizer(cfg):
    kind = cfg.get("reg.kind")
    if kind == "logsq":
        return ScaleRegularizer.log_squared(cfg.get("reg.mu"))
    if kind == "zero":
        return ScaleRegularizer.zero()
    raise ConfigError(f"unknown reg.kind: {kind}")


def build_covariance(cfg, n):
    kind = cfg.get("solver.cov")
    value = cfg.get("solver.cov_value")
    try:
        return CovarianceParam.init_default(kind, n, value, eps=cfg.get("solver.eps"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_solver_config(cfg):
    try:
        return SolverConfig(
            K=cfg.get("solver.K"),
            J=cfg.get("solver.J"),
            b=cfg.get("solver.b"),
            tikhonov_mode=cfg.get("tikhonov.mode"),
            nagd=NagdConfig(steps=cfg.get("tikhonov.nagd_steps"),
                            eta=cfg.get("tikhonov.eta")),
            zstep_method=cfg.get("zstep.method"),
            linesearch=LinesearchConfig(
                mode=cfg.get("zstep.linesearch"),
                eta=cfg.get("zstep.eta"),
                alpha=cfg.get("zstep.alpha"),
            ),
            stop_tol=cfg.get("solver.stop_tol"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_net_config(cfg):
    try:
        return NetConfig(
            K=cfg.get("net.K"),
            J=cfg.get("net.J"),
            depth=cfg.get("net.depth"),
            kernel=cfg.get("net.kernel"),
            channels=tuple(cfg.get("net.channels")),
            variant=cfg.get("net.variant"),
            cov_kind=cfg.get("net.cov"),
            gamma_max=cfg.get("net.gamma_max"),
            b=cfg.get("net.b"),
            u_mode=cfg.get("net.u_mode"),
            nagd_steps=cfg.get("net.nagd_steps"),
            nagd_eta=cfg.get("net.nagd_eta"),
            refine=cfg.get("net.refine"),
            eps=cfg.get("net.eps"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_train_config(cfg):
    try:
        return TrainConfig(
            lr=cfg.get("train.lr"),
            epochs=cfg.get("train.epochs"),
            batch=cfg.get("train.batch"),
            beta1=cfg.get("train.beta1"),
            beta2=cfg.get("train.beta2"),
            eps_adam=cfg.get("train.eps_adam"),
            seed=cfg.get("train.seed"),
            patience=cfg.get("train.patience"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def default_cov_init(cfg):
    """Covariance initialization: configured value, else 0.1 for the Radon
    operator and 10 for Gaussian sensing."""
    explicit = cfg.get("net.cov_init")
    if explicit is not None:
        return explicit
    return 0.1 if cfg.get("sensing.kind") == "radon" else 10.0
