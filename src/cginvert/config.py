"""Flat key=value run configuration with a strict key registry.

Sections: sensing.*, reg.*, tikhonov.*, zstep.*, solver.*, net.*, train.*,
data.*.  Unknown keys are rejected by name; CLI --set overrides file values.
A key that sets a config dataclass field takes its name, parser and default
from the field; only the keys with no such field are listed by hand.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

from .covariance import DEFAULT_EPS, CovarianceParam
from .drcgnet.params import NetConfig, TrainConfig, init_params
from .errors import ConfigError
from .gcgls import SolverConfig
from .regularizer import ScaleRegularizer
from .scale_step import LinesearchConfig
from .sensing import SensingModel, build_dct, build_gaussian, build_radon
from .tikhonov import NagdConfig

__all__ = ["RunConfig", "build_model", "build_solver", "build_net_config",
           "build_train_config", "build_init_params"]


@contextmanager
def _config_errors():
    """Re-raise a library ValueError as a ConfigError with its message."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    "solver.cov": (str, "scaled_identity"),
    "solver.cov_value": (float, 1.0),
    "solver.eps": (float, DEFAULT_EPS),
    "net.cov_init": (_float_or_auto, None),
    "train.val_fraction": (float, 0.0),
    "data.source": (str, "synthetic"),
    "data.samples": (int, 10),
    "data.snr_db": (float, 60.0),
    "data.seed": (int, 0),
}


# Key section of each config dataclass: a field's key is <section>.<field>
# unless _RENAMED says otherwise, and a field annotated with another of these
# classes (SolverConfig.nagd, .linesearch) is built from that class's section.
_SECTIONS = {NetConfig: "net", TrainConfig: "train", SolverConfig: "solver",
             NagdConfig: "tikhonov", LinesearchConfig: "zstep"}
_NESTED = {cls.__name__: cls for cls in _SECTIONS}
_RENAMED = {"net.cov_kind": "net.cov", "solver.tikhonov_mode": "tikhonov.mode",
            "solver.zstep_method": "zstep.method",
            "tikhonov.steps": "tikhonov.nagd_steps", "zstep.mode": "zstep.linesearch"}


def _field_key(section, name):
    """Registry key of field name of the config dataclass in section."""
    key = f"{section}.{name}"
    return _RENAMED.get(key, key)


# Parser of each field annotation (the config dataclasses' modules postpone
# annotations, so they are strings); any other annotation fails at import.
_FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool,
                  "tuple": _int_list, "float | None": _float_or_auto,
                  "int | None": _int_or_none}
_REGISTRY.update({_field_key(section, f.name): (_FIELD_PARSERS[f.type], f.default)
                  for cls, section in _SECTIONS.items()
                  for f in fields(cls) if f.type not in _NESTED})


class RunConfig:
    """Typed view over the flat configuration."""

    def __init__(self, values=None):
        self.values = dict(values or {})

    @classmethod
    def load(cls, path=None, overrides=()):
        cfg = cls()
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"config file {path}: {exc.strerror}") from None
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config file {path} is not UTF-8 text: "
                                  f"{exc.reason} at byte {exc.start}") from None
            for lineno, raw in enumerate(text.split("\n"), start=1):
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


def signal_size(cfg):
    """Signal length n, the square of sensing.side."""
    side = cfg.get("sensing.side")
    if side < 1:
        raise ConfigError(f"sensing.side must be >= 1, got {side}")
    return side * side


def build_model(cfg):
    """SensingModel from the sensing.* section."""
    kind = cfg.require("sensing.kind")
    n = signal_size(cfg)
    side = cfg.get("sensing.side")
    scale = cfg.get("sensing.scale")
    if not 0.0 < abs(scale) < float("inf"):
        raise ConfigError(f"sensing.scale must be finite and nonzero, got {scale:g}")
    with _config_errors():
        if kind == "radon":
            base = build_radon(side, cfg.get("sensing.angles"))
        elif kind == "gaussian":
            base = build_gaussian(cfg.require("sensing.m"), n,
                                  cfg.get("sensing.seed"))
        else:
            raise ConfigError(f"unknown sensing.kind: {kind}")
    psi = base.psi
    meta = dict(base.meta)
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


def build_solver(cfg, n):
    """(covariance, regularizer, SolverConfig) of a solver run on signals of
    size n, checked in that order.  A covariance value <= 0 is rejected
    after the kind and floor checks."""
    with _config_errors():
        value = cfg.get("solver.cov_value")
        p = CovarianceParam.init_default(cfg.get("solver.cov"), n, value,
                                         eps=cfg.get("solver.eps"))
        if value <= 0:
            raise ConfigError(f"solver.cov_value must be > 0, got {value!r}")
        kind = cfg.get("reg.kind")
        if kind == "logsq":
            r = ScaleRegularizer.log_squared(cfg.get("reg.mu"))
        elif kind == "zero":
            r = ScaleRegularizer.zero()
        else:
            raise ConfigError(f"unknown reg.kind: {kind}")
    return p, r, _from_fields(SolverConfig, cfg)


def _from_fields(cls, cfg):
    """cls from its section's keys; nested configs are built (and checked) first."""
    section = _SECTIONS[cls]
    with _config_errors():
        return cls(**{f.name: _from_fields(_NESTED[f.type], cfg) if f.type in _NESTED
                      else cfg.get(_field_key(section, f.name)) for f in fields(cls)})


def build_net_config(cfg):
    return _from_fields(NetConfig, cfg)


def build_train_config(cfg):
    # train() accepts zero epochs, but the command reports the last epoch's loss
    if cfg.get("train.epochs") < 1:
        raise ConfigError("train.epochs must be >= 1")
    if cfg.get("train.seed") < 0:
        raise ConfigError("train.seed must be >= 0")
    return _from_fields(TrainConfig, cfg)


def build_init_params(cfg, net_cfg, n):
    """Fresh network parameters seeded by train.seed, with the covariance at
    net.cov_init * I: by default 0.1 for the Radon operator and 10 for
    Gaussian sensing.  A net.cov_init <= 0 is rejected after the floor
    checks."""
    cov_init = cfg.get("net.cov_init")
    if cov_init is None:
        cov_init = 0.1 if cfg.get("sensing.kind") == "radon" else 10.0
    with _config_errors():
        params = init_params(net_cfg, n, seed=cfg.get("train.seed"),
                             cov_init=cov_init)
    if cov_init <= 0:
        raise ConfigError(f"net.cov_init must be > 0, got {cov_init!r}")
    return params
