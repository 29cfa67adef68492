"""The configuration registry: every field of a config dataclass has a key
with the field's default and every solver key lands in its field, the
commands read every key, and every key, fed a bad value through a command
that reads it, ends in a documented exit code with at most one line on
stderr."""

from dataclasses import fields, is_dataclass

import pytest

from cginvert import config
from cginvert.cli import main
from cginvert.drcgnet import NetConfig, TrainConfig
from cginvert.gcgls import SolverConfig
from cginvert.scale_step import LinesearchConfig
from cginvert.tikhonov import NagdConfig

TINY = """
sensing.kind = radon
sensing.side = 6
sensing.angles = 4
data.samples = 3
solver.K = 5
net.K = 1
net.J = 1
net.depth = 2
net.channels = 4,1
train.epochs = 1
"""


@pytest.mark.parametrize("cls,section", [
    (NetConfig, "net"), (TrainConfig, "train"), (SolverConfig, "solver"),
    (NagdConfig, "tikhonov"), (LinesearchConfig, "zstep")],
    ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_every_field_has_a_key_with_its_default(cls, section):
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            continue  # a nested config is read from its own section
        key = config._field_key(section, f.name)
        assert key in config._REGISTRY, f"{cls.__name__}.{f.name} has no key"
        assert config._REGISTRY[key][1] == f.default, key


# each solver key, the SolverConfig field it sets and a value off its default
SOLVER_KEYS = {
    "solver.K": ("K", 7), "solver.J": ("J", 5), "solver.b": ("b", 2.5),
    "solver.stop_tol": ("stop_tol", 1e-6),
    "tikhonov.mode": ("tikhonov_mode", "nagd"),
    "tikhonov.nagd_steps": ("nagd.steps", 12), "tikhonov.eta": ("nagd.eta", 0.02),
    "zstep.method": ("zstep_method", "ista"),
    "zstep.linesearch": ("linesearch.mode", "fixed"),
    "zstep.eta": ("linesearch.eta", 0.3), "zstep.alpha": ("linesearch.alpha", 0.2),
}


def test_every_solver_key_lands_in_its_field():
    leaves = {f.name for f in fields(SolverConfig) if not is_dataclass(f.default_factory)}
    leaves |= {f"{f.name}.{g.name}" for f in fields(SolverConfig)
               if is_dataclass(f.default_factory) for g in fields(f.default_factory)}
    assert {path for path, _ in SOLVER_KEYS.values()} == leaves
    cfg = config.RunConfig.load(
        overrides=[f"{key}={value}" for key, (_, value) in SOLVER_KEYS.items()])
    _, _, scfg = config.build_solver(cfg, 16)
    default = SolverConfig()
    for key, (path, value) in SOLVER_KEYS.items():
        got, was = scfg, default
        for name in path.split("."):
            got, was = getattr(got, name), getattr(was, name)
        assert got == value != was, key


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    cfg = root / "run.cfg"
    cfg.write_text(TINY)
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "ds")]) == 0
    return str(cfg), str(root / "ds")


def _command(key):
    section = key.split(".")[0]
    if section in ("sensing", "data"):
        return "gen-data"
    if section in ("net", "train"):
        return "train"
    return "solve"


@pytest.mark.parametrize("value", ["nan", "-1", "0", "1e308", "abc"])
@pytest.mark.parametrize("key", sorted(config._REGISTRY))
def test_bad_value_ends_in_a_documented_exit(tiny_run, tmp_path, capsys, key,
                                             value):
    cfg, ds = tiny_run
    command = _command(key)
    argv = [command, "--config", cfg, "--set", f"{key}={value}",
            "--out", str(tmp_path / "out")]
    if command != "gen-data":
        argv += ["--dataset", ds]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (err == "")
    assert err.count("\n") <= 1 and "Traceback" not in err


def test_commands_read_every_key(tmp_path, monkeypatch, capsys):
    # a key that no command reads would be an orphan: settable, never used;
    # PGD cannot start on Gaussian sensing, so that run takes ISTA z-steps
    read = set()
    get = config.RunConfig.get

    def spy(self, key):
        read.add(key)
        return get(self, key)

    monkeypatch.setattr(config.RunConfig, "get", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + "train.val_fraction = 0.34\n")
    for kind, sets in [("radon", []),
                       ("gaussian", ["sensing.kind=gaussian", "sensing.m=20",
                                     "sensing.dict=dct", "zstep.method=ista"])]:
        overrides = [arg for kv in sets for arg in ("--set", kv)]
        ds = str(tmp_path / kind / "ds")
        for command in ("gen-data", "solve", "train"):
            inputs = [] if command == "gen-data" else ["--dataset", ds]
            out = ds if command == "gen-data" else str(tmp_path / kind / command)
            assert main([command, "--config", str(cfg), *overrides, *inputs,
                         "--out", out]) == 0, (kind, command)
    capsys.readouterr()
    assert sorted(config._REGISTRY.keys() - read) == []
