"""The configuration registry: every NetConfig/TrainConfig field has a key
with the field's default, and every key, fed a bad value through a command
that reads it, ends in a documented exit code with at most one line on
stderr."""

from dataclasses import fields

import pytest

from cginvert import config
from cginvert.cli import main
from cginvert.drcgnet import NetConfig, TrainConfig

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


@pytest.mark.parametrize("cls,section", [(NetConfig, "net"),
                                         (TrainConfig, "train")])
def test_every_field_has_a_key_with_its_default(cls, section):
    for f in fields(cls):
        key = config._field_key(section, f.name)
        assert key in config._REGISTRY, f"{cls.__name__}.{f.name} has no key"
        assert config._REGISTRY[key][1] == f.default, key


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
