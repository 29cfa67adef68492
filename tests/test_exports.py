import importlib
import os
import pkgutil
import subprocess
import sys

import cginvert


def test_every_all_entry_resolves():
    names = [cginvert.__name__] + [
        info.name for info in pkgutil.walk_packages(cginvert.__path__,
                                                    cginvert.__name__ + ".")]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert len(names) > 10
    assert stale == []


def test_u_update_exports_only_the_routed_solve():
    # tikhonov_factored picks the route; the direct and Woodbury solves
    # stay private helpers behind it
    from cginvert import tikhonov
    assert {"tikhonov_solve", "tikhonov_factored",
            "tikhonov_adjoint"} <= set(tikhonov.__all__)
    assert not {"tikhonov_exact", "tikhonov_woodbury"} & set(dir(tikhonov))


def test_cli_import_leaves_scipy_fft_unloaded():
    # only build_dct uses scipy.fft, and loading it costs every command
    # about 65 ms; a fresh interpreter, as this one may have loaded it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(cginvert.__path__[0]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cginvert.cli; "
         "print('scipy.fft' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
