import importlib
import pkgutil

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
