"""Every module's ``__all__`` names only attributes the module really has.

Deleting a function without its ``__all__`` entry leaves a name that
``from module import *`` and the docs promise but that fails to resolve.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    modules = list(_modules())
    assert "repro.tsp.construct" in {module.__name__ for module in modules}
    stale = [f"{module.__name__}.{name}"
             for module in modules
             for name in getattr(module, "__all__", ())
             if not hasattr(module, name)]
    assert stale == []
