import importlib
import pkgutil

import pytest

import modmult

MODULES = sorted(info.name for info in pkgutil.iter_modules(modmult.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(f"modmult.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
