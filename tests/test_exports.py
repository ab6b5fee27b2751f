import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_defined_here(name):
    # each function or class in __all__ is the module's own, not a re-export
    # of another's; an alias of a builtin such as circuit.Opcode = str is exempt
    module = importlib.import_module(f"modmult.{name}")
    objs = [getattr(module, n) for n in getattr(module, "__all__", ())]
    borrowed = [
        obj.__name__
        for obj in objs
        if (inspect.isroutine(obj) or inspect.isclass(obj))
        and obj.__module__ not in (module.__name__, "builtins")
    ]
    assert borrowed == []
