import importlib
import inspect
import pkgutil
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

import modmult
from modmult import bench, modexp
from modmult.bench import SweepConfig
from modmult.simulate import verify
from modmult.synth import synthesize

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


def test_benchmark_contract():
    # the benchmark under perfbench/ runs this package through names it
    # patches and fields it reads: a cut that removes one breaks here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = spec_from_file_location("perfbench_spans", path)
    spans = module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer, bench, modexp)  # getattr of each patched name
    finally:
        tracer.restore()
    assert verify(synthesize(13, 21)).tested == 21
    assert SweepConfig(moduli=(35,), jobs=1).moduli == (35,)
