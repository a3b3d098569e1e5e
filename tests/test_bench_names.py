"""The library names the benchmark tracer patches must keep resolving.

`bench/tracing.py` wraps each (module, attribute) of its LAYERS table by
name: a module-level callable, or a method found in its class's __dict__.
A rename in the library would break a traced pass, so this test reads the
table (without installing anything) and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _unresolved(layers):
    """The `module.attr` names of the entries that Tracer.install could not patch."""
    unresolved = []
    for module_name, attr, _ in layers:
        module = importlib.import_module(f"worldlineqm.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            ok = method in vars(getattr(module, cls_name, object))
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            unresolved.append(f"{module_name}.{attr}")
    return unresolved


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    assert _unresolved(layers) == []


def test_a_deleted_or_renamed_layer_is_reported():
    # a deleted function, a missing method and a missing class
    gone = [("kernel", "fixed_mass_propagator", {}),
            ("interaction", "DysonOperator.no_such_method", {}),
            ("interaction", "NoSuchClass.method", {})]
    assert _unresolved(list(_layers()) + gone) == [f"{m}.{a}" for m, a, _ in gone]
