"""The benchmark's tracer patches gausskey functions by name; a renamed or
removed one would crash every traced run, so the names are pinned here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_of_its_layer():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for layer, names in wrapped.items():
        module = importlib.import_module(f"gausskey.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gausskey.{layer}.{name}"
