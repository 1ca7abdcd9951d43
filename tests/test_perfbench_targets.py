"""The benchmark's tracer wraps package functions by name, so a function
it names must stay in the package.  This test reads the tracer's target
list and fails in the suite, not in a traced benchmark run, when a name
no longer resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_is_a_regionum_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, func_name in tracing.TARGETS:
        module = importlib.import_module(f"regionum.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
