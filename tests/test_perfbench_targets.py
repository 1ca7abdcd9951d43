"""The benchmark's tracer wraps package functions by name, so a function
it names must stay in the package, and ``import regionum`` must load its
module.  These tests read the tracer's target list and fail in the suite,
not in a traced benchmark run, when a name no longer resolves or a bare
import no longer loads it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    return tracing


def test_every_traced_target_is_a_regionum_callable(monkeypatch):
    for module_name, func_name in _tracing(monkeypatch).TARGETS:
        module = importlib.import_module(f"regionum.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_a_bare_import_loads_every_traced_module_and_not_the_worker_or_cli(monkeypatch):
    # The tracer finds each target in sys.modules after `import regionum`,
    # so that import must load every traced module; it must not pay for
    # the bracket worker or the CLI, which import regionum, not the reverse.
    modules = sorted({f"regionum.{name}" for name, _ in _tracing(monkeypatch).TARGETS})
    code = (
        "import sys, regionum\n"
        f"print([m for m in {modules!r} if m not in sys.modules])\n"
        "print([m for m in ('regionum.worker', 'regionum.cli') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.stdout.splitlines() == ["[]", "[]"], done.stdout + done.stderr
