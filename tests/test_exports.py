"""The package ships only what it calls: every module-level function,
class and constant of ``src/regionum`` is referenced by package code,
listed in ``regionum.__all__``, or named in the benchmark tracer's
``TARGETS``.  A test-only helper lives under ``tests/`` instead.

A reference is a load of the name, or an attribute of that name, in any
package module outside the name's own definition; an import alone is
none.  A ``regionum.limits`` name is also referenced when
``refuse_over`` receives it as a string, since that is how the limits
table is read.  Dunder names (``__version__``, ``__all__``) are module
protocol and are not checked."""

import ast
from pathlib import Path

import regionum

from test_perfbench_targets import _tracing

PACKAGE = Path(regionum.__file__).resolve().parent


def _defined(tree):
    """(name, node) for each module-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree, skip):
    """Names loaded in ``tree`` outside the node ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "refuse_over"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            found.add(node.args[0].value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced(package, kept):
    """``module.name`` for each module-level name of ``package`` that no
    package code references and ``kept`` does not hold."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for name, node in _defined(tree):
            if name.startswith("__") or name in kept:
                continue
            if not any(name in _references(t, node) for t in trees.values()):
                dead.append(f"{module}.{name}")
    return dead


def test_every_module_level_name_is_called_exported_or_traced(monkeypatch):
    traced = {name for _, name in _tracing(monkeypatch).TARGETS}
    assert unreferenced(PACKAGE, set(regionum.__all__) | traced) == []


def test_the_scan_flags_a_name_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "LIMIT = 3\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n"
        "def caller():\n    refuse_over('LIMIT', 1, 'x', 'y')\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n")
    assert unreferenced(tmp_path, {"caller"}) == ["a.dead"]
