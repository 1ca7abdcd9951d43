"""Span tracing of regionum's layers from outside the package.

The tracer replaces chosen public functions by timing wrappers for the
duration of a ``with Tracer():`` block.  A function is replaced under
every name it is bound to in a ``regionum`` module, because the package
calls across modules through names imported with ``from .x import f``:
wrapping only ``braid.handle_reduce`` would miss every call the
certifier makes through ``invariants.handle_reduce``.  On exit the
original functions are put back.

Spans are kept in memory as tuples ``(id, name, start, end, parent, item)``
and written out by :meth:`Tracer.dump` when the run ends.  A layer's self
time is its span time minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs, named "<module>.<function>" in the metrics.
TARGETS = (
    ("bounds", "verify_bound"),
    ("bounds", "explicit_schedule"),
    ("bounds", "target_word"),
    ("bounds", "flip_vector_for"),
    ("diagram", "close_braid"),
    ("gf2", "solution_coset"),
    ("invariants", "certify_unlink"),
    ("invariants", "jones"),
    ("invariants", "kauffman_bracket"),
    ("braid", "handle_reduce"),
    ("braid", "markov_simplify"),
    ("search", "brute_force_uR"),
)

# Generator functions: their span runs from the first ``next`` until the
# generator is exhausted or closed, and they are never a parent span.
GENERATORS = {"gf2.solution_coset"}

# Counters reported even when nothing incremented them.
COUNTERS = (
    "braid.handle_reduce.budget_exceeded",
    "gf2.solution_coset.yielded",
    "invariants.verdict.certified",
    "invariants.verdict.inconclusive",
    "invariants.verdict.refuted",
    "invariants.jones_skipped",
    "search.subsets_explored",
    "search.certify_calls",
)


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item: object = None
        self._stack: list[int] = []
        self._names: dict[int, str] = {}
        self._next_id = 0
        self._words: set[tuple[int, tuple[int, ...]]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        from regionum import braid

        self._budget_exceeded = braid.BudgetExceeded
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "regionum"]
        for module_name, func_name in TARGETS:
            orig = getattr(sys.modules[f"regionum.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = (
                self._wrap_generator(name, orig)
                if name in GENERATORS
                else self._wrap(name, orig)
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _open(self, name: str) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        self._names[span_id] = name
        parent = self._stack[-1] if self._stack else None
        return span_id, parent, time.perf_counter()

    def _close(self, span_id: int, name: str, start: float, parent: int | None) -> None:
        self.spans.append((span_id, name, start, time.perf_counter(), parent, self.item))

    def _wrap(self, name: str, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open(name)
            self._stack.append(span_id)
            try:
                result = orig(*args, **kwargs)
            except self._budget_exceeded:
                self.counts[f"{name}.budget_exceeded"] += 1
                raise
            finally:
                self._stack.pop()
                self._close(span_id, name, start, parent)
            self._observe(name, parent, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open(name)
            gen = orig(*args, **kwargs)
            try:
                for value in gen:
                    self.counts[f"{name}.yielded"] += 1
                    yield value
            finally:
                gen.close()
                self._close(span_id, name, start, parent)

        return wrapper

    def _observe(self, name: str, parent: int | None, args, result) -> None:
        """Counters read from return values at the layer boundary."""
        if name == "invariants.certify_unlink":
            self.counts[f"invariants.verdict.{result.verdict.value}"] += 1
            if result.jones_matches_unlink is None:
                self.counts["invariants.jones_skipped"] += 1
            if parent is not None and self._names[parent] == "search.brute_force_uR":
                self.counts["search.certify_calls"] += 1
                self._words.add((args[0].strands, args[0].letters))
        elif name == "search.brute_force_uR":
            self.counts["search.subsets_explored"] += result.explored

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded: ``calls``, ``ms`` and
        ``self_ms`` per traced function, plus the counters."""
        ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = defaultdict(float)
        for _, name, start, end, parent, _ in self.spans:
            calls[name] += 1
            ms[name] += (end - start) * 1e3
            if parent is not None:
                covered[parent] += (end - start) * 1e3
        self_ms: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            self_ms[name] += (end - start) * 1e3 - covered[span_id]
        out: dict[str, float] = {}
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = ms[name]
            out[f"{name}.self_ms"] = self_ms[name]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        out["search.distinct_words"] = len(self._words)
        return out

    def dump(self, fh, label: object) -> None:
        """Write every span, one JSON array per line, tagged with ``label``."""
        for span in self.spans:
            fh.write(json.dumps([label, *span]) + "\n")
