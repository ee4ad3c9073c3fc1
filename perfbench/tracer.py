"""Span tracing of the diskapprox modules, installed from outside the package.

Every public function defined in a ``diskapprox`` module is wrapped, and every
reference to the original function object in any loaded ``diskapprox.*``
namespace is replaced by the wrapper, so calls between modules
(``cli -> covering -> matching``) are caught as well as calls from the
benchmark.  Spans are kept in memory as ``(name, start, end, parent, error,
count)`` tuples and written out by the caller when the run ends.

Two rules keep the attribution honest:

* A generator passed to a wrapped function is drained before that
  function's span opens, so lazy work is charged to the caller that created
  it.  ``instance_to_graph`` hands the grid-pairing generator to
  ``build_graph``; this rule puts the pairing in ``instance_to_graph``'s self
  time and leaves ``build_graph`` with canonicalization only.
* ``rng.mix64`` runs once per random number; wrapping it would cost more than
  the work it measures, so it stays inside ``random_instance``'s span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from types import GeneratorType

PACKAGE = "diskapprox"
SKIP = frozenset({"rng.mix64"})

# Work counts read off a call at the boundary where the work happens.
COUNTERS = {
    "geometry.instance_to_graph": lambda args, result: result.m,
    "geometry.random_instance": lambda args, result: result.n,
}


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _span_name(name: str, args, kwargs) -> str:
    if name == "exact.exact_domination":
        variant = args[1] if len(args) > 1 else kwargs.get("variant", "plain")
        return f"{name}.{variant}"
    return name


class Tracer:
    """Context manager that installs the wrappers and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(type(a) is GeneratorType for a in args):
                args = tuple(list(a) if type(a) is GeneratorType else a for a in args)
            span_name = _span_name(name, args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (span_name, start, time.perf_counter(), parent, type(exc).__name__, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            count = counter(args, result) if counter else None
            spans[index] = (span_name, start, end, parent, None, count)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        wrappers = {}
        for module in modules:
            short = _short(module.__name__)
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in SKIP
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span owned by the benchmark itself: a job or the set-up."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, None, None)

    def dump(self, path) -> None:
        rows = [
            [name, round(start - self.origin, 9), round(end - self.origin, 9), parent, error, count]
            for name, start, end, parent, error, count in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "error", "count"], "spans": rows}, handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def roots(spans) -> list[int]:
    """For each span, the index of the outermost span it runs under."""
    out = []
    for index, span in enumerate(spans):
        parent = span[3]
        out.append(index if parent < 0 else out[parent])
    return out


def layer_table(spans, keep) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts.

    ``keep(index)`` selects the spans that enter the table.
    """
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for index, (name, start, end, _, _, count) in enumerate(spans):
        if not keep(index):
            continue
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[index]
        row["count"] += count or 0
    return table
