"""In-memory span recorder for the traced benchmark run.

The program has no tracing of its own, so the benchmark wraps functions of
the e7dirac modules from outside.  A wrapped name is replaced in every
module namespace that holds the same function object, because the package
imports its kernels by name (``from .norms import spin_sq12``): patching
only the defining module would miss the calls that matter.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing wrapped span (-1 at top level).  Spans stay in memory until the
run ends; ``write_json`` dumps them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # wrapped names currently on the stack
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active[name] += 1
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self.active[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(result, args,
        kwargs)`` runs after the span closes, to bump counters."""
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, name: str, home, attr: str, modules, on_result=None) -> None:
        """Wrap ``home.attr`` wherever one of ``modules`` binds it.  A name
        the program no longer has is skipped, and its metrics read 0."""
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = self.wrap(name, original, on_result)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds, and self seconds (inclusive
        minus the time covered by directly nested wrapped spans)."""
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write_json(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
