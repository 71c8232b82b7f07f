"""In-memory spans and call counts for the traced benchmark passes.

A span is ``[name, start, end, parent, item]``: ``name`` is
``<module>.<function>`` (the module is the layer), ``parent`` is the index of
the enclosing span and ``item`` the id of the benchmark item that caused it.
Spans are opened by the benchmark around its own calls into each layer; calls
that a layer makes into another layer are wrapped by ``patched`` only for the
duration of a traced pass and restored afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    def span(self, name, item=None):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, item=None):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def patched(self, spans=(), counts=()):
        """Wrap ``(owner, attr, span_name)`` calls in spans and count
        ``(owner, attr, key)`` calls against the innermost open span."""
        saved = []

        def as_span(fn, name):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper

        def as_count(fn, key):
            def wrapper(*args, **kwargs):
                self.counts[(self._current(), key)] += 1
                return fn(*args, **kwargs)
            return wrapper

        try:
            for owner, attr, name in spans:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, as_span(getattr(owner, attr), name))
            for owner, attr, key in counts:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, as_count(getattr(owner, attr), key))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_s(self) -> list:
        """Self seconds of each span: its duration minus the part covered by
        its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_s()):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out

    def layer_self_s(self) -> dict:
        """Self seconds summed per layer (the module part of span names)."""
        layers: dict = defaultdict(float)
        for name, entry in self.summary().items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return dict(layers)

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "item"],
            "spans": self.spans,
            "counts": [[span, key, n] for (span, key), n in sorted(self.counts.items(), key=str)],
        }
