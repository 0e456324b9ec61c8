"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, item): ``parent`` indexes the enclosing
span (-1 for a root) and ``item`` is the id of the workload item it served.
Spans are kept in a list and written out once, after the run.  With tracing
off, :meth:`Tracer.call` is a plain call, so the untraced run pays nothing
but one attribute test per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = defaultdict(float)
        self.item = None
        self._stack = []

    @staticmethod
    def name(fn):
        """Layer span name of a package function: ``<module>.<function>``."""
        return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named after ``fn``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(self.name(fn)):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] += value

    def durations(self):
        """Span durations grouped by name."""
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def write(self, path):
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "item": i} for n, s, e, p, i in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records, "counts": dict(self.counts)}, fh)
