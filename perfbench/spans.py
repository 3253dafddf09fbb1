"""In-memory spans around the benchmark's own calls into the library.

A span is (id, parent id, name, start, end).  Spans are kept in a list and
written out once the run ends; nothing under ``src/`` is wrapped or patched.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: ``span`` costs one method call and records nothing."""

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec[0]
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self, root_id):
        """Self seconds per span name over the subtree under ``root_id``."""
        children = {}
        for rec in self.spans:
            children.setdefault(rec[1], []).append(rec)
        out = {}
        todo = list(children.get(root_id, ()))
        while todo:
            rec = todo.pop()
            kids = children.get(rec[0], ())
            busy = rec[4] - rec[3] - sum(k[4] - k[3] for k in kids)
            out[rec[2]] = out.get(rec[2], 0.0) + busy
            todo.extend(kids)
        return out

    def to_json(self):
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]
