"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened around calls into
the library's layers, either explicitly by the workload code or by
temporarily wrapping module attributes and methods; every wrap is undone
when the tracer closes.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, owner, attr, name, suffix_arg=None):
        """Replace ``owner.attr`` by a spanning wrapper until ``close``.

        ``suffix_arg`` names a positional argument whose value is appended
        to the span name (e.g. the optimisation order).  A missing attribute
        is skipped: its layer then reports no time.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            full = name if suffix_arg is None else f"{name}.{args[suffix_arg]}"
            with self.span(full):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def close(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the part its child spans cover.

        Spans nest strictly (one thread, opened and closed in stack order),
        so children never overlap each other or leave their parent.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def totals(self, root):
        """Inclusive seconds per span name among the descendants of ``root``."""
        inside = {root}
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def dump(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "self": st}
                for s, st in zip(self.spans, self.self_times())]
        path.write_text(json.dumps(rows) + "\n")
