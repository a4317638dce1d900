"""In-memory span recorder used by the traced runs.

Spans are recorded by the benchmark around its calls into each layer;
nothing inside ``src/`` is instrumented.  A span has a name, start and
end (``time.perf_counter`` seconds), the id of the span that caused it
and a shared trace id (one per campaign job or serve session).  Spans
stay in memory until :meth:`Tracer.dump` writes them as JSONL.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span store; the current span is tracked per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent is not None else ""
        with self._lock:
            span_id = next(self._ids)
        record = Span(span_id, name, time.perf_counter(), 0.0,
                      parent.span_id if parent is not None else None,
                      trace, attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """Self time per span name: duration minus the union of its children.

    Children are clipped to the parent's interval and merged before
    subtraction, so overlapping children (threads) are not counted twice.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals
