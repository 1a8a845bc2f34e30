"""In-memory span recorder used by the traced benchmark run.

A span is (id, name, parent id, start, end) with times from
``time.perf_counter``.  Spans are opened by the benchmark around each call
into a quditgates layer; the op (or probe) that caused a call is its parent.
Nothing is written until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    """Tracing on: every call and span is kept with its parent."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span_id, name, parent, start, time.perf_counter()))

    @contextmanager
    def span(self, name: str):
        """Open a parent span (an op or a probe) for the calls made inside."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((span_id, name, parent, start, time.perf_counter()))

    def count(self, name: str, n: int) -> None:
        """Add `n` to the counter `name`."""
        self.counts[name] += n

    def busy(self) -> dict[str, tuple[int, float]]:
        """(calls, busy seconds) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, name, _, start, end in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def self_time(self, name: str) -> float:
        """Summed duration of spans `name` minus the time of their children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(
            (end - start) - child_time[span_id]
            for span_id, span_name, _, start, end in self.spans
            if span_name == name
        )

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
