"""In-memory spans and counters recorded around calls into the package.

The package is never edited: a `Tracer` replaces module attributes with
wrappers that record a span (name, start, end, parent) per call, so the
timings come from the caller's side of each layer boundary.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    work: int | None = None  # counter increments inside the span, when asked for


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list = field(default_factory=list)

    def wrap(self, name, fn, work_counter=None):
        """`fn` with one span per call, nested under the innermost open span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            before = self.counts[work_counter] if work_counter else 0
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
                if work_counter:
                    span.work = self.counts[work_counter] - before

        return traced

    def counting(self, name, fn):
        """`fn` counted per call, without a span (for per-sweep helpers)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, name, work_counter=None, count_only=False):
        """Replace `module.attr` by its traced form; False if the attribute is gone."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        wrapped = self.counting(name, fn) if count_only else self.wrap(name, fn, work_counter)
        setattr(module, attr, wrapped)
        return True

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [[s.name, s.start, s.end, s.parent, s.work] for s in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def children(spans, index):
    return [s for s in spans if s.parent == index]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans, index):
    """A span's duration minus the part of it that its child spans cover."""
    span = spans[index]
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children(spans, index)
        if c.end > span.start and c.start < span.end
    ]
    return (span.end - span.start) - covered(clipped)
