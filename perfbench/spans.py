"""Spans around the benchmark's own calls into packinglab.

A span records its name, start, end, parent span and job id.  Spans stay in
memory and are written out once, when the run ends.  Span names read
"<module>.<operation>", so a module's self time is the sum over its spans of
duration minus the time covered by child spans.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same shared no-op context."""

    job = None

    def span(self, name: str):
        return _NULL


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def span(self, name: str) -> _Span:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, None, None, parent, self.job])
        self.stack.append(index)
        return _Span(self, index)

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def self_times(spans: list[list], job_scale: dict) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    Child spans of one parent run one after another, so the time they cover
    is the sum of their durations.  Durations are multiplied by the scale
    factor of the span's job (see speed.py).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, job), child in zip(spans, covered):
        factor = job_scale.get(job, 1.0)
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * factor
        row["self_s"] += (end - start - child) * factor
    return out
