"""In-memory spans around the benchmark's calls into tcpfluid layers.

A span is recorded by the benchmark, never inside the package: the
benchmark wraps each call into a layer's public function in
`Tracer.call`.  Spans stay in a list until the run ends and are then
reduced to per-iteration sums, from which the per-layer metrics follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str  # "<layer>.<function>[.<tag>]"; the layer is the first part
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int  # the iteration that made the span
    work: int  # events, points or edges the call processed; 0 if none


@dataclass
class Tracer:
    """Records spans when enabled; otherwise `call` is a plain call."""

    enabled: bool
    run_id: int = 0
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, work: int, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), 0.0, parent, self.run_id, work)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()


@dataclass
class Totals:
    """Sums over the spans of one name within one iteration."""

    time: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    work: int = 0


def totals_by_run(spans: list[Span]) -> dict[int, dict[str, Totals]]:
    """Per run id, per span name: summed time, self time, calls and work.

    Self time is a span's duration minus the time its child spans cover.
    Calls are sequential in one thread, so children of a span never
    overlap and their coverage is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[int, dict[str, Totals]] = {}
    for s, cov in zip(spans, covered):
        t = out.setdefault(s.run_id, {}).setdefault(s.name, Totals())
        t.time += s.end - s.start
        t.self_time += s.end - s.start - cov
        t.calls += 1
        t.work += s.work
    return out
