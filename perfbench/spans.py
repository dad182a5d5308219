"""In-memory spans around the benchmark's calls into each layer.

A span holds a name, a start, an end, the span that was open when it
began, and ``n``, the number of calls it covers (a span around a batch of
cheap calls divides by it).  The layer is the part of the name before the
first dot.  Spans are kept in memory and written out once, when the run
ends.  With tracing off the workloads get ``NULL``, whose ``span`` is a
no-op, so the untraced run pays one call per span and nothing more.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext


class Span:
    """One timed call; also its own context manager, so recording a span
    costs one object and two clock reads."""

    __slots__ = ("id", "name", "parent", "start_ns", "end_ns", "n", "_tracer")

    def __init__(self, tracer, name, n):
        self.name = name
        self.n = n
        self.end_ns = 0
        self._tracer = tracer

    def __enter__(self):
        tracer = self._tracer
        self.id = len(tracer.spans)
        self.parent = tracer.open[-1] if tracer.open else None
        tracer.spans.append(self)
        tracer.open.append(self.id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end_ns = time.perf_counter_ns()
        self._tracer.open.pop()
        return False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "n": self.n}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []

    def span(self, name: str, n: int = 1) -> Span:
        return Span(self, name, n)

    def trees(self, root_name: str) -> list[Span]:
        """Every top-level span called ``root_name`` with all spans inside
        it, in start order."""
        top: dict[int, Span] = {}
        found = []
        for s in self.spans:
            top[s.id] = s if s.parent is None else top[s.parent]
            if top[s.id].name == root_name:
                found.append(s)
        return found

    def self_times(self, spans: list[Span] | None = None) -> dict[str, tuple[float, int]]:
        """Per layer: (self time in ms, span count).  A span's self time is
        its duration minus the time its direct children cover; spans run on
        one thread, so children never overlap."""
        spans = self.spans if spans is None else spans
        child_ns: dict[int, int] = {}
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
        out: dict[str, list] = {}
        for s in spans:
            acc = out.setdefault(s.layer, [0.0, 0])
            acc[0] += (s.end_ns - s.start_ns - child_ns.get(s.id, 0)) / 1e6
            acc[1] += 1
        return {layer: (ms, count) for layer, (ms, count) in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


class _NullTracer:
    _ctx = nullcontext()

    def span(self, name: str, n: int = 1):
        return self._ctx


NULL = _NullTracer()


def span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in nanoseconds."""
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (time.perf_counter_ns() - t0) / samples
