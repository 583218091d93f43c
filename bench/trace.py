"""Benchmark-side tracing: spans around the seams the program exposes.

No program file carries a timer. The traced run hands the program
delegating proxies — a timed ``DistanceBackend`` under
``InProcessRuntime``, a timed ``ExecutionRuntime`` under
``DistanceService``, a timed service under ``AsyncDistanceService`` —
and records a span around every call that crosses one:

    op.query  > service.distances > runtime.distances    > backend.distances
    op.update > service.flush     > runtime.apply_update > backend.update

Spans stay in memory and are written out when the run ends. A span's
self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro.service.runtime import ExecutionRuntime

__all__ = [
    "Span",
    "SpanRecorder",
    "TimedBackend",
    "TimedRuntime",
    "TimedService",
    "self_times",
    "timed_spans",
]

#: Span families whose members overlap each other in time (64 callers
#: wait at once); they give waiting times but are not part of the serial
#: timeline whose self times sum to the wall time.
CONCURRENT = ("async.request", "async.update")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end, parent, request):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span log with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._bulk: list[tuple] = []
        self._local = threading.local()
        #: Parent for spans opened on a thread with no open span of its
        #: own: the async frontend runs service calls on an executor
        #: thread, and they belong to the round the generator has open.
        self.root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        span = Span(name, perf_counter(), None, stack[-1] if stack else self.root, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, request=None) -> Span:
        """Record a span timed by the caller (the overlapping families)."""
        span = Span(name, start, end, self.root, request)
        self.spans.append(span)
        return span

    def add_many(self, name: str, starts, ends, first_request: int) -> None:
        """Record one span per array entry, request ids counting up.

        Half a million request spans as objects would slow the traced
        replay by half through allocation and garbage-collector passes;
        as two arrays they cost a store each.
        """
        self._bulk.append((name, self.root, starts, ends, first_request))

    def write_jsonl(self, path: Path) -> None:
        """One ``[id, name, start, end, parent id, request]`` per line."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                out.write(json.dumps([i, s.name, s.start, s.end, parent, s.request]))
                out.write("\n")
            i = len(self.spans)
            for name, parent, starts, ends, first in self._bulk:
                parent = ids.get(id(parent))
                for k, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
                    out.write(json.dumps([i, name, start, end, parent, first + k]))
                    out.write("\n")
                    i += 1


#: Spans that run with the replay clock stopped or discarded.
UNTIMED = ("check", "probe", "warmup", "epilogue")


def _untimed(span: Span) -> bool:
    while span is not None:
        if span.name in UNTIMED:
            return True
        span = span.parent
    return False


def timed_spans(spans: list[Span], name: str | None = None) -> list[Span]:
    """Spans on the serial, timed timeline (optionally one name only).

    Spot-checks and speed probes run with the clock stopped and the
    warm-up round is discarded, so nothing at or under a ``check``,
    ``probe`` or ``warmup`` span is on it; neither are the overlapping
    families.
    """
    return [
        s
        for s in spans
        if s.name not in CONCURRENT
        and (name is None or s.name == name)
        and not _untimed(s)
    ]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per span name over the serial, timed timeline.

    A ``check`` or ``probe`` span still covers part of its round, so
    the round's self time excludes the stopped clock.
    """
    covered: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.name not in CONCURRENT:
            covered.setdefault(id(s.parent), []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in timed_spans(spans):
        own = s.seconds
        reach = s.start
        for start, end in sorted(covered.get(id(s), ())):
            start = max(start, reach)
            end = min(end, s.end)
            if end > start:
                own -= end - start
                reach = end
        out[s.name] = out.get(s.name, 0.0) + own
    return out


class TimedBackend:
    """A ``DistanceBackend`` that times the calls a runtime makes into it."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def distances(self, pairs):
        with self._recorder.span("backend.distances"):
            return self.inner.distances(pairs)

    def distance(self, s, t):
        with self._recorder.span("backend.distances"):
            return self.inner.distance(s, t)

    def update(self, changes, workers=None):
        with self._recorder.span("backend.update"):
            return self.inner.update(changes, workers)


class TimedRuntime(ExecutionRuntime):
    """An ``ExecutionRuntime`` that times the calls a service makes into it."""

    def __init__(self, inner: ExecutionRuntime, recorder: SpanRecorder):
        self.inner = inner
        self._recorder = recorder
        self.index = inner.index

    @property
    def backend(self) -> str:
        return self.inner.backend

    @property
    def worker_count(self) -> int:
        return self.inner.worker_count

    @property
    def supports_fine_grained_eviction(self) -> bool:
        return self.inner.supports_fine_grained_eviction

    @property
    def observability(self):
        return self.inner.observability

    @observability.setter
    def observability(self, value) -> None:
        self.inner.observability = value

    def distances(self, pairs):
        with self._recorder.span("runtime.distances"):
            return self.inner.distances(pairs)

    def distance(self, s, t):
        with self._recorder.span("runtime.distances"):
            return self.inner.distance(s, t)

    def apply_update(self, changes, workers=None):
        with self._recorder.span("runtime.apply_update"):
            return self.inner.apply_update(changes, workers)

    def pool_stats(self):
        return self.inner.pool_stats()

    def close(self) -> None:
        self.inner.close()


class TimedService:
    """A service front that times the calls a caller or frontend makes."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self._recorder = recorder
        #: Most recently finished ``service.distances`` span: the call
        #: that answered whichever async requests resolve next.
        self.last_query: Span | None = None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def distances(self, pairs):
        with self._recorder.span("service.distances", request=len(pairs)) as span:
            out = self.inner.distances(pairs)
        self.last_query = span
        return out

    def submit_many(self, changes):
        with self._recorder.span("service.submit_many"):
            return self.inner.submit_many(changes)

    def flush(self):
        with self._recorder.span("service.flush"):
            return self.inner.flush()
