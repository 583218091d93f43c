"""Unified observability layer: metrics, tracing, phase profiling.

One :class:`Observability` object bundles the three concerns the
serving stack reports through:

* a :class:`~repro.observability.registry.MetricsRegistry` of counters,
  gauges, and latency histograms with JSON-lines / Prometheus exporters;
* a :class:`~repro.observability.tracing.Tracer` producing sampled
  per-request span trees, stitched across worker-process pipes;
* a :class:`~repro.observability.slowlog.SlowLog` of over-threshold
  queries and flushes.

Kernel-phase profiling (:mod:`~repro.observability.phases`) is a module
global rather than part of the bundle, because the maintenance kernels
are far below the service layer and must not thread a handle through
every call.

Nothing is exported by default: :data:`NULL_OBSERVABILITY` carries a
registry whose instruments count for their owner but are not kept (the
service's own stats are those instruments), a tracer that records no
span and a slow log that never fires, so instrumented code calls them
unconditionally.
"""

from __future__ import annotations

from math import inf

from repro.observability.phases import (
    PhaseCollector,
    collect_phases,
    phase,
    phases_active,
)
from repro.observability.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.observability.slowlog import NullSlowLog, NULL_SLOW_LOG, SlowLog
from repro.observability.timing import Timer
from repro.observability.tracing import (
    NullTracer,
    NULL_TRACER,
    Span,
    Tracer,
    maybe_child,
)

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "maybe_child",
    "SlowLog",
    "NullSlowLog",
    "NULL_SLOW_LOG",
    "phase",
    "phases_active",
    "PhaseCollector",
    "collect_phases",
    "Timer",
]


class Observability:
    """Bundle of registry + tracer + slow log handed to the service.

    Construct with :meth:`enabled` for a live stack, or use
    :data:`NULL_OBSERVABILITY` (the default everywhere) for the no-op
    stack.
    """

    __slots__ = ("registry", "tracer", "slow_log")

    def __init__(self, registry, tracer, slow_log):
        self.registry = registry
        self.tracer = tracer
        self.slow_log = slow_log

    @property
    def is_enabled(self) -> bool:
        return self.registry.enabled

    @classmethod
    def enabled(
        cls,
        *,
        trace_sample_rate: float = 0.0,
        trace_keep: int = 32,
        slow_query_seconds: float = inf,
        slow_flush_seconds: float = inf,
        slow_log_keep: int = 64,
    ) -> "Observability":
        """A live observability stack.

        Metrics always record; tracing records every ``1/sample_rate``-th
        request (0.0 = none); the slow log fires only past its thresholds.
        """
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(sample_rate=trace_sample_rate, keep=trace_keep),
            slow_log=SlowLog(
                slow_query_seconds=slow_query_seconds,
                slow_flush_seconds=slow_flush_seconds,
                keep=slow_log_keep,
            ),
        )

    @classmethod
    def disabled(cls) -> "Observability":
        return NULL_OBSERVABILITY


NULL_OBSERVABILITY = Observability(NULL_REGISTRY, NULL_TRACER, NULL_SLOW_LOG)
