"""Serving-side metrics: latency percentiles and throughput.

The serving layer reports the numbers an operator of a distance service
actually watches: per-call latency quantiles (p50/p95/p99), sustained
operation throughput, and cache effectiveness. Latencies are recorded
per *service call* (a batch of pairs is one call), while throughput is
per individual operation, so a batched engine shows both its amortised
win and its worst-case tail.

A :class:`LatencySummary` is a view over a registry latency histogram
and the counter of the operations its calls carried: the percentiles
are bucket estimates over
:data:`~repro.observability.registry.DEFAULT_LATENCY_BUCKETS`, held in
fixed memory however many calls were timed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.registry import Counter, Histogram
from repro.observability.timing import Timer

__all__ = ["LatencySummary", "Timer"]


@dataclass(frozen=True)
class LatencySummary:
    """Aggregated view of one latency histogram and its operations."""

    calls: int
    operations: int
    total_seconds: float
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    max_seconds: float

    @classmethod
    def of(cls, latency: Histogram, operations: Counter) -> "LatencySummary":
        """The summary of the calls *latency* timed, which carried
        ``operations.value`` operations between them."""
        return cls(
            calls=latency.count,
            operations=operations.value,
            total_seconds=latency.total,
            mean_seconds=latency.mean,
            p50_seconds=latency.percentile(50),
            p95_seconds=latency.percentile(95),
            p99_seconds=latency.percentile(99),
            max_seconds=latency.max,
        )

    @property
    def throughput(self) -> float:
        """Operations per second of wall time spent inside calls."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.operations / self.total_seconds

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "operations": self.operations,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "p99_seconds": self.p99_seconds,
            "max_seconds": self.max_seconds,
            "throughput": self.throughput,
        }

    def __str__(self) -> str:
        if not self.calls:
            return "no calls recorded"
        return (
            f"{self.calls} calls / {self.operations} ops, "
            f"{self.throughput:,.0f} ops/s, "
            f"p50 {self.p50_seconds * 1e3:.3f} ms, "
            f"p95 {self.p95_seconds * 1e3:.3f} ms, "
            f"p99 {self.p99_seconds * 1e3:.3f} ms"
        )
