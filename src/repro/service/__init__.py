"""Online serving layer on top of the DHL index.

The paper's claim is sub-millisecond exact distances *while* absorbing a
stream of weight updates; this package turns that capability into a
service:

* :class:`DistanceService` — batched query facade with an epoch-guarded
  result cache and an update coalescer (:mod:`repro.service.service`);
  construct it with ``backend=`` — a built index satisfying
  :class:`~repro.core.backend.DistanceBackend`, or a runtime;
* :class:`AsyncDistanceService` — asyncio micro-batching frontend with
  admission control (:mod:`repro.service.async_frontend`);
* :class:`EpochLRUCache` — LRU result cache with O(1) watermark
  invalidation (:mod:`repro.service.cache`);
* :class:`UpdateCoalescer` — folds redundant change streams into one
  maintenance batch (:mod:`repro.service.coalescer`);
* :class:`ExecutionRuntime` — the pluggable execution layer: queries
  and maintenance run in-process (:class:`InProcessRuntime`) or on the
  one shard runtime of :mod:`repro.service.workers` — N supervised
  replica processes per shard with round-robin reads, request
  deadlines, failover and respawn, speaking the typed, versioned
  protocol of :mod:`repro.service.protocol`. The class picks the
  transport: :class:`ShardWorkerRuntime` (pipe frames, labels attached
  from shared memory) or :class:`SocketShardRuntime` (loopback TCP,
  labels shipped inline);
* :mod:`repro.service.workload` — uniform / Zipf-hotspot / rush-hour
  traffic generators and the :func:`replay` driver;
* :mod:`repro.service.metrics` — latency summaries read off the
  registry's latency histograms.

Deep observability (metrics registry, request span tracing, kernel
phase profiling, slow-query log) lives in :mod:`repro.observability`.
The service and frontend count in registry instruments whatever the
bundle; hand :class:`DistanceService` an ``Observability.enabled(...)``
bundle to export them — the default null bundle exports nothing.

The names above are re-exported lazily, as :mod:`repro` does: a module
is imported on the first access of one of its names. A spawned replica
unpickles :func:`repro.service.workers._replica_main`, which imports
this package first; eager re-exports would load the async frontend
(``asyncio``), the cache, the coalescer and the workload generators —
modules a replica never runs — into every replica's boot.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "Observability": "repro.observability",
    "NULL_OBSERVABILITY": "repro.observability",
    "AsyncDistanceService": "repro.service.async_frontend",
    "AsyncFrontendStats": "repro.service.async_frontend",
    "CacheStats": "repro.service.cache",
    "EpochLRUCache": "repro.service.cache",
    "CoalescedBatch": "repro.service.coalescer",
    "CoalescerStats": "repro.service.coalescer",
    "UpdateCoalescer": "repro.service.coalescer",
    "LatencySummary": "repro.service.metrics",
    "Timer": "repro.service.metrics",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "ComputeBatch": "repro.service.protocol",
    "EpochDelta": "repro.service.protocol",
    "HealthCheck": "repro.service.protocol",
    "HealthReply": "repro.service.protocol",
    "SubQuery": "repro.service.protocol",
    "TraceEnvelope": "repro.service.protocol",
    "CircuitBreaker": "repro.service.runtime",
    "ExecutionRuntime": "repro.service.runtime",
    "FaultEvent": "repro.service.faults",
    "FaultPlan": "repro.service.faults",
    "InProcessRuntime": "repro.service.runtime",
    "RetryPolicy": "repro.service.runtime",
    "WorkerPoolStats": "repro.service.runtime",
    "DistanceService": "repro.service.service",
    "ServiceStats": "repro.service.service",
    "ReplicaSupervisor": "repro.service.workers",
    "SocketShardRuntime": "repro.service.workers",
    "ShardExecutor": "repro.service.workers",
    "ShardRuntime": "repro.service.workers",
    "ShardWorkerRuntime": "repro.service.workers",
    "Event": "repro.service.workload",
    "QueryBatch": "repro.service.workload",
    "UpdateBatch": "repro.service.workload",
    "ReplayReport": "repro.service.workload",
    "commute_traffic": "repro.service.workload",
    "replay": "repro.service.workload",
    "rush_hour_traffic": "repro.service.workload",
    "uniform_traffic": "repro.service.workload",
    "zipf_hotspot_traffic": "repro.service.workload",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
