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
* :class:`EpochLRUCache` — LRU result cache with O(1) watermark or
  fine-grained per-vertex invalidation (:mod:`repro.service.cache`);
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
* :mod:`repro.service.metrics` — latency percentile recorders.

Deep observability (metrics registry, request span tracing, kernel
phase profiling, slow-query log) lives in :mod:`repro.observability`;
hand :class:`DistanceService` an ``Observability.enabled(...)`` bundle
to switch it on — the default is the zero-overhead null bundle.
"""

from repro.observability import NULL_OBSERVABILITY, Observability
from repro.service.async_frontend import AsyncDistanceService, AsyncFrontendStats
from repro.service.cache import CacheStats, EpochLRUCache
from repro.service.coalescer import CoalescedBatch, CoalescerStats, UpdateCoalescer
from repro.service.faults import FaultEvent, FaultPlan
from repro.service.metrics import LatencyRecorder, LatencySummary, Timer
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ComputeBatch,
    EpochDelta,
    FanQuery,
    HealthCheck,
    HealthReply,
    SubQuery,
    TraceEnvelope,
)
from repro.service.runtime import (
    CircuitBreaker,
    ExecutionRuntime,
    InProcessRuntime,
    RetryPolicy,
    WorkerPoolStats,
)
from repro.service.service import DistanceService, ServiceStats
from repro.service.workers import (
    ReplicaSupervisor,
    ShardExecutor,
    ShardRuntime,
    ShardWorkerRuntime,
    SocketShardRuntime,
)
from repro.service.workload import (
    Event,
    QueryBatch,
    ReplayReport,
    UpdateBatch,
    commute_traffic,
    replay,
    rush_hour_traffic,
    uniform_traffic,
    zipf_hotspot_traffic,
)

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "AsyncDistanceService",
    "AsyncFrontendStats",
    "CacheStats",
    "EpochLRUCache",
    "CoalescedBatch",
    "CoalescerStats",
    "UpdateCoalescer",
    "LatencyRecorder",
    "LatencySummary",
    "Timer",
    "PROTOCOL_VERSION",
    "ComputeBatch",
    "EpochDelta",
    "FanQuery",
    "HealthCheck",
    "HealthReply",
    "SubQuery",
    "TraceEnvelope",
    "CircuitBreaker",
    "ExecutionRuntime",
    "FaultEvent",
    "FaultPlan",
    "InProcessRuntime",
    "RetryPolicy",
    "WorkerPoolStats",
    "DistanceService",
    "ServiceStats",
    "ReplicaSupervisor",
    "SocketShardRuntime",
    "ShardExecutor",
    "ShardRuntime",
    "ShardWorkerRuntime",
    "Event",
    "QueryBatch",
    "UpdateBatch",
    "ReplayReport",
    "commute_traffic",
    "replay",
    "rush_hour_traffic",
    "uniform_traffic",
    "zipf_hotspot_traffic",
]
