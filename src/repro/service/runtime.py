"""The pluggable execution layer under :class:`DistanceService`.

The serving frontend (cache, coalescer, latency accounting) is backend
agnostic: all query execution and index maintenance is delegated to an
:class:`ExecutionRuntime`, typed against the
:class:`~repro.core.backend.DistanceBackend` Protocol. Two
implementations exist:

* :class:`InProcessRuntime` — the backend's own query engine and update
  path, running in the service's process. Works with every backend
  (monolithic, directed, sharded) and is the default.
* :class:`~repro.service.workers.ShardRuntime` — each region shard of
  a :class:`~repro.core.sharded.ShardedDHLIndex` is served by N
  long-lived replica processes speaking the framed protocol of
  :mod:`repro.service.protocol`, with round-robin reads, per-round
  deadlines, failover and supervised respawn, all driven from the
  calling thread. Its two public names pick the transport:
  :class:`~repro.service.workers.ShardWorkerRuntime` (pipe frames,
  labels attached from ``multiprocessing.shared_memory``) and
  :class:`~repro.service.workers.SocketShardRuntime` (loopback TCP,
  labels shipped inline).

Runtimes own operating-system resources (processes, shared-memory
segments, sockets); callers must :meth:`~ExecutionRuntime.close` them —
the service forwards its own ``close()``/context-manager exit.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.backend import DistanceBackend, WeightChange
from repro.labelling.maintenance import MaintenanceStats
from repro.observability import NULL_OBSERVABILITY

__all__ = [
    "ExecutionRuntime",
    "InProcessRuntime",
    "WorkerPoolStats",
    "RetryPolicy",
    "CircuitBreaker",
]


class ExecutionRuntime(abc.ABC):
    """Where a :class:`DistanceService` executes queries and updates.

    Implementations expose the built backend as :attr:`index` (the
    service reads its epoch and graph), answer pair batches, and apply
    maintenance batches — keeping whatever execution substrate they
    manage (nothing, worker processes, remote replicas) consistent with
    the backend afterwards.
    """

    #: The distance backend this runtime executes against.
    index: DistanceBackend | None = None

    #: Observability bundle, installed by the owning service (class-level
    #: null by default, so standalone runtimes trace/count nothing).
    observability = NULL_OBSERVABILITY

    @property
    @abc.abstractmethod
    def backend(self) -> str:
        """Human-readable backend tag for stats/bench artifacts.

        Examples: ``in-process/monolithic``, ``in-process/sharded``,
        ``worker-pool/sharded[4x1 replicas]``,
        ``socket-pool/sharded[4x2 replicas]``.
        """

    @property
    def worker_count(self) -> int:
        """Worker processes serving queries (0 for in-process)."""
        return 0

    # -- queries --------------------------------------------------------
    @abc.abstractmethod
    def distances(self, pairs) -> np.ndarray:
        """Batch distances for global-id pairs: an ``(m, 2)`` integer
        array (what the service sends) or any iterable of ``(s, t)``."""

    def distance(self, s: int, t: int) -> float:
        """Single-pair distance (batch round trip unless overridden)."""
        return float(self.distances([(s, t)])[0])

    # -- maintenance ----------------------------------------------------
    @abc.abstractmethod
    def apply_update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        """Apply one weight-change batch and re-sync the substrate.

        Implementations must leave every execution path (worker label
        buffers, epochs) consistent with :attr:`index` before returning.
        ``workers`` is ignored (see :meth:`DistanceBackend.update`).
        """

    def apply_structural(self, insertions=(), deletions=(), weight_changes=()):
        """Apply one mixed structural batch (insert / delete / reweigh).

        Default: the backend's own ``apply_batch``, in the calling
        process. Pooled runtimes override to re-sync their substrate
        through the layout-change republish path afterwards.
        """
        return self.index.apply_batch(
            insertions=insertions,
            deletions=deletions,
            weight_changes=weight_changes,
        )

    def compact(self):
        """Run the backend's dead-slot compaction pass.

        Safe by default: compaction changes buffer layouts but never
        query structure, so pooled runtimes recover through the same
        republish path as :meth:`apply_structural`.
        """
        return self.index.compact()

    # -- introspection --------------------------------------------------
    def pool_stats(self):
        """Scheduler / delta-sync counters for pooled runtimes.

        Returns a :class:`WorkerPoolStats` for runtimes that schedule
        across workers, ``None`` otherwise — so printed summaries and
        metric snapshots can include the distributed backends without
        type-sniffing the runtime.
        """
        return None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release runtime-owned resources; idempotent."""

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessRuntime(ExecutionRuntime):
    """Execute directly on the backend in the calling process.

    Batch misses go to the backend's own ``distances`` (the pair kernel,
    or the sharded routing engine), updates to its maintenance entry
    point. Any :class:`~repro.core.backend.DistanceBackend` works. No
    resources are owned, so :meth:`close` is a no-op.
    """

    def __init__(self, index: DistanceBackend):
        self.index = index

    @property
    def backend(self) -> str:
        return f"in-process/{getattr(self.index, 'kind', 'monolithic')}"

    def distances(self, pairs) -> np.ndarray:
        return self.index.distances(pairs)

    def distance(self, s: int, t: int) -> float:
        return self.index.distance(s, t)

    def apply_update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        return self.index.update(changes)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"InProcessRuntime({self.backend})"


# ---------------------------------------------------------------------------
# pooled-runtime counters
# ---------------------------------------------------------------------------

@dataclass
class WorkerPoolStats:
    """Scheduler and epoch-broadcast counters of a pooled runtime.

    ``sub_batches`` counts worker requests (one per shard a batch
    needs, so at most k a batch),
    ``intra_pairs``/``cross_pairs`` how the traffic divided, and the
    broadcast counters certify the delta path: after N flushes,
    ``delta_syncs + republishes == shards touched across those flushes``
    and ``delta_bytes`` stays far below N full buffer copies.
    ``delta_bytes``/``republish_bytes`` count what was published per
    shard (every replica of an inline-synced shard receives that much).
    A failover is a request retried on a sibling replica after a
    timeout or connection loss, a resync a behind replica brought back
    to the shard's current buffers and epoch.
    """

    batches: int = 0
    pairs: int = 0
    intra_pairs: int = 0
    cross_pairs: int = 0
    sub_batches: int = 0
    epoch_broadcasts: int = 0
    delta_syncs: int = 0
    delta_bytes: int = 0
    republishes: int = 0
    republish_bytes: int = 0
    #: Whole-buffer re-syncs forced by maintenance that bypassed
    #: ``apply_update`` (direct index updates; epoch drift).
    full_syncs: int = 0
    #: Requests retried on a sibling replica.
    failovers: int = 0
    #: Behind replicas healed by a resync.
    resyncs: int = 0
    #: Dead replicas brought back by the supervisor.
    respawns: int = 0
    #: Respawn attempts that themselves failed (still backed off).
    respawn_failures: int = 0
    #: Health probes that timed out or errored (replica marked dead).
    heartbeat_timeouts: int = 0
    #: Per-shard circuit-breaker transitions into the open state.
    breaker_opens: int = 0
    #: Per-shard circuit-breaker transitions back to closed.
    breaker_closes: int = 0
    #: Breakers currently open (gauge, not a counter).
    breakers_open: int = 0
    #: Pairs shed with a typed partial-result error (breaker open).
    shed_pairs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# fault-tolerance primitives (shared by the supervisor and the breaker)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt)`` grows ``base_delay * multiplier**attempt`` capped
    at ``max_delay``, then shaves off up to ``jitter`` of itself using a
    CRC32 hash of ``(seed, attempt)`` — decorrelated like random jitter,
    but reproducible, so recovery tests never need to tolerate timing
    slop. ``attempts`` bounds how many respawns are tried before a
    replica is written off until the next health-poll cycle.
    """

    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    attempts: int = 5
    seed: int = 0

    def delay(self, attempt: int) -> float:
        raw = min(
            self.base_delay * self.multiplier ** max(0, attempt),
            self.max_delay,
        )
        if not self.jitter:
            return raw
        unit = zlib.crc32(f"{self.seed}:{attempt}".encode()) / 0xFFFFFFFF
        return raw * (1.0 - self.jitter * unit)


class CircuitBreaker:
    """Per-shard availability state machine.

    ``closed`` — at least one replica serves; dispatch normally.
    ``open`` — every replica is down; requests for this shard are shed
    (or answered overlay-only) without touching the transport.
    ``half-open`` — the supervisor respawned a replica that handshook
    and resynced, but no query has proven it yet; dispatch is allowed,
    and the first success closes the breaker.

    Transitions are counted into a :class:`WorkerPoolStats` when one is
    attached (``breaker_opens`` / ``breaker_closes`` counters plus the
    ``breakers_open`` gauge).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, sid: int, stats: WorkerPoolStats | None = None):
        self.sid = sid
        self.state = self.CLOSED
        self.stats = stats

    @property
    def allows_requests(self) -> bool:
        return self.state != self.OPEN

    def trip(self) -> None:
        """Every replica down: stop dispatching to this shard."""
        if self.state != self.OPEN:
            self.state = self.OPEN
            if self.stats is not None:
                self.stats.breaker_opens += 1
                self.stats.breakers_open += 1

    def probation(self) -> None:
        """A replica came back (respawned + resynced) but is unproven."""
        if self.state == self.OPEN:
            self.state = self.HALF_OPEN

    def record_success(self) -> None:
        """A request succeeded: the shard is healthy again."""
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            if self.stats is not None:
                self.stats.breaker_closes += 1
                self.stats.breakers_open = max(
                    0, self.stats.breakers_open - 1
                )

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"CircuitBreaker(sid={self.sid}, state={self.state!r})"
