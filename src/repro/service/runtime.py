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
  :mod:`repro.service.protocol`, with round-robin reads, per-request
  deadlines, failover and supervised respawn. Its two public names
  pick the transport: :class:`~repro.service.workers.ShardWorkerRuntime`
  (pipe frames, labels attached from ``multiprocessing.shared_memory``)
  and :class:`~repro.service.workers.SocketShardRuntime` (loopback TCP,
  labels shipped inline).

:class:`RegionPairScheduler` is the transport-agnostic batch scheduler
under the shard runtime: it splits a pair batch by ``(source region,
target region)``, builds typed
:class:`~repro.service.protocol.SubQuery` messages, and combines the
replies — the runtime only implements message delivery and label sync.

Runtimes own operating-system resources (processes, shared-memory
segments, sockets); callers must :meth:`~ExecutionRuntime.close` them —
the service forwards its own ``close()``/context-manager exit.
"""

from __future__ import annotations

import abc
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.backend import DistanceBackend, WeightChange
from repro.exceptions import PartialResultError, ServiceRuntimeError
from repro.labelling.maintenance import MaintenanceStats
from repro.observability import NULL_OBSERVABILITY, Span, maybe_child, phase
from repro.service.protocol import FanQuery, SubQuery, SubResult
from repro.sharding.engine import min_plus_compact, region_pair_groups
from repro.utils.pairs import as_pair_array, check_ids

__all__ = [
    "ExecutionRuntime",
    "InProcessRuntime",
    "RegionPairScheduler",
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

    @property
    def supports_fine_grained_eviction(self) -> bool:
        """Whether per-pair hubs certify cached results on this backend."""
        return getattr(self.index, "supports_fine_grained_eviction", True)

    # -- queries --------------------------------------------------------
    @abc.abstractmethod
    def distances(self, pairs) -> np.ndarray:
        """Batch distances for global-id pairs: an ``(m, 2)`` integer
        array (what the service sends) or any iterable of ``(s, t)``."""

    def distances_with_hubs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``(distances, hubs)``; hub -1 where no hub certifies."""
        out = self.distances(pairs)
        return out, np.full(len(out), -1, dtype=np.int64)

    def distance(self, s: int, t: int) -> float:
        """Single-pair distance (batch round trip unless overridden)."""
        return float(self.distances([(s, t)])[0])

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Single-pair ``(distance, hub)`` counterpart."""
        values, hubs = self.distances_with_hubs([(s, t)])
        return float(values[0]), int(hubs[0])

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

    This is the pre-runtime serving path extracted verbatim: batch
    misses hit the backend's zero-copy kernel (or the sharded routing
    engine), updates call the backend's maintenance entry point. Any
    :class:`~repro.core.backend.DistanceBackend` works — backends with
    a hub-aware engine get the certified-hub fast path, the rest fall
    back to the Protocol's plain batch surface. No resources are owned,
    so :meth:`close` is a no-op.
    """

    def __init__(self, index: DistanceBackend):
        self.index = index

    @property
    def _engine(self):
        """The backend's hub-aware engine, if it has one — its hubs
        certify cached entries; a backend without one still serves
        through the Protocol surface. Read per call: a structural
        fallback rebuild makes the index adopt a new engine."""
        return getattr(self.index, "engine", None)

    @property
    def backend(self) -> str:
        return f"in-process/{getattr(self.index, 'kind', 'monolithic')}"

    def distances(self, pairs) -> np.ndarray:
        return self.index.distances(pairs)

    def distances_with_hubs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        engine = self._engine
        if engine is not None:
            return engine.distances_with_hubs(pairs)
        return super().distances_with_hubs(pairs)

    def distance(self, s: int, t: int) -> float:
        return self.index.distance(s, t)

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        engine = self._engine
        if engine is not None:
            return engine.distance_with_hub(s, t)
        return super().distance_with_hub(s, t)

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

    ``sub_batches`` counts worker requests (the split granularity),
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
    #: Pairs answered with overlay-only upper bounds (degraded opt-in).
    degraded_pairs: int = 0

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


# ---------------------------------------------------------------------------
# the shared region-pair batch scheduler
# ---------------------------------------------------------------------------

_DEGRADED_MODES = ("shed", "overlay", "error")


class RegionPairScheduler(ExecutionRuntime):
    """Transport-agnostic batch scheduler over a sharded backend.

    Owns everything about *what* to compute: the ``(region_s,
    region_t)`` batch split, the typed :class:`SubQuery` construction
    (fans, overlay blocks, epoch stamps), the parent-side min-plus
    combine for cross-shard groups, the update→delta-broadcast flow and
    the epoch-drift reconcile. Subclasses own *how* messages travel:

    * :meth:`_dispatch` — deliver each shard's :class:`SubQuery` list
      and return :class:`SubResult` replies by scheduler slot;
    * :meth:`_sync_shard` — ship one shard's changed label slots (or
      republish) after maintenance;
    * :meth:`_full_sync` — whole-buffer re-sync for one shard after
      out-of-band maintenance;
    * :meth:`_close_transport` — release transport resources.

    Sub-queries always carry their overlay block plus its epoch stamp
    (block materialisation is an engine-cache hit for the parent);
    transports elide the block per target once they know it is held —
    so a failover retry to a sibling replica that holds nothing can
    always re-ship it from the same :class:`SubQuery`.
    """

    kind = "pooled"
    # Sharded distances have no per-pair hub certificate (see
    # ShardedDHLIndex); the cache must use epoch invalidation.
    supports_fine_grained_eviction = False

    def __init__(self, index, degraded_mode: str = "shed"):
        from repro.core.sharded import ShardedDHLIndex

        if not isinstance(index, ShardedDHLIndex):
            raise TypeError(
                f"{type(self).__name__} requires a ShardedDHLIndex; got "
                f"{type(index).__name__} (use InProcessRuntime instead)"
            )
        if degraded_mode not in _DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {_DEGRADED_MODES}, "
                f"got {degraded_mode!r}"
            )
        self.index = index
        #: What a batch does while a shard's every replica is down (see
        #: :class:`~repro.service.workers.ShardRuntime`).
        self.degraded_mode = degraded_mode
        self.stats = WorkerPoolStats()
        self._epochs = [0] * index.k
        self._index_epoch = index.epoch
        self._closed = False
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=index.k, thread_name_prefix="shard-io"
        )

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _dispatch(
        self,
        requests: dict[int, list[tuple[tuple[int, int], SubQuery]]],
        request_span: Span | None = None,
    ) -> dict[tuple[int, int], SubResult]:
        """Deliver each shard's sub-queries; map slots to results."""

    @abc.abstractmethod
    def _sync_shard(self, sid: int, affected: Iterable[int]) -> None:
        """Ship shard *sid*'s changed label slots at ``self._epochs[sid]``."""

    @abc.abstractmethod
    def _full_sync(self, sid: int) -> None:
        """Whole-buffer re-sync of shard *sid* at ``self._epochs[sid]``."""

    def _close_transport(self) -> None:
        """Release transport-owned resources (processes, sockets)."""

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distances(self, pairs) -> np.ndarray:
        arr = as_pair_array(pairs)
        return self.distances_arrays(arr[:, 0], arr[:, 1])

    def distance(self, s: int, t: int) -> float:
        return float(
            self.distances_arrays(
                np.array([s], dtype=np.int64), np.array([t], dtype=np.int64)
            )[0]
        )

    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances via the region-pair-aware batch scheduler; an
        id outside ``[0, n)`` raises
        :class:`~repro.exceptions.VertexNotFound` before any dispatch."""
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        # Attach scheduler/worker spans under the caller's open request
        # span (None when the request was not sampled or tracing is off).
        request_span = self.observability.tracer.current
        owner = self.index
        s = np.asarray(s, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        check_ids(owner.graph.num_vertices, s, t)
        if not len(s):
            return np.empty(0, dtype=np.float64)
        out = np.full(len(s), np.inf, dtype=np.float64)
        rs = owner.region_of[s]
        rt = owner.region_of[t]
        local_s = owner.local_of[s]
        local_t = owner.local_of[t]
        has_overlay = owner.overlay is not None
        overlay_epoch = owner.overlay.epoch if has_overlay else 0

        groups: list[tuple[np.ndarray, int, int]] = []
        requests: dict[int, list[tuple[tuple[int, int], SubQuery]]] = {}
        # Slots each group is owed, with the shard that owes them — the
        # shed detector: a group whose dispatched slots did not all come
        # back lost (at least) one shard to an open breaker.
        expected: dict[int, list[tuple[tuple[int, int], int]]] = {}

        def enqueue(sid: int, slot: tuple[int, int], sub: SubQuery) -> None:
            requests.setdefault(sid, []).append((slot, sub))
            expected.setdefault(slot[0], []).append((slot, sid))
            self.stats.sub_batches += 1

        engine = owner.engine  # overlay blocks + their epoch cache
        # Same (region_s, region_t) split as the in-process sharded
        # engine, but each group becomes typed worker sub-queries.
        with maybe_child(request_span, "scheduler"):
            for g, (idx, i, j) in enumerate(region_pair_groups(rs, rt, owner.k)):
                groups.append((idx, i, j))
                s_local = local_s[idx]
                t_local = local_t[idx]
                fan = (
                    has_overlay
                    and len(owner.boundary_local[i])
                    and len(owner.boundary_local[j])
                )
                if i == j:
                    self.stats.intra_pairs += len(idx)
                    # The (tiny, epoch-cached) overlay block travels with
                    # the sub-query: the owning worker folds the boundary
                    # route itself and ships back one final array. The
                    # transport elides the block once its target holds
                    # this overlay epoch.
                    enqueue(
                        i,
                        (g, "final"),
                        SubQuery(
                            s=s_local,
                            t=t_local,
                            fan_src=FanQuery(s_local) if fan else None,
                            fan_dst=FanQuery(t_local) if fan else None,
                            block=engine.overlay_block(i, i) if fan else None,
                            block_epoch=overlay_epoch if fan else -1,
                        ),
                    )
                else:
                    self.stats.cross_pairs += len(idx)
                    if fan:
                        engine.overlay_block(i, j)  # warm the cache serially
                        enqueue(
                            i, (g, "src"), SubQuery(fan_src=FanQuery(s_local))
                        )
                        enqueue(
                            j, (g, "dst"), SubQuery(fan_dst=FanQuery(t_local))
                        )

        replies = self._dispatch(requests, request_span)

        # Cross-shard combines need both workers' fans, so they run in
        # the parent — spread across the I/O threads (numpy releases
        # the GIL for the large intermediates). Groups missing a
        # dispatched slot lost a shard to an open breaker: they are
        # either answered overlay-only in the parent (degraded opt-in)
        # or shed with a typed partial-result error.
        combines = []
        overlay_fallbacks = []
        open_shards: set[int] = set()
        shed_mask = np.zeros(len(s), dtype=bool)
        for g, (idx, i, j) in enumerate(groups):
            lost = [
                sid for slot, sid in expected.get(g, ()) if slot not in replies
            ]
            if lost:
                open_shards.update(lost)
                fan = (
                    has_overlay
                    and len(owner.boundary_local[i])
                    and len(owner.boundary_local[j])
                )
                if self.degraded_mode == "overlay" and fan:
                    overlay_fallbacks.append((g, idx, i, j))
                else:
                    shed_mask[idx] = True
            elif i == j:
                out[idx] = replies[(g, "final")].final
            elif (g, "src") in replies:
                combines.append((g, idx, i, j))

        def combine(item):
            g, idx, i, j = item
            src = replies[(g, "src")]
            dst = replies[(g, "dst")]
            out[idx] = min_plus_compact(
                src.ds,
                src.ds_inverse,
                engine.overlay_block(i, j),
                dst.dt,
                dst.dt_inverse,
                owner.shards[i].engine.engine,
            )

        def overlay_answer(item):
            # Boundary-route answer computed on the parent's own
            # authoritative shard engines: exact for cross-region pairs
            # (every route crosses the boundary), an upper bound for
            # intra-region pairs (the direct intra path is missed).
            g, idx, i, j = item
            out[idx] = engine.boundary_route(i, j, local_s[idx], local_t[idx])
            self.stats.degraded_pairs += len(idx)

        with maybe_child(request_span, "min_plus_combine") as combine_span:
            if combine_span is not None:
                combine_span.annotate(groups=len(combines))
            if len(combines) > 1:
                list(self._pool.map(combine, combines))
            elif combines:
                combine(combines[0])
            for item in overlay_fallbacks:
                overlay_answer(item)
        # Self-pairs are trivially zero — even inside a shed group, so
        # the shed mask never reports a pair no shard was needed for.
        if shed_mask.any():
            out[shed_mask] = np.nan
        out[s == t] = 0.0
        self.stats.batches += 1
        self.stats.pairs += len(s)
        shed_positions = np.flatnonzero(shed_mask & (s != t))
        if len(shed_positions):
            self.stats.shed_pairs += len(shed_positions)
            raise PartialResultError(out, shed_positions, open_shards)
        return out

    # ------------------------------------------------------------------
    # maintenance + epoch broadcast
    # ------------------------------------------------------------------
    def apply_update(self, changes: Iterable[WeightChange], workers=None):
        """Apply the batch in the parent, then broadcast shard deltas.

        Overlay maintenance needs no broadcast (the overlay index lives
        only in the parent); a touched shard gets its changed label
        slots shipped by the transport plus an epoch bump — or a full
        republish if maintenance changed the label layout.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        stats = self.index.update(changes)
        self._index_epoch = self.index.epoch
        with phase("flush.delta_sync"):
            for sid in stats.touched_shards:
                self._epochs[sid] += 1
                self._sync_shard(sid, stats.per_shard[sid].affected_labels)
                self.stats.epoch_broadcasts += 1
        return stats

    def apply_structural(self, insertions=(), deletions=(), weight_changes=()):
        """Structural batch in the parent, then whole-buffer republish.

        Label layouts may move arbitrarily under structural maintenance,
        so every shard rides the full-sync/republish path rather than
        the per-slot delta. Workers pin the shard *query structure*
        (H_Q, boundary lists) at startup; batches the parent absorbed
        with fast paths or same-H_Q rebuilds keep both invariant, but a
        repartition splice or a boundary-set change (a brand-new cut
        edge) leaves pooled workers unrecoverably stale — the batch is
        still applied to the index, and a
        :class:`~repro.exceptions.ServiceRuntimeError` tells the caller
        to rebuild the runtime over it.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        owner = self.index
        hq_before = [id(shard.hq) for shard in owner.shards]
        boundary_before = owner.boundary_global.copy()
        stats = owner.apply_batch(
            insertions=insertions,
            deletions=deletions,
            weight_changes=weight_changes,
        )
        with phase("flush.structural_sync"):
            self._reconcile_index_epoch()
        if [id(shard.hq) for shard in owner.shards] != hq_before or not (
            np.array_equal(owner.boundary_global, boundary_before)
        ):
            raise ServiceRuntimeError(
                "structural batch changed shard query topology (hierarchy "
                "repartition or boundary-set change); the index is updated "
                "but pooled workers pin structure at startup — rebuild the "
                "runtime over the updated index, or serve structural-heavy "
                "traffic with InProcessRuntime"
            )
        return stats

    def compact(self):
        """Compact in the parent; republish every shard's buffers.

        Sharded compaction only rebuilds boundary structures when it
        physically removes a cut edge — the same topology-staleness
        rule as :meth:`apply_structural` applies.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        owner = self.index
        boundary_before = owner.boundary_global.copy()
        stats = owner.compact()
        with phase("flush.structural_sync"):
            self._reconcile_index_epoch()
        if not np.array_equal(owner.boundary_global, boundary_before):
            raise ServiceRuntimeError(
                "compaction removed a cut edge and changed the boundary "
                "set; rebuild the pooled runtime over the updated index"
            )
        return stats

    def _reconcile_index_epoch(self) -> None:
        """Re-sync workers after maintenance that bypassed this runtime.

        A direct ``index.update(...)`` (structural op, another caller)
        advances the index epoch without telling us which labels moved;
        the only safe answer is a whole-buffer publish per shard.
        """
        if self.index.epoch == self._index_epoch:
            return
        for sid in range(self.index.k):
            self._epochs[sid] += 1
            self._full_sync(sid)
            self.stats.full_syncs += 1
            self.stats.epoch_broadcasts += 1
        self._index_epoch = self.index.epoch

    def pool_stats(self) -> WorkerPoolStats:
        return self.stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release transport resources and the I/O pool; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._close_transport()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
