"""`DistanceService` — the online serving layer over a DHL index.

Fronts :class:`~repro.core.index.DHLIndex` with the three mechanisms a
query-heavy dynamic service needs:

1. **batched queries** — a batch of pairs is answered by the engine's
   zero-copy kernel, which gathers straight from the flat CSR label
   store with numpy reductions (duplicate pairs inside a batch are
   computed once);
2. **an epoch-guarded result cache** — repeated pairs are served from
   one flat set-associative table stamped with the index maintenance
   epoch, probed and filled a batch at a time with array operations;
   invalidation is either a lazy O(1) watermark bump or fine-grained
   eviction of only the pairs whose endpoints/hub were touched by the
   update;
3. **update coalescing** — incoming weight changes buffer in an
   :class:`~repro.service.coalescer.UpdateCoalescer` and apply as one
   mixed maintenance pass (Algorithms 2-5) when a query needs
   fresh state, the buffer hits ``flush_threshold``, or :meth:`flush`
   is called.

The service itself is backend agnostic: query execution and maintenance
are delegated to an :class:`~repro.service.runtime.ExecutionRuntime` —
in-process over any index by default, or a
:class:`~repro.service.workers.ShardWorkerRuntime` pool of
shared-memory shard worker processes for multi-core serving. Runtimes
may own processes and shared memory, so a service should be
:meth:`close`\\ d (or used as a context manager) when it goes away.

Queries always reflect every submitted update: by default the service
flushes pending changes before answering, so coalescing trades no
consistency — it only batches work between queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.backend import DistanceBackend
from repro.exceptions import PartialResultError, VertexNotFound
from repro.labelling import native
from repro.labelling.maintenance import MaintenanceStats
from repro.observability import (
    NULL_OBSERVABILITY,
    Observability,
    Span,
    collect_phases,
    phase,
)
from repro.service.cache import (
    CacheStats,
    EpochLRUCache,
    pair_key,
    unpack_keys,
)
from repro.service.coalescer import CoalescerStats, UpdateCoalescer
from repro.service.metrics import LatencyRecorder, LatencySummary, Timer
from repro.service.runtime import ExecutionRuntime, InProcessRuntime
from repro.utils.pairs import as_pair_array, check_ids

__all__ = ["ServiceStats", "DistanceService"]

WeightChange = tuple[int, int, float]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time operational snapshot of a :class:`DistanceService`."""

    epoch: int
    queries: int
    batches: int
    cache: CacheStats
    coalescer: CoalescerStats
    query_latency: LatencySummary
    update_latency: LatencySummary
    shortcuts_changed: int
    labels_changed: int
    #: Execution backend tag — ``in-process/monolithic``,
    #: ``in-process/sharded``, ``worker-pool/sharded[4x1 replicas]`` — so
    #: bench artifacts and logs can tell runtimes apart.
    backend: str = "in-process/monolithic"
    #: What answers on that backend: the C kernel library every index
    #: runs on, and the native loader's note on it
    #: (``compiled (native library loaded)``).
    engine: str = "compiled"
    #: Worker-pool scheduler / delta-sync counters
    #: (:meth:`~repro.service.runtime.WorkerPoolStats.as_dict`) when the
    #: runtime pools workers, ``None`` for in-process backends.
    worker_pool: dict | None = None
    #: Structural flushes (batches carrying insertions or deletions).
    structural_batches: int = 0
    #: Compaction passes triggered by the dead-slot threshold (or run
    #: explicitly through the service).
    compactions: int = 0
    #: Dead shortcut slots reclaimed by those compactions.
    dead_slots_reclaimed: int = 0
    #: Bytes reclaimed (shortcut slots + label-store slack).
    bytes_reclaimed: int = 0
    #: Pairs shed by open circuit breakers (answered ``nan`` inside a
    #: :class:`~repro.exceptions.PartialResultError`).
    shed_pairs: int = 0
    #: Query batches that raised :class:`PartialResultError` — served
    #: partially because a shard's replica pool was down.
    partial_batches: int = 0

    def summary(self) -> str:
        lines = [
            f"epoch {self.epoch}: {self.queries} queries in "
            f"{self.batches} calls",
            f"  backend : {self.backend}",
            f"  engine  : {self.engine}",
            f"  queries : {self.query_latency}",
            f"  updates : {self.update_latency}",
            f"  cache   : {self.cache}",
            f"  coalesce: {self.coalescer}",
            f"  applied : {self.shortcuts_changed} shortcuts, "
            f"{self.labels_changed} label entries",
        ]
        if self.partial_batches:
            lines.append(
                f"  degraded: {self.partial_batches} partial batches, "
                f"{self.shed_pairs} pairs shed by open breakers"
            )
        if self.structural_batches or self.compactions:
            lines.append(
                f"  structural: {self.structural_batches} batches, "
                f"{self.compactions} compactions "
                f"({self.dead_slots_reclaimed} dead slots, "
                f"{self.bytes_reclaimed} B reclaimed)"
            )
        if self.worker_pool is not None:
            wp = self.worker_pool
            lines.append(
                f"  workers : {wp.get('sub_batches', 0)} sub-batches "
                f"({wp.get('intra_pairs', 0)} intra / "
                f"{wp.get('cross_pairs', 0)} cross pairs), "
                f"{wp.get('epoch_broadcasts', 0)} epoch broadcasts, "
                f"{wp.get('delta_syncs', 0)} delta syncs "
                f"({wp.get('delta_bytes', 0)} B), "
                f"{wp.get('republishes', 0)} republishes, "
                f"{wp.get('full_syncs', 0)} full syncs"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


class DistanceService:
    """Batched, cached, update-coalescing facade over a DHL index.

    Parameters
    ----------
    backend:
        The single construction entry point: anything satisfying the
        :class:`~repro.core.backend.DistanceBackend` Protocol —
        monolithic :class:`DHLIndex`, :class:`DirectedDHLIndex`,
        region-sharded :class:`ShardedDHLIndex` — *or* an
        already-constructed
        :class:`~repro.service.runtime.ExecutionRuntime` wrapping one
        (e.g. a :class:`~repro.service.workers.ShardWorkerRuntime` or
        :class:`~repro.service.workers.SocketShardRuntime`).
        A bare backend is wrapped in an
        :class:`~repro.service.runtime.InProcessRuntime`. The service
        owns the update path (submit weight changes through the
        service, not the index, or flush manually) and, when handed a
        runtime, its lifecycle (:meth:`close` closes it). An object
        that is neither a backend nor a runtime raises ``ValueError``.
    cache_capacity:
        Bound on cached pair results: the slots of the set-associative
        pair table (:mod:`repro.service.cache`, 32 bytes each). A full
        set displaces its least recently used entry, so the table may
        forget a pair before ``cache_capacity`` are held.
    fine_grained_eviction:
        When True, a flush evicts only cached pairs whose endpoint or
        hub was touched by the update (``MaintenanceStats``'s affected
        label vertices and shortcut endpoints); when False, the whole
        cache is invalidated by an O(1) epoch watermark bump. Backends
        that cannot certify per-pair staleness (the sharded index, whose
        distances also depend on boundary/overlay labels) downgrade this
        to the epoch watermark automatically.
    flush_threshold:
        Auto-flush once this many distinct edges are buffered.
    auto_flush_on_query:
        Flush pending updates before answering queries so results always
        reflect submitted traffic. Disable only for workloads that
        tolerate bounded staleness between flushes.
    observability:
        An :class:`~repro.observability.Observability` bundle (metrics
        registry + request tracer + slow log). Defaults to the null
        bundle, which makes every instrumentation point a no-op call —
        zero overhead unless a caller opts in with
        ``Observability.enabled(...)``.
    """

    def __init__(
        self,
        backend: DistanceBackend | ExecutionRuntime,
        *,
        cache_capacity: int = 65_536,
        fine_grained_eviction: bool = False,
        flush_threshold: int = 256,
        auto_flush_on_query: bool = True,
        observability: Observability | None = None,
    ):
        if isinstance(backend, ExecutionRuntime):
            self.runtime = backend
        elif isinstance(backend, DistanceBackend):
            self.runtime = InProcessRuntime(backend)
        else:
            raise ValueError(
                "backend must satisfy the DistanceBackend Protocol or be an "
                f"ExecutionRuntime; got {type(backend).__name__}"
            )
        self.index = self.runtime.index
        self._closed = False
        self.observability = observability or NULL_OBSERVABILITY
        # The runtime traces its scheduler/worker round-trips under the
        # service's request spans and is counted in the same registry.
        self.runtime.observability = self.observability
        registry = self.observability.registry
        self._m_queries = registry.counter(
            "dhl_queries_total", "Pair queries answered"
        )
        self._m_batches = registry.counter(
            "dhl_query_batches_total", "Service query calls (a batch is one)"
        )
        self._m_query_seconds = registry.histogram(
            "dhl_query_seconds", "Per-call query latency in seconds"
        )
        self._m_flushes = registry.counter(
            "dhl_flushes_total", "Coalesced update flushes applied"
        )
        self._m_flush_seconds = registry.histogram(
            "dhl_flush_seconds", "Coalesced update flush latency in seconds"
        )
        self._m_flush_edges = registry.counter(
            "dhl_flush_edges_total", "Net weight changes applied by flushes"
        )
        self._m_slow_queries = registry.counter(
            "dhl_slow_queries_total", "Query calls over the slow-query threshold"
        )
        self._m_slow_flushes = registry.counter(
            "dhl_slow_flushes_total", "Flushes over the slow-flush threshold"
        )
        self._m_shed_pairs = registry.counter(
            "dhl_shed_pairs_total",
            "Pairs shed (answered nan) because a shard's breaker was open",
        )
        self._m_partial_batches = registry.counter(
            "dhl_partial_batches_total",
            "Query batches degraded to a PartialResultError",
        )
        self.cache = EpochLRUCache(cache_capacity)
        # Cache keys are unordered pairs unless d(s, t) != d(t, s).
        self._directed = getattr(self.index, "kind", None) == "directed"
        self.coalescer = UpdateCoalescer()
        self.fine_grained_eviction = (
            fine_grained_eviction and self.runtime.supports_fine_grained_eviction
        )
        self.flush_threshold = max(1, flush_threshold)
        self.auto_flush_on_query = auto_flush_on_query
        self.query_latency = LatencyRecorder()
        self.update_latency = LatencyRecorder()
        self._queries = 0
        self._batches = 0
        self._shortcuts_changed = 0
        self._labels_changed = 0
        self._structural_batches = 0
        self._compactions = 0
        self._dead_slots_reclaimed = 0
        self._bytes_reclaimed = 0
        self._shed_pairs = 0
        self._partial_batches = 0
        # Last index epoch this service reconciled its cache against.
        # Updates applied directly on the index (structural ops, another
        # caller) advance the epoch without telling us which pairs moved,
        # so any drift forces a conservative full invalidation.
        self._synced_epoch = self.index.epoch

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.index.epoch

    def distance(self, s: int, t: int) -> float:
        """Single-pair distance through the cache."""
        n = self.index.graph.num_vertices
        if not (0 <= s < n and 0 <= t < n):
            raise VertexNotFound(t if 0 <= s < n else s)
        self._pre_query()
        with self.observability.tracer.trace("distance", s=s, t=t):
            with Timer() as timer:
                value = self._cached_distance(s, t)
        self._queries += 1
        self._batches += 1
        self.query_latency.record(timer.seconds, 1)
        self._note_query(timer.seconds, 1)
        return value

    def distances(self, pairs) -> np.ndarray:
        """Batch distances: one table lookup, then one vectorised miss pass.

        *pairs* is an ``(m, 2)`` integer array or any iterable of
        ``(s, t)`` pairs (:func:`~repro.utils.pairs.as_pair_array`). An
        id outside ``[0, n)`` raises :class:`VertexNotFound` before the
        cache or the runtime is touched.
        """
        pairs = as_pair_array(pairs)
        check_ids(self.index.graph.num_vertices, pairs)
        self._pre_query()
        with self.observability.tracer.trace("distances", pairs=len(pairs)):
            with Timer() as timer:
                try:
                    out = self._batch(pairs)
                except PartialResultError as exc:
                    self._partial_batches += 1
                    self._shed_pairs += len(exc.shed)
                    self._m_partial_batches.inc()
                    self._m_shed_pairs.inc(len(exc.shed))
                    raise
        self._queries += len(pairs)
        self._batches += 1
        self.query_latency.record(timer.seconds, len(pairs))
        self._note_query(timer.seconds, len(pairs))
        return out

    def _note_query(self, seconds: float, pairs: int) -> None:
        self._m_queries.inc(pairs)
        self._m_batches.inc()
        self._m_query_seconds.observe(seconds)
        if self.observability.slow_log.note_query(
            seconds, pairs=pairs, epoch=self.index.epoch
        ):
            self._m_slow_queries.inc()

    def _cached_distance(self, s: int, t: int) -> float:
        if s == t:
            return 0.0
        # d(s, t) = d(t, s) on every backend but the directed one.
        if s > t and not self._directed:
            s, t = t, s
        key = pair_key(int(s), int(t))
        value = self.cache.get(key)
        if value is not None:
            return value
        # Hubs only earn their cost when fine-grained eviction reads them.
        if self.fine_grained_eviction:
            value, hub = self.runtime.distance_with_hub(s, t)
        else:
            value, hub = self.runtime.distance(s, t), -1
        self.cache.put(key, value, hub, self.index.epoch)
        return value

    def _batch(self, pairs: np.ndarray) -> np.ndarray:
        if len(pairs) == 1:
            # A one-pair batch (an unfolded async request) is a single
            # query: the scalar probe skips the array path's fixed cost.
            return np.array([self._cached_distance(*pairs[0].tolist())])
        tracer = self.observability.tracer
        out = np.zeros(len(pairs), dtype=np.float64)
        with tracer.trace("cache_scan"):
            s, t = pairs[:, 0], pairs[:, 1]
            probed = (s != t).nonzero()[0]  # self-pairs stay 0.0
            if not self._directed:
                s, t = np.minimum(s, t), np.maximum(s, t)
            keys = pair_key(s, t)[probed]
            values, hit = self.cache.lookup(keys)
            out[probed[hit]] = values[hit]
        if hit.all():
            return out
        # A hotspot pair repeated inside one batch is computed only once.
        positions = probed[~hit]
        keys, inverse = np.unique(keys[~hit], return_inverse=True)
        misses = unpack_keys(keys)
        hubs = shed = None
        with tracer.trace("runtime", misses=len(keys)):
            if self.fine_grained_eviction:
                values, hubs = self.runtime.distances_with_hubs(misses)
            else:
                try:
                    values = self.runtime.distances(misses)
                except PartialResultError as exc:
                    # Degraded batch: the runtime answered what it could
                    # and nan'd pairs owned by breaker-open shards. Keep
                    # the served values (and cache them), then re-raise
                    # re-aligned over the caller's positions.
                    values, open_shards = exc.distances, exc.open_shards
                    shed = np.zeros(len(keys), dtype=bool)
                    shed[exc.shed] = True
        with tracer.trace("cache_fill"):
            out[positions] = values[inverse]
            if shed is None:
                self.cache.insert(keys, values, hubs, self.index.epoch)
            else:
                self.cache.insert(
                    keys[~shed], values[~shed], None, self.index.epoch
                )
        if shed is not None:
            raise PartialResultError(out, positions[shed[inverse]], open_shards)
        return out

    def k_nearest(
        self, s: int, candidates: Sequence[int], k: int
    ) -> list[tuple[int, float]]:
        """The *k* candidates closest to *s*, through the cached batch path."""
        distances = self.distances([(s, c) for c in candidates])
        order = np.argsort(distances, kind="stable")
        out: list[tuple[int, float]] = []
        for i in order[: max(0, k)]:
            if not math.isfinite(distances[i]):
                break
            out.append((candidates[int(i)], float(distances[i])))
        return out

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def submit(self, u: int, v: int, weight: float) -> None:
        """Buffer one weight change; auto-flushes at ``flush_threshold``."""
        self.coalescer.add(u, v, weight)
        if self.coalescer.pending_edges >= self.flush_threshold:
            self.flush()

    def submit_many(self, changes: Iterable[WeightChange]) -> None:
        for u, v, w in changes:
            self.submit(u, v, w)

    def submit_insert(self, u: int, v: int, weight: float) -> None:
        """Buffer a road insertion (new-link construction).

        Coalesces against pending traffic on the same edge — inserting
        over a queued deletion folds to a weight change; a later
        :meth:`submit_delete` cancels the pair outright. Flushes route
        through the backend's structural ``apply_batch`` path.
        """
        self.coalescer.add_insert(u, v, weight)
        if self.coalescer.pending_edges >= self.flush_threshold:
            self.flush()

    def submit_delete(self, u: int, v: int) -> None:
        """Buffer a road deletion (closure); see :meth:`submit_insert`."""
        self.coalescer.add_delete(u, v)
        if self.coalescer.pending_edges >= self.flush_threshold:
            self.flush()

    @property
    def pending_updates(self) -> int:
        return self.coalescer.pending_edges

    def flush(self) -> MaintenanceStats:
        """Apply buffered changes as one coalesced batch; evict the cache."""
        self._reconcile_epoch_drift()
        if not self.coalescer:
            return MaintenanceStats()
        observability = self.observability
        if not observability.is_enabled:
            return self._flush_pending()[0]
        # A flush gets its own trace (it may run inside _pre_query,
        # before any request span opens) and a phase collector: every
        # phase() fired below — the flush steps, the maintenance
        # kernels' inner loops, the worker delta sync — lands in the
        # per-phase latency histograms.
        with observability.tracer.trace("flush"):
            with collect_phases() as collector, Timer() as timer:
                stats, applied_edges = self._flush_pending()
        if applied_edges:
            self._m_flushes.inc()
            self._m_flush_edges.inc(applied_edges)
            self._m_flush_seconds.observe(timer.seconds)
            registry = observability.registry
            for name, dt in collector.as_dict().items():
                if name.startswith("structural."):
                    registry.histogram(
                        "dhl_structural_phase_seconds",
                        "Wall seconds per structural-update phase "
                        "(slot allocation, fast-path sweep, fallback "
                        "rebuild, compaction), per flush",
                        labels={"phase": name},
                    ).observe(dt)
                else:
                    registry.histogram(
                        "dhl_maintenance_phase_seconds",
                        "Wall seconds per maintenance/flush phase, per flush",
                        labels={"phase": name},
                    ).observe(dt)
            if observability.slow_log.note_flush(
                timer.seconds, edges=applied_edges, epoch=self.index.epoch
            ):
                self._m_slow_flushes.inc()
        return stats

    def _flush_pending(self) -> tuple[MaintenanceStats, int]:
        """Drain + apply + evict; returns (stats, net edges applied)."""
        with phase("flush.drain"):
            batch = self.coalescer.drain(self.index.graph)
        if not batch.size:
            return MaintenanceStats(), 0
        with Timer() as timer:
            if batch.is_structural:
                with phase("flush.apply_structural"):
                    result = self.runtime.apply_structural(
                        insertions=batch.insertions,
                        deletions=batch.deletions,
                        weight_changes=batch.changes(),
                    )
                # StructuralStats carries its MaintenanceStats in
                # .maintenance; ShardedMaintenanceStats *is* one.
                stats = getattr(result, "maintenance", result)
                self._structural_batches += 1
            else:
                with phase("flush.apply"):
                    stats = self.runtime.apply_update(batch.changes())
        self.update_latency.record(timer.seconds, batch.size)
        self._shortcuts_changed += stats.shortcuts_changed
        self._labels_changed += stats.labels_changed
        with phase("flush.cache_evict"):
            if self.fine_grained_eviction:
                affected = set(stats.affected_labels)
                for v, w in stats.affected_shortcuts:
                    affected.add(v)
                    affected.add(w)
                self.cache.evict_vertices(affected)
            else:
                self.cache.invalidate_all(self.index.epoch)
        self._synced_epoch = self.index.epoch
        if batch.deletions:
            self._maybe_compact()
        return stats, batch.size

    def _maybe_compact(self) -> None:
        """Compact the shortcut/label stores once deletions have pushed
        the dead-slot fraction over ``config.compaction_threshold``.

        Only runs after flushes that carried deletions — those are the
        only source of new dead slots — so the O(slots) fraction scan
        never taxes pure weight-change traffic. A threshold of 1.0
        disables auto-compaction entirely.
        """
        threshold = getattr(self.index.config, "compaction_threshold", 1.0)
        if threshold >= 1.0:
            return
        if getattr(self.index, "dead_fraction", 0.0) < threshold:
            return
        result = self.runtime.compact()
        self._compactions += 1
        self._dead_slots_reclaimed += result.dead_slots_reclaimed
        self._bytes_reclaimed += result.bytes_reclaimed
        # Compaction bumps the index epoch; the cache watermark must
        # follow even though queried distances are unchanged, because
        # fine-grained state (hubs, slot ids) may have been re-packed.
        self.cache.invalidate_all(self.index.epoch)
        self._synced_epoch = self.index.epoch

    def compact(self) -> None:
        """Force a compaction pass regardless of the dead-slot fraction."""
        result = self.runtime.compact()
        self._compactions += 1
        self._dead_slots_reclaimed += result.dead_slots_reclaimed
        self._bytes_reclaimed += result.bytes_reclaimed
        self.cache.invalidate_all(self.index.epoch)
        self._synced_epoch = self.index.epoch

    def _pre_query(self) -> None:
        if self.auto_flush_on_query and self.coalescer:
            self.flush()
        self._reconcile_epoch_drift()

    def _reconcile_epoch_drift(self) -> None:
        # An epoch advance this service did not perform means someone
        # updated the index directly; we cannot know which pairs moved,
        # so the whole cache is conservatively invalidated. Runs at the
        # top of flush() too — fine-grained eviction only covers the
        # service's own batch and must not absorb foreign updates.
        epoch = self.index.epoch
        if epoch != self._synced_epoch:
            self.cache.invalidate_all(epoch)
            self._synced_epoch = epoch

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the runtime's resources (worker processes, shared
        memory segments, sockets); idempotent across every runtime —
        in-process runtimes own nothing, so this is free, and repeated
        calls (context-manager exit after an explicit close, shared
        teardown paths) are no-ops."""
        if self._closed:
            return
        self._closed = True
        self.runtime.close()

    def __enter__(self) -> "DistanceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _engine_info() -> tuple[str, str]:
        """``("compiled", reason)``: the loaded C library and the
        loader's note on it. The index loaded it when it was built, so
        nothing compiles here."""
        return "compiled", native.status().reason

    def stats(self) -> ServiceStats:
        pool = self.runtime.pool_stats()
        return ServiceStats(
            epoch=self.index.epoch,
            queries=self._queries,
            batches=self._batches,
            cache=self.cache.stats(),
            coalescer=self.coalescer.stats(),
            query_latency=self.query_latency.summary(),
            update_latency=self.update_latency.summary(),
            shortcuts_changed=self._shortcuts_changed,
            labels_changed=self._labels_changed,
            backend=self.runtime.backend,
            engine="{} ({})".format(*self._engine_info()),
            worker_pool=pool.as_dict() if pool is not None else None,
            structural_batches=self._structural_batches,
            compactions=self._compactions,
            dead_slots_reclaimed=self._dead_slots_reclaimed,
            bytes_reclaimed=self._bytes_reclaimed,
            shed_pairs=self._shed_pairs,
            partial_batches=self._partial_batches,
        )

    def metrics(self) -> dict[str, dict]:
        """Current registry snapshot, ``{"name{labels}": values}``.

        Empty when observability is disabled. Mirror counters (cache,
        coalescer, worker pool, epoch) are synced from their stats
        objects first, so the snapshot is self-contained.
        """
        self._sync_registry()
        return self.observability.registry.snapshot()

    def dump_metrics(self, path, *, fmt: str = "jsonl") -> Path:
        """Write the registry to *path* as JSON-lines or Prometheus text."""
        if fmt not in ("jsonl", "prometheus"):
            raise ValueError(f"unknown metrics format {fmt!r}")
        self._sync_registry()
        registry = self.observability.registry
        text = registry.to_prometheus() if fmt == "prometheus" else registry.to_jsonl()
        path = Path(path)
        path.write_text(text)
        return path

    def last_trace(self) -> Span | None:
        """Most recently finished sampled request span tree, if any."""
        return self.observability.tracer.last_trace()

    def _sync_registry(self) -> None:
        """Mirror the frontend stats objects into registry instruments.

        The hot paths maintain their own cheap counters (the cache and
        coalescer predate the registry); rather than double-count per
        operation, their totals are copied into registry gauges at
        export time.
        """
        registry = self.observability.registry
        if not registry.enabled:
            return
        registry.gauge("dhl_epoch", "Index maintenance epoch").set(
            self.index.epoch
        )
        engine, reason = self._engine_info()
        registry.gauge(
            "dhl_native_engine_info",
            "The kernel library this backend runs on, and the loader's note",
            labels={"engine": engine, "reason": reason},
        ).set(1)
        registry.gauge(
            "dhl_pending_updates", "Distinct edges buffered in the coalescer"
        ).set(self.coalescer.pending_edges)
        cache = self.cache.stats()
        for field_name in (
            "hits",
            "misses",
            "size",
            "capacity",
            "lru_evictions",
            "invalidated",
        ):
            registry.gauge(
                f"dhl_cache_{field_name}", f"Result cache {field_name}"
            ).set(getattr(cache, field_name))
        coalescer = self.coalescer.stats()
        for field_name in (
            "submitted",
            "merged_duplicates",
            "noops_dropped",
            "flushes",
            "cancelled_pairs",
            "structural_submitted",
        ):
            registry.gauge(
                f"dhl_coalescer_{field_name}", f"Update coalescer {field_name}"
            ).set(getattr(coalescer, field_name))
        for field_name, value in (
            ("structural_batches", self._structural_batches),
            ("compactions", self._compactions),
            ("dead_slots_reclaimed", self._dead_slots_reclaimed),
            ("bytes_reclaimed", self._bytes_reclaimed),
        ):
            registry.gauge(
                f"dhl_{field_name}", f"Structural updates: {field_name}"
            ).set(value)
        registry.gauge(
            "dhl_shortcuts_changed", "Shortcut mutations applied"
        ).set(self._shortcuts_changed)
        registry.gauge(
            "dhl_labels_changed", "Label entry mutations applied"
        ).set(self._labels_changed)
        pool = self.runtime.pool_stats()
        if pool is not None:
            for field_name, value in pool.as_dict().items():
                registry.gauge(
                    f"dhl_worker_{field_name}",
                    f"Worker-pool scheduler {field_name}",
                ).set(value)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"DistanceService(epoch={self.index.epoch}, "
            f"backend={self.runtime.backend}, "
            f"cached={len(self.cache)}, pending={self.pending_updates})"
        )
