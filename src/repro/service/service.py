"""`DistanceService` — the online serving layer over a DHL index.

Fronts :class:`~repro.core.index.DHLIndex` with the three mechanisms a
query-heavy dynamic service needs:

1. **batched queries** — a batch of pairs is answered by the engine's
   pair kernel (``dhl_gather_pairs``), one C loop that reads each
   pair's ``K`` common-ancestor cells straight from the flat CSR label
   store (duplicate pairs inside a batch are computed once);
2. **an epoch-guarded result cache** — repeated pairs are served from
   one flat set-associative table stamped with the index maintenance
   epoch. A batch is one C probe (order, pack, look up and deduplicate
   every pair) and one C fill of its distinct misses; an applied
   update invalidates the whole table with a lazy O(1) watermark bump;
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

Queries always reflect every submitted update: the service flushes
pending changes before answering, so coalescing trades no
consistency — it only batches work between queries.
"""

from __future__ import annotations

import operator
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.backend import DistanceBackend
from repro.exceptions import PartialResultError
from repro.labelling import native
from repro.labelling.maintenance import MaintenanceStats, WeightChange
from repro.observability import (
    NULL_OBSERVABILITY,
    Observability,
    Span,
    collect_phases,
    phase,
)
from repro.service.cache import CacheStats, EpochLRUCache, pair_key
from repro.service.coalescer import CoalescerStats, UpdateCoalescer
from repro.service.metrics import LatencySummary, Timer
from repro.service.runtime import ExecutionRuntime, InProcessRuntime
from repro.utils.pairs import (
    as_ids,
    as_pair_array,
    check_ids,
    nearest,
    vertex_pair,
    weight_changes,
)

__all__ = ["ServiceStats", "DistanceService"]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time operational snapshot of a :class:`DistanceService`:
    its counts are the values of the service's registry instruments."""

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
    #: Bytes reclaimed (dead shortcut slots).
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
    flush_threshold:
        Auto-flush once this many distinct edges are buffered.
    observability:
        An :class:`~repro.observability.Observability` bundle (metrics
        registry + request tracer + slow log). The service counts every
        fact :meth:`stats` reports in one instrument of its registry.
        The default null bundle's registry keeps none of them, so
        nothing is exported, no span is built and no phase collected;
        ``Observability.enabled(...)`` exports them. Services handed
        one enabled bundle count in the same instruments.
    """

    def __init__(
        self,
        backend: DistanceBackend | ExecutionRuntime,
        *,
        cache_capacity: int = 65_536,
        flush_threshold: int = 256,
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
        counter = registry.counter
        self._m_queries = counter("dhl_queries_total", "Pair queries answered")
        self._m_query_seconds = registry.histogram(
            "dhl_query_seconds", "Per-call query latency in seconds"
        )
        self._m_flush_seconds = registry.histogram(
            "dhl_flush_seconds", "Coalesced update flush latency in seconds"
        )
        self._m_flush_edges = counter(
            "dhl_flush_edges_total", "Net weight changes applied by flushes"
        )
        self._m_slow_queries = counter(
            "dhl_slow_queries_total", "Query calls over the slow-query threshold"
        )
        self._m_slow_flushes = counter(
            "dhl_slow_flushes_total", "Flushes over the slow-flush threshold"
        )
        self._m_shed_pairs = counter(
            "dhl_shed_pairs_total",
            "Pairs shed (answered nan) because a shard's breaker was open",
        )
        self._m_partial_batches = counter(
            "dhl_partial_batches_total",
            "Query batches degraded to a PartialResultError",
        )
        self._m_shortcuts_changed = counter(
            "dhl_shortcuts_changed", "Shortcut mutations applied"
        )
        self._m_labels_changed = counter(
            "dhl_labels_changed", "Label entry mutations applied"
        )
        self._m_structural_batches = counter(
            "dhl_structural_batches", "Flushes carrying insertions or deletions"
        )
        self._m_compactions = counter("dhl_compactions", "Compaction passes")
        self._m_dead_slots_reclaimed = counter(
            "dhl_dead_slots_reclaimed", "Dead shortcut slots compacted away"
        )
        self._m_bytes_reclaimed = counter(
            "dhl_bytes_reclaimed", "Bytes compacted away (dead shortcut slots)"
        )
        self.cache = EpochLRUCache(cache_capacity)
        # Cache keys are unordered pairs unless d(s, t) != d(t, s).
        self._directed = getattr(self.index, "kind", None) == "directed"
        self.coalescer = UpdateCoalescer(self.index.graph.road_key)
        self.flush_threshold = max(1, flush_threshold)
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
        """Single-pair distance through the cache.

        *s* and *t* are integers (``operator.index``: a float or a
        string raises ``TypeError``); an id outside ``[0, n)`` raises
        :class:`VertexNotFound`. Either is raised before the cache or
        the runtime is touched.
        """
        s, t = vertex_pair(self.index.graph.num_vertices, s, t)
        self._pre_query()
        with self.observability.tracer.trace("distance", s=s, t=t):
            with Timer() as timer:
                value = self._cached_distance(s, t)
        self._note_query(timer.seconds, 1)
        return value

    def distances(self, pairs) -> np.ndarray:
        """Batch distances: one table probe, then one runtime call and
        one table fill for the distinct misses.

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
                    self._m_partial_batches.inc()
                    self._m_shed_pairs.inc(len(exc.shed))
                    raise
        self._note_query(timer.seconds, len(pairs))
        return out

    def _note_query(self, seconds: float, pairs: int) -> None:
        self._m_queries.inc(pairs)
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
        key = pair_key(s, t)
        value = self.cache.get(key)
        if value is not None:
            return value
        value = self.runtime.distance(s, t)
        self.cache.put(key, value, self.index.epoch)
        return value

    def _batch(self, pairs: np.ndarray) -> np.ndarray:
        if len(pairs) == 1:
            # A one-pair batch (an unfolded async request) is a single
            # query: the one-pair probe and fill run on the table's own
            # buffers, with none of the batch path's arrays.
            return np.array([self._cached_distance(*pairs[0].tolist())])
        tracer = self.observability.tracer
        with tracer.trace("cache_scan"):
            # Self-pairs answer 0.0; a hotspot pair repeated inside one
            # batch is one miss pair, computed once.
            out, misses, positions, inverse = self.cache.probe_pairs(
                pairs, self._directed
            )
        if not len(misses):
            return out
        shed = None
        with tracer.trace("runtime", misses=len(misses)):
            try:
                values = self.runtime.distances(misses)
            except PartialResultError as exc:
                # Degraded batch: the runtime answered what it could and
                # nan'd pairs owned by breaker-open shards. Keep the
                # served values (and cache them), then re-raise
                # re-aligned over the caller's positions.
                values, open_shards = exc.distances, exc.open_shards
                shed = np.zeros(len(misses), dtype=bool)
                shed[exc.shed] = True
        with tracer.trace("cache_fill"):
            out[positions] = values[inverse]
            if shed is None:
                self.cache.fill_pairs(misses, values, self.index.epoch)
            else:
                self.cache.fill_pairs(misses[~shed], values[~shed], self.index.epoch)
        if shed is not None:
            raise PartialResultError(out, positions[shed[inverse]], open_shards)
        return out

    def k_nearest(
        self, s: int, candidates: Sequence[int], k: int
    ) -> list[tuple[int, float]]:
        """The *k* candidates closest to *s*, through the cached batch
        path; *s* through ``operator.index``, the *candidates* through
        :func:`~repro.utils.pairs.as_ids`."""
        targets = as_ids(candidates)
        sources = np.full(len(targets), operator.index(s), dtype=np.int64)
        pairs = np.stack((sources, targets), axis=1)
        return nearest(targets, self.distances(pairs), k)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _checked(self, changes, insertions: bool = False) -> list[WeightChange]:
        return weight_changes(
            self.index.graph.num_vertices, changes, insertions=insertions
        )

    def _flush_if_full(self) -> None:
        if self.coalescer.pending_edges >= self.flush_threshold:
            self.flush()

    def submit(self, u: int, v: int, weight: float) -> None:
        """Buffer one weight change; auto-flushes at ``flush_threshold``.

        The change is checked first
        (:func:`~repro.utils.pairs.weight_changes`): a bad one raises
        and leaves the buffer as it was."""
        ((u, v, weight),) = self._checked(((u, v, weight),))
        self.coalescer.add(u, v, weight)
        self._flush_if_full()

    def submit_many(self, changes: Iterable[WeightChange]) -> None:
        """:meth:`submit` each change, once every one passed its checks:
        one bad change refuses the whole list."""
        for u, v, w in self._checked(changes):
            self.coalescer.add(u, v, w)
            self._flush_if_full()

    def submit_insert(self, u: int, v: int, weight: float) -> None:
        """Buffer a road insertion (new-link construction).

        Coalesces against pending traffic on the same edge — inserting
        over a queued deletion folds to a weight change; a later
        :meth:`submit_delete` cancels the pair outright. Flushes route
        through the backend's structural ``apply_batch`` path. Checked
        as in :meth:`submit`, with a finite weight.
        """
        ((u, v, weight),) = self._checked(((u, v, weight),), insertions=True)
        self.coalescer.add_insert(u, v, weight)
        self._flush_if_full()

    def submit_delete(self, u: int, v: int) -> None:
        """Buffer a road deletion (closure); see :meth:`submit_insert`."""
        u, v = vertex_pair(self.index.graph.num_vertices, u, v)
        self.coalescer.add_delete(u, v)
        self._flush_if_full()

    @property
    def pending_updates(self) -> int:
        return self.coalescer.pending_edges

    def flush(self) -> MaintenanceStats:
        """Apply buffered changes as one coalesced batch; evict the cache."""
        self._reconcile_epoch_drift()
        if not self.coalescer:
            return MaintenanceStats()
        observability = self.observability
        # A flush gets its own trace (it may run inside _pre_query,
        # before any request span opens). An enabled flush also collects
        # phases: every phase() fired below — the flush steps, the
        # maintenance kernels' inner loops, the worker delta sync — lands
        # in the per-phase latency histograms.
        phases = collect_phases() if observability.is_enabled else nullcontext()
        with observability.tracer.trace("flush"), phases as collector:
            with Timer() as timer:
                stats, applied_edges = self._flush_pending()
        if not applied_edges:
            return stats
        self._m_flush_edges.inc(applied_edges)
        self._m_flush_seconds.observe(timer.seconds)
        if collector is not None:
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
        if batch.is_structural:
            with phase("flush.apply_structural"):
                result = self.runtime.apply_structural(
                    insertions=batch.insertions,
                    deletions=batch.deletions,
                    weight_changes=batch.changes,
                )
            stats = result.maintenance
            self._m_structural_batches.inc()
        else:
            with phase("flush.apply"):
                stats = self.runtime.apply_update(batch.changes)
        self._m_shortcuts_changed.inc(stats.shortcuts_changed)
        self._m_labels_changed.inc(stats.labels_changed)
        with phase("flush.cache_evict"):
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
        self.compact()

    def compact(self) -> None:
        """Force a compaction pass regardless of the dead-slot fraction."""
        result = self.runtime.compact()
        self._m_compactions.inc()
        self._m_dead_slots_reclaimed.inc(result.dead_slots_reclaimed)
        self._m_bytes_reclaimed.inc(result.bytes_reclaimed)
        # Compaction bumps the index epoch; the cache watermark follows
        # it, though queried distances are unchanged.
        self.cache.invalidate_all(self.index.epoch)
        self._synced_epoch = self.index.epoch

    def _pre_query(self) -> None:
        if self.coalescer:
            self.flush()
        self._reconcile_epoch_drift()

    def _reconcile_epoch_drift(self) -> None:
        # An epoch advance this service did not perform means someone
        # updated the index directly; the whole cache is invalidated.
        # Runs at the top of flush() too.
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
        """A read-only snapshot: the counts are the registry instruments'
        values, the latencies :meth:`LatencySummary.of` views over
        ``dhl_query_seconds`` and ``dhl_flush_seconds``."""
        pool = self.runtime.pool_stats()
        return ServiceStats(
            epoch=self.index.epoch,
            queries=self._m_queries.value,
            batches=self._m_query_seconds.count,
            cache=self.cache.stats(),
            coalescer=self.coalescer.stats(),
            query_latency=LatencySummary.of(self._m_query_seconds, self._m_queries),
            update_latency=LatencySummary.of(
                self._m_flush_seconds, self._m_flush_edges
            ),
            shortcuts_changed=self._m_shortcuts_changed.value,
            labels_changed=self._m_labels_changed.value,
            backend=self.runtime.backend,
            engine="{} ({})".format(*self._engine_info()),
            worker_pool=pool.as_dict() if pool is not None else None,
            structural_batches=self._m_structural_batches.value,
            compactions=self._m_compactions.value,
            dead_slots_reclaimed=self._m_dead_slots_reclaimed.value,
            bytes_reclaimed=self._m_bytes_reclaimed.value,
            shed_pairs=self._m_shed_pairs.value,
            partial_batches=self._m_partial_batches.value,
        )

    def metrics(self) -> dict[str, dict]:
        """Current registry snapshot, ``{"name{labels}": values}``.

        Empty when observability is disabled. The service's own counts
        are registry instruments already; the gauges for state held
        elsewhere (epoch, engine, pending edges, cache, coalescer,
        worker pool) are set from their owners first, so the snapshot
        is self-contained.
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
        """Set the gauges for state the service does not count itself.

        The cache counts in its C table header, the coalescer and the
        worker pool in their own stats; their totals are copied into
        registry gauges at export time.
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
