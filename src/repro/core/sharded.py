"""The sharded DHL index facade: k region shards plus a boundary overlay.

:class:`ShardedDHLIndex` exposes the same ``distance / distances /
update / save / load`` surface as the monolithic
:class:`~repro.core.index.DHLIndex`, but internally runs as

1. a k-way region partition with boundary extraction
   (:func:`repro.partition.partition_regions`);
2. one independent DHL index per region, built one after another in
   the calling process;
3. a small overlay DHL index on the boundary-vertex graph — cut edges
   plus per-region boundary cliques weighted by intra-shard distances
   (:mod:`repro.sharding.overlay`).

Queries route through :class:`repro.sharding.engine.ShardedQueryEngine`;
weight updates route to the owning shard (cut edges go straight to the
overlay) and then refresh only the overlay clique edges whose endpoints'
boundary distances could have moved — tracked via the maintenance pass's
``affected_labels``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.stats import IndexStats
from repro.core.structural import (
    CompactionStats,
    StructuralStats,
    _bump,
    classify_batch,
    structural_counters,
)
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labelling.driver import validate_batch
from repro.labelling.maintenance import MaintenanceStats, WeightChange
from repro.observability.phases import phase
from repro.observability.timing import Timer
from repro.partition.regions import RegionPartition, partition_regions
from repro.sharding.engine import ShardedQueryEngine
from repro.sharding.overlay import (
    build_overlay_graph,
    clique_refresh_changes,
    clique_weights,
)
from repro.sharding.stats import ShardedMaintenanceStats

__all__ = ["ShardBuildReport", "ShardedDHLIndex", "ShardedIndexStats"]


#: glibc ``mallopt`` parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_heap_thresholds_set = False


def _set_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, once per process.

    glibc starts them at 128 KiB / 256 KiB and raises them only after
    freeing a block above the mmap threshold. A process that builds its
    shards in place and then serves from them may never free one, so a
    block of a few hundred KiB freed at the top of the heap is handed
    back to the kernel and faulted in again by the next allocation of
    its size: a cost that comes and goes with where the heap's free
    blocks happen to lie. Fixed, blocks under 4 MiB come from the heap
    and its top is returned only past 8 MiB. A C library without
    ``mallopt`` is left as it is.
    """
    global _heap_thresholds_set
    if _heap_thresholds_set:
        return
    _heap_thresholds_set = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


@dataclass
class ShardBuildReport:
    """Where the shard-build wall clock went."""

    per_shard_seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.per_shard_seconds)


@dataclass
class ShardedIndexStats:
    """Size/build snapshot of a sharded index."""

    num_vertices: int
    num_edges: int
    k: int
    boundary_vertices: int
    cut_edges: int
    overlay_edges: int
    partition_seconds: float = 0.0
    overlay_seconds: float = 0.0
    build: ShardBuildReport = field(default_factory=ShardBuildReport)
    shards: list[IndexStats] = field(default_factory=list)
    overlay: IndexStats | None = None

    @property
    def label_entries(self) -> int:
        total = sum(s.label_entries for s in self.shards)
        if self.overlay is not None:
            total += self.overlay.label_entries
        return total

    @property
    def label_bytes(self) -> int:
        total = sum(s.label_bytes for s in self.shards)
        if self.overlay is not None:
            total += self.overlay.label_bytes
        return total


class ShardedDHLIndex:
    """Region-sharded dual-hierarchy distance index.

    Build with :meth:`build`; query with :meth:`distance` /
    :meth:`distances`; maintain with :meth:`update` /
    :meth:`apply_batch`; persist with :meth:`save` / :meth:`load`.
    The facade matches :class:`~repro.core.index.DHLIndex`, so the
    serving layer accepts either backend.
    """

    kind = "sharded"

    def __init__(
        self,
        graph: Graph,
        partition: RegionPartition,
        shards: list[DHLIndex],
        overlay: DHLIndex | None,
        config: DHLConfig,
        stats: ShardedIndexStats,
    ):
        self.graph = graph
        self.partition = partition
        self.shards = shards
        self.overlay = overlay
        self.config = config
        self._stats = stats
        n = graph.num_vertices
        self.k = partition.k
        self.region_of = partition.region_of
        # Shard-local ids, aligned with each shard's vertex numbering
        # (induced_subgraph numbers a region's vertices in list order).
        self.local_of = np.empty(n, dtype=np.int64)
        self.shard_vertices: list[np.ndarray] = []
        for vertices in partition.regions:
            arr = np.asarray(vertices, dtype=np.int64)
            self.shard_vertices.append(arr)
            self.local_of[arr] = np.arange(len(arr))
        self._number_boundary()
        # Region i's |B_i| x |B_i| clique weight matrix, held equal to
        # the overlay graph's clique edge weights (a loaded overlay's
        # are recomputed here; a build fills them in _build_overlay).
        self.cliques: list[np.ndarray] = []
        if overlay is not None:
            self._hold_cliques()
        self._engine = ShardedQueryEngine(self)
        self._epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 4,
        config: DHLConfig | None = None,
        region_beta: float = 0.45,
    ) -> "ShardedDHLIndex":
        """Partition into *k* regions, build each shard, then the overlay.

        The shards are independent builds and run one after another in
        the calling process. ``region_beta`` balances the *region* split
        only (the shard hierarchies keep ``config.beta``): near 0.5 the
        shards come out even, which shortens the build — its cost grows
        superlinearly in shard size — at the price of a slightly larger
        cut, i.e. a few more boundary vertices.
        """
        config = config or DHLConfig()
        if graph.num_vertices == 0:
            raise IndexBuildError("cannot index an empty graph")
        _set_heap_thresholds()
        with Timer() as t, phase("build.regions"):
            partition = partition_regions(graph, k, beta=region_beta, seed=config.seed)
        partition_seconds = t.seconds

        report = ShardBuildReport()
        shards = []
        for vertices in partition.regions:
            subgraph = graph.induced_subgraph(vertices)[0]
            with Timer() as t:
                shards.append(DHLIndex.build(subgraph, config))
            report.per_shard_seconds.append(t.seconds)

        stats = ShardedIndexStats(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            k=partition.k,
            boundary_vertices=sum(len(b) for b in partition.boundary),
            cut_edges=len(partition.cut_edges),
            overlay_edges=0,
            partition_seconds=partition_seconds,
            build=report,
        )
        index = cls(graph, partition, shards, None, config, stats)
        with Timer() as t:
            index._build_overlay()
        stats.overlay_seconds = t.seconds
        index._refresh_size_stats()
        return index

    def _build_overlay(self) -> None:
        """Construct (or reconstruct) the overlay index from scratch."""
        if not len(self.boundary_global):
            self.overlay = None
            self.cliques = []
            return
        self._hold_cliques()
        overlay_graph = build_overlay_graph(
            self.cliques,
            self.boundary_overlay,
            self.partition.cut_edges,
            self.overlay_of,
            len(self.boundary_global),
        )
        self.overlay = DHLIndex.build(overlay_graph, self.config)
        self._engine.invalidate_blocks()

    def _hold_cliques(self) -> None:
        """Recompute every region's clique weight matrix from its shard."""
        self.cliques = [
            clique_weights(shard, boundary)
            for shard, boundary in zip(self.shards, self.boundary_local)
        ]

    def _refresh_size_stats(self) -> None:
        self._stats.shards = [shard.stats() for shard in self.shards]
        self._stats.overlay = (
            self.overlay.stats() if self.overlay is not None else None
        )
        self._stats.overlay_edges = (
            self.overlay.graph.num_edges if self.overlay is not None else 0
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        return self._engine.distance(s, t)

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for ``(s, t)`` pairs: an ``(m, 2)`` integer
        array or any iterable of pairs."""
        return self._engine.distances(pairs)

    # One-to-many and k-nearest run as on a single index, over this
    # index's engine.
    distances_from = DHLIndex.distances_from
    k_nearest = DHLIndex.k_nearest

    @property
    def engine(self) -> ShardedQueryEngine:
        return self._engine

    @property
    def epoch(self) -> int:
        """Number of maintenance batches applied since construction."""
        return self._epoch

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> ShardedMaintenanceStats:
        """Apply a mixed weight-change batch, routed per shard.

        The batch is checked and folded before any write, as on
        :meth:`DHLIndex.update` (:func:`~repro.labelling.driver.validate_batch`):
        a road named twice ends at its last mention's weight.
        Intra-region changes go to the owning shard's DHL+/DHL- pass;
        cut edge changes go straight to the overlay. After shard passes,
        only the overlay clique edges incident to an *affected* boundary
        label are recomputed and folded into one overlay pass.
        ``workers`` is ignored (see :meth:`DistanceBackend.update`).
        """
        stats = ShardedMaintenanceStats()
        overlay_changes = self._reweigh(
            validate_batch("update", self.graph, changes), stats
        )
        if overlay_changes is None:
            return stats
        self._update_overlay(overlay_changes, stats)
        self._epoch += 1
        return stats

    def _reweigh(
        self, changes: list[WeightChange], stats: ShardedMaintenanceStats
    ) -> list[WeightChange] | None:
        """Run checked weight *changes* (one per road, each moving its
        weight) through the owning shards and write them into the global
        graph; *stats* absorbs the shard passes. Returns the overlay's
        changes (cut edges and refreshed clique edges, overlay ids), or
        ``None`` when there are none to run."""
        if not changes:
            return None
        per_shard: dict[int, list[WeightChange]] = {}
        overlay_changes: list[WeightChange] = []
        for u, v, w in changes:
            ru = int(self.region_of[u])
            rv = int(self.region_of[v])
            if ru == rv:
                per_shard.setdefault(ru, []).append(
                    (int(self.local_of[u]), int(self.local_of[v]), w)
                )
            else:
                overlay_changes.append(
                    (int(self.overlay_of[u]), int(self.overlay_of[v]), w)
                )

        with phase("sharded.shard_update"):
            shard_results = {
                rid: self.shards[rid].update(batch)
                for rid, batch in per_shard.items()
            }
        with phase("sharded.clique_refresh"):
            for rid, shard_stats in shard_results.items():
                stats.per_shard[rid] = shard_stats
                overlay_changes.extend(self._absorb_shard(rid, shard_stats, stats))
        # Keep the global graph in lockstep with shard/overlay state so
        # coalescers draining against it classify changes correctly.
        for u, v, w in changes:
            self.graph.set_weight(u, v, w)
        return overlay_changes

    def _absorb_shard(
        self, rid: int, shard_stats: MaintenanceStats, stats: ShardedMaintenanceStats
    ) -> list[WeightChange]:
        """Fold shard *rid*'s pass into *stats*; return the overlay
        clique edges its affected boundary labels moved."""
        stats.absorb(shard_stats, self.shard_vertices[rid])
        if self.overlay is None:
            return []
        return clique_refresh_changes(
            self.shards[rid],
            self.boundary_local[rid],
            self.boundary_overlay[rid],
            self.cliques[rid],
            shard_stats.affected_labels,
        )

    def _update_overlay(
        self, overlay_changes: list[WeightChange], stats: ShardedMaintenanceStats
    ) -> None:
        """One overlay pass over *overlay_changes*, absorbed into *stats*."""
        if not overlay_changes or self.overlay is None:
            return
        with phase("sharded.overlay_update"):
            stats.overlay_stats = self.overlay.update(overlay_changes)
        stats.absorb(stats.overlay_stats, self.boundary_global)
        self._engine.invalidate_blocks()

    # ------------------------------------------------------------------
    # structural updates
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions: Iterable[WeightChange] = (),
        deletions: Iterable[tuple[int, int]] = (),
        weight_changes: Iterable[WeightChange] = (),
    ) -> StructuralStats:
        """Apply one mixed structural batch, routed per shard.

        :func:`~repro.core.structural.classify_batch` folds and checks
        the batch before any write, as on :meth:`DHLIndex.apply_batch`.
        Changes on existing roads (deletions and cut edges included)
        take the :meth:`update` route; a new intra-region road goes to
        the owning shard's own :meth:`DHLIndex.apply_batch`, then the
        clique refresh, and the overlay takes one pass. A *new* cut
        edge changes the boundary vertex set, so the boundary arrays
        and the overlay are rebuilt from the graph instead (the region
        assignment never changes). One epoch. Returns a
        :class:`~repro.core.structural.StructuralStats` whose
        ``maintenance`` is a :class:`ShardedMaintenanceStats`.
        """
        graph = self.graph
        changes, new_roads, stats = classify_batch(
            graph, insertions, deletions, weight_changes
        )
        _bump(self, "already_deleted_edges", stats.already_deleted)
        maintenance = ShardedMaintenanceStats()
        overlay_changes = self._reweigh(changes, maintenance) or []

        per_shard: dict[int, list[WeightChange]] = {}
        cross_inserts: list[WeightChange] = []
        for u, v, w in new_roads:
            ru, rv = int(self.region_of[u]), int(self.region_of[v])
            if ru == rv:
                per_shard.setdefault(ru, []).append(
                    (int(self.local_of[u]), int(self.local_of[v]), w)
                )
            else:
                cross_inserts.append((u, v, w))
        for rid, inserts in sorted(per_shard.items()):
            outcome = self.shards[rid].apply_batch(insertions=inserts)
            stats.fastpath_inserts += outcome.fastpath_inserts
            stats.fallback_rebuilds += outcome.fallback_rebuilds
            stats.repartitions += outcome.repartitions
            stats.new_slots += outcome.new_slots
            done = outcome.maintenance
            earlier = maintenance.per_shard.get(rid)
            maintenance.per_shard[rid] = done if earlier is None else earlier.merge(done)
            overlay_changes.extend(self._absorb_shard(rid, done, maintenance))
            # Mirror the shard's new roads on the global graph.
            globals_of = self.shard_vertices[rid]
            for lu, lv, w in inserts:
                graph.add_edge(int(globals_of[lu]), int(globals_of[lv]), w)

        if cross_inserts:
            # The overlay is rebuilt from the shards and the graph, so
            # its pending changes need no pass of their own.
            with phase("structural.fallback_rebuild"):
                for u, v, w in cross_inserts:
                    graph.add_edge(u, v, w)
                self._rebuild_boundary_structures()
            _bump(self, "fallback_rebuilds")
            stats.fallback_rebuilds += 1
            maintenance.absorb(
                MaintenanceStats(affected_labels=set(self.boundary_global.tolist())),
                np.arange(graph.num_vertices),
            )
        else:
            self._update_overlay(overlay_changes, maintenance)

        stats.maintenance = maintenance
        if changes or new_roads:
            self._epoch += 1
        return stats

    def _rebuild_boundary_structures(self) -> None:
        """Re-derive cut edges / boundaries and rebuild the overlay.

        Region vertex sets are preserved (``regions_from_assignment``
        lists each region's vertices in ascending id order, matching the
        construction-time ordering), so shard-local ids stay valid.
        """
        from repro.partition.regions import regions_from_assignment

        self.partition = regions_from_assignment(self.graph, self.region_of)
        self._number_boundary()
        self._build_overlay()

    def _number_boundary(self) -> None:
        """Overlay numbering from ``self.partition``: boundary vertices
        sorted by global id, and each region's boundary in shard-local
        and overlay ids."""
        boundary = np.asarray(self.partition.boundary_vertices(), dtype=np.int64)
        self.boundary_global = boundary
        self.overlay_of = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        self.overlay_of[boundary] = np.arange(len(boundary))
        regions = [np.asarray(b, dtype=np.int64) for b in self.partition.boundary]
        self.boundary_local = [self.local_of[b] for b in regions]
        self.boundary_overlay = [self.overlay_of[b] for b in regions]

    def compact(self):
        """Compact every shard (and the boundary structures).

        Shards squeeze their own dead slots and edges; global-graph
        edges that are dead follow them out. When that removes a cut
        edge, the boundary vertex set may shrink, so the navigation
        arrays and overlay are rebuilt. Otherwise the overlay is left
        as it is: its only dead slots are then infinite clique edges,
        which it keeps by design so that a later insertion reconnecting
        two boundary vertices is a weight decrease on an existing edge
        (:mod:`repro.sharding.overlay`). Returns an aggregate
        :class:`~repro.core.structural.CompactionStats`.
        """
        total = CompactionStats()
        for shard in self.shards:
            cs = shard.compact()
            total.dead_slots_reclaimed += cs.dead_slots_reclaimed
            total.bytes_reclaimed += cs.bytes_reclaimed
        cut_removed = False
        for u, v, w in list(self.graph.edges()):
            if math.isinf(w):
                self.graph.remove_edge(u, v)
                if self.region_of[u] != self.region_of[v]:
                    cut_removed = True
        if cut_removed:
            self._rebuild_boundary_structures()
        self._epoch += 1
        _bump(self, "compactions")
        _bump(self, "dead_slots_reclaimed", total.dead_slots_reclaimed)
        _bump(self, "bytes_reclaimed", total.bytes_reclaimed)
        return total

    @property
    def dead_fraction(self) -> float:
        """Aggregate dead-slot fraction across shards and overlay."""
        dead = 0
        slots = 0
        components = list(self.shards)
        if self.overlay is not None:
            components.append(self.overlay)
        for component in components:
            weights = component.hu.up_weights
            dead += int(np.isinf(weights).sum())
            slots += len(weights)
        return dead / slots if slots else 0.0

    @property
    def structural_counters(self) -> dict[str, int]:
        """Lifetime structural counters (see :class:`DHLIndex`)."""
        return structural_counters(self)

    # ------------------------------------------------------------------
    # cross-process serving hooks (shared-memory shard workers)
    # ------------------------------------------------------------------
    def shard_buffers(self, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """Shard *sid*'s ``(label_values, label_offsets)`` pair.

        The exact buffers a serving runtime publishes once into
        ``multiprocessing.shared_memory`` so worker processes can gather
        zero-copy — the same two-array layout the v3 snapshot writes to
        disk.
        """
        labels = self.shards[sid].labels
        return labels.values, labels.offsets

    def shard_worker_payload(self, sid: int) -> bytes:
        """Shard *sid*'s structure, pickled with the label payload elided.

        Everything a worker process needs to answer shard-local queries
        — graph, hierarchies, config, and the shard's boundary vertex
        ids — *except* the label buffers, which the worker attaches via
        shared memory (:meth:`shard_buffers`) and re-binds as its
        labelling. Shipped once per worker at startup; label
        maintenance afterwards travels as in-place shared-memory deltas,
        never as a re-pickle.
        """
        import copy
        import pickle

        from repro.labelling.labels import HierarchicalLabelling

        labels = self.shards[sid].labels
        n = labels.num_vertices
        stub = HierarchicalLabelling(
            np.empty(0, dtype=np.float64),
            np.zeros(n + 1, dtype=np.int64),
            labels.tau,
        )
        # A shallow copy with the store (and the engine bound to it)
        # detached, so the pickle carries structure only.
        shard = copy.copy(self.shards[sid])
        shard.labellings = (stub,)
        shard._engine = None
        return pickle.dumps(
            {
                "index": shard,
                "boundary_local": np.asarray(
                    self.boundary_local[sid], dtype=np.int64
                ),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    # ------------------------------------------------------------------
    # persistence and introspection
    # ------------------------------------------------------------------
    def stats(self) -> ShardedIndexStats:
        self._refresh_size_stats()
        return self._stats

    def save(self, path: str | Path) -> None:
        """Persist to a directory of per-shard ``.npy`` snapshot dirs."""
        from repro.core.serialization import save_sharded_index

        save_sharded_index(self, Path(path))

    @classmethod
    def load(
        cls, path: str | Path, mmap_labels: bool = False, verify: bool = True
    ) -> "ShardedDHLIndex":
        """Load an index saved by :meth:`save`.

        ``mmap_labels=True`` memory-maps every shard's (and the
        overlay's) label store read-only.
        """
        from repro.core.serialization import load_sharded_index

        return load_sharded_index(Path(path), mmap_labels=mmap_labels, verify=verify)

    def verify(self) -> None:
        """Run every component's invariant suite (slow; tests only)."""
        for shard in self.shards:
            shard.verify()
        if self.overlay is not None:
            self.overlay.verify()
        self.partition.validate()

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"ShardedDHLIndex(n={self.graph.num_vertices}, k={self.k}, "
            f"boundary={len(self.boundary_global)})"
        )
