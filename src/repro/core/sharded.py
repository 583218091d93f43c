"""The sharded DHL index facade: k region shards plus a boundary overlay.

:class:`ShardedDHLIndex` exposes the same ``distance / distances /
update / save / load`` surface as the monolithic
:class:`~repro.core.index.DHLIndex`, but internally runs as

1. a k-way region partition with boundary extraction
   (:func:`repro.partition.partition_regions`);
2. one independent DHL index per region, built **in parallel** across
   processes (:mod:`repro.sharding.build`);
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

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labelling.driver import fold_batch
from repro.labelling.maintenance import MaintenanceStats
from repro.observability.phases import phase
from repro.observability.timing import Timer
from repro.partition.regions import RegionPartition, partition_regions
from repro.sharding.build import ShardBuildReport, build_shards
from repro.sharding.engine import ShardedQueryEngine
from repro.sharding.overlay import (
    build_overlay_graph,
    clique_refresh_changes,
    clique_weights,
)
from repro.sharding.stats import ShardedMaintenanceStats

__all__ = ["ShardedDHLIndex", "ShardedIndexStats"]

WeightChange = tuple[int, int, float]


def _road_key(u: int, v: int) -> tuple[int, int]:
    """What a weight batch dedupes on: the unordered pair."""
    return (u, v) if u <= v else (v, u)


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
    # Sharded distances depend on boundary/overlay labels too, so no
    # per-pair hub certifies them; the serving layer's fine-grained
    # cache eviction must downgrade to epoch invalidation.
    supports_fine_grained_eviction = False

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
        # Overlay numbering: boundary vertices sorted by global id.
        boundary_global = np.asarray(partition.boundary_vertices(), dtype=np.int64)
        self.boundary_global = boundary_global
        self.overlay_of = np.full(n, -1, dtype=np.int64)
        self.overlay_of[boundary_global] = np.arange(len(boundary_global))
        self.boundary_local: list[np.ndarray] = []
        self.boundary_overlay: list[np.ndarray] = []
        for bverts in partition.boundary:
            barr = np.asarray(bverts, dtype=np.int64)
            self.boundary_local.append(self.local_of[barr])
            self.boundary_overlay.append(self.overlay_of[barr])
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
        build_workers: int | None = None,
        region_beta: float = 0.45,
    ) -> "ShardedDHLIndex":
        """Partition into *k* regions, build shards in parallel, overlay.

        ``build_workers`` sizes the shard-build process pool (default:
        one process per shard, capped at the shard count); pass 1 to
        force a serial build. ``region_beta`` balances the *region*
        split only (the shard hierarchies keep ``config.beta``): near
        0.5 the shards come out even, which shortens both the parallel
        critical path (largest shard) and the serial sum — build cost
        grows superlinearly in shard size — at the price of a slightly
        larger cut, i.e. a few more boundary vertices.
        """
        config = config or DHLConfig()
        if graph.num_vertices == 0:
            raise IndexBuildError("cannot index an empty graph")
        with Timer() as t, phase("build.regions"):
            partition = partition_regions(
                graph, k, beta=region_beta, seed=config.seed
            )
        partition_seconds = t.seconds

        subgraphs = [
            graph.induced_subgraph(vertices)[0] for vertices in partition.regions
        ]
        workers = len(subgraphs) if build_workers is None else build_workers
        shards, report = build_shards(subgraphs, config, workers)

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

    def distances_from(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """One-to-many distances from *s*."""
        return self._engine.distances_arrays(np.full(len(targets), s), targets)

    def k_nearest(
        self, s: int, candidates: Sequence[int], k: int
    ) -> list[tuple[int, float]]:
        """The *k* candidates closest to *s* by road distance."""
        distances = self.distances_from(s, candidates)
        order = np.argsort(distances, kind="stable")
        out: list[tuple[int, float]] = []
        for i in order[: max(0, k)]:
            if not math.isfinite(distances[i]):
                break
            out.append((candidates[int(i)], float(distances[i])))
        return out

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

        A road named twice ends at its last mention's weight, as on
        :meth:`DHLIndex.update`. Intra-region changes go to the owning
        shard's DHL+/DHL- pass; cut edge changes go straight to the
        overlay. After shard passes, only the overlay clique edges
        incident to an *affected* boundary label are recomputed and
        folded into one overlay pass. ``workers`` is ignored (see
        :meth:`DistanceBackend.update`).
        """
        per_shard: dict[int, list[WeightChange]] = {}
        overlay_changes: list[WeightChange] = []
        applied: list[WeightChange] = []
        for u, v, w in fold_batch(changes, _road_key):
            if w == self.graph.weight(u, v):
                continue
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
            applied.append((u, v, w))

        stats = ShardedMaintenanceStats()
        if not applied:
            return stats

        with phase("sharded.shard_update"):
            shard_results = {
                rid: self.shards[rid].update(batch)
                for rid, batch in per_shard.items()
            }
        with phase("sharded.clique_refresh"):
            for rid, shard_stats in shard_results.items():
                stats.per_shard[rid] = shard_stats
                stats.absorb(shard_stats, self.shard_vertices[rid])
                if self.overlay is not None:
                    overlay_changes.extend(
                        clique_refresh_changes(
                            self.shards[rid],
                            self.boundary_local[rid],
                            self.boundary_overlay[rid],
                            self.cliques[rid],
                            shard_stats.affected_labels,
                        )
                    )

        if overlay_changes and self.overlay is not None:
            with phase("sharded.overlay_update"):
                overlay_stats = self.overlay.update(overlay_changes)
            stats.overlay_stats = overlay_stats
            stats.absorb(overlay_stats, self.boundary_global)
            self._engine.invalidate_blocks()

        # Keep the global graph in lockstep with shard/overlay state so
        # coalescers draining against it classify changes correctly.
        for u, v, w in applied:
            self.graph.set_weight(u, v, w)
        self._epoch += 1
        return stats

    # ------------------------------------------------------------------
    # structural updates
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions: Iterable[WeightChange] = (),
        deletions: Iterable[tuple[int, int]] = (),
        weight_changes: Iterable[WeightChange] = (),
    ) -> ShardedMaintenanceStats:
        """Apply one mixed structural batch, routed per shard.

        Intra-region insertions and deletions go to the owning shard's
        own :meth:`DHLIndex.apply_batch` (fast paths and all), followed
        by the usual overlay clique refresh from its affected labels.
        Cut-edge deletions become infinite-weight overlay increases; a
        *new* cut edge changes the boundary vertex set itself, so the
        boundary navigation arrays and the overlay are rebuilt from the
        updated graph (the region assignment never changes).
        """
        from repro.core.structural import _bump

        graph = self.graph
        stats = ShardedMaintenanceStats()

        folded_changes = list(weight_changes)
        per_shard_del: dict[int, list[tuple[int, int]]] = {}
        cut_deletes: list[tuple[int, int]] = []
        per_shard_ins: dict[int, list[WeightChange]] = {}
        cross_inserts: list[WeightChange] = []
        for u, v in deletions:
            if not graph.has_edge(u, v) or math.isinf(graph.weight(u, v)):
                _bump(self, "already_deleted_edges")
                continue
            ru, rv = int(self.region_of[u]), int(self.region_of[v])
            if ru == rv:
                per_shard_del.setdefault(ru, []).append(
                    (int(self.local_of[u]), int(self.local_of[v]))
                )
            else:
                cut_deletes.append((u, v))
        for u, v, w in insertions:
            if graph.has_edge(u, v):
                folded_changes.append((u, v, w))
                continue
            ru, rv = int(self.region_of[u]), int(self.region_of[v])
            if ru == rv:
                per_shard_ins.setdefault(ru, []).append(
                    (int(self.local_of[u]), int(self.local_of[v]), w)
                )
            else:
                cross_inserts.append((u, v, w))

        if folded_changes:
            # update() folds duplicate reports on one edge last-wins
            # (sequential semantics).
            weight_stats = self.update(folded_changes)
            stats.per_shard.update(weight_stats.per_shard)
            stats.overlay_stats = weight_stats.overlay_stats
            stats.absorb(weight_stats, np.arange(graph.num_vertices))

        overlay_changes: list[WeightChange] = []
        for u, v in cut_deletes:
            graph.set_weight(u, v, math.inf)
            overlay_changes.append(
                (int(self.overlay_of[u]), int(self.overlay_of[v]), math.inf)
            )

        touched = sorted(set(per_shard_del) | set(per_shard_ins))
        for rid in touched:
            shard_structural = self.shards[rid].apply_batch(
                insertions=per_shard_ins.get(rid, []),
                deletions=per_shard_del.get(rid, []),
            )
            shard_stats = shard_structural.maintenance
            merged = stats.per_shard.get(rid)
            stats.per_shard[rid] = (
                shard_stats if merged is None else merged.merge(shard_stats)
            )
            stats.absorb(shard_stats, self.shard_vertices[rid])
            if self.overlay is not None:
                overlay_changes.extend(
                    clique_refresh_changes(
                        self.shards[rid],
                        self.boundary_local[rid],
                        self.boundary_overlay[rid],
                        self.cliques[rid],
                        shard_stats.affected_labels,
                    )
                )
            # Mirror the shard's structural outcome on the global graph.
            globals_of = self.shard_vertices[rid]
            for lu, lv in per_shard_del.get(rid, []):
                graph.set_weight(int(globals_of[lu]), int(globals_of[lv]), math.inf)
            for lu, lv, w in per_shard_ins.get(rid, []):
                graph.add_edge(int(globals_of[lu]), int(globals_of[lv]), w)

        if overlay_changes and self.overlay is not None:
            with phase("sharded.overlay_update"):
                overlay_stats = self.overlay.update(overlay_changes)
            stats.overlay_stats = stats.overlay_stats.merge(overlay_stats)
            stats.absorb(overlay_stats, self.boundary_global)
            self._engine.invalidate_blocks()

        if cross_inserts:
            with phase("structural.fallback_rebuild"):
                for u, v, w in cross_inserts:
                    graph.add_edge(u, v, w)
                self._rebuild_boundary_structures()
            _bump(self, "fallback_rebuilds")
            stats.absorb(
                MaintenanceStats(affected_labels=set(self.boundary_global.tolist())),
                np.arange(graph.num_vertices),
            )

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
        n = self.graph.num_vertices
        boundary_global = np.asarray(
            self.partition.boundary_vertices(), dtype=np.int64
        )
        self.boundary_global = boundary_global
        self.overlay_of = np.full(n, -1, dtype=np.int64)
        self.overlay_of[boundary_global] = np.arange(len(boundary_global))
        self.boundary_local = []
        self.boundary_overlay = []
        for bverts in self.partition.boundary:
            barr = np.asarray(bverts, dtype=np.int64)
            self.boundary_local.append(self.local_of[barr])
            self.boundary_overlay.append(self.overlay_of[barr])
        self._build_overlay()

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
        from repro.core.structural import CompactionStats, _bump

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
        from repro.core.structural import structural_counters

        return structural_counters(self)

    # ------------------------------------------------------------------
    # cross-process serving hooks (shared-memory shard workers)
    # ------------------------------------------------------------------
    def shard_buffers(self, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """Shard *sid*'s packed ``(label_values, label_offsets)`` pair.

        The exact buffers a serving runtime publishes once into
        ``multiprocessing.shared_memory`` so worker processes can gather
        zero-copy — the same two-array layout the v3 snapshot writes to
        disk (:meth:`~repro.labelling.labels.HierarchicalLabelling
        .export_buffers`).
        """
        return self.shards[sid].labels.export_buffers()

    def shard_worker_payload(self, sid: int) -> bytes:
        """Shard *sid*'s structure, pickled with the label payload elided.

        Everything a worker process needs to answer shard-local queries
        — graph, hierarchies, config, and the shard's boundary vertex
        ids — *except* the label buffers, which the worker attaches via
        shared memory (:meth:`shard_buffers`) and re-binds with
        :meth:`~repro.labelling.labels.HierarchicalLabelling
        .from_shared_buffers`. Shipped once per worker at startup; label
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
            np.zeros(n, dtype=np.int64),
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
