"""The DHL index facade: build, query, update, persist.

This is the library's main entry point, wiring together the paper's three
components ``(<H_Q, H_U>, L)``:

1. recursive balanced bisection produces the partition tree;
2. :class:`~repro.hierarchy.QueryHierarchy` derives ranks, bitstrings and
   the partial order;
3. :class:`~repro.hierarchy.UpdateHierarchy` contracts the graph in
   decreasing rank order;
4. :func:`~repro.labelling.build_labelling` runs Algorithm 1.

Updates go through DHL+/DHL- (Algorithms 2-5) via the single
maintenance driver (:mod:`repro.labelling.driver`); ``config.engine``
names the sweep implementation it runs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import DHLConfig
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.driver import maintain, split_batch
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import MaintenanceStats
from repro.labelling.query import QueryEngine
from repro.observability.phases import phase
from repro.partition.recursive import recursive_bisection
from repro.utils.timing import Stopwatch

__all__ = ["DHLIndex"]

WeightChange = tuple[int, int, float]


class DHLIndex:
    """Dual-Hierarchy Labelling distance index over an undirected graph.

    Use :meth:`build` to construct; then :meth:`distance` for queries and
    :meth:`increase` / :meth:`decrease` / :meth:`update` for edge-weight
    maintenance. The graph passed to :meth:`build` is owned by the index
    afterwards: weight updates must go through the index so that the
    hierarchies and labels stay consistent.
    """

    kind = "monolithic"
    # A monolithic distance is a min over the two endpoints' label
    # arrays, so the minimising hub certifies a cached result; the
    # serving layer may evict per-pair after an update.
    supports_fine_grained_eviction = True

    def __init__(
        self,
        graph: Graph,
        hq: QueryHierarchy,
        hu: UpdateHierarchy,
        labels: HierarchicalLabelling,
        config: DHLConfig,
        stats: IndexStats,
    ):
        self.graph = graph
        self.hq = hq
        self.hu = hu
        self.labels = labels
        self.config = config
        self._stats = stats
        self._engine = QueryEngine(hq, labels, engine=config.resolve_engine())
        # Monotone maintenance epoch: bumped once per applied update batch.
        # The serving layer keys its result cache on it; the batch kernel
        # itself needs no refresh — it gathers from the flat label store
        # that maintenance writes into.
        self._epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, config: DHLConfig | None = None) -> "DHLIndex":
        """Construct the index: partition, contract, label.

        Works on disconnected graphs too (cross-component queries return
        ``inf``); integer edge weights are recommended — the increase-side
        maintenance prunes via exact path-sum equality.
        """
        config = config or DHLConfig()
        if graph.num_vertices == 0:
            raise IndexBuildError("cannot index an empty graph")
        stats = IndexStats(
            num_vertices=graph.num_vertices, num_edges=graph.num_edges
        )

        watch = Stopwatch()
        with watch, phase("build.partition"):
            tree = recursive_bisection(
                graph,
                beta=config.beta,
                leaf_size=config.leaf_size,
                seed=config.seed,
                coarsest_size=config.coarsest_size,
            )
            hq = QueryHierarchy.from_partition_tree(tree, graph.num_vertices)
        stats.partition_seconds = watch.laps[-1]

        with watch, phase("build.contraction"):
            hu = UpdateHierarchy.build(graph, hq)
        stats.contraction_seconds = watch.laps[-1]

        with watch, phase("build.labelling"):
            labels = build_labelling(hu)
        stats.labelling_seconds = watch.laps[-1]

        if config.validate:
            hq.validate_graph(graph)
            hu.validate_comparability()
            hu.verify_minimum_weight_property()
            labels.validate_basic()

        index = cls(graph, hq, hu, labels, config, stats)
        index._refresh_size_stats()
        return index

    def _refresh_size_stats(self) -> None:
        self._stats.label_entries = self.labels.num_entries
        self._stats.label_bytes = self.labels.memory_bytes()
        self._stats.num_shortcuts = self.hu.num_shortcuts
        self._stats.shortcut_bytes = self.hu.memory_bytes()
        self._stats.hierarchy_bytes = self.hq.memory_bytes()
        self._stats.height = self.hq.height
        self._stats.max_up_degree = self.hu.max_up_degree()

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

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus the common-ancestor hub realising it."""
        return self._engine.distance_with_hub(s, t)

    def shortest_path(self, s: int, t: int) -> list[int]:
        """Exact shortest path as a vertex sequence (route reconstruction).

        Extracts the shortcut chains behind the winning label entries and
        unpacks each shortcut through its Property-3.1 witness triangle —
        no extra storage beyond the index itself.
        """
        from repro.labelling.paths import PathReconstructor

        return PathReconstructor(self._engine, self.hu).shortest_path(s, t)

    def distances_from(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """One-to-many distances from *s* (e.g. k-nearest-POI workloads)."""
        return self._engine.distances_arrays(np.full(len(targets), s), targets)

    def k_nearest(
        self, s: int, candidates: Sequence[int], k: int
    ) -> list[tuple[int, float]]:
        """The *k* candidates closest to *s* by road distance.

        Unreachable candidates (infinite distance) are excluded; fewer
        than *k* entries may be returned.
        """
        distances = self.distances_from(s, candidates)
        order = np.argsort(distances, kind="stable")
        out: list[tuple[int, float]] = []
        for i in order[: max(0, k)]:
            if not math.isfinite(distances[i]):
                break
            out.append((candidates[int(i)], float(distances[i])))
        return out

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def epoch(self) -> int:
        """Number of maintenance batches applied since construction."""
        return self._epoch

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def decrease(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Apply edge-weight decreases (DHL-).

        ``changes`` holds ``(u, v, new_weight)`` triples whose new weight
        is at most the current one. The whole batch is validated before
        anything is written; ``config.engine`` names the sweeps that run
        — the frontier-batched array kernels by default.
        """
        return self._maintain("decrease", changes)

    def increase(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Apply edge-weight increases (DHL+); see :meth:`decrease`."""
        return self._maintain("increase", changes)

    def _maintain(
        self, kind: str, changes: Iterable[WeightChange]
    ) -> MaintenanceStats:
        stats = maintain(kind, self.hu, self.labels, changes, self.config)
        if stats is None:
            return MaintenanceStats()
        self._epoch += 1
        return stats

    def update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        """Apply a mixed batch: splits into increases and decreases.

        Increases are applied first, then decreases, mirroring the
        paper's experimental protocol. Unchanged weights are skipped.
        ``workers`` is ignored (see :meth:`DistanceBackend.update`).
        """
        increases, decreases = split_batch(self.graph, changes)
        stats = MaintenanceStats()
        if increases:
            stats = stats.merge(self.increase(increases))
        if decreases:
            stats = stats.merge(self.decrease(decreases))
        return stats

    def update_coalesced(
        self, changes: Iterable[WeightChange]
    ) -> MaintenanceStats:
        """Apply a raw change stream as one merged batch.

        Duplicate mentions of the same road collapse to their *final*
        weight (last write wins), so a burst that raises then restores an
        edge costs nothing; the merged batch then follows :meth:`update`'s
        increase-then-decrease protocol. Index-level counterpart of the
        serving layer's streaming :class:`~repro.service.UpdateCoalescer`
        for callers that batch changes themselves.
        """
        final: dict[tuple[int, int], float] = {}
        for u, v, w in changes:
            final[(u, v) if u <= v else (v, u)] = w
        return self.update([(u, v, w) for (u, v), w in final.items()])

    # ------------------------------------------------------------------
    # structural updates (Section 8) — implemented in core.structural
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions: Iterable[WeightChange] = (),
        deletions: Iterable[tuple[int, int]] = (),
        weight_changes: Iterable[WeightChange] = (),
    ):
        """Apply one mixed structural batch (insert / delete / reweigh).

        Deletions of live edges take the infinite-weight-increase fast
        path, genuinely new edges take the closure fast path when their
        endpoints are ⪯_H-comparable and the closure fits
        ``config.insert_closure_limit``, and everything else falls back
        to a rebuild — see :mod:`repro.core.structural`. Mutates the
        index in place and returns a
        :class:`~repro.core.structural.StructuralStats`.
        """
        from repro.core.structural import apply_batch

        return apply_batch(self, insertions, deletions, weight_changes)

    def compact(self):
        """Reclaim logically dead shortcut slots and label-store slack.

        Queried distances are unchanged; deletions become permanent
        (restoring a compacted edge re-inserts it). Returns a
        :class:`~repro.core.structural.CompactionStats`.
        """
        from repro.core.structural import compact_index

        return compact_index(self)

    @property
    def dead_fraction(self) -> float:
        """Fraction of shortcut slots that are logically deleted."""
        from repro.core.structural import dead_fraction

        return dead_fraction(self.hu)

    @property
    def structural_counters(self) -> dict[str, int]:
        """Lifetime structural counters (already-deleted drops, fast-path
        inserts, fallback rebuilds, compaction reclaim totals)."""
        from repro.core.structural import structural_counters

        return structural_counters(self)

    def restore_edge(self, u: int, v: int, weight: float) -> MaintenanceStats:
        """Restore a logically deleted road with *weight*."""
        from repro.core.structural import restore_edge

        return restore_edge(self, u, v, weight)

    def delete_vertex(self, v: int) -> MaintenanceStats:
        """Logically delete an intersection (all incident roads)."""
        from repro.core.structural import delete_vertex

        return delete_vertex(self, v)

    # ------------------------------------------------------------------
    # persistence and introspection
    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        self._refresh_size_stats()
        return self._stats

    def save(self, path: str | Path) -> None:
        """Persist the index to a directory (JSON manifest + npz arrays)."""
        from repro.core.serialization import save_index

        save_index(self, Path(path))

    @classmethod
    def load(
        cls, path: str | Path, mmap_labels: bool = False, verify: bool = True
    ) -> "DHLIndex":
        """Load an index previously written by :meth:`save`.

        ``mmap_labels=True`` memory-maps the label store read-only, so
        queries run straight off the snapshot without loading it into
        RAM; the first update materialises a writable copy.
        """
        from repro.core.serialization import load_index

        return load_index(Path(path), mmap_labels=mmap_labels, verify=verify)

    def rebuild(self) -> "DHLIndex":
        """Construct a fresh index over the current graph (same config)."""
        return DHLIndex.build(self.graph.copy(), self.config)

    def verify(self) -> None:
        """Run the full invariant suite (slow; for tests/debugging)."""
        self.hq.validate_graph(self.graph)
        self.hu.validate_comparability()
        self.hu.verify_minimum_weight_property()
        self.labels.validate_basic()

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"DHLIndex(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"entries={self.labels.num_entries})"
        )
