"""The DHL index facade: build, query, update, persist.

This is the library's main entry point, wiring together the paper's three
components ``(<H_Q, H_U>, L)``:

1. recursive balanced bisection produces the partition tree;
2. :class:`~repro.hierarchy.QueryHierarchy` derives ranks, bitstrings and
   the partial order;
3. :class:`~repro.hierarchy.UpdateHierarchy` contracts the graph in
   decreasing rank order;
4. :func:`~repro.labelling.build_labelling` runs Algorithm 1, once per
   weight plane of the shortcut store.

Every combinatorial step of 1, the weight fill of 3 and the top-down
pass of 4 are loops of the C kernel file (:mod:`repro.labelling.native`),
as are the maintenance sweeps and the batch queries.

Everything that does not depend on whether roads are edges or arcs lives
once, in :class:`IndexCore`, written against the store contract
(:class:`~repro.hierarchy.contraction.ContractionResult`: ``planes``,
``plane_views``) and the graph's road vocabulary (``road_key``,
``weight``, ...). :class:`DHLIndex` is the core over a
one-plane store; the directed index
(:class:`~repro.core.directed.DirectedDHLIndex`) is the same core over a
two-plane one.

Updates go through DHL+/DHL- (Algorithms 2-5) via the single
maintenance driver (:mod:`repro.labelling.driver`).
"""

from __future__ import annotations

from operator import index
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core import serialization, structural
from repro.core.config import DHLConfig
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.driver import maintain
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import MaintenanceStats, WeightChange
from repro.labelling.query import QueryEngine
from repro.observability.phases import phase
from repro.observability.timing import Timer
from repro.partition.recursive import PartitionTreeNode, recursive_bisection
from repro.utils.pairs import as_ids, nearest

__all__ = ["IndexCore", "DHLIndex"]


class IndexCore:
    """One monolithic DHL index: ``hq``, the store ``hu`` and one
    labelling per weight plane of it.

    Use :meth:`build` to construct; then :meth:`distance` for queries and
    :meth:`increase` / :meth:`decrease` / :meth:`update` for road-weight
    maintenance. The graph passed to :meth:`build` is owned by the index
    afterwards: weight updates must go through the index so that the
    hierarchies and labels stay consistent.

    A family supplies ``kind`` and the store class ``_hierarchy``, whose
    ``skeleton`` is the undirected graph that gets partitioned.
    """

    kind: str
    #: The shortcut-store class: ``build(graph, hq)`` contracts,
    #: and its ``planes`` is how many labellings the index carries.
    _hierarchy: type[UpdateHierarchy]

    def __init__(
        self,
        graph,
        hq: QueryHierarchy,
        hu: UpdateHierarchy,
        labellings: Iterable[HierarchicalLabelling],
        config: DHLConfig,
        stats: IndexStats,
    ):
        self.graph = graph
        self.config = config
        self._stats = stats
        # Monotone maintenance epoch: bumped once per applied update batch.
        # The serving layer keys its result cache on it; the batch kernel
        # itself needs no refresh — it gathers from the flat label store
        # that maintenance writes into. Adoption counts construction as
        # epoch 0.
        self._epoch = -1
        self._adopt(hq, hu, labellings)

    def _adopt(self, hq, hu, labellings) -> None:
        """Swap in ``(H_Q, H_U, L)`` — the only place a build, a load, a
        rebuild or a worker's re-bound label buffer lands."""
        self.hq = hq
        self.hu = hu
        #: One labelling per weight plane of ``hu``, in plane order.
        self.labellings = tuple(labellings)
        self._engine = QueryEngine(hq, self.labellings[0], self.labellings[-1])
        self._epoch += 1
        self._refresh_size_stats()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph, config: DHLConfig | None = None):
        """Construct the index: partition, contract, label.

        Works on disconnected graphs too (cross-component queries return
        ``inf``); integer road weights are recommended — the increase-side
        maintenance prunes via exact path-sum equality.
        """
        config = config or DHLConfig()
        n = graph.num_vertices
        if n == 0:
            raise IndexBuildError("cannot index an empty graph")
        stats = IndexStats(num_vertices=n, num_edges=graph.num_edges)

        with Timer() as t, phase("build.partition"):
            tree = cls._bisect(cls._hierarchy.skeleton(graph), config)
            hq = QueryHierarchy.from_partition_tree(tree, n)
        stats.partition_seconds = t.seconds

        with Timer() as t, phase("build.contraction"):
            hu = cls._hierarchy.build(graph, hq)
        stats.contraction_seconds = t.seconds

        with Timer() as t, phase("build.labelling"):
            labellings = [build_labelling(hu, plane) for plane in range(hu.planes)]
        stats.labelling_seconds = t.seconds

        return cls(graph, hq, hu, *labellings, config, stats)

    @staticmethod
    def _bisect(graph: Graph, config: DHLConfig) -> PartitionTreeNode:
        return recursive_bisection(
            graph,
            beta=config.beta,
            leaf_size=config.leaf_size,
            seed=config.seed,
        )

    def _refresh_size_stats(self) -> None:
        stats, hu = self._stats, self.hu
        stats.label_entries = sum(labels.num_entries for labels in self.labellings)
        stats.label_bytes = sum(labels.memory_bytes() for labels in self.labellings)
        stats.num_shortcuts = hu.num_shortcuts
        stats.shortcut_bytes = hu.memory_bytes()
        stats.hierarchy_bytes = self.hq.memory_bytes()
        stats.height = self.hq.height
        stats.max_up_degree = hu.max_up_degree()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance from *s* to *t* (``inf`` when
        disconnected)."""
        return self._engine.distance(s, t)

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for ``(s, t)`` pairs: an ``(m, 2)`` integer
        array or any iterable of pairs."""
        return self._engine.distances(pairs)

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus the common-ancestor hub realising it."""
        return self._engine.distance_with_hub(s, t)

    def distances_from(self, s: int, targets: Sequence[int]) -> np.ndarray:
        """One-to-many distances from *s* (e.g. k-nearest-POI workloads);
        *s* through ``operator.index``, the *targets* through
        :func:`~repro.utils.pairs.as_ids`."""
        targets = as_ids(targets)
        sources = np.full(len(targets), index(s), dtype=np.int64)
        return self._engine.distances_arrays(sources, targets)

    def k_nearest(
        self, s: int, candidates: Sequence[int], k: int
    ) -> list[tuple[int, float]]:
        """The *k* candidates closest to *s* by road distance.

        Unreachable candidates (infinite distance) are excluded; fewer
        than *k* entries may be returned.
        """
        targets = as_ids(candidates)
        return nearest(targets, self.distances_from(s, targets), k)

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
        """Apply road-weight decreases (DHL-).

        ``changes`` holds ``(u, v, new_weight)`` triples whose new weight
        is at most the current one. The whole batch is validated before
        anything is written; the C sweeps of
        :mod:`repro.labelling.native.engine` run it.
        """
        return self._maintain("decrease", changes)

    def increase(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Apply road-weight increases (DHL+); see :meth:`decrease`."""
        return self._maintain("increase", changes)

    def _maintain(
        self, kind: str, changes: Iterable[WeightChange]
    ) -> MaintenanceStats:
        stats = maintain(kind, self.hu, self.labellings, changes)
        if stats is None:
            return MaintenanceStats()
        self._epoch += 1
        return stats

    def update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        """Apply a mixed batch in one pass (one epoch).

        Repeated mentions of one road (``graph.road_key``: the
        unordered pair of a :class:`Graph`, the arc of a digraph, whose
        two directions must not merge) fold to the last one, so a batch
        that raises then restores a road costs nothing. Raised and
        lowered roads then seed one shortcut sweep and one label sweep
        per plane together; each moved shortcut and label entry is
        written and counted once. Unchanged weights are skipped.
        ``workers`` is ignored (see :meth:`DistanceBackend.update`).
        """
        return self._maintain("update", changes)

    # ------------------------------------------------------------------
    # structural updates (Section 8) — implemented in core.structural
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions: Iterable[WeightChange] = (),
        deletions: Iterable[tuple[int, int]] = (),
        weight_changes: Iterable[WeightChange] = (),
    ) -> structural.StructuralStats:
        """Apply one mixed structural batch (insert / delete / reweigh).

        Each list is folded by ``graph.road_key`` (last mention wins)
        and a road named in two lists raises
        :class:`~repro.exceptions.MaintenanceError`, all before any
        write. Then one step: when every new road takes the closure
        fast path (its endpoints ⪯_H-comparable, the closure within
        ``config.insert_closure_limit``), one :meth:`update` runs the
        deletions (changes to ``inf``), the weight changes and the new
        roads together; otherwise the graph takes the whole batch and
        the index is rebuilt once — see :mod:`repro.core.structural`.
        One epoch either way. Mutates the index in place.
        """
        return structural.apply_batch(self, insertions, deletions, weight_changes)

    def compact(self) -> structural.CompactionStats:
        """Reclaim logically dead shortcut slots (``inf`` in every weight
        plane).

        Queried distances are unchanged; deletions become permanent
        (restoring a compacted road re-inserts it).
        """
        return structural.compact_index(self)

    @property
    def dead_fraction(self) -> float:
        """Fraction of shortcut slots that are logically deleted."""
        return structural.dead_fraction(self.hu)

    @property
    def structural_counters(self) -> dict[str, int]:
        """Lifetime structural counters (already-deleted drops, fast-path
        inserts, fallback rebuilds, compaction reclaim totals)."""
        return structural.structural_counters(self)

    # ------------------------------------------------------------------
    # persistence and introspection
    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        self._refresh_size_stats()
        return self._stats

    def save(self, path: str | Path) -> None:
        """Persist the index to a directory (scalar JSON manifest + npz
        arrays + flat label ``.npy`` files)."""
        serialization.save_index(self, Path(path))

    @classmethod
    def load(cls, path: str | Path, mmap_labels: bool = False, verify: bool = True):
        """Load an index previously written by :meth:`save`.

        ``mmap_labels=True`` memory-maps the label store read-only, so
        queries run straight off the snapshot without loading it into
        RAM; the first update materialises a writable copy.
        """
        return serialization.load_index(
            Path(path), mmap_labels=mmap_labels, verify=verify, cls=cls
        )

    def rebuild(self):
        """Construct a fresh index over the current graph (same config)."""
        return type(self).build(self.graph.copy(), self.config)

    def verify(self) -> None:
        """Run the full invariant suite (slow; for tests/debugging)."""
        self.hq.validate_graph(self.graph)
        self.hu.validate_comparability()
        self.hu.verify_minimum_weight_property()
        for labels in self.labellings:
            labels.validate_basic()

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        entries = sum(labels.num_entries for labels in self.labellings)
        return (
            f"{type(self).__name__}(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, entries={entries})"
        )


class DHLIndex(IndexCore):
    """Dual-Hierarchy Labelling distance index over an undirected graph."""

    kind = "monolithic"
    _hierarchy = UpdateHierarchy

    def __init__(
        self,
        graph: Graph,
        hq: QueryHierarchy,
        hu: UpdateHierarchy,
        labels: HierarchicalLabelling,
        config: DHLConfig,
        stats: IndexStats,
    ):
        super().__init__(graph, hq, hu, (labels,), config, stats)

    @property
    def labels(self) -> HierarchicalLabelling:
        return self.labellings[0]

    def shortest_path(self, s: int, t: int) -> list[int]:
        """Exact shortest path as a vertex sequence (route reconstruction).

        Extracts the shortcut chains behind the winning label entries and
        unpacks each shortcut through its Property-3.1 witness triangle —
        no extra storage beyond the index itself.
        """
        from repro.labelling.paths import PathReconstructor

        return PathReconstructor(self._engine, self.hu).shortest_path(s, t)

    def restore_edge(self, u: int, v: int, weight: float) -> MaintenanceStats:
        """Restore a logically deleted road with *weight*."""
        return structural.restore_edge(self, u, v, weight)

    def delete_vertex(self, v: int) -> MaintenanceStats:
        """Logically delete an intersection (all incident roads)."""
        return structural.delete_vertex(self, v)
