"""Directed road networks — the Section 8 extension.

The paper sketches the directed case: keep one pair of hierarchies and
store *forward and reverse labels* per vertex, maintaining each with the
same algorithms. Concretely:

* the **structural skeleton** (which pairs are shortcuts) comes from the
  symmetrised graph — structure is weight-independent, so one skeleton
  serves both directions;
* every shortcut pair ``(v, u)`` with ``v`` deeper carries two weights,
  one per **weight plane** of :class:`DirectedUpdateHierarchy`'s single
  buffer: plane 0 (``out_weights``) for the ascending arc ``v -> u``,
  plane 1 (``in_weights``) for the descending arc ``u -> v``;
* two labellings are built with Algorithm 1, one per plane:
  ``L_out[v][i]`` = distance ``v -> ancestor_i`` and ``L_in[v][i]`` =
  distance ``ancestor_i -> v`` within the interval subgraph;
* a query is ``d(s, t) = min_i L_out[s][i] + L_in[t][i]`` over the common
  ancestors — the directed 2-hop cover (the minimum-rank vertex of a
  directed shortest path is a common ancestor, and both label entries are
  exact within its descendant subgraph);
* maintenance is the shared driver's: a triangle through a deeper vertex
  composes one descending and one ascending weight, which the engines'
  shortcut sweeps express as "second leg from the opposite plane"; the
  label phase then runs once per plane.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.config import DHLConfig
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.hierarchy.contraction import ContractionResult
from repro.hierarchy.csr import ShortcutCSR
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.driver import maintain, split_batch
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import MaintenanceStats
from repro.labelling.query import AncestorTables, gather_pairs
from repro.observability.phases import phase
from repro.partition.recursive import recursive_bisection
from repro.utils.pairs import as_pair_array
from repro.utils.timing import Stopwatch

__all__ = ["DirectedDHLIndex", "DirectedUpdateHierarchy"]

WeightChange = tuple[int, int, float]


class _Plane(NamedTuple):
    """One weight plane, shaped like a one-plane store for Algorithm 1
    and the label sweeps."""

    tau: np.ndarray
    csr: ShortcutCSR
    up_weights: np.ndarray


class DirectedUpdateHierarchy(UpdateHierarchy):
    """H_U of a digraph: the shared skeleton with two weight planes.

    Plane 0 weighs each shortcut's arc deeper -> shallower, plane 1 the
    arc shallower -> deeper. The planes are halves of one ``up_weights``
    buffer and every view of them is derived on demand, never stored —
    a stored numpy view would come back from a pickle as a detached
    copy and maintenance would write into a dead buffer.
    """

    planes = 2

    __slots__ = ()

    @classmethod
    def build(cls, digraph: DiGraph, hq: QueryHierarchy) -> "DirectedUpdateHierarchy":
        """Directed contraction over the symmetric structural skeleton."""
        n = digraph.num_vertices
        order = hq.contraction_order()
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        # Working directed adjacency with symmetric key structure:
        # b in work[a] iff a in work[b]; missing arcs carry inf.
        work: list[dict[int, float]] = [{} for _ in range(n)]
        for a, b, w in digraph.arcs():
            work[a][b] = min(work[a].get(b, math.inf), w)
            work[b].setdefault(a, math.inf)

        up: list[list[int]] = [[] for _ in range(n)]
        wout: list[dict[int, float]] = [{} for _ in range(n)]
        win: list[dict[int, float]] = [{} for _ in range(n)]

        for v in order.tolist():
            nbrs = sorted(work[v], key=lambda u: rank[u])
            up[v] = nbrs
            wout[v] = {u: work[v][u] for u in nbrs}
            win[v] = {u: work[u][v] for u in nbrs}
            for i, a in enumerate(nbrs):
                va = work[v][a]  # v -> a
                av = work[a][v]  # a -> v
                del work[a][v]
                for b in nbrs[i + 1 :]:
                    vb = work[v][b]
                    bv = work[b][v]
                    ab = av + vb  # a -> v -> b
                    ba = bv + va  # b -> v -> a
                    row_a, row_b = work[a], work[b]
                    cur_ab = row_a.get(b, math.inf)
                    cur_ba = row_b.get(a, math.inf)
                    row_a[b] = ab if ab < cur_ab else cur_ab
                    row_b[a] = ba if ba < cur_ba else cur_ba
            work[v].clear()
        return cls(ContractionResult(digraph, order, rank, up, wout, win), hq)

    def edge_key(self, a: int, b: int) -> tuple[int, int]:
        """The ordered arc: a digraph's two directions are distinct roads."""
        return a, b

    def plane_views(self) -> tuple[_Plane, _Plane]:
        m = self.csr.num_slots
        return (
            _Plane(self.tau, self.csr, self.up_weights[:m]),
            _Plane(self.tau, self.csr, self.up_weights[m:]),
        )

    def label_planes(self, labels) -> list[tuple]:
        return list(zip(self.plane_views(), labels))


class DirectedDHLIndex:
    """DHL index over a directed graph with forward and reverse labels."""

    kind = "directed"
    # A directed distance is a min over the (out, in) label pair alone,
    # so the certifying hub argument from the undirected index carries
    # over; the serving layer may evict per-pair.
    supports_fine_grained_eviction = True

    def __init__(
        self,
        digraph: DiGraph,
        hq: QueryHierarchy,
        hu: DirectedUpdateHierarchy,
        labels_out: HierarchicalLabelling,
        labels_in: HierarchicalLabelling,
        config: DHLConfig,
        stats: IndexStats,
    ):
        self.digraph = digraph
        self.hq = hq
        self.hu = hu
        self.labels_out = labels_out
        self.labels_in = labels_in
        self.config = config
        self._stats = stats
        self._lca: AncestorTables | None = None
        # Monotone maintenance epoch, mirroring DHLIndex: bumped once per
        # applied update batch so the serving layer's result cache (and a
        # worker epoch broadcast) can key on it.
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Number of maintenance batches applied since construction."""
        return self._epoch

    @property
    def graph(self) -> DiGraph:
        """The authoritative weighted graph (DistanceBackend surface).

        The serving layer's coalescer drains against ``graph.weight``;
        for the directed index that is the digraph itself.
        """
        return self.digraph

    @property
    def out_weights(self) -> np.ndarray:
        """Plane 0 of the shortcut store: arcs deeper -> shallower."""
        return self.hu.plane_views()[0].up_weights

    @property
    def in_weights(self) -> np.ndarray:
        """Plane 1 of the shortcut store: arcs shallower -> deeper."""
        return self.hu.plane_views()[1].up_weights

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, digraph: DiGraph, config: DHLConfig | None = None) -> "DirectedDHLIndex":
        config = config or DHLConfig()
        if digraph.num_vertices == 0:
            raise IndexBuildError("cannot index an empty graph")
        n = digraph.num_vertices
        stats = IndexStats(num_vertices=n, num_edges=digraph.num_arcs)

        watch = Stopwatch()
        with watch, phase("build.partition"):
            skeleton = cls._skeleton(digraph)
            tree = recursive_bisection(
                skeleton,
                beta=config.beta,
                leaf_size=config.leaf_size,
                seed=config.seed,
                coarsest_size=config.coarsest_size,
            )
            hq = QueryHierarchy.from_partition_tree(tree, n)
        stats.partition_seconds = watch.laps[-1]

        with watch, phase("build.contraction"):
            hu = DirectedUpdateHierarchy.build(digraph, hq)
        stats.contraction_seconds = watch.laps[-1]

        with watch, phase("build.labelling"):
            labels_out, labels_in = map(build_labelling, hu.plane_views())
        stats.labelling_seconds = watch.laps[-1]
        index = cls(digraph, hq, hu, labels_out, labels_in, config, stats)
        index._refresh_size_stats()
        return index

    @staticmethod
    def _skeleton(digraph: DiGraph) -> Graph:
        """Symmetrised structural skeleton used for partitioning."""
        g = Graph(digraph.num_vertices, digraph.coords)
        for u, v, w in digraph.arcs():
            if not g.has_edge(u, v):
                reverse = digraph.out_neighbors(v).get(u, math.inf)
                wmin = min(w, reverse)
                if math.isinf(wmin):
                    # Logically deleted in both directions: keep the
                    # structural edge so every arc retains a slot.
                    g.add_edge(u, v, 0.0)
                    g.set_weight(u, v, math.inf)
                else:
                    g.add_edge(u, v, wmin)
        return g

    def _refresh_size_stats(self) -> None:
        self._stats.label_entries = (
            self.labels_out.num_entries + self.labels_in.num_entries
        )
        self._stats.label_bytes = (
            self.labels_out.memory_bytes() + self.labels_in.memory_bytes()
        )
        self._stats.num_shortcuts = self.hu.num_shortcuts
        self._stats.shortcut_bytes = self.hu.memory_bytes()
        self._stats.hierarchy_bytes = self.hq.memory_bytes()
        self._stats.height = self.hq.height
        self._stats.max_up_degree = self.hu.max_up_degree()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Directed shortest-path distance from *s* to *t*."""
        if s == t:
            return 0.0
        k = self.hq.common_ancestor_count(s, t)
        if k <= 0:
            return math.inf
        total = self.labels_out.view(s)[:k] + self.labels_in.view(t)[:k]
        return float(total.min())

    def distances(self, pairs) -> np.ndarray:
        """Batch ``s -> t`` distances: an ``(m, 2)`` integer array or any
        iterable of pairs."""
        arr = as_pair_array(pairs)
        s, t = arr[:, 0], arr[:, 1]
        # A full rebuild adopts a fresh H_Q in place; re-key on identity.
        if self._lca is None or self._lca.hq is not self.hq:
            self._lca = AncestorTables(self.hq)
        k = self._lca.counts(s, t)
        return gather_pairs(self.labels_out, s, self.labels_in, t, k)[0]

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def decrease(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Arc-weight decreases (Algorithm 2, then Algorithm 4 per plane);
        see :meth:`DHLIndex.decrease`."""
        return self._maintain("decrease", changes)

    def increase(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Arc-weight increases (Algorithm 3, then Algorithm 5 per plane)."""
        return self._maintain("increase", changes)

    def _maintain(
        self, kind: str, changes: Iterable[WeightChange]
    ) -> MaintenanceStats:
        labels = (self.labels_out, self.labels_in)
        stats = maintain(kind, self.hu, labels, changes, self.config)
        if stats is None:
            return MaintenanceStats()
        self._epoch += 1
        return stats

    def update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        """Mixed batch: increases first, then decreases.

        ``workers`` is ignored (see :meth:`DistanceBackend.update`).
        """
        increases, decreases = split_batch(self.digraph, changes)
        stats = MaintenanceStats()
        if increases:
            stats = stats.merge(self.increase(increases))
        if decreases:
            stats = stats.merge(self.decrease(decreases))
        return stats

    def update_coalesced(
        self, changes: Iterable[WeightChange]
    ) -> MaintenanceStats:
        """Apply a raw change stream as one merged batch (last write wins).

        Directed counterpart of :meth:`DHLIndex.update_coalesced`: the
        coalescing key is the *ordered* arc ``(a, b)`` — a digraph's two
        directions are distinct roads and must not merge.
        """
        final: dict[tuple[int, int], float] = {}
        for a, b, w in changes:
            final[(a, b)] = w
        return self.update([(a, b, w) for (a, b), w in final.items()])

    # ------------------------------------------------------------------
    # structural updates — implemented in core.structural
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        insertions: Iterable[WeightChange] = (),
        deletions: Iterable[tuple[int, int]] = (),
        weight_changes: Iterable[WeightChange] = (),
    ):
        """Apply one mixed structural arc batch; see
        :func:`repro.core.structural.apply_batch_directed`."""
        from repro.core.structural import apply_batch_directed

        return apply_batch_directed(self, insertions, deletions, weight_changes)

    def compact(self):
        """Reclaim dead shortcut slots (both directions inf) and label
        slack; see :func:`repro.core.structural.compact_directed_index`."""
        from repro.core.structural import compact_directed_index

        return compact_directed_index(self)

    @property
    def dead_fraction(self) -> float:
        """Fraction of shortcut slots dead in both directions."""
        from repro.core.structural import dead_fraction

        return dead_fraction(self.hu)

    @property
    def structural_counters(self) -> dict[str, int]:
        """Lifetime structural counters (see :class:`DHLIndex`)."""
        from repro.core.structural import structural_counters

        return structural_counters(self)

    # ------------------------------------------------------------------
    # persistence and introspection
    # ------------------------------------------------------------------
    def save(self, path: "str | Path") -> None:
        """Persist the directed index (manifest + npz + flat label npy)."""
        from repro.core.serialization import save_directed_index

        save_directed_index(self, Path(path))

    @classmethod
    def load(
        cls, path: "str | Path", mmap_labels: bool = False, verify: bool = True
    ) -> "DirectedDHLIndex":
        """Load an index written by :meth:`save`; ``mmap_labels`` maps the
        two label stores read-only for near-instant start-up."""
        from repro.core.serialization import load_directed_index

        return load_directed_index(Path(path), mmap_labels=mmap_labels, verify=verify)

    def stats(self) -> IndexStats:
        self._refresh_size_stats()
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"DirectedDHLIndex(n={self.digraph.num_vertices}, "
            f"m={self.digraph.num_arcs})"
        )
