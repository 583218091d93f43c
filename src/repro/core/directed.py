"""Directed road networks — the Section 8 extension.

The paper sketches the directed case: keep one pair of hierarchies and
store *forward and reverse labels* per vertex, maintaining each with the
same algorithms. Concretely:

* the **structural skeleton** (which pairs are shortcuts) comes from the
  symmetrised graph — structure is weight-independent, so one skeleton
  serves both directions;
* every shortcut pair ``(v, u)`` with ``v`` deeper carries two weights:
  ``wout[v][u]`` for the ascending arc ``v -> u`` and ``win[v][u]`` for
  the descending arc ``u -> v``. Both live in flat per-direction weight
  arrays over one shared :class:`~repro.hierarchy.csr.ShortcutCSR`
  structure, so the frontier-batched maintenance kernels run on either
  direction through a :class:`_DirectionView`;
* two labellings are built with Algorithm 1 parameterised by the weight
  direction: ``L_out[v][i]`` = distance ``v -> ancestor_i`` and
  ``L_in[v][i]`` = distance ``ancestor_i -> v`` within the interval
  subgraph;
* a query is ``d(s, t) = min_i L_out[s][i] + L_in[t][i]`` over the common
  ancestors — the directed 2-hop cover (the minimum-rank vertex of a
  directed shortest path is a common ancestor, and both label entries are
  exact within its descendant subgraph);
* shortcut maintenance couples the two directions (a triangle through a
  deeper vertex composes one descending and one ascending weight), so it
  is implemented here; label maintenance is two calls of the shared
  driver's Algorithms 4/5 half, one per direction view.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.config import DHLConfig
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError, StructuralFallbackRequired
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.hierarchy.csr import CSRShortcutMixin, ShortcutCSR, build_shortcut_csr
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.driver import maintain_labels, split_batch, validate_batch
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import MaintenanceStats
from repro.labelling.query import AncestorTables, gather_pairs
from repro.observability.phases import phase
from repro.partition.recursive import recursive_bisection
from repro.utils.pairs import as_pair_array
from repro.utils.priority_queue import LazyHeap
from repro.utils.timing import Stopwatch

__all__ = ["DirectedDHLIndex"]

WeightChange = tuple[int, int, float]

_OUT = 0  # deeper -> shallower (ascending arcs)
_IN = 1  # shallower -> deeper (descending arcs)


class _DirectionView(CSRShortcutMixin):
    """One direction of the shared shortcut structure.

    Exposes exactly the store surface the label algorithms touch —
    ``tau``/``tau_key``, the structural ``csr`` and the direction's flat
    ``up_weights`` (array and compiled sweeps), plus the
    ``up``/``down``/``wup`` compatibility views (scalar reference sweeps
    and Algorithm 1).
    """

    __slots__ = (
        "tau",
        "tau_key",
        "csr",
        "up_weights",
        "_wup",
        "_up_rows",
        "_down_rows",
        "_down_sets",
        "_direct_cache",
    )

    def __init__(self, tau: np.ndarray, csr: ShortcutCSR, weights: np.ndarray):
        self.tau = np.asarray(tau, dtype=np.int64)
        self.tau_key = self.tau.astype(np.float64)
        self.csr = csr
        self.up_weights = weights
        self._reset_csr_caches()


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
        rank: np.ndarray,
        up: list[list[int]],
        wout: list[dict[int, float]],
        win: list[dict[int, float]],
        labels_out: HierarchicalLabelling,
        labels_in: HierarchicalLabelling,
        config: DHLConfig,
        stats: IndexStats,
    ):
        self.digraph = digraph
        self.hq = hq
        self.rank = np.asarray(rank, dtype=np.int64)
        self.rank_key = self.rank.astype(np.float64)
        self.csr, self.out_weights, self.in_weights = build_shortcut_csr(
            up, self.rank, wout, win
        )
        self.labels_out = labels_out
        self.labels_in = labels_in
        self.config = config
        self._stats = stats
        self._out_view = _DirectionView(hq.tau, self.csr, self.out_weights)
        self._in_view = _DirectionView(hq.tau, self.csr, self.in_weights)
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

    # -- structural/compat views ----------------------------------------
    @property
    def up(self) -> list[np.ndarray]:
        return self._out_view.up

    @property
    def down(self) -> list[np.ndarray]:
        return self._out_view.down

    @property
    def down_sets(self) -> list[set[int]]:
        return self._out_view.down_sets

    @property
    def wout(self):
        return self._out_view.wup

    @property
    def win(self):
        return self._in_view.wup

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
            rank_, up, wout, win = cls._contract(digraph, hq)
        stats.contraction_seconds = watch.laps[-1]

        index = cls(
            digraph, hq, rank_, up, wout, win,
            # Placeholder labellings; replaced right below once the CSR
            # direction views exist to build against.
            None, None, config, stats,  # type: ignore[arg-type]
        )
        with watch, phase("build.labelling"):
            index.labels_out = build_labelling(index._out_view)
            index.labels_in = build_labelling(index._in_view)
        stats.labelling_seconds = watch.laps[-1]
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

    @staticmethod
    def _contract(digraph: DiGraph, hq: QueryHierarchy):
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
        return rank, up, wout, win

    def _refresh_size_stats(self) -> None:
        self._stats.label_entries = (
            self.labels_out.num_entries + self.labels_in.num_entries
        )
        self._stats.label_bytes = (
            self.labels_out.memory_bytes() + self.labels_in.memory_bytes()
        )
        self._stats.num_shortcuts = self.csr.num_slots
        self._stats.shortcut_bytes = 24 * self._stats.num_shortcuts
        self._stats.hierarchy_bytes = self.hq.memory_bytes()
        self._stats.height = self.hq.height
        self._stats.max_up_degree = int(
            np.diff(self.csr.indptr).max(initial=0)
        )

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
    # directional weight helpers
    # ------------------------------------------------------------------
    def _key(self, a: int, b: int) -> tuple[int, int, int]:
        """Orient arc ``a -> b`` onto its shortcut slot.

        Returns ``(lo, hi, direction)`` with ``lo`` the deeper endpoint.
        """
        if self.rank[a] < self.rank[b]:
            return a, b, _OUT
        return b, a, _IN

    def _weights(self, direction: int) -> np.ndarray:
        return self.out_weights if direction == _OUT else self.in_weights

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _maintain_labels(
        self, kind: str, affected: tuple[dict[int, float], dict[int, float]]
    ) -> MaintenanceStats:
        """Algorithms 4/5 for both directions.

        ``affected[direction]`` maps each changed slot to the weight it
        held before the batch.
        """
        self._epoch += 1
        stats = MaintenanceStats()
        for view, labels, marks in (
            (self._out_view, self.labels_out, affected[_OUT]),
            (self._in_view, self.labels_in, affected[_IN]),
        ):
            slots = np.fromiter(marks, np.int64, len(marks))
            old = np.fromiter(marks.values(), np.float64, len(marks))
            stats = stats.merge(
                maintain_labels(kind, view, labels, slots, old, self.config)
            )
        return stats

    def decrease(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Arc-weight decreases: directed Algorithm 2 + Algorithm 4 x2."""
        batch = validate_batch("decrease", self.digraph, changes, self._key)
        if not batch:
            return MaintenanceStats()
        affected: tuple[dict[int, float], dict[int, float]] = ({}, {})
        rank_key = self.rank_key
        csr = self.csr
        heap: LazyHeap[tuple[int, int, int]] = LazyHeap()
        for a, b, w_new in batch:
            self.digraph.set_weight(a, b, w_new)
            lo, hi, direction = self._key(a, b)
            slot = csr.slot_of(lo, hi)
            weights = self._weights(direction)
            if weights[slot] > w_new:
                affected[direction].setdefault(slot, float(weights[slot]))
                weights[slot] = w_new
                heap.push((lo, hi, direction), rank_key[lo])

        while heap:
            (lo, hi, direction), _ = heap.pop()
            w_cur = float(self._weights(direction)[csr.slot_of(lo, hi)])
            for other in self.up[lo]:
                if other == hi:
                    continue
                if direction == _OUT:
                    # lo->hi changed: affects other->hi via lo.
                    cand = self.win[lo][other] + w_cur
                    src, dst = other, hi
                else:
                    # hi->lo changed: affects hi->other via lo.
                    cand = w_cur + self.wout[lo][other]
                    src, dst = hi, other
                tlo, thi, tdir = self._key(src, dst)
                tslot = csr.find_slot(tlo, thi)
                if tslot < 0:
                    # Pair dropped by compaction (both directions were
                    # inf). Pure weight decreases can only produce inf
                    # candidates for it; an insertion-seeded sweep can
                    # produce a finite one, which only a rebuild absorbs.
                    if math.isfinite(cand):
                        raise StructuralFallbackRequired(
                            "directed decrease reached a compacted slot"
                        )
                    continue
                tweights = self._weights(tdir)
                if tweights[tslot] > cand:
                    affected[tdir].setdefault(tslot, float(tweights[tslot]))
                    tweights[tslot] = cand
                    heap.push((tlo, thi, tdir), rank_key[tlo])

        return self._maintain_labels("decrease", affected)

    def increase(self, changes: Iterable[WeightChange]) -> MaintenanceStats:
        """Arc-weight increases: directed Algorithm 3 + Algorithm 5 x2."""
        batch = validate_batch("increase", self.digraph, changes, self._key)
        if not batch:
            return MaintenanceStats()
        rank_key = self.rank_key
        csr = self.csr
        heap: LazyHeap[tuple[int, int, int]] = LazyHeap()
        for a, b, w_new in batch:
            old_arc = self.digraph.set_weight(a, b, w_new)
            lo, hi, direction = self._key(a, b)
            if self._weights(direction)[csr.slot_of(lo, hi)] == old_arc:
                heap.push((lo, hi, direction), rank_key[lo])

        affected: tuple[dict[int, float], dict[int, float]] = ({}, {})
        digraph = self.digraph
        out_weights, in_weights = self.out_weights, self.in_weights
        while heap:
            (lo, hi, direction), _ = heap.pop()
            src, dst = (lo, hi) if direction == _OUT else (hi, lo)
            w_new = digraph.out_neighbors(src).get(dst, math.inf)
            # Property 3.1 over the common down-neighbourhood: a sorted
            # intersection of the two down-CSR rows; each shared x
            # contributes the chain src -> x -> dst (one descending and
            # one ascending weight through the deeper vertex).
            slots_lo, slots_hi = csr.common_down(lo, hi)
            if len(slots_lo):
                if direction == _OUT:  # src=lo, dst=hi
                    triangles = in_weights[slots_lo] + out_weights[slots_hi]
                else:  # src=hi, dst=lo
                    triangles = in_weights[slots_hi] + out_weights[slots_lo]
                best = float(triangles.min())
                if best < w_new:
                    w_new = best
            slot = csr.slot_of(lo, hi)
            weights = self._weights(direction)
            old = float(weights[slot])
            if old != w_new:
                for other in self.up[lo]:
                    if other == hi:
                        continue
                    if direction == _OUT:
                        t_src, t_dst = other, hi
                        cand_old = self.win[lo][other] + old
                    else:
                        t_src, t_dst = hi, other
                        cand_old = old + self.wout[lo][other]
                    tlo, thi, tdir = self._key(t_src, t_dst)
                    tslot = csr.find_slot(tlo, thi)
                    # Pairs removed by compaction were inf — no suspect.
                    if tslot < 0:
                        continue
                    if self._weights(tdir)[tslot] == cand_old:
                        heap.push((tlo, thi, tdir), rank_key[tlo])
                affected[direction].setdefault(slot, old)
                weights[slot] = w_new

        return self._maintain_labels("increase", affected)

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

        return dead_fraction(self.out_weights, self.in_weights)

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
