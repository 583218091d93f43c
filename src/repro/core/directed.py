"""Directed road networks — the Section 8 extension.

The paper sketches the directed case: keep one pair of hierarchies and
store *forward and reverse labels* per vertex, maintaining each with the
same algorithms. Here that is literal: :class:`DirectedDHLIndex` is the
one index core (:class:`~repro.core.index.IndexCore` — build, queries,
maintenance, structural batches, compaction, snapshots, ``verify()``)
over a shortcut store with two weight planes. What this module adds is
only what genuinely differs:

* the **structural skeleton** (which pairs are shortcuts) comes from the
  symmetrised graph — structure is weight-independent, so one skeleton
  serves both directions and is what gets partitioned;
* every shortcut pair ``(v, u)`` with ``v`` deeper carries two weights,
  one per **weight plane** of :class:`DirectedUpdateHierarchy`'s single
  buffer: plane 0 (``out_weights``) for the ascending arc ``v -> u``,
  plane 1 (``in_weights``) for the descending arc ``u -> v``, filled by
  a directed contraction loop;
* the core's two labellings are Algorithm 1 once per plane:
  ``L_out[v][i]`` = distance ``v -> ancestor_i`` and ``L_in[v][i]`` =
  distance ``ancestor_i -> v`` within the interval subgraph;
* a query is ``d(s, t) = min_i L_out[s][i] + L_in[t][i]`` over the common
  ancestors — the directed 2-hop cover (the minimum-rank vertex of a
  directed shortest path is a common ancestor, and both label entries are
  exact within its descendant subgraph), which is the core's two-sided
  :class:`~repro.labelling.query.QueryEngine` with ``(L_out, L_in)``;
* maintenance is the shared driver's: a triangle through a deeper vertex
  composes one descending and one ascending weight, which the engines'
  shortcut sweeps express as "second leg from the opposite plane"; the
  label phase then runs once per plane.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import IndexCore
from repro.core.stats import IndexStats
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.hierarchy.contraction import ContractionResult
from repro.hierarchy.csr import ShortcutCSR, build_shortcut_csr
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.labels import HierarchicalLabelling

__all__ = ["DirectedDHLIndex", "DirectedUpdateHierarchy"]


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
        store = build_shortcut_csr(up, rank, wout, win)
        return cls(ContractionResult(digraph, order, rank, *store), hq)

    def edge_key(self, a: int, b: int) -> tuple[int, int]:
        """The ordered arc: a digraph's two directions are distinct roads."""
        return a, b

    def plane_views(self) -> tuple[_Plane, _Plane]:
        m = self.csr.num_slots
        return (
            _Plane(self.tau, self.csr, self.up_weights[:m]),
            _Plane(self.tau, self.csr, self.up_weights[m:]),
        )


class DirectedDHLIndex(IndexCore):
    """DHL index over a directed graph with forward and reverse labels."""

    kind = "directed"
    _hierarchy = DirectedUpdateHierarchy

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
        super().__init__(digraph, hq, hu, (labels_out, labels_in), config, stats)

    @property
    def digraph(self) -> DiGraph:
        """The authoritative weighted digraph (``graph`` under the name
        this family's callers know)."""
        return self.graph

    @property
    def labels_out(self) -> HierarchicalLabelling:
        """``L_out[v][i]``: distance ``v -> ancestor_i`` (plane 0)."""
        return self.labellings[0]

    @property
    def labels_in(self) -> HierarchicalLabelling:
        """``L_in[v][i]``: distance ``ancestor_i -> v`` (plane 1)."""
        return self.labellings[1]

    @property
    def out_weights(self) -> np.ndarray:
        """Plane 0 of the shortcut store: arcs deeper -> shallower."""
        return self.hu.plane_views()[0].up_weights

    @property
    def in_weights(self) -> np.ndarray:
        """Plane 1 of the shortcut store: arcs shallower -> deeper."""
        return self.hu.plane_views()[1].up_weights

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
