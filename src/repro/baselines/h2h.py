"""H2H-Index [16] — the static hierarchical 2-hop labelling (Section 3.2).

H2H builds a tree decomposition from a contraction hierarchy: the bag of
``v`` is ``{v} ∪ N+(v)``, its parent the lowest-ranked up-neighbour. Every
vertex stores three arrays — ancestors, *global* distances to all
ancestors, and the positions of its bag inside the ancestor array. A
query finds the LCA of the two vertices and scans only the positions of
its bag (Equation 2 of the paper).

Contrast with DHL: labels here hold distances in the whole graph (an
update anywhere between a vertex and its ancestors can invalidate them),
the ancestor/position arrays roughly double the memory, and the
min-degree tree is much taller than DHL's separator tree — exactly the
costs Table 3 of the paper quantifies.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.hierarchy.contraction import (
    ContractionResult,
    contract_in_order,
    min_degree_order,
)
from repro.utils.lca import EulerTourLCA

__all__ = ["H2HIndex"]


class H2HIndex:
    """Static H2H-Index over an undirected graph."""

    def __init__(self, graph: Graph, sc: ContractionResult):
        self.graph = graph
        self.sc = sc
        n = graph.num_vertices

        # Tree decomposition: parent = lowest-ranked up-neighbour.
        parent = np.full(n, -1, dtype=np.int64)
        for v in range(n):
            row = sc.csr.row(v)
            if len(row):
                parent[v] = row[0]  # rows are rank-sorted
        self.parent = parent

        depth = np.zeros(n, dtype=np.int64)
        # Roots first (decreasing rank == reverse contraction order).
        top_down = sc.order[::-1].tolist()
        for v in top_down:
            p = parent[v]
            depth[v] = 0 if p < 0 else depth[p] + 1
        self.depth = depth
        height = int(depth.max()) + 1 if n else 0

        # Padded ancestor matrix A and distance matrix D.
        self.anc = np.full((n, height), -1, dtype=np.int64)
        self.dist = np.full((n, height), math.inf, dtype=np.float64)
        for v in top_down:
            p = int(parent[v])
            dv = int(depth[v])
            if p >= 0:
                self.anc[v, :dv] = self.anc[p, : dv]
            self.anc[v, dv] = v
            self._compute_distances(v)

        # Bag positions: depths of {v} ∪ N+(v) in the ancestor array.
        self.pos: list[np.ndarray] = [
            np.sort(
                np.append(depth[sc.csr.row(v)], depth[v])
            )
            for v in range(n)
        ]
        self.lca = EulerTourLCA(parent.tolist())

    def _compute_distances(self, v: int) -> None:
        """Fill ``dist[v]`` via the H2H recurrence (mixed ancestor lookup)."""
        dv = int(self.depth[v])
        row = self.dist[v]
        row[dv] = 0.0
        ancestors = self.anc[v]
        for w, weight in zip(*self.sc.up_row(v)):
            k = int(self.depth[w])
            # Ancestors above (or at) w: use w's own distance array.
            np.minimum(row[: k + 1], weight + self.dist[w, : k + 1], out=row[: k + 1])
            # Ancestors strictly below w: d(w, a) is stored in a's array
            # at w's depth (a is deeper, so w is one of a's ancestors).
            if k + 1 < dv:
                below = ancestors[k + 1 : dv]
                np.minimum(
                    row[k + 1 : dv],
                    weight + self.dist[below, k],
                    out=row[k + 1 : dv],
                )

    @classmethod
    def build(cls, graph: Graph, order: list[int] | None = None) -> "H2HIndex":
        if graph.num_vertices == 0:
            raise IndexBuildError("cannot index an empty graph")
        if order is None:
            order = min_degree_order(graph)
        sc = contract_in_order(graph, order)
        return cls(graph, sc)

    # ------------------------------------------------------------------
    # queries (Equation 2)
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        if s == t:
            return 0.0
        if self.anc[s, 0] != self.anc[t, 0]:
            return math.inf  # different trees of the forest: disconnected
        x = self.lca(s, t)
        positions = self.pos[x]
        total = self.dist[s, positions] + self.dist[t, positions]
        return float(total.min())

    def distances(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        return [self.distance(s, t) for s, t in pairs]

    # ------------------------------------------------------------------
    # sizes (Table 3 comparisons); logical, not padded
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return int(self.depth.max()) + 1 if len(self.depth) else 0

    def label_entries(self) -> int:
        return int((self.depth + 1).sum())

    def memory_bytes(self) -> int:
        """Ancestor + distance + position arrays (ragged accounting)."""
        entries = self.label_entries()
        pos_entries = sum(len(p) for p in self.pos)
        return 8 * entries + 8 * entries + 8 * pos_entries

    def shortcut_bytes(self) -> int:
        return self.sc.memory_bytes()

