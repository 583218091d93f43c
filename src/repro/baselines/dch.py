"""Dynamic Contraction Hierarchy (DCH) [17] — Section 3.1 of the paper.

DCH uses a single structure for both queries and updates: the
weight-independent shortcut graph over a min-degree total vertex order.
Queries run a bidirectional Dijkstra restricted to *upward* edges; updates
reuse the same triangle-propagation algorithms as DHL's update hierarchy
(Algorithms 2/3 are rank-generic), which is exactly the paper's point —
DCH maintains quickly but queries slowly.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from repro.graph.graph import Graph
from repro.hierarchy.contraction import (
    ContractionResult,
    contract_in_order,
    min_degree_order,
)
from repro.labelling.driver import maintain_shortcuts, validate_batch
from repro.labelling.maintenance import WeightChange

__all__ = ["DCHIndex"]


class DCHIndex:
    """Shortcut-based distance index with min-degree ordering."""

    def __init__(self, graph: Graph, sc: ContractionResult):
        self.graph = graph
        self.sc = sc

    @classmethod
    def build(cls, graph: Graph, order: list[int] | None = None) -> "DCHIndex":
        """Contract *graph*; the order defaults to min-degree [4]."""
        if order is None:
            order = min_degree_order(graph)
        sc = contract_in_order(graph, order)
        return cls(graph, sc)

    # ------------------------------------------------------------------
    # queries: bidirectional upward Dijkstra over the shortcut graph
    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Exact distance via upward-only bidirectional search."""
        if s == t:
            return 0.0
        sc = self.sc
        dist_f: dict[int, float] = {s: 0.0}
        dist_b: dict[int, float] = {t: 0.0}
        heap_f: list[tuple[float, int]] = [(0.0, s)]
        heap_b: list[tuple[float, int]] = [(0.0, t)]
        settled_f: set[int] = set()
        settled_b: set[int] = set()
        best = math.inf

        def expand(
            heap: list[tuple[float, int]],
            dist: dict[int, float],
            settled: set[int],
            other_dist: dict[int, float],
        ) -> float:
            nonlocal best
            d, v = heapq.heappop(heap)
            if v in settled:
                return best
            settled.add(v)
            other = other_dist.get(v)
            if other is not None and d + other < best:
                best = d + other
            for u, weight in zip(*sc.up_row(v)):
                candidate = d + weight
                if candidate < dist.get(u, math.inf):
                    dist[u] = candidate
                    heapq.heappush(heap, (candidate, u))
                    other = other_dist.get(u)
                    if other is not None and candidate + other < best:
                        best = candidate + other
            return best

        while heap_f or heap_b:
            top_f = heap_f[0][0] if heap_f else math.inf
            top_b = heap_b[0][0] if heap_b else math.inf
            if min(top_f, top_b) >= best:
                break
            if top_f <= top_b:
                expand(heap_f, dist_f, settled_f, dist_b)
            else:
                expand(heap_b, dist_b, settled_b, dist_f)
        return best

    def distances(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        return [self.distance(s, t) for s, t in pairs]

    # ------------------------------------------------------------------
    # updates: rank-generic Algorithms 2/3
    # ------------------------------------------------------------------
    def decrease(self, changes: list[WeightChange]) -> int:
        """Edge-weight decreases; returns the number of affected shortcuts."""
        return len(maintain_shortcuts("decrease", self.sc, changes))

    def increase(self, changes: list[WeightChange]) -> int:
        """Edge-weight increases; returns the number of affected shortcuts."""
        return len(maintain_shortcuts("increase", self.sc, changes))

    def update(self, changes: list[WeightChange]) -> int:
        batch = validate_batch("update", self.graph, changes)
        increases = [(u, v, w) for u, v, w in batch if w > self.graph.weight(u, v)]
        decreases = [(u, v, w) for u, v, w in batch if w < self.graph.weight(u, v)]
        affected = 0
        if increases:
            affected += self.increase(increases)
        if decreases:
            affected += self.decrease(decreases)
        return affected

    def stats(self) -> dict[str, float]:
        return {
            "shortcuts": self.sc.num_shortcuts,
            "shortcut_bytes": self.sc.memory_bytes(),
        }
