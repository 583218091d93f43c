"""Breadth-first traversal helpers used by partitioning and generators."""

from __future__ import annotations

import math
from collections import deque

from repro.graph.graph import Graph

__all__ = ["bfs_order", "bfs_distances", "eccentric_vertex"]


def bfs_order(graph: Graph, start: int) -> list[int]:
    """Vertices of *start*'s component in BFS order from *start*."""
    seen = bytearray(graph.num_vertices)
    seen[start] = 1
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u, w in graph.neighbors(v).items():
            if not seen[u] and math.isfinite(w):
                seen[u] = 1
                order.append(u)
                queue.append(u)
    return order


def bfs_distances(graph: Graph, start: int) -> list[int]:
    """Hop distances from *start* (-1 for unreachable vertices)."""
    dist = [-1] * graph.num_vertices
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u, w in graph.neighbors(v).items():
            if dist[u] < 0 and math.isfinite(w):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def eccentric_vertex(graph: Graph, start: int, sweeps: int = 2) -> int:
    """Approximate peripheral vertex via repeated BFS sweeps.

    A standard double-sweep: BFS from *start*, jump to the farthest vertex,
    repeat. Peripheral vertices make good seeds for region-growing
    partitions.
    """
    current = start
    for _ in range(max(1, sweeps)):
        dist = bfs_distances(graph, current)
        current = max(range(graph.num_vertices), key=lambda v: dist[v])
    return current

