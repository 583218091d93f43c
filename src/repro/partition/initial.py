"""Initial partitions for the coarsest graph of the multilevel pipeline."""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.partition.types import PartitionGraph
from repro.utils.rng import make_rng

__all__ = ["greedy_growing", "component_packing", "bfs_halves"]


def components(pgraph: PartitionGraph) -> list[tuple[int, list[int]]]:
    """Connected components as ``(total_vertex_weight, members)`` pairs."""
    rows = pgraph.rows
    vweight = pgraph.vweight
    seen = bytearray(len(rows))
    comps: list[tuple[int, list[int]]] = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        weight = vweight[start]
        for v in members:  # grows while iterated: BFS order
            for u, _ in rows[v]:
                if not seen[u]:
                    seen[u] = 1
                    members.append(u)
                    weight += vweight[u]
        comps.append((weight, members))
    return comps


def pack_components(comps, side: bytearray, side_weight: list[int]) -> None:
    """Place whole components, largest first, each on the lighter side."""
    for weight, members in sorted(comps, reverse=True):
        target = 0 if side_weight[0] <= side_weight[1] else 1
        side_weight[target] += weight
        if target:
            for v in members:
                side[v] = 1


def component_packing(
    pgraph: PartitionGraph,
    comps: list[tuple[int, list[int]]] | None = None,
) -> np.ndarray | None:
    """Zero-cut partition of a *disconnected* graph, or None if connected.

    *comps* is ``components(pgraph)`` when the caller already has it. The
    result may be unbalanced when one component dominates;
    :func:`repro.partition.multilevel.multilevel_bisection` detects that
    case and bisects the giant component instead.
    """
    if comps is None:
        comps = components(pgraph)
    if len(comps) <= 1:
        return None
    side = bytearray(pgraph.num_vertices)
    pack_components(comps, side, [0, 0])
    return np.frombuffer(side, dtype=np.int8)


def greedy_growing(
    pgraph: PartitionGraph,
    rng: np.random.Generator | int | None = None,
    seed_vertex: int | None = None,
) -> np.ndarray:
    """Greedy graph growing: grow side 0 from a seed to half the weight.

    The frontier is prioritised by cut gain (vertices mostly surrounded by
    side 0 join first), the standard GGGP heuristic from METIS. *rng* is
    drawn from (once) only when no *seed_vertex* is given.
    """
    rows = pgraph.rows
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    vweight = pgraph.vweight
    half = sum(vweight) / 2.0
    if seed_vertex is None:
        seed_vertex = int(make_rng(rng).integers(0, n))

    side = bytearray(b"\x01") * n  # everyone starts on side 1
    grown = 0
    # (cost, push counter, vertex): ties fall to push order. Each absorbed
    # neighbour lowers a frontier vertex's cost by twice a positive
    # multiplicity, so its newest entry is its smallest — that one pops
    # first, and the older ones find the vertex already absorbed.
    heap = [(0.0, 0, seed_vertex)]
    counter = 1
    while heap and grown < half:
        v = heappop(heap)[2]
        if not side[v]:
            continue
        side[v] = 0
        grown += vweight[v]
        for u, _ in rows[v]:
            if side[u]:
                # Priority = external-minus-internal cost of absorbing u.
                cost = 0
                for x, w in rows[u]:
                    if side[x]:
                        cost += w
                    else:
                        cost -= w
                heappush(heap, (cost, counter, u))
                counter += 1
    if grown == 0:  # isolated seed with empty frontier
        side[seed_vertex] = 0
    return np.frombuffer(side, dtype=np.int8)


def bfs_halves(
    pgraph: PartitionGraph,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Plain BFS layering from a pseudo-peripheral seed, split at half weight."""
    rng = make_rng(rng)
    rows = pgraph.rows
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    seed = int(rng.integers(0, n))
    for _ in range(2):  # double sweep towards the periphery
        dist = _bfs(rows, seed)[1]
        seed = max(range(n), key=lambda v: (dist[v], v))
    order, dist = _bfs(rows, seed)
    # Disconnected remainders join in id order so every vertex is placed.
    order += [v for v in range(n) if dist[v] < 0]
    return prefix_half(order, pgraph.vweight)


def prefix_half(order: list[int], vweight: list[int]) -> np.ndarray:
    """Side 0 = the shortest prefix of *order* holding half the weight."""
    side = bytearray(b"\x01") * len(vweight)
    half = sum(vweight) / 2.0
    grown = 0
    for v in order:
        if grown >= half:
            break
        side[v] = 0
        grown += vweight[v]
    return np.frombuffer(side, dtype=np.int8)


def _bfs(rows, start: int) -> tuple[list[int], list[int]]:
    """Visit order and hop distances (-1 where unreached) from *start*."""
    dist = [-1] * len(rows)
    dist[start] = 0
    order = [start]
    for v in order:  # grows while iterated
        hop = dist[v] + 1
        for u, _ in rows[v]:
            if dist[u] < 0:
                dist[u] = hop
                order.append(u)
    return order, dist
