"""The pre-flat-adjacency partitioner bodies, kept verbatim as an oracle.

``fm_refine``, ``rebalance``, ``greedy_growing``, ``bfs_halves``,
``components``, ``coarsen_once`` and ``_cut_weight`` exactly as they stood
before ``repro.partition`` moved to the frozen flat adjacency: dict rows,
one numpy/bytearray scalar per index,
:class:`~tests.oracles.priority_queue.LazyHeap` gain queues, and an FM pass
that runs until its queue is empty. The only edit is :func:`_adj`, which
turns the new ``(u, w)`` rows back into the dicts these bodies iterate.
``tests/test_partition_identity.py`` requires the C partitioner context to
make the same decisions, step by step and through whole builds
(golden digests would be machine-dependent: the spectral candidate runs
LAPACK's ``eigh``).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.partition.types import PartitionGraph
from tests.oracles.priority_queue import LazyHeap
from repro.utils.rng import make_rng

__all__ = [
    "CoarseningLevel",
    "fm_refine",
    "rebalance",
    "greedy_growing",
    "bfs_halves",
    "components",
    "coarsen_once",
    "_cut_weight",
    "edges",
    "side_weights",
]


class CoarseningLevel(NamedTuple):
    """One coarsening step: the coarse graph plus the fine->coarse map."""

    graph: PartitionGraph
    fine_to_coarse: np.ndarray


def _adj(pgraph: PartitionGraph) -> list[dict[int, float]]:
    """Row → dict adapter: insertion order is the row's pair order."""
    return [dict(row) for row in pgraph.rows]


def _edges(adj):
    for v, nbrs in enumerate(adj):
        for u, w in nbrs.items():
            if v < u:
                yield v, u, w


def _gain(adj, side, v: int) -> float:
    """Cut reduction achieved by moving *v* to the other side."""
    internal = external = 0.0
    sv = side[v]
    for u, w in adj[v].items():
        if side[u] == sv:
            internal += w
        else:
            external += w
    return external - internal


def fm_refine(pgraph, side, max_side_weight, max_passes=8):
    n = pgraph.num_vertices
    side = side.copy()
    weights = pgraph.vweight
    adj = _adj(pgraph)
    side_weight = [0, 0]
    for v in range(n):
        side_weight[side[v]] += weights[v]

    boundary = [
        v
        for v in range(n)
        if any(side[u] != side[v] for u in adj[v])
    ]
    if not boundary:
        return side  # zero cut: nothing to refine

    gains = [0.0] * n
    for _ in range(max_passes):
        locked = bytearray(n)
        have_gain = bytearray(n)
        heap: LazyHeap[int] = LazyHeap()
        for v in boundary:
            gains[v] = _gain(adj, side, v)
            have_gain[v] = 1
            heap.push(v, -gains[v])

        moves: list[int] = []
        cumulative = 0.0
        best_prefix = 0
        best_value = 0.0

        while heap:
            v, neg_gain = heap.pop()
            if locked[v]:
                continue
            if -neg_gain != gains[v]:
                # Stale entry: the LazyHeap refuses key increases, so the
                # vertex's only queued entry may be outdated. Re-queue the
                # true gain before moving on.
                heap.push(v, -gains[v])
                continue
            sv = side[v]
            target = 1 - sv
            if side_weight[target] + weights[v] > max_side_weight:
                continue  # infeasible move; drop (may be re-pushed later)
            locked[v] = 1
            side[v] = target
            side_weight[sv] -= weights[v]
            side_weight[target] += weights[v]
            cumulative += gains[v]
            moves.append(v)
            if cumulative > best_value + 1e-12:
                best_value = cumulative
                best_prefix = len(moves)
            for u, w in adj[v].items():
                if locked[u]:
                    continue
                if have_gain[u]:
                    # v changed sides: edge (u, v) flips between internal
                    # and external for u, changing its gain by +-2w.
                    gains[u] += 2.0 * w if side[u] == sv else -2.0 * w
                else:
                    # Lazy entry: fresh gain already reflects v's move.
                    gains[u] = _gain(adj, side, u)
                    have_gain[u] = 1
                heap.push(u, -gains[u])

        # Roll back to the best prefix.
        for v in moves[best_prefix:]:
            sv = side[v]
            side[v] = 1 - sv
            side_weight[sv] -= weights[v]
            side_weight[1 - sv] += weights[v]

        if best_prefix == 0:
            break  # pass produced no improvement; converged
        boundary = [
            v
            for v in range(n)
            if any(side[u] != side[v] for u in adj[v])
        ]
    return side


def rebalance(pgraph, side, max_side_weight):
    side = side.copy()
    weights = pgraph.vweight
    adj = _adj(pgraph)
    side_weight = [0, 0]
    for v in range(pgraph.num_vertices):
        side_weight[side[v]] += weights[v]

    for heavy in (0, 1):
        if side_weight[heavy] <= max_side_weight:
            continue
        candidates = [v for v in range(pgraph.num_vertices) if side[v] == heavy]
        candidates.sort(key=lambda v: -_gain(adj, side, v))
        for v in candidates:
            if side_weight[heavy] <= max_side_weight:
                break
            side[v] = 1 - heavy
            side_weight[heavy] -= weights[v]
            side_weight[1 - heavy] += weights[v]
    return side


def greedy_growing(pgraph, rng=None, seed_vertex=None):
    rng = make_rng(rng)
    n = pgraph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    total = sum(pgraph.vweight)
    half = total / 2.0
    if seed_vertex is None:
        seed_vertex = int(rng.integers(0, n))
    adj = _adj(pgraph)

    side = np.ones(n, dtype=np.int8)  # everyone starts on side 1
    grown = 0
    heap: LazyHeap[int] = LazyHeap()
    gains = {seed_vertex: 0.0}
    heap.push(seed_vertex, 0.0)
    while heap and grown < half:
        v, key = heap.pop()
        if side[v] == 0 or key != gains.get(v):
            if side[v] != 0 and v in gains:
                heap.push(v, gains[v])
            continue
        side[v] = 0
        grown += pgraph.vweight[v]
        for u, w in adj[v].items():
            if side[u] == 0:
                continue
            # Priority = external-minus-internal cost of absorbing u.
            cost = sum(
                wt if side[x] == 1 else -wt for x, wt in adj[u].items()
            )
            gains[u] = cost
            heap.push(u, cost)
    if grown == 0 and n > 0:  # isolated seed with empty frontier
        side[seed_vertex] = 0
    return side


def components(pgraph):
    n = pgraph.num_vertices
    adj = _adj(pgraph)
    seen = bytearray(n)
    comps: list[tuple[int, list[int]]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        weight = pgraph.vweight[start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    members.append(u)
                    weight += pgraph.vweight[u]
                    queue.append(u)
        comps.append((weight, members))
    return comps


def bfs_halves(pgraph, rng=None):
    rng = make_rng(rng)
    n = pgraph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    adj = _adj(pgraph)
    seed = int(rng.integers(0, n))
    for _ in range(2):  # double sweep towards the periphery
        dist = _bfs(adj, seed)
        seed = max(range(n), key=lambda v: (dist[v] if dist[v] >= 0 else -1, v))
    order = _bfs_order(adj, seed)
    side = np.ones(n, dtype=np.int8)
    total = sum(pgraph.vweight)
    grown = 0
    for v in order:
        if grown >= total / 2.0:
            break
        side[v] = 0
        grown += pgraph.vweight[v]
    return side


def _bfs(adj, start: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _bfs_order(adj, start: int) -> list[int]:
    seen = bytearray(len(adj))
    seen[start] = 1
    order = [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                order.append(u)
                queue.append(u)
    # Disconnected remainders join in id order so every vertex is placed.
    for v in range(len(adj)):
        if not seen[v]:
            order.append(v)
            seen[v] = 1
    return order


def coarsen_once(pgraph, rng, max_vertex_weight):
    n = pgraph.num_vertices
    adj = _adj(pgraph)
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        v = int(v)
        if match[v] != -1:
            continue
        best = -1
        best_key: tuple[float, float] = (-1.0, 0.0)
        wv = pgraph.vweight[v]
        for u, w in adj[v].items():
            if match[u] != -1 or u == v:
                continue
            if wv + pgraph.vweight[u] > max_vertex_weight:
                continue
            key = (w, -float(pgraph.vweight[u]))
            if key > best_key:
                best_key = key
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # stays single

    fine_to_coarse = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] != -1:
            continue
        partner = int(match[v])
        fine_to_coarse[v] = next_id
        if partner != v and partner >= 0:
            fine_to_coarse[partner] = next_id
        next_id += 1

    coarse_adj: list[dict[int, float]] = [{} for _ in range(next_id)]
    coarse_vweight = [0] * next_id
    for v in range(n):
        cv = int(fine_to_coarse[v])
        coarse_vweight[cv] += pgraph.vweight[v]
        row = coarse_adj[cv]
        for u, w in adj[v].items():
            cu = int(fine_to_coarse[u])
            if cu != cv:
                row[cu] = row.get(cu, 0.0) + w
    coarse = PartitionGraph(coarse_adj, coarse_vweight)
    return CoarseningLevel(coarse, fine_to_coarse)


def _cut_weight(pgraph, side) -> float:
    return sum(w for v, u, w in _edges(_adj(pgraph)) if side[v] != side[u])


def edges(pgraph):
    """Each edge of *pgraph* once, as ``(v, u, multiplicity)`` with
    ``v < u``."""
    return _edges(_adj(pgraph))


def side_weights(pgraph, side) -> tuple[int, int]:
    """``(weight of side 0, weight of side 1)`` for a 0/1 side sequence."""
    heavy = sum(w for w, s in zip(pgraph.vweight, side.tolist()) if s)
    return sum(pgraph.vweight) - heavy, heavy
