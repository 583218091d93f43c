"""Heavy-edge matching coarsening for the multilevel partitioner.

Repeatedly contracts a maximal matching that prefers heavy (high
multiplicity) edges, halving the graph while preserving its cut structure.
Each level records the fine->coarse vertex map so refined partitions can
be projected back down.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.partition.types import PartitionGraph
from repro.utils.rng import make_rng

__all__ = ["coarsen_once", "coarsen_to_size", "CoarseningLevel"]

#: A level that keeps this share of its graph's vertices or more ends
#: coarsening (the matching stalled, e.g. on a star).
MIN_SHRINK = 0.95


def max_cluster_weight(total: int, target: int) -> int:
    """Heaviest coarse vertex allowed, so the coarsest graph of about
    *target* vertices can still be balanced."""
    return max(1, math.ceil(total / max(8, target / 2)))


class CoarseningLevel(NamedTuple):
    """One coarsening step: the coarse graph plus the fine->coarse map."""

    graph: PartitionGraph
    fine_to_coarse: np.ndarray


def coarsen_once(
    pgraph: PartitionGraph,
    rng: np.random.Generator,
    max_vertex_weight: int,
) -> CoarseningLevel:
    """Contract one heavy-edge matching.

    Vertices are visited in random order; each unmatched vertex pairs with
    its unmatched neighbour of maximum edge multiplicity (ties: lighter
    cluster first) unless the merged weight would exceed
    ``max_vertex_weight``, which keeps coarse vertices balanced enough for
    the later bisection to be balanceable at all.
    """
    rows = pgraph.rows
    vweight = pgraph.vweight
    n = len(rows)
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best = v  # stays single unless a neighbour qualifies
        best_w = -1.0
        best_light = 0  # minus the partner's weight: lighter wins a tie
        room = max_vertex_weight - vweight[v]
        for u, w in rows[v]:
            if match[u] != -1 or u == v or vweight[u] > room:
                continue
            if w > best_w or (w == best_w and -vweight[u] > best_light):
                best_w = w
                best_light = -vweight[u]
                best = u
        match[v] = best
        match[best] = v

    # Coarse ids in order of each cluster's smaller member; a coarse row
    # lists its neighbours in the order the members' rows meet them.
    fine_to_coarse = [-1] * n
    clusters: list[tuple[int, ...]] = []
    for v in range(n):
        if fine_to_coarse[v] == -1:
            partner = match[v]
            fine_to_coarse[v] = fine_to_coarse[partner] = len(clusters)
            clusters.append((v,) if partner == v else (v, partner))

    coarse_rows = []
    coarse_vweight = []
    for cv, members in enumerate(clusters):
        merged: dict[int, float] = {}
        for v in members:
            for u, w in rows[v]:
                cu = fine_to_coarse[u]
                if cu != cv:
                    merged[cu] = merged.get(cu, 0.0) + w
        coarse_rows.append(tuple(merged.items()))
        coarse_vweight.append(sum([vweight[v] for v in members]))
    # Each undirected multiplicity got added from both endpoints' rows once
    # per direction, which is exactly the symmetric representation we want.
    coarse = PartitionGraph(coarse_rows, coarse_vweight)
    return CoarseningLevel(coarse, np.array(fine_to_coarse, dtype=np.int64))


def coarsen_to_size(
    pgraph: PartitionGraph,
    target: int,
    rng: np.random.Generator | int | None = None,
    min_shrink: float = MIN_SHRINK,
) -> list[CoarseningLevel]:
    """Coarsen until at most *target* vertices or progress stalls.

    Returns the list of levels from finest to coarsest; an empty list when
    the input is already small enough.
    """
    rng = make_rng(rng)
    levels: list[CoarseningLevel] = []
    current = pgraph
    max_vertex_weight = max_cluster_weight(current.total_vweight(), target)
    while current.num_vertices > target:
        level = coarsen_once(current, rng, max_vertex_weight)
        if level.graph.num_vertices >= current.num_vertices * min_shrink:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append(level)
        current = level.graph
    return levels
