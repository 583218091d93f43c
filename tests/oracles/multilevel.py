"""The Python multilevel pipeline, kept as the C partitioner's oracle.

The orchestration :func:`repro.partition.multilevel.multilevel_bisection`
ran as its ``reference`` engine — components and packing, heavy-edge
coarsening to ``COARSEST_SIZE``, the growing / BFS / spectral portfolio
with its candidate memo, projection with rebalance and FM at every
level — over the step bodies of :mod:`tests.oracles.partition`, plus the
Hopcroft-Karp / Koenig separator (:mod:`tests.oracles.separator`). The
steps are module globals so a test can patch or spy on them.
:func:`recursive_bisection` and :func:`partition_regions` run the
package's own tree and region loops over these bisections; the C
pipeline must build the same trees and regions (its spectral candidate
shares LAPACK's ``eigh`` with :func:`spectral_bisection`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.observability.phases import phase
from repro.partition import recursive, regions
from repro.partition.coarsen import MIN_SHRINK, CoarseningLevel, max_cluster_weight
from repro.partition.multilevel import COARSEST_SIZE, _GROWING_TRIALS, check_bisectable
from repro.partition.spectral import _fiedler_split
from repro.partition.types import Bipartition, PartitionGraph, side_bytes
from repro.utils.rng import make_rng
from tests.oracles.partition import (
    _cut_weight,
    bfs_halves,
    coarsen_once,
    components,
    fm_refine,
    greedy_growing,
    rebalance,
)
from tests.oracles.separator import minimum_vertex_separator

__all__ = [
    "compute_cut",
    "multilevel_bisection",
    "partition_regions",
    "recursive_bisection",
    "spectral_bisection",
]


def compute_cut(pgraph: PartitionGraph, side) -> Bipartition:
    """Assemble a Bipartition from a side sequence, recomputing the cut."""
    side = side_bytes(side)
    cut_edges = []
    cut_weight = 0.0
    for v, row in enumerate(pgraph.rows):
        sv = side[v]
        for u, w in row:
            if v < u and side[u] != sv:
                cut_weight += w
                cut_edges.append((u, v) if sv else (v, u))
    return Bipartition(np.frombuffer(side, dtype=np.int8), cut_weight, cut_edges)


def _max_side_weight(total: int, beta: float) -> int:
    """Balance bound: each side at most (1 - beta) of the total weight."""
    bound = int(math.floor((1.0 - beta) * total))
    return max(bound, (total + 1) // 2)  # never infeasible


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


def _laplacian(pgraph: PartitionGraph) -> tuple[list[int], list[int], list[float]]:
    """Graph Laplacian as ``(row, column, value)`` triplets, diagonal last."""
    vs, us, ws, degrees = [], [], [], []
    for v, row in enumerate(pgraph.rows):
        degree = 0.0
        for u, w in row:
            vs.append(v)
            us.append(u)
            ws.append(-w)
            degree += w
        degrees.append(degree)
    diagonal = list(range(pgraph.num_vertices))
    return vs + diagonal, us + diagonal, ws + degrees


def spectral_bisection(pgraph: PartitionGraph) -> np.ndarray | None:
    """Bisect by thresholding the Fiedler vector at its weighted median.

    Returns a side array, or None when the eigensolve fails or the graph
    is too small/degenerate for a meaningful second eigenvector.
    """
    n = pgraph.num_vertices
    if n < 4:
        return None
    return _fiedler_split(n, *_laplacian(pgraph), pgraph.vweight)


def spectral_bisection(pgraph: PartitionGraph) -> np.ndarray | None:
    """Bisect by thresholding the Fiedler vector at its weighted median
    (the triplets :func:`repro.partition.spectral.spectral_bisection_flat`
    builds from CSR arrays, from the dict rows)."""
    n = pgraph.num_vertices
    if n < 4:
        return None
    return _fiedler_split(n, *_laplacian(pgraph), pgraph.vweight)


def multilevel_bisection(
    pgraph: PartitionGraph,
    beta: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> Bipartition:
    """Balanced bisection of *pgraph* minimising crossing multiplicity."""
    n = pgraph.num_vertices
    check_bisectable(n, beta)
    rng = make_rng(seed)
    total = pgraph.total_vweight()
    max_side = _max_side_weight(total, beta)

    # Disconnected graphs: whole components usually pack into a free
    # zero cut. When one giant component alone exceeds the balance bound,
    # bisect *it* with the full pipeline and pack the crumbs around it —
    # naive packing + rebalancing would destroy hundreds of edges.
    with phase("partition.subgraph"):
        comps = components(pgraph)
    if len(comps) > 1:
        giant_weight, giant = max(comps, key=lambda c: c[0])
        if giant_weight <= max_side:
            with phase("partition.refine"):
                packed = component_packing(pgraph, comps)
                assert packed is not None
                packed = rebalance(pgraph, packed, max_side)
                packed = fm_refine(pgraph, packed, max_side)
                return compute_cut(pgraph, packed)
        index = {v: i for i, v in enumerate(giant)}
        sub = PartitionGraph(
            [tuple([(index[u], w) for u, w in pgraph.rows[v]]) for v in giant],
            [pgraph.vweight[v] for v in giant],
        )
        local_sides = multilevel_bisection(sub, beta, rng).side.tolist()
        with phase("partition.refine"):
            side = bytearray(n)
            side_weight = [0, 0]
            for v, s in zip(giant, local_sides):
                side[v] = s
                side_weight[s] += pgraph.vweight[v]
            rest = [c for c in comps if c[1] is not giant]
            pack_components(rest, side, side_weight)
            side = rebalance(pgraph, side, max_side)
            return compute_cut(pgraph, side)

    with phase("partition.coarsen"):
        levels = coarsen_to_size(pgraph, COARSEST_SIZE, rng)
    coarsest = levels[-1].graph if levels else pgraph
    coarse_max_side = _max_side_weight(coarsest.total_vweight(), beta)

    best_side = None
    best_cut = math.inf
    # Rebalanced candidates already refined in this call: FM is
    # deterministic, so a repeat ends at an equal cut and cannot pass the
    # strict ``<`` below. Growing seeds collide often on small coarsest
    # graphs; a repeated seed is still drawn (the random stream is
    # untouched) but would only grow the same candidate again.
    refined: set[bytes] = set()
    seeds: set[int] = set()

    def consider(cand) -> None:
        nonlocal best_side, best_cut
        cand = rebalance(coarsest, cand, coarse_max_side)
        key = bytes(cand)
        if key in refined:
            return
        refined.add(key)
        cand = fm_refine(coarsest, cand, coarse_max_side)
        cut = _cut_weight(coarsest, cand)
        if cut < best_cut:
            best_cut = cut
            best_side = cand

    with phase("partition.initial"):
        for _ in range(_GROWING_TRIALS):
            seed_vertex = int(rng.integers(0, coarsest.num_vertices))
            if seed_vertex not in seeds:
                seeds.add(seed_vertex)
                consider(greedy_growing(coarsest, seed_vertex=seed_vertex))
        consider(bfs_halves(coarsest, rng))
    # Spectral is the most expensive candidate; only bother when the
    # combinatorial ones left room for improvement.
    if best_cut > 4.0:
        with phase("partition.spectral"):
            spectral = spectral_bisection(coarsest)
            if spectral is not None:
                consider(spectral)
    assert best_side is not None

    # Project back to the finest level, refining at each step.
    with phase("partition.refine"):
        side = best_side
        for k in range(len(levels) - 1, -1, -1):
            fine_graph = levels[k - 1].graph if k > 0 else pgraph
            side = np.frombuffer(side, dtype=np.int8)[levels[k].fine_to_coarse]
            fine_max_side = _max_side_weight(fine_graph.total_vweight(), beta)
            side = rebalance(fine_graph, side, fine_max_side)
            side = fm_refine(fine_graph, side, fine_max_side)

        side = rebalance(pgraph, side, max_side)
        return compute_cut(pgraph, side)


def recursive_bisection(graph, beta=0.2, leaf_size=8, seed=0):
    """The partition tree, every bisection by this module's pipeline."""
    rng = make_rng(seed)
    return recursive.build_tree(
        graph, leaf_size, lambda subset: _split(graph, subset, beta, rng)
    )


def partition_regions(graph, k, *, beta=0.2, seed=0):
    """*k* regions, every bisection by this module's pipeline."""
    rng = make_rng(seed)

    def sides(subset):
        pgraph = PartitionGraph.from_graph(graph, subset)
        side = multilevel_bisection(pgraph, beta=beta, seed=rng).side.tolist()
        return (
            [v for v, s in zip(subset, side) if s == 0],
            [v for v, s in zip(subset, side) if s == 1],
        )

    return regions.split_regions(graph, k, sides)


def _split(graph, subset: list[int], beta: float, rng: np.random.Generator):
    """A bisection of *subset* by the Python steps; returns the call that
    gives its ``(separator, side 0, side 1)`` in global ids: the
    separator in local id order, the sides without it."""
    pgraph = PartitionGraph.from_graph(graph, subset)
    bipartition = multilevel_bisection(pgraph, beta=beta, seed=rng)

    def separate() -> tuple[list[int], list[int], list[int]]:
        separator_local = minimum_vertex_separator(bipartition.cut_edges)
        left: list[int] = []
        right: list[int] = []
        for v, s in enumerate(bipartition.side.tolist()):
            if v not in separator_local:
                (right if s else left).append(subset[v])
        return [subset[v] for v in sorted(separator_local)], left, right

    return separate
