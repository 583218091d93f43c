"""Multilevel balanced bisection (METIS-style, from scratch).

Pipeline: heavy-edge coarsening down to ``COARSEST_SIZE`` (120) vertices,
a portfolio of initial partitions on the coarsest graph (greedy graph
growing from several seeds, BFS layering, spectral), Fiduccia-Mattheyses
refinement, then projection back up the levels with refinement at each
step. FM runs on the resolved engine: the ``dhl_fm_refine`` C kernel
under ``compiled``, :func:`~repro.partition.fm.fm_refine` (its reference
twin) otherwise; both make the same decisions.

The objective is the number of crossing *original* edges (multiplicities),
since the query hierarchy's label sizes are driven by separator sizes,
which Koenig's theorem bounds by the cut size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import PartitionError
from repro.observability.phases import phase
from repro.partition.coarsen import coarsen_to_size
from repro.partition.fm import fm_refine, rebalance
from repro.partition.initial import (
    bfs_halves,
    component_packing,
    components,
    greedy_growing,
    pack_components,
)
from repro.partition.spectral import spectral_bisection
from repro.partition.types import Bipartition, PartitionGraph
from repro.utils.rng import make_rng

__all__ = ["multilevel_bisection"]


def _cut_weight(pgraph: PartitionGraph, side) -> float:
    """Total multiplicity of the edges crossing *side* (any 0/1 sequence)."""
    total = 0
    for v, row in enumerate(pgraph.rows):
        sv = side[v]
        for u, w in row:
            if v < u and side[u] != sv:
                total += w
    return total


#: Coarsening stops at roughly this many vertices.
COARSEST_SIZE = 120

#: Greedy-growing candidates drawn per coarsest graph (one BFS-halves
#: and, past a cut of 4, one spectral candidate join them).
_GROWING_TRIALS = 4


def _refiner(engine: str):
    """FM refinement on the resolved *engine*."""
    # Deferred: repro.labelling imports this package (via H_Q).
    from repro.labelling import native

    if native.resolved_engine(engine) == "compiled":
        from repro.labelling.native.engine import fm_refine as native_fm_refine

        return native_fm_refine
    return fm_refine


def _max_side_weight(total: int, beta: float) -> int:
    """Balance bound: each side at most (1 - beta) of the total weight."""
    bound = int(math.floor((1.0 - beta) * total))
    return max(bound, (total + 1) // 2)  # never infeasible


def multilevel_bisection(
    pgraph: PartitionGraph,
    beta: float = 0.2,
    seed: int | np.random.Generator | None = 0,
    engine: str = "compiled",
) -> Bipartition:
    """Balanced bisection of *pgraph* minimising crossing multiplicity.

    Both sides of the result weigh at most ``(1 - beta)`` of the total
    vertex weight (Definition 4.1's balance parameter). *engine* picks
    the FM implementation; the result does not depend on it.
    """
    if not 0.0 < beta <= 0.5:
        raise PartitionError(f"beta must be in (0, 0.5], got {beta}")
    n = pgraph.num_vertices
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    rng = make_rng(seed)
    refine = _refiner(engine)
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
                packed = refine(pgraph, packed, max_side)
                return Bipartition.compute_cut(pgraph, packed)
        index = {v: i for i, v in enumerate(giant)}
        sub = PartitionGraph(
            [tuple([(index[u], w) for u, w in pgraph.rows[v]]) for v in giant],
            [pgraph.vweight[v] for v in giant],
        )
        local_sides = multilevel_bisection(sub, beta, rng, engine).side.tolist()
        with phase("partition.refine"):
            side = bytearray(n)
            side_weight = [0, 0]
            for v, s in zip(giant, local_sides):
                side[v] = s
                side_weight[s] += pgraph.vweight[v]
            rest = [c for c in comps if c[1] is not giant]
            pack_components(rest, side, side_weight)
            side = rebalance(pgraph, side, max_side)
            return Bipartition.compute_cut(pgraph, side)

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
        cand = refine(coarsest, cand, coarse_max_side)
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
            side = refine(fine_graph, side, fine_max_side)

        side = rebalance(pgraph, side, max_side)
        return Bipartition.compute_cut(pgraph, side)
