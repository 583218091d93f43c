"""Multilevel balanced bisection (METIS-style, from scratch).

Pipeline: heavy-edge coarsening down to ``COARSEST_SIZE`` (120) vertices,
a portfolio of initial partitions on the coarsest graph (greedy graph
growing from several seeds, BFS layering, spectral), Fiduccia-Mattheyses
refinement, then projection back up the levels with refinement at each
step. The pipeline forks once on the resolved engine: under
``compiled`` :func:`compiled_bisection` runs every combinatorial step in
the C context of :class:`repro.partition.kernels.Bisector`, and Python
keeps numpy's draws (in the same order and count), the spectral
candidate's eigensolve and nothing else; under ``reference`` the body
below runs the Python steps. Both make the same decisions.

The objective is the number of crossing *original* edges (multiplicities),
since the query hierarchy's label sizes are driven by separator sizes,
which Koenig's theorem bounds by the cut size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import PartitionError
from repro.observability.phases import PhaseLaps, phase, phase_laps
from repro.partition import kernels
from repro.partition.coarsen import MIN_SHRINK, coarsen_to_size, max_cluster_weight
from repro.partition.fm import fm_refine, rebalance
from repro.partition.initial import (
    bfs_halves,
    component_packing,
    components,
    greedy_growing,
    pack_components,
)
from repro.partition.spectral import spectral_bisection, spectral_bisection_flat
from repro.partition.types import Bipartition, PartitionGraph
from repro.utils.rng import make_rng

__all__ = ["check_bisectable", "compiled_bisection", "multilevel_bisection"]


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


def _max_side_weight(total: int, beta: float) -> int:
    """Balance bound: each side at most (1 - beta) of the total weight."""
    bound = int(math.floor((1.0 - beta) * total))
    return max(bound, (total + 1) // 2)  # never infeasible


def check_bisectable(n: int, beta: float) -> None:
    """Raise :class:`PartitionError` where no bisection exists."""
    if not 0.0 < beta <= 0.5:
        raise PartitionError(f"beta must be in (0, 0.5], got {beta}")
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")


def compiled_bisection(
    bisector: kernels.Bisector,
    subset,
    rng: np.random.Generator,
    laps: PhaseLaps,
) -> None:
    """:func:`multilevel_bisection` of the subgraph *subset* induces, on
    the C context *bisector* (built with the balance ``beta``): the same
    steps, draws and decisions as the reference body. The result stays
    in the context (``result`` / ``parts`` / ``split``). The steps are
    timed as *laps* of the reference body's phase names; the caller
    closes them."""
    laps.restart()
    parts = bisector.load(subset)
    laps.lap("partition.subgraph")
    if parts > 1:
        packed = bisector.disconnected()
        laps.lap("partition.refine")
        if packed:
            return
        if bisector.size < 2:  # the giant, bisected on its own
            raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    n = bisector.size
    if n > COARSEST_SIZE:
        max_vertex_weight = max_cluster_weight(bisector.total, COARSEST_SIZE)
        while n > COARSEST_SIZE:
            coarse = bisector.coarsen(rng.permutation(n), max_vertex_weight, MIN_SHRINK)
            if not coarse:
                break
            n = coarse
        laps.lap("partition.coarsen")
    # One call draws what the growing trials and BFS halves draw one by
    # one: the same stream, in the same order.
    best_cut = bisector.initial(rng.integers(0, n, size=_GROWING_TRIALS + 1))
    laps.lap("partition.initial")
    if best_cut > 4.0:
        spectral = spectral_bisection_flat(*bisector.coarsest())
        if spectral is not None:
            bisector.consider(spectral)
        laps.lap("partition.spectral")
    bisector.project()
    laps.lap("partition.refine")


def multilevel_bisection(
    pgraph: PartitionGraph,
    beta: float = 0.2,
    seed: int | np.random.Generator | None = 0,
    engine: str = "compiled",
) -> Bipartition:
    """Balanced bisection of *pgraph* minimising crossing multiplicity.

    Both sides of the result weigh at most ``(1 - beta)`` of the total
    vertex weight (Definition 4.1's balance parameter). *engine* picks
    the implementation of every combinatorial step (the C context or
    the Python bodies); the result does not depend on it.
    """
    n = pgraph.num_vertices
    check_bisectable(n, beta)
    rng = make_rng(seed)
    if kernels.compiled(engine):
        laps = phase_laps()
        with kernels.Bisector(*pgraph.flat(), beta) as bisector:
            try:
                compiled_bisection(bisector, range(n), rng, laps)
            finally:
                laps.close()
            return bisector.result()
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
        return Bipartition.compute_cut(pgraph, side)
