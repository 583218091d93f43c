"""Multilevel balanced bisection (METIS-style, from scratch).

Pipeline: heavy-edge coarsening down to ``COARSEST_SIZE`` (120) vertices,
a portfolio of initial partitions on the coarsest graph (greedy graph
growing from several seeds, BFS layering, spectral), Fiduccia-Mattheyses
refinement, then projection back up the levels with refinement at each
step. :func:`bisect_subset` runs every combinatorial step in the C
context of :class:`repro.partition.kernels.Bisector`; Python keeps
numpy's draws (in the same order and count), the spectral candidate's
eigensolve and nothing else.

The objective is the number of crossing *original* edges (multiplicities),
since the query hierarchy's label sizes are driven by separator sizes,
which Koenig's theorem bounds by the cut size.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitionError
from repro.observability.phases import PhaseLaps, phase_laps
from repro.partition import kernels
from repro.partition.coarsen import MIN_SHRINK, max_cluster_weight
from repro.partition.spectral import spectral_bisection_flat
from repro.partition.types import Bipartition, PartitionGraph
from repro.utils.rng import make_rng

__all__ = ["bisect_subset", "check_bisectable", "multilevel_bisection"]


#: Coarsening stops at roughly this many vertices.
COARSEST_SIZE = 120

#: Greedy-growing candidates drawn per coarsest graph (one BFS-halves
#: and, past a cut of 4, one spectral candidate join them).
_GROWING_TRIALS = 4


def check_bisectable(n: int, beta: float) -> None:
    """Raise :class:`PartitionError` where no bisection exists."""
    if not 0.0 < beta <= 0.5:
        raise PartitionError(f"beta must be in (0, 0.5], got {beta}")
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")


def bisect_subset(
    bisector: kernels.Bisector,
    subset,
    rng: np.random.Generator,
    laps: PhaseLaps,
) -> None:
    """:func:`multilevel_bisection` of the subgraph *subset* induces, on
    the C context *bisector* (built with the balance ``beta``). The
    result stays in the context (``result`` / ``parts`` / ``split``).
    The steps are timed as *laps* (``partition.subgraph``, ``.coarsen``,
    ``.initial``, ``.spectral``, ``.refine``); the caller closes them."""
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
) -> Bipartition:
    """Balanced bisection of *pgraph* minimising crossing multiplicity.

    Both sides of the result weigh at most ``(1 - beta)`` of the total
    vertex weight (Definition 4.1's balance parameter). Disconnected
    graphs pack whole components into a free zero cut where the balance
    allows, else bisect the giant component and pack the crumbs around
    it.
    """
    n = pgraph.num_vertices
    check_bisectable(n, beta)
    rng = make_rng(seed)
    laps = phase_laps()
    with kernels.Bisector(*pgraph.flat(), beta) as bisector:
        try:
            bisect_subset(bisector, range(n), rng, laps)
        finally:
            laps.close()
        return bisector.result()
