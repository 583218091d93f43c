"""Heavy-edge matching coarsening for the multilevel partitioner: its bounds.

Repeatedly contracts a maximal matching that prefers heavy (high
multiplicity) edges, halving the graph while preserving its cut structure.
Each level records the fine->coarse vertex map so refined partitions can
be projected back down. The matching and the levels live in C
(:meth:`repro.partition.kernels.Bisector.coarsen`); this module holds
the bounds the caller passes it.
"""

from __future__ import annotations

import math

__all__ = ["MIN_SHRINK", "max_cluster_weight"]

#: A level that keeps this share of its graph's vertices or more ends
#: coarsening (the matching stalled, e.g. on a star).
MIN_SHRINK = 0.95


def max_cluster_weight(total: int, target: int) -> int:
    """Heaviest coarse vertex allowed, so the coarsest graph of about
    *target* vertices can still be balanced."""
    return max(1, math.ceil(total / max(8, target / 2)))
