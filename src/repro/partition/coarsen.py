"""Heavy-edge matching coarsening for the multilevel partitioner.

Repeatedly contracts a maximal matching that prefers heavy (high
multiplicity) edges, halving the graph while preserving its cut structure.
Each level records the fine->coarse vertex map so refined partitions can
be projected back down. The matching runs in C
(:meth:`repro.partition.kernels.Bisector.coarsen`, and
:func:`repro.partition.kernels.coarsen_once` for one level of a
:class:`~repro.partition.types.PartitionGraph`); this module holds its
bounds and the level record.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.partition.types import PartitionGraph

__all__ = ["MIN_SHRINK", "CoarseningLevel", "max_cluster_weight"]

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
