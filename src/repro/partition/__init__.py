"""Balanced graph partitioning substrate.

The query hierarchy of DHL is built by "ordering vertices in terms of their
occurrences in the minimum cuts of recursive partitions of a road network"
(paper, Section 1), following the construction of HC2L [9]. This package
implements that machinery from scratch:

* a multilevel bisection pipeline (heavy-edge coarsening, greedy/spectral
  initial partitions, Fiduccia-Mattheyses refinement) in the spirit of
  METIS;
* minimum vertex separators extracted from edge cuts via Hopcroft-Karp
  matching and Koenig's theorem;
* a recursive bisection driver that emits the partition tree consumed by
  :class:`repro.hierarchy.QueryHierarchy`.

Every combinatorial step of the first two runs in C
(:mod:`repro.partition.kernels`).
"""

from repro.partition.types import Bipartition, PartitionGraph
from repro.partition.kernels import minimum_vertex_separator
from repro.partition.multilevel import multilevel_bisection
from repro.partition.recursive import PartitionTreeNode, recursive_bisection
from repro.partition.regions import (
    RegionPartition,
    partition_regions,
    regions_from_assignment,
)

__all__ = [
    "Bipartition",
    "PartitionGraph",
    "minimum_vertex_separator",
    "multilevel_bisection",
    "PartitionTreeNode",
    "recursive_bisection",
    "RegionPartition",
    "partition_regions",
    "regions_from_assignment",
]
