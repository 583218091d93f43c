"""Shared utility data structures and helpers.

This package collects the small, self-contained building blocks used across
the library: a priority queue for the many Dijkstra-like loops, partition
bitstring arithmetic for O(1) LCA in the query hierarchy, an Euler-tour RMQ
LCA used by the H2H baseline, a union-find structure, timing helpers and
seeded random-number utilities.
"""

from repro.utils.priority_queue import LazyHeap
from repro.utils.bitstrings import PartitionBitstring, common_prefix_length
from repro.utils.disjoint_set import DisjointSet
from repro.utils.lca import EulerTourLCA
from repro.utils.timing import Stopwatch, format_duration
from repro.utils.rng import make_rng, sample_pairs
from repro.utils.pairs import as_pair_array

__all__ = [
    "LazyHeap",
    "PartitionBitstring",
    "common_prefix_length",
    "DisjointSet",
    "EulerTourLCA",
    "Stopwatch",
    "format_duration",
    "make_rng",
    "sample_pairs",
    "as_pair_array",
]
