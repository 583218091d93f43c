"""Shared utility data structures and helpers.

This package collects the small, self-contained building blocks used across
the library: an Euler-tour RMQ LCA used by the H2H baseline, a union-find
structure, seeded random-number utilities and the pair-array coercion the
batch query paths share.
"""

from repro.utils.disjoint_set import DisjointSet
from repro.utils.lca import EulerTourLCA
from repro.utils.rng import make_rng, sample_pairs
from repro.utils.pairs import as_pair_array

__all__ = [
    "DisjointSet",
    "EulerTourLCA",
    "make_rng",
    "sample_pairs",
    "as_pair_array",
]
