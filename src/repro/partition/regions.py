"""k-way region decomposition with boundary extraction.

The recursive bisection behind H_Q splits the network with *vertex*
separators; region sharding needs the complementary view: a k-way
*vertex partition* whose parts induce edge-disjoint region subgraphs,
plus the crossing (cut) edges and the boundary vertices they touch.
Each region becomes one independently built shard index; the boundary
vertices carry the overlay that stitches the shards back together.

The split reuses the multilevel bisection pipeline: starting from one
part holding every vertex, the largest part is bisected until k parts
exist. Road networks bisect with small cuts, so the boundary stays a
tiny fraction of the graph — which is what keeps the overlay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PartitionError
from repro.graph.graph import Graph
from repro.observability.phases import phase_laps
from repro.partition import kernels
from repro.partition.multilevel import bisect_subset, check_bisectable
from repro.utils.rng import make_rng

__all__ = ["RegionPartition", "partition_regions", "regions_from_assignment"]


@dataclass
class RegionPartition:
    """A k-way vertex partition of a graph with boundary metadata.

    Attributes
    ----------
    region_of:
        ``(n,)`` int64 array mapping each vertex to its region id.
    regions:
        Per region, the sorted global vertex ids it owns. Every vertex
        belongs to exactly one region; regions are never empty.
    boundary:
        Per region, the sorted global ids of its boundary vertices —
        the endpoints of cut edges that lie in this region.
    cut_edges:
        The crossing edges as global ``(u, v, w)`` triples with
        ``region_of[u] != region_of[v]`` (each listed once, ``u < v``).
        Logically deleted edges (infinite weight) are included: the
        overlay structure must survive later weight updates.
    """

    region_of: np.ndarray
    regions: list[list[int]]
    boundary: list[list[int]]
    cut_edges: list[tuple[int, int, float]]

    @property
    def k(self) -> int:
        return len(self.regions)

    def boundary_vertices(self) -> list[int]:
        """All boundary vertices across regions, sorted globally."""
        out: list[int] = []
        for b in self.boundary:
            out.extend(b)
        return sorted(out)

    def validate(self) -> None:
        """Check partition invariants; raises :class:`PartitionError`."""
        n = len(self.region_of)
        seen = np.zeros(n, dtype=bool)
        for rid, vertices in enumerate(self.regions):
            if not vertices:
                raise PartitionError(f"region {rid} is empty")
            for v in vertices:
                if seen[v]:
                    raise PartitionError(f"vertex {v} owned by two regions")
                seen[v] = True
                if self.region_of[v] != rid:
                    raise PartitionError(f"region_of[{v}] disagrees with region {rid}")
        if not seen.all():
            raise PartitionError("some vertices belong to no region")
        for u, v, _ in self.cut_edges:
            if self.region_of[u] == self.region_of[v]:
                raise PartitionError(f"cut edge ({u}, {v}) is intra-region")


def _split_in_order(subset: list[int]) -> tuple[list[int], list[int]]:
    """Fallback split: deterministic halves by vertex id."""
    ordered = sorted(subset)
    mid = len(ordered) // 2
    return ordered[:mid], ordered[mid:]


def _bisect_subset(sides, subset: list[int]) -> tuple[list[int], list[int]]:
    """Split *subset* into two non-empty parts along a small edge cut:
    ``sides(subset)``, or halves by id where that fails or leaves a
    side empty."""
    try:
        left, right = sides(subset)
    except PartitionError:
        return _split_in_order(subset)
    if not left or not right:
        return _split_in_order(subset)
    return left, right


def partition_regions(
    graph: Graph,
    k: int,
    *,
    beta: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> RegionPartition:
    """Split *graph* into *k* edge-disjoint regions with boundaries.

    The largest part is repeatedly bisected (multilevel pipeline, same
    *beta* balance guarantee as the hierarchy construction) until *k*
    parts exist. ``k`` is clamped to the vertex count; requesting one
    region returns the trivial partition with no cut edges. Every
    combinatorial step of each bisection runs in the C context of
    :class:`repro.partition.kernels.Bisector`; the draws and the
    spectral eigensolve are numpy's.
    """
    if k < 1:
        raise PartitionError(f"region count must be >= 1, got {k}")
    if graph.num_vertices == 0:
        raise PartitionError("cannot partition an empty graph")
    rng = make_rng(seed)
    bisector = kernels.Bisector.over_graph(graph, beta)

    def sides(subset):
        check_bisectable(len(subset), beta)
        laps = phase_laps()
        try:
            bisect_subset(bisector, subset, rng, laps)
        finally:
            laps.close()
        return bisector.parts()

    try:
        return split_regions(graph, k, sides)
    finally:
        bisector.close()


def split_regions(graph: Graph, k: int, sides) -> RegionPartition:
    """*graph* cut into ``min(k, n)`` regions: the largest part split
    by ``sides(subset)`` (its two parts) until there are that many."""
    n = graph.num_vertices
    k = min(k, n)
    parts: list[list[int]] = [list(graph.vertices())]
    while len(parts) < k:
        # Split the largest remaining part (ties break deterministically
        # on the smallest contained vertex id).
        target = max(
            range(len(parts)), key=lambda i: (len(parts[i]), -min(parts[i]))
        )
        subset = parts.pop(target)
        left, right = _bisect_subset(sides, subset)
        parts.append(left)
        parts.append(right)

    # Deterministic region numbering: by smallest owned vertex id.
    parts.sort(key=min)
    region_of = np.empty(n, dtype=np.int64)
    regions: list[list[int]] = []
    for rid, vertices in enumerate(parts):
        ordered = sorted(vertices)
        regions.append(ordered)
        region_of[ordered] = rid

    return _with_boundaries(graph, region_of, regions)


def regions_from_assignment(graph: Graph, region_of: np.ndarray) -> RegionPartition:
    """Reconstruct a :class:`RegionPartition` from a stored assignment.

    Cut edges and boundaries are re-derived from the graph (weights at
    their *current* values), which is how snapshots restore partitions.
    """
    region_of = np.asarray(region_of, dtype=np.int64)
    if len(region_of) != graph.num_vertices:
        raise PartitionError(
            f"assignment covers {len(region_of)} vertices, "
            f"graph has {graph.num_vertices}"
        )
    k = int(region_of.max()) + 1 if len(region_of) else 0
    if k < 1 or region_of.min() < 0:
        raise PartitionError("region ids must be contiguous and non-negative")
    regions: list[list[int]] = [[] for _ in range(k)]
    for v, rid in enumerate(region_of.tolist()):
        regions[rid].append(v)
    if any(not r for r in regions):
        raise PartitionError("stored assignment has an empty region")
    return _with_boundaries(graph, region_of, regions)


def _with_boundaries(
    graph: Graph, region_of: np.ndarray, regions: list[list[int]]
) -> RegionPartition:
    """Derive cut edges and per-region boundaries for an assignment."""
    cut_edges: list[tuple[int, int, float]] = []
    boundary_sets: list[set[int]] = [set() for _ in regions]
    region = region_of.tolist()
    for u, v, w in graph.edges():
        ru = region[u]
        rv = region[v]
        if ru != rv:
            cut_edges.append((u, v, w))
            boundary_sets[ru].add(u)
            boundary_sets[rv].add(v)
    boundary = [sorted(b) for b in boundary_sets]
    return RegionPartition(region_of, regions, boundary, cut_edges)
