"""Recursive bisection producing the partition tree behind H_Q.

Each internal tree node owns a minimum balanced vertex separator of its
subgraph; its two children recurse on the separated sides. Leaves own all
remaining vertices once a part is small enough. The resulting
:class:`PartitionTreeNode` tree is consumed by
:class:`repro.hierarchy.QueryHierarchy`, which assigns bitstrings, depths
and the vertex partial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.observability.phases import PhaseLaps, phase, phase_laps
from repro.partition import kernels
from repro.partition.multilevel import bisect_subset, check_bisectable
from repro.utils.rng import make_rng

__all__ = ["PartitionTreeNode", "recursive_bisection"]


@dataclass
class PartitionTreeNode:
    """Node of the partition tree.

    ``vertices`` are the global vertex ids owned by this node, already in
    their within-node total order (the ``⪯`` of Definition 4.3).
    ``children`` has up to two entries (fewer when a side emptied out).
    """

    vertices: list[int]
    children: list["PartitionTreeNode"] = field(default_factory=list)

    @property
    def subtree_size(self) -> int:
        """Number of vertices owned by this node and its descendants."""
        return len(self.vertices) + sum(c.subtree_size for c in self.children)

    def iter_nodes(self):
        """Yield all nodes of the subtree in preorder (iterative)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _order_vertices(degree: list[int], vertices: list[int]) -> list[int]:
    """Within-node total order: central (high degree) vertices first.

    *degree* lists every vertex's degree. Any total order is correct
    (Definition 4.3 allows an arbitrary one); putting well-connected
    vertices earlier makes them ancestors of more vertices, which
    empirically shortens shortcut chains slightly. Ties break on vertex
    id for determinism.
    """
    return sorted(vertices, key=lambda v: (-degree[v], v))


def recursive_bisection(
    graph: Graph,
    beta: float = 0.2,
    leaf_size: int = 8,
    seed: int | np.random.Generator | None = 0,
) -> PartitionTreeNode:
    """Build the partition tree of *graph* by recursive balanced bisection.

    Parameters
    ----------
    beta:
        Balance parameter of Definition 4.1: every child subtree holds at
        most ``(1 - beta)`` of its parent's vertices. The paper uses 0.2.
    leaf_size:
        Parts of at most this many vertices become leaves.

    Every combinatorial step of each bisection — induced subgraph,
    coarsening, candidates, projection, cut and separator — runs in the
    C context of :class:`repro.partition.kernels.Bisector`; numpy's
    draws, the spectral eigensolve, this work stack and
    :func:`_order_vertices` are Python's.
    """
    rng = make_rng(seed)
    laps = phase_laps()
    with phase("partition.subgraph"):
        bisector = kernels.Bisector.over_graph(graph, beta)

    def bisect(subset):
        check_bisectable(len(subset), beta)
        bisect_subset(bisector, subset, rng, laps)
        return bisector.split

    try:
        return build_tree(graph, leaf_size, bisect, laps)
    finally:
        laps.close()
        bisector.close()


def build_tree(
    graph: Graph, leaf_size: int, bisect, laps: PhaseLaps | None = None
) -> PartitionTreeNode:
    """The partition tree, each part above *leaf_size* split by
    ``bisect(subset)``: a call whose result ``separate()`` gives the
    ``(separator, side 0, side 1)`` global ids of the split, the
    separator in local id order and the sides without it."""
    degree = graph.degree_array().tolist()
    laps = laps or phase_laps()
    root = PartitionTreeNode(vertices=[])
    # Work list of (node, vertex subset); children are attached in place,
    # and a leaf-sized child is ordered as it is attached (leaves draw
    # nothing, so the random stream is the same either way).
    stack: list[tuple[PartitionTreeNode, list[int]]] = [(root, list(graph.vertices()))]
    while stack:
        node, subset = stack.pop()
        if len(subset) <= leaf_size:
            node.vertices = _order_vertices(degree, subset)
            continue
        separate = bisect(subset)
        laps.restart()
        separator, left, right = separate()
        if not left and not right:
            # Separator swallowed everything: stop splitting here.
            node.vertices = _order_vertices(degree, subset)
        else:
            node.vertices = _order_vertices(degree, separator)
            for side in (left, right):
                if side:
                    child = PartitionTreeNode(vertices=[])
                    node.children.append(child)
                    if len(side) <= leaf_size:
                        child.vertices = _order_vertices(degree, side)
                    else:
                        stack.append((child, side))
        laps.lap("partition.separator")
        laps.close()
    return root
