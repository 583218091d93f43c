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
from repro.observability.phases import phase, phase_laps
from repro.partition import kernels
from repro.partition.multilevel import (
    check_bisectable,
    compiled_bisection,
    multilevel_bisection,
)
from repro.partition.separator import minimum_vertex_separator
from repro.partition.types import PartitionGraph
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
    engine: str = "compiled",
) -> PartitionTreeNode:
    """Build the partition tree of *graph* by recursive balanced bisection.

    Parameters
    ----------
    beta:
        Balance parameter of Definition 4.1: every child subtree holds at
        most ``(1 - beta)`` of its parent's vertices. The paper uses 0.2.
    leaf_size:
        Parts of at most this many vertices become leaves.
    engine:
        Resolved like ``DHLConfig.engine``: ``compiled`` runs every
        combinatorial step of each bisection — induced subgraph,
        coarsening, candidates, projection, cut and separator — in C,
        ``reference`` in Python. numpy's draws, the spectral eigensolve,
        this work stack and :func:`_order_vertices` are shared; the tree
        does not depend on the engine.
    """
    rng = make_rng(seed)
    degree = graph.degree_array().tolist()
    laps = phase_laps()
    if kernels.compiled(engine):
        with phase("partition.subgraph"):
            bisector = kernels.Bisector.over_graph(graph, beta)

        def bisect(subset):
            check_bisectable(len(subset), beta)
            compiled_bisection(bisector, subset, rng, laps)
            return bisector.split
    else:
        bisector = None

        def bisect(subset):
            return _reference_split(graph, subset, beta, rng)

    root = PartitionTreeNode(vertices=[])
    # Work list of (node, vertex subset); children are attached in place,
    # and a leaf-sized child is ordered as it is attached (leaves draw
    # nothing, so the random stream is the same either way).
    stack: list[tuple[PartitionTreeNode, list[int]]] = [(root, list(graph.vertices()))]
    try:
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
    finally:
        laps.close()
        if bisector is not None:
            bisector.close()
    return root


def _reference_split(
    graph: Graph, subset: list[int], beta: float, rng: np.random.Generator
):
    """A bisection of *subset* by the Python steps; returns the call that
    gives its ``(separator, side 0, side 1)`` in global ids: the
    separator in local id order, the sides without it."""
    with phase("partition.subgraph"):
        pgraph = PartitionGraph.from_graph(graph, subset)
    bipartition = multilevel_bisection(pgraph, beta=beta, seed=rng, engine="reference")

    def separate() -> tuple[list[int], list[int], list[int]]:
        separator_local = minimum_vertex_separator(bipartition.cut_edges)
        left: list[int] = []
        right: list[int] = []
        for v, s in enumerate(bipartition.side.tolist()):
            if v not in separator_local:
                (right if s else left).append(subset[v])
        return [subset[v] for v in sorted(separator_local)], left, right

    return separate
