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
from repro.observability.phases import phase
from repro.partition.multilevel import multilevel_bisection
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


def _order_vertices(graph: Graph, vertices: list[int]) -> list[int]:
    """Within-node total order: central (high degree) vertices first.

    Any total order is correct (Definition 4.3 allows an arbitrary one);
    putting well-connected vertices earlier makes them ancestors of more
    vertices, which empirically shortens shortcut chains slightly. Ties
    break on vertex id for determinism.
    """
    return sorted(vertices, key=lambda v: (-graph.degree(v), v))


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
        The engine FM refinement runs on (resolved like
        ``DHLConfig.engine``); the tree does not depend on it.
    """
    rng = make_rng(seed)
    all_vertices = list(graph.vertices())
    root = PartitionTreeNode(vertices=[])
    # Work list of (node, vertex subset); children are attached in place.
    stack: list[tuple[PartitionTreeNode, list[int]]] = [(root, all_vertices)]
    while stack:
        node, subset = stack.pop()
        if len(subset) <= leaf_size:
            node.vertices = _order_vertices(graph, subset)
            continue
        with phase("partition.subgraph"):
            pgraph = PartitionGraph.from_graph(graph, subset)
        bipartition = multilevel_bisection(pgraph, beta=beta, seed=rng, engine=engine)
        with phase("partition.separator"):
            separator_local = minimum_vertex_separator(bipartition.cut_edges)
            left_local: list[int] = []
            right_local: list[int] = []
            for v, s in enumerate(bipartition.side.tolist()):
                if v not in separator_local:
                    (right_local if s else left_local).append(v)
            if not left_local and not right_local:
                # Separator swallowed everything: stop splitting here.
                node.vertices = _order_vertices(graph, subset)
                continue
            node.vertices = _order_vertices(
                graph, [subset[v] for v in sorted(separator_local)]
            )
            for side_local in (left_local, right_local):
                if not side_local:
                    continue
                child = PartitionTreeNode(vertices=[])
                node.children.append(child)
                stack.append((child, [subset[v] for v in side_local]))
    return root
