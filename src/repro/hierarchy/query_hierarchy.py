"""Query hierarchy H_Q (Definition 4.1) and the vertex partial order.

Built from a partition tree, H_Q is five arrays — exactly what the C
LCA kernel reads:

* per vertex, ``tau(v)`` — the number of strict ancestors w.r.t. the
  partial order ``⪯_H`` (Definition 4.3); the ancestors of ``v`` form a
  chain whose rank-``i`` element has ``tau == i``, so labels can be
  dense arrays indexed by ``tau`` — and ``node_of(v)``, its tree node;
* per tree node, in preorder, its ``depth``, its ``path`` bits (a
  node's bitstring is a 1 followed by its root-to-node path bits,
  child 0 or 1 a level; ``path`` holds those bits left-aligned in
  ``max(1, ceil(max_depth / 64))`` uint64 words, zero past the node's
  depth) and its vend ``chain``: row ``nid`` holds, at column ``d``,
  one past the last rank owned by the node's depth-``d`` ancestor, zero
  past its own depth (one row a node, as wide as the deepest).

The LCA depth of two nodes is their common path prefix, so ``K =
|anc(s) ∩ anc(t)|`` — the number of label entries a query scans — is
O(1): ``chain`` at that depth, clamped by both ``tau``. Everything else
is derived where it is used: a node's rank range, its parent (the last
earlier preorder node one level up), its members and the partition
tree itself.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HierarchyError
from repro.graph.graph import Graph, road_arrays
from repro.partition.recursive import PartitionTreeNode

__all__ = ["QueryHierarchy"]


class QueryHierarchy:
    """Static query hierarchy over ``n = len(tau)`` vertices.

    Construct via :meth:`from_partition_tree` or :meth:`from_nodes`.
    ``_record`` is the C kernels' bound record of the five arrays
    (:func:`repro.labelling.native.engine.lca_record`), bound at the
    first kernel call; a pickle carries the arrays only.
    """

    __slots__ = ("tau", "node_of", "depth", "path", "chain", "_record", "__weakref__")

    def __init__(self, tau, node_of, depth, path, chain):
        self.tau = tau
        self.node_of = node_of
        self.depth = depth
        self.path = path
        self.chain = chain
        self._record = None

    def __getstate__(self):
        return self.tau, self.node_of, self.depth, self.path, self.chain

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partition_tree(cls, root: PartitionTreeNode, n: int) -> "QueryHierarchy":
        """Assign ranks, path bits and vend chains from a partition tree."""
        tau = np.full(n, -1, dtype=np.int64)
        node_of = np.full(n, -1, dtype=np.int64)
        depth: list[int] = []
        parent: list[int] = []
        branch: list[int] = []
        vend: list[int] = []

        # Preorder walk carrying (tree node, parent id, child index).
        stack: list[tuple[PartitionTreeNode, int, int]] = [(root, -1, 0)]
        while stack:
            tnode, parent_id, child_index = stack.pop()
            nid = len(depth)
            vstart = vend[parent_id] if parent_id >= 0 else 0
            depth.append(depth[parent_id] + 1 if parent_id >= 0 else 0)
            parent.append(parent_id)
            branch.append(child_index)
            vend.append(vstart + len(tnode.vertices))
            for position, v in enumerate(tnode.vertices):
                if tau[v] != -1:
                    raise HierarchyError(f"vertex {v} owned by two tree nodes")
                tau[v] = vstart + position
                node_of[v] = nid
            # Children are pushed in reverse so child 0 is processed first.
            for child_index in range(len(tnode.children) - 1, -1, -1):
                stack.append((tnode.children[child_index], nid, child_index))

        if (tau < 0).any():
            missing = int((tau < 0).sum())
            raise HierarchyError(
                f"{missing} vertices not covered by the partition tree"
            )
        return cls.from_nodes(tau, node_of, depth, parent, vend, branch)

    @classmethod
    def from_nodes(cls, tau, node_of, depth, parent, vend, branch) -> "QueryHierarchy":
        """H_Q from per-vertex ``tau`` / ``node_of`` and per-node
        preorder ``depth``, ``parent`` (-1 at the root), ``vend`` and
        ``branch`` (the node's index among its parent's children): each
        level copies its parents' path words and chain rows, then sets
        its own bit and vend."""
        depth = np.asarray(depth, dtype=np.int64)
        parent = np.asarray(parent, dtype=np.int64)
        vend = np.asarray(vend, dtype=np.int64)
        branch = np.asarray(branch, dtype=np.uint64)
        max_depth = int(depth.max(initial=0))
        path = np.zeros((len(depth), max(1, -(-max_depth // 64))), dtype=np.uint64)
        chain = np.zeros((len(depth), max_depth + 1), dtype=np.int64)
        for d, level in enumerate(_levels(depth)):
            if d:
                up = parent[level]
                path[level] = path[up]
                chain[level] = chain[up]
                word, bit = divmod(d - 1, 64)
                path[level, word] |= branch[level] << np.uint64(63 - bit)
            chain[level, d] = vend[level]
        return cls(tau, node_of, depth, path, chain)

    # ------------------------------------------------------------------
    # derived node tables
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.tau)

    @property
    def num_nodes(self) -> int:
        return len(self.depth)

    @property
    def height(self) -> int:
        """Maximum number of ancestors of any vertex (paper's ``h``)."""
        return int(self.tau.max()) + 1 if self.n else 0

    def vend(self) -> np.ndarray:
        """One past each node's last rank."""
        return self.chain[np.arange(self.num_nodes), self.depth]

    def parent(self) -> np.ndarray:
        """Each node's parent id (-1 at the root): in preorder, the last
        earlier node one level up."""
        parent = np.full(self.num_nodes, -1, dtype=np.int64)
        levels = _levels(self.depth)
        for above, level in zip(levels, levels[1:]):
            parent[level] = above[np.searchsorted(above, level) - 1]
        return parent

    def branch(self) -> np.ndarray:
        """Each node's index among its parent's children (``uint8``; 0 at
        the root): its last path bit."""
        bit = np.maximum(self.depth - 1, 0)
        words = self.path[np.arange(self.num_nodes), bit // 64]
        return (words >> (63 - bit % 64).astype(np.uint64) & 1).astype(np.uint8)

    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: node ``nid`` owns ``order[starts[nid] :
        starts[nid + 1]]``, in rank order."""
        order = np.lexsort((self.tau, self.node_of))
        starts = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.node_of, minlength=self.num_nodes), out=starts[1:])
        return order, starts

    def partition_tree(self) -> PartitionTreeNode:
        """The partition tree these arrays encode (fresh nodes;
        ``from_partition_tree`` of it gives back these arrays)."""
        order, starts = self.members()
        nodes = [
            PartitionTreeNode(order[lo:hi].tolist())
            for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
        ]
        # Preorder lists child 0 before child 1.
        for nid, up in enumerate(self.parent().tolist()):
            if up >= 0:
                nodes[up].children.append(nodes[nid])
        return nodes[0]

    # ------------------------------------------------------------------
    # partial order
    # ------------------------------------------------------------------
    def _common(self, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(K, tau_u, tau_v)`` over broadcast id arrays, K from one
        :func:`repro.labelling.native.engine.common_ancestors` call."""
        # Imported here: repro.labelling imports this module.
        from repro.labelling.native import engine as native_engine

        u, v = np.broadcast_arrays(np.asarray(u, np.int64), np.asarray(v, np.int64))
        k = native_engine.common_ancestors(self, np.ravel(u), np.ravel(v))
        return k.reshape(u.shape), self.tau[u], self.tau[v]

    def precedes(self, u, v):
        """``u ⪯_H v`` (Definition 4.3, reflexive) per id pair: every
        ancestor of ``u`` is a common one."""
        k, tau_u, _ = self._common(u, v)
        return k == tau_u + 1

    def comparable(self, u, v):
        """``u ⪯_H v`` or ``v ⪯_H u`` per id pair."""
        k, tau_u, tau_v = self._common(u, v)
        return k == np.minimum(tau_u, tau_v) + 1

    def contraction_order(self) -> np.ndarray:
        """Vertices in decreasing ``tau`` (deepest first) for building H_U."""
        return np.argsort(-self.tau, kind="stable")

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_graph(self, graph: Graph) -> None:
        """Check that every edge joins ⪯_H-comparable vertices.

        This is the separator property of Definition 4.1 restricted to
        paths of length one; it must hold for any partition tree whose
        node sets are true separators (Lemma 4.8 relies on it).
        """
        u, v, _ = road_arrays(graph)
        bad = np.flatnonzero(~self.comparable(u, v))
        if len(bad):
            raise HierarchyError(
                f"edge ({u[bad[0]]}, {v[bad[0]]}) joins incomparable vertices; "
                "the partition tree is not a valid separator tree"
            )

    def memory_bytes(self) -> int:
        """Bytes of the five arrays."""
        arrays = (self.tau, self.node_of, self.depth, self.path, self.chain)
        return sum(a.nbytes for a in arrays)


def _levels(depth: np.ndarray) -> list[np.ndarray]:
    """Node ids of each depth ``0 .. max``, each in preorder."""
    order = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(1, int(depth.max(initial=0)) + 1))
    return np.split(order, bounds)
