"""Distance queries over (H_Q, L) — Section 4.3 of the paper.

A query computes the number ``K`` of common ancestors of ``s`` and ``t``
from H_Q's path words (the common prefix of the two tree nodes' path
bits, then the ``chain`` row at that depth), then takes the minimum of
``L_s[i] + L_t[i]`` over ``i < K``; both steps run in C, in one pair
kernel call.
Correctness is the restricted 2-hop cover property (Lemma 6.6): some
common ancestor ``r`` lies on a shortest path, and for it both label
entries are distances within the subgraph induced by ``desc(r)``, which
contains that path.

Batch queries gather *directly* from the labelling's flat CSR store: the
entry ``L_v[i]`` lives at ``values[offsets[v] + i]``, so a pair costs
exactly ``K`` cells per side — the paper's cost model, with no padding
to a common width, no Python-level loop over pairs, and nothing to
re-sync after maintenance (the C pair kernel reads the live buffer that
the maintenance algorithms write into).

Set-to-set queries (:meth:`QueryEngine.distance_matrix`) run the pair
kernel's per-cell LCA and scan in one C loop over the output. The LCA
reads each node's path bits in as many 64-bit words as the deepest
node needs, so every hierarchy depth takes the same kernels. A scalar
query is the same pair kernel on one bound pair.
"""

from __future__ import annotations

import threading
from operator import index

import numpy as np

from repro.exceptions import VertexNotFound
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.native import engine as native_engine
from repro.utils.pairs import as_ids, as_pair_array

__all__ = ["QueryEngine"]


class QueryEngine:
    """Binds a query hierarchy and its labels into a distance oracle.

    The oracle is two-sided: ``d(s, t) = min_i labels[s][i] +
    target_labels[t][i]``. An undirected index passes one labelling
    (both sides are the same object); a directed one passes its
    ``(out, in)`` pair.

    A batch is answered by the pair kernel of
    :mod:`repro.labelling.native` — LCA, scan and argmin of each pair
    in one C loop over one labelling or two, no temporaries — and a
    source set against a target set by its set kernel.

    Three entry points, one live label store: :meth:`distance` (scalar),
    :meth:`distances_arrays` (independent pairs, ``sum(K)`` cells a side)
    and :meth:`distance_matrix` (a source set against a target set).
    Each refuses a vertex id outside ``[0, n)`` with
    :class:`~repro.exceptions.VertexNotFound` before any row is read
    (the batch kernels check their ids themselves, the scalar door in
    Python): numpy would wrap a negative id onto another vertex, and C
    would read out of bounds.
    The engine keeps one piece of H_Q-only static state next to the
    labelling — the ancestor-chain :meth:`hub_store` — and never a label
    value. The kernels read the label stores and H_Q's five arrays
    through records their owners bind once and bind again when an array
    is swapped, so weight maintenance, slot growth, compaction and a
    pickle round trip need no invalidation hook. A scalar query
    writes its pair into this thread's one-pair buffers
    (``native_engine.OnePair``), bound once.
    """

    __slots__ = (
        "hq",
        "labels",
        "target_labels",
        "_hub_values",
        "_scratch",
    )

    def __init__(
        self,
        hq: QueryHierarchy,
        labels: HierarchicalLabelling,
        target_labels: HierarchicalLabelling | None = None,
    ):
        self.hq = hq
        self.labels = labels
        self.target_labels = labels if target_labels is None else target_labels
        self._hub_values: np.ndarray | None = None
        self._scratch = threading.local()

    def __getstate__(self):
        """The bound objects; the hub store and the scratch are derived."""
        return self.hq, self.labels, self.target_labels

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def _one_pair(self, s, t) -> tuple[float, int]:
        """``(distance, rank)`` of one pair by the pair kernel, on this
        thread's bound one-pair buffers; ``s == t`` answers ``(0.0,
        -1)``."""
        s, t = index(s), index(t)
        n = self.hq.n
        if not 0 <= s < n:
            raise VertexNotFound(s)
        if not 0 <= t < n:
            raise VertexNotFound(t)
        try:
            one = self._scratch.one
        except AttributeError:
            one = self._scratch.one = native_engine.OnePair()
        return native_engine.gather_one(
            self.labels, self.target_labels, self.hq, one, s, t
        )

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance between *s* and *t*.

        Returns ``math.inf`` when the vertices are disconnected (including
        separation caused by logically deleted roads).
        """
        return self._one_pair(s, t)[0]

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus the common-ancestor vertex realising it.

        Returns ``(distance, hub_vertex)``; the hub is -1 for ``s == t``
        or disconnected pairs. Used by applications that need a via-vertex
        (e.g. reconstructing a coarse route). The hub is one read of
        :meth:`hub_store`, as in :meth:`distances_with_hubs`.
        """
        best, rank = self._one_pair(s, t)
        if rank < 0:
            return best, -1
        hub_values, hub_offsets = self.hub_store()
        return best, int(hub_values[hub_offsets[s] + rank])

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def hub_store(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ancestor-chain store: ``(hub_values, hub_offsets)``.

        ``hub_values[hub_offsets[v] + i]`` is the rank-``i`` ancestor of
        ``v`` — the labelling's CSR shape, row ``v`` holding
        ``tau(v) + 1`` entries, so ``hub_offsets`` is the labelling's own
        ``offsets``. The ids are ``int32`` (one per label entry, so the
        store would otherwise be as large as the labels).
        Ancestor chains depend only on H_Q, which weight maintenance
        never alters, so the store is built once and never invalidated.
        """
        if self._hub_values is None:
            hq = self.hq
            order, starts = hq.members()
            order = order.astype(np.int32)
            # A vertex's chain is a prefix of its node's root-to-node
            # member chain; nodes are in preorder, so a parent's chain
            # exists before its children extend it.
            chains: list[np.ndarray] = []
            for nid, up in enumerate(hq.parent().tolist()):
                own = order[starts[nid] : starts[nid + 1]]
                chains.append(np.concatenate((chains[up], own)) if up >= 0 else own)
            node_starts = np.zeros(len(chains) + 1, dtype=np.int64)
            np.cumsum([len(chain) for chain in chains], out=node_starts[1:])
            offsets = self.labels.offsets
            # Output position ``offsets[v] + i`` reads its node's chain
            # at ``i``: one repeat of the per-vertex shift, one gather.
            pick = np.repeat(node_starts[hq.node_of] - offsets[:-1], hq.tau + 1)
            pick += np.arange(len(pick), dtype=np.int64)
            self._hub_values = np.concatenate(chains)[pick]
        return self._hub_values, self.labels.offsets

    def distance_matrix(self, sources, targets) -> np.ndarray:
        """All ``len(sources) x len(targets)`` distances in one kernel.

        Equal, bit for bit, to :meth:`distances_arrays` on the expanded
        pairs (the same float sums are minimised): the set kernel of
        :mod:`repro.labelling.native` computes each cell as the pair
        kernel's LCA and K-cell scan, written in place, no pair arrays.
        Label values are read from the live store on every call.
        Duplicate sources are answered once each; callers dedupe.
        """
        sources = native_engine.operand(as_ids(sources), np.int64)
        targets = native_engine.operand(as_ids(targets), np.int64)
        return native_engine.distance_matrix(
            self.labels, sources, self.target_labels, targets, self.hq
        )

    def _pair_operands(self, s, t) -> tuple[np.ndarray, np.ndarray]:
        """*s* / *t* (:func:`~repro.utils.pairs.as_ids`) as equal-length
        int64 id arrays (the kernels refuse an id outside ``[0, n)``
        before they read a row)."""
        s = native_engine.operand(as_ids(s), np.int64)
        t = native_engine.operand(as_ids(t), np.int64)
        if s.shape != t.shape:
            raise ValueError(f"length mismatch: {s.shape} sources, {t.shape} targets")
        return s, t

    def common_ancestor_counts(self, s, t) -> np.ndarray:
        """``|anc(s) ∩ anc(t)|`` over pair arrays, by the pair kernel's LCA."""
        s, t = self._pair_operands(s, t)
        return native_engine.common_ancestors(self.hq, s, t)

    @staticmethod
    def _pair_array(pairs) -> np.ndarray:
        """*pairs* as a C-contiguous ``(m, 2)`` int64 array."""
        return native_engine.operand(as_pair_array(pairs), np.int64)

    def distances(self, pairs) -> np.ndarray:
        """Batch distances, gathered straight from the flat label store.

        *pairs*: an ``(m, 2)`` integer array or any iterable of pairs,
        read in place by the pair kernel.
        """
        return native_engine.gather_pair_array(
            self.labels,
            self._pair_array(pairs),
            self.target_labels,
            self.hq,
        )[0]

    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances over parallel source/target id arrays.

        The array-native entry point to the zero-copy kernel: callers
        that already hold vertex ids as numpy arrays (one-to-many
        facades, bulk matrix fills) skip the pair-list round trip
        entirely.
        """
        s, t = self._pair_operands(s, t)
        return native_engine.gather_pairs(
            self.labels, s, self.target_labels, t, self.hq
        )[0]

    def distances_with_hubs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``(distances, hubs)``; hub is -1 for self/disconnected pairs."""
        arr = self._pair_array(pairs)
        out, ranks = native_engine.gather_pair_array(
            self.labels, arr, self.target_labels, self.hq, True
        )
        hub_values, hub_offsets = self.hub_store()
        hubs = hub_values[hub_offsets[arr[:, 0]] + np.maximum(ranks, 0)]
        hubs = hubs.astype(np.int64)
        hubs[ranks < 0] = -1
        return out, hubs

    def search_space_size(self, s: int, t: int) -> int:
        """Number of label entries inspected for the pair (paper's 'hops')."""
        return 2 * int(self.common_ancestor_counts([s], [t])[0])
