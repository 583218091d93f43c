"""Distance queries over (H_Q, L) — Section 4.3 of the paper.

A query computes the number ``K`` of common ancestors of ``s`` and ``t``
in O(1) via partition bitstrings, then takes the minimum of
``L_s[i] + L_t[i]`` over ``i < K`` as one vectorised numpy reduction.
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
kernel's per-cell LCA and scan in one C loop over the output. A
hierarchy too deep for the LCA tables (``AncestorTables.vectorised``
false) has them in numpy instead, where they do not go through pairs at
all (pair arrays would be ``|U| * |T|`` long). ``anc(u) ∩ anc(t)`` *is*
the common-ancestor prefix and an ancestor ``a`` has the same rank
``tau(a)`` on every descendant's chain, so the query is
``min over a in anc(u)`` of
``L_u[tau(a)] + M[a, t]`` with ``M[a, t] = L_t[tau(a)]`` for
``a in anc(t)`` and ``inf`` elsewhere: one dense block per target set
(the "labels to a fixed cut" block of Hierarchical Cut Labelling),
one ancestor-chain gather per source, no LCA.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import VertexNotFound
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.native import engine as native_engine
from repro.utils.pairs import as_pair_array, check_ids
from repro.utils.ragged import expand

__all__ = ["AncestorTables", "QueryEngine"]

# The vectorised LCA kernel packs partition bitstrings into int64 and
# recovers bit lengths through float64 mantissas (np.frexp), both exact
# only while ``depth + 1 <= 52``. Deeper hierarchies (which would need a
# ludicrously unbalanced partition tree) count K pair by pair.
_MAX_VECTOR_DEPTH = 50

# Cells per temporary of the numpy set kernel: one ``(chunk, h)`` sum
# matrix stays around 32 MB regardless of the hierarchy height.
_CHUNK_CELLS = 4_000_000


class AncestorTables:
    """Batch ``|anc(s) ∩ anc(t)|`` over numpy renditions of H_Q's tables."""

    __slots__ = ("hq", "vectorised", "node_of", "depth", "bits", "chain", "tau")

    def __init__(self, hq: QueryHierarchy):
        self.hq = hq
        max_depth = max(hq.node_depth, default=0)
        self.vectorised = max_depth <= _MAX_VECTOR_DEPTH
        if not self.vectorised:
            return
        self.node_of = np.asarray(hq.node_of, dtype=np.int64)
        self.depth = np.asarray(hq.node_depth, dtype=np.int64)
        self.bits = np.asarray(hq.node_bits, dtype=np.int64)
        self.tau = np.asarray(hq.tau, dtype=np.int64)
        chain = np.zeros((hq.num_nodes, max_depth + 1), dtype=np.int64)
        for nid, prefix in enumerate(hq.node_vend_chain):
            chain[nid, : len(prefix)] = prefix
        self.chain = chain

    def counts(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorised ``|anc(s) ∩ anc(t)|`` over pair arrays.

        Mirrors :meth:`QueryHierarchy.common_ancestor_count`: the LCA
        depth comes from xor-ing depth-aligned bitstrings, with
        ``bit_length`` recovered from the float64 exponent (exact below
        2**53, guaranteed by the ``vectorised`` gate).
        """
        if not self.vectorised:
            count = map(self.hq.common_ancestor_count, s.tolist(), t.tolist())
            return np.fromiter(count, np.int64, len(s))
        ns = self.node_of[s]
        nt = self.node_of[t]
        ds = self.depth[ns]
        dt = self.depth[nt]
        d = np.minimum(ds, dt)
        diff = (self.bits[ns] >> (ds - d)) ^ (self.bits[nt] >> (dt - d))
        shift = np.zeros_like(diff)
        nz = diff != 0
        if nz.any():
            shift[nz] = np.frexp(diff[nz].astype(np.float64))[1]
        lca_depth = d - shift
        vend = self.chain[ns, lca_depth]
        return np.minimum(np.minimum(self.tau[s], self.tau[t]), vend - 1) + 1


class _TargetTables:
    """H_Q-only scatter tables of one target set for the set kernel.

    With ``A`` the union of the targets' ancestor chains: ``rowmap``
    sends a vertex to its row of the dense block ``M[a, t]``
    (``num_rows``, one past the last row, outside ``A``), and
    label entry ``e`` — ``L_vertex[e][rank[e]]``, entries sorted by
    target column with ``col_starts`` bounding each column — is the
    block's cell ``(row[e], col[e])``. No label *value* is held: the
    block is filled from the live store on every call, so maintenance
    needs no hook. Memory: ``8 n`` bytes for ``rowmap`` plus 32 bytes
    per label entry of the target set.
    """

    __slots__ = (
        "targets",
        "rowmap",
        "num_rows",
        "vertex",
        "rank",
        "row",
        "col",
        "col_starts",
    )

    def __init__(
        self, targets: np.ndarray, hubs: np.ndarray, hub_offsets: np.ndarray
    ):
        self.targets = targets.copy()
        counts = hub_offsets[targets + 1] - hub_offsets[targets]
        self.col, self.rank = expand(counts)
        self.vertex = targets[self.col]
        ancestors = hubs[hub_offsets[self.vertex] + self.rank]
        members = np.unique(ancestors)
        self.num_rows = len(members)
        self.rowmap = np.full(len(hub_offsets) - 1, self.num_rows, dtype=np.int64)
        self.rowmap[members] = np.arange(self.num_rows)
        self.row = self.rowmap[ancestors]
        self.col_starts = np.zeros(len(targets) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.col_starts[1:])


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
    and :meth:`distance_matrix` (a source set against a fixed target
    set — the C set kernel, the numpy one past the LCA tables' depth). Each checks its
    vertex ids against ``[0, n)`` once, at the door, and raises
    :class:`~repro.exceptions.VertexNotFound`: numpy would wrap a
    negative id onto another vertex, and C would read out of bounds.
    The engine keeps H_Q-only static state next to the labelling — the
    ancestor-chain :meth:`hub_store`, the LCA tables and the last target
    set's scatter tables — and never a label value or a buffer address
    (the kernel's pointers are read from the arrays on every call), so
    weight maintenance, slot growth, compaction and a pickle round trip
    need no invalidation hook.
    """

    __slots__ = (
        "hq",
        "labels",
        "target_labels",
        "_tables",
        "_hub_values",
        "_hub_offsets",
        "_targets",
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
        self._tables: AncestorTables | None = None
        self._hub_values: np.ndarray | None = None
        self._hub_offsets: np.ndarray | None = None
        self._targets: _TargetTables | None = None

    def __getstate__(self):
        """The bound objects; the H_Q tables are derived."""
        return self.hq, self.labels, self.target_labels

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def _check_vertices(self, *vertices: int) -> None:
        for v in vertices:
            if not 0 <= v < self.hq.n:
                raise VertexNotFound(v)

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance between *s* and *t*.

        Returns ``math.inf`` when the vertices are disconnected (including
        separation caused by logically deleted roads).
        """
        self._check_vertices(s, t)
        if s == t:
            return 0.0
        k = self.hq.common_ancestor_count(s, t)
        if k <= 0:
            return math.inf
        total = self.labels.view(s)[:k] + self.target_labels.view(t)[:k]
        return float(total.min())

    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus the common-ancestor vertex realising it.

        Returns ``(distance, hub_vertex)``; the hub is -1 for ``s == t``
        or disconnected pairs. Used by applications that need a via-vertex
        (e.g. reconstructing a coarse route).
        """
        self._check_vertices(s, t)
        if s == t:
            return 0.0, -1
        k = self.hq.common_ancestor_count(s, t)
        if k <= 0:
            return math.inf, -1
        total = self.labels.view(s)[:k] + self.target_labels.view(t)[:k]
        i = int(np.argmin(total))
        best = float(total[i])
        if math.isinf(best):
            return math.inf, -1
        return best, self.hq.ancestors(s)[i]

    # ------------------------------------------------------------------
    # vectorised batch path
    # ------------------------------------------------------------------
    def supports_batch_kernel(self) -> bool:
        """Whether the int64/frexp bit tricks are exact for this H_Q."""
        return self._batch_tables().vectorised

    def _batch_tables(self) -> AncestorTables:
        if self._tables is None:
            self._tables = AncestorTables(self.hq)
        return self._tables

    def kernel_tables(self) -> AncestorTables | None:
        """The LCA tables the C set kernels read, or ``None`` for a
        hierarchy too deep for the tables (the numpy kernels take over
        there)."""
        tables = self._batch_tables()
        return tables if tables.vectorised else None

    def hub_store(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ancestor-chain store: ``(hub_values, hub_offsets)``.

        ``hub_values[hub_offsets[v] + i]`` is the rank-``i`` ancestor of
        ``v`` — the same CSR shape as the labelling, but with its own
        packed offsets (label slots may carry slack). Ancestor chains
        depend only on H_Q, which weight maintenance never alters, so the
        store is built once and never invalidated.
        """
        if self._hub_values is None:
            hq = self.hq
            tau = np.asarray(hq.tau, dtype=np.int64)
            # A vertex's chain is a prefix of its node's root-to-node
            # member chain; nodes are in preorder, so a parent's chain
            # exists before its children extend it.
            chains: list[np.ndarray] = []
            for parent, members in zip(hq.node_parent, hq.node_members):
                own = np.asarray(members, dtype=np.int64)
                chains.append(
                    np.concatenate((chains[parent], own)) if parent >= 0 else own
                )
            node_starts = np.zeros(len(chains) + 1, dtype=np.int64)
            np.cumsum([len(chain) for chain in chains], out=node_starts[1:])
            offsets = np.zeros(len(tau) + 1, dtype=np.int64)
            np.cumsum(tau + 1, out=offsets[1:])
            # Output position ``offsets[v] + i`` reads its node's chain
            # at ``i``: one repeat of the per-vertex shift, one gather.
            node_of = np.asarray(hq.node_of, dtype=np.int64)
            pick = np.repeat(node_starts[node_of] - offsets[:-1], tau + 1)
            pick += np.arange(len(pick), dtype=np.int64)
            self._hub_offsets = offsets
            self._hub_values = np.concatenate(chains)[pick]
        return self._hub_values, self._hub_offsets

    def _target_tables(self, targets: np.ndarray) -> _TargetTables:
        """The set kernel's static tables, re-keyed when *targets* change.

        One slot: every caller of an engine asks about one fixed set (a
        shard's boundary, the overlay's vertex set). The slot is swapped
        whole, so concurrent callers each keep a consistent table.
        """
        tables = self._targets
        if tables is None or not np.array_equal(tables.targets, targets):
            tables = _TargetTables(targets, *self.hub_store())
            self._targets = tables
        return tables

    def distance_matrix(self, sources, targets) -> np.ndarray:
        """All ``len(sources) x len(targets)`` distances in one kernel.

        Equal, bit for bit, to :meth:`distances_arrays` on the expanded
        pairs (the same float sums are minimised). It is the set kernel
        of :mod:`repro.labelling.native`: each cell is the pair kernel's
        LCA and K-cell scan, written in place, no pair arrays. For a
        hierarchy too deep for the LCA tables it is numpy:
        ``sum_u |anc(u) ∩ A| * |T|`` contiguous cells instead of ``|U| * |T|`` pair gathers, no
        bitstring LCA and so no depth limit, the target side through
        static H_Q-only tables kept for the last target set
        (:class:`_TargetTables`). Label values are read from the live
        store on every call. Duplicate sources are answered once each;
        callers dedupe.
        """
        sources = native_engine.operand(sources, np.int64)
        targets = native_engine.operand(targets, np.int64)
        check_ids(self.hq.n, sources, targets)
        lca = self.kernel_tables()
        if lca is not None:
            return native_engine.distance_matrix(
                self.labels, sources, self.target_labels, targets, lca
            )
        out = np.full((len(sources), len(targets)), np.inf, dtype=np.float64)
        if not out.size:
            return out
        tables = self._target_tables(targets)
        values = self.labels.values
        starts = self.labels.offsets
        target = self.target_labels
        hubs, hub_offsets = self.hub_store()

        # The sources' chains, cut to their members of A: A is closed
        # under ancestors, so what survives is each chain's prefix.
        owner, rank = expand(hub_offsets[sources + 1] - hub_offsets[sources])
        chain = sources[owner]
        rows = tables.rowmap[hubs[hub_offsets[chain] + rank]]
        keep = rows < tables.num_rows
        rows = rows[keep]
        entries = starts[chain[keep]] + rank[keep]
        counts = np.bincount(owner[keep], minlength=len(sources))
        reached = np.flatnonzero(counts)
        seg_ends = np.cumsum(counts[reached])
        seg_starts = seg_ends - counts[reached]

        # The block is held targets-major so the segmented minimum runs
        # along contiguous memory (several times faster than reducing
        # down the columns of a sources-major gather).
        height = tables.num_rows
        col_step = max(1, _CHUNK_CELLS // height)
        for c0 in range(0, len(targets), col_step):
            c1 = min(c0 + col_step, len(targets))
            fill = slice(tables.col_starts[c0], tables.col_starts[c1])
            block = np.full((c1 - c0, height), np.inf, dtype=np.float64)
            block[tables.col[fill] - c0, tables.row[fill]] = target.values[
                target.offsets[tables.vertex[fill]] + tables.rank[fill]
            ]
            cap = max(1, _CHUNK_CELLS // (c1 - c0))
            lo = 0
            while lo < len(reached):
                base = seg_starts[lo]
                hi = max(lo + 1, int(np.searchsorted(seg_ends, base + cap, "right")))
                span = slice(base, seg_ends[hi - 1])
                sums = np.take(block, rows[span], axis=1)
                sums += values[entries[span]]
                out[reached[lo:hi], c0:c1] = np.minimum.reduceat(
                    sums, seg_starts[lo:hi] - base, axis=1
                ).T
                lo = hi
        out[sources[:, None] == targets] = 0.0
        return out

    def common_ancestor_counts(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``|anc(s) ∩ anc(t)|`` over pair arrays (:class:`AncestorTables`)."""
        return self._batch_tables().counts(s, t)

    def _gather(
        self, s: np.ndarray, t: np.ndarray, want_ranks: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(distances, argmin ranks)`` from the C pair kernel."""
        tables = self._batch_tables()
        # The kernel counts K itself from the LCA tables; a hierarchy
        # too deep for them is counted pair by pair, as everywhere.
        k = None if tables.vectorised else tables.counts(s, t)
        return native_engine.gather_pairs(
            self.labels, s, self.target_labels, t, k, tables, want_ranks
        )

    def _batch_kernel(
        self, s, t, want_hubs: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        s = native_engine.operand(s, np.int64)
        t = native_engine.operand(t, np.int64)
        if s.ndim != 1 or s.shape != t.shape:
            raise ValueError(
                f"length mismatch: {s.shape} sources, {t.shape} targets"
            )
        check_ids(self.hq.n, s, t)
        out, ranks = self._gather(s, t, want_hubs)
        if not want_hubs:
            return out, None
        hub_values, hub_offsets = self.hub_store()
        hubs = hub_values[hub_offsets[s] + np.maximum(ranks, 0)]
        hubs[ranks < 0] = -1
        return out, hubs

    def distances(self, pairs) -> np.ndarray:
        """Batch distances, gathered straight from the flat label store.

        *pairs*: an ``(m, 2)`` integer array or any iterable of pairs.
        """
        arr = as_pair_array(pairs)
        return self.distances_arrays(arr[:, 0], arr[:, 1])

    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances over parallel source/target id arrays.

        The array-native entry point to the zero-copy kernel: callers
        that already hold vertex ids as numpy arrays (one-to-many
        facades, bulk matrix fills) skip the pair-list round trip
        entirely.
        """
        return self._batch_kernel(s, t, want_hubs=False)[0]

    def distances_with_hubs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``(distances, hubs)``; hub is -1 for self/disconnected pairs."""
        arr = as_pair_array(pairs)
        return self._batch_kernel(arr[:, 0], arr[:, 1], want_hubs=True)

    def search_space_size(self, s: int, t: int) -> int:
        """Number of label entries inspected for the pair (paper's 'hops')."""
        check_ids(self.hq.n, np.array([s, t], dtype=np.int64))
        return 2 * self.hq.common_ancestor_count(s, t)
