"""The query kernels' oracles: the scalar H_Q reference and the numpy
query kernels.

The **scalar H_Q reference** — :func:`node_bits`, :func:`lca_depth`,
:func:`common_ancestor_count`, :func:`precedes`, :func:`comparable` and
:func:`ancestors` — is the partition-bitstring LCA in Python
arbitrary-precision ints, one pair at a time. It reads a
:class:`~repro.hierarchy.query_hierarchy.QueryHierarchy`'s ``tau``,
``node_of`` and ``depth`` only and derives the tree from them itself
(parents by the preorder rule, bitstrings from child order, rank ranges
from member counts), so it checks the ``path`` and ``chain`` arrays the
C LCA reads as well as the kernel's arithmetic: the C
``common_ancestors`` (and ``QueryHierarchy.comparable`` /
``precedes``, which are one call of it) must give its counts.

:func:`gather_pairs` is the exact-K ragged gather over two flat label
stores, :class:`FrexpTables` the numpy K count (its deep-hierarchy
fallback is the scalar reference), :func:`distance_matrix` the numpy
set kernel over one dense block per target set, :func:`shard_batch`
the composition of the two with :func:`min_plus`, the chunked numpy
boundary-route combine: what :class:`repro.labelling.query.QueryEngine`
and :mod:`repro.sharding.engine` ran before the C kernels were their
only bodies. :func:`common_ancestors`, :func:`pair_kernel`,
:func:`pair_array_kernel`, :func:`one_pair`, :func:`distance_matrix`
and :func:`shard_batch` take :mod:`repro.labelling.native.engine`'s
arguments, so :func:`tests.oracles.kernels.python_kernels` can swap
them in; the C side must give their bits. Like the kernels, they refuse
an id outside ``[0, n)`` with :class:`~repro.exceptions.VertexNotFound`
before reading a row. They keep their own H_Q-only tables per
hierarchy.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.labelling.labels import HierarchicalLabelling
from repro.utils.pairs import check_ids

__all__ = [
    "FrexpTables",
    "ancestors",
    "common_ancestor_count",
    "common_ancestors",
    "comparable",
    "distance_matrix",
    "gather_pairs",
    "lca_depth",
    "min_plus",
    "node_bits",
    "one_pair",
    "pair_array_kernel",
    "pair_kernel",
    "precedes",
    "shard_batch",
]

# Cells per run of the pair kernel: its two temporaries (positions and
# sums, 128 kB each) are gathered, added and reduced while still in L2.
_PAIR_CHUNK_CELLS = 16_384

# Cap for the (pairs x |B_i| x |B_j|) min-plus intermediate, in cells.
_MIN_PLUS_CELLS = 4_000_000

# The numpy K count packs partition bitstrings into int64 and recovers
# bit lengths through float64 mantissas (np.frexp), both exact only
# while ``depth + 1 <= 52``. Deeper hierarchies count K pair by pair.
_MAX_VECTOR_DEPTH = 50

# Cells per temporary of the numpy set kernel: one ``(chunk, h)`` sum
# matrix stays around 32 MB regardless of the hierarchy height.
_CHUNK_CELLS = 4_000_000


def expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged expansion: (source index, within-row offset) arrays."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(counts)
    rep = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return rep, ramp


class _Tree:
    """The partition tree of one H_Q, rebuilt from ``tau``, ``node_of``
    and ``depth`` alone: per node its parent, bitstring, members (in
    rank order) and first rank."""

    def __init__(self, hq):
        depth = hq.depth.tolist()
        self.parent: list[int] = []
        self.bits: list[int] = []
        children = [0] * len(depth)
        path: list[int] = []  # the current root-to-node chain of ids
        for nid, d in enumerate(depth):
            del path[d:]
            up = path[-1] if path else -1
            self.parent.append(up)
            if up < 0:
                self.bits.append(1)
            else:
                self.bits.append(self.bits[up] << 1 | children[up])
                children[up] += 1
            path.append(nid)
        self.members: list[list[int]] = [[] for _ in depth]
        for v in sorted(range(hq.n), key=lambda v: int(hq.tau[v])):
            self.members[int(hq.node_of[v])].append(v)
        self.vstart = [0] * len(depth)
        for nid, up in enumerate(self.parent):
            if up >= 0:
                self.vstart[nid] = self.vstart[up] + len(self.members[up])

    def up_to(self, nid: int, depth: int, hq) -> int:
        """*nid*'s ancestor at *depth*."""
        while hq.depth[nid] > depth:
            nid = self.parent[nid]
        return nid


_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tree(hq) -> _Tree:
    tree = _TREES.get(hq)
    if tree is None:
        tree = _TREES[hq] = _Tree(hq)
    return tree


def node_bits(hq) -> list[int]:
    """Each node's bitstring: a 1, then one bit a level (its index among
    its parent's children), root first."""
    return _tree(hq).bits


def lca_depth(hq, s: int, t: int) -> int:
    """Tree depth of the LCA of ``l(s)`` and ``l(t)`` (bit math)."""
    bits = node_bits(hq)
    ns, nt = int(hq.node_of[s]), int(hq.node_of[t])
    ds, dt = int(hq.depth[ns]), int(hq.depth[nt])
    d = min(ds, dt)
    diff = (bits[ns] >> (ds - d)) ^ (bits[nt] >> (dt - d))
    return d - diff.bit_length()


def common_ancestor_count(hq, s: int, t: int) -> int:
    """``|anc(s) ∩ anc(t)|``: the ranks ``0 .. K-1`` on either chain."""
    tree = _tree(hq)
    lca = tree.up_to(int(hq.node_of[s]), lca_depth(hq, s, t), hq)
    vend = tree.vstart[lca] + len(tree.members[lca])
    return min(int(hq.tau[s]), int(hq.tau[t]), vend - 1) + 1


def precedes(hq, u: int, v: int) -> bool:
    """``u ⪯_H v`` (Definition 4.3, reflexive)."""
    bits = node_bits(hq)
    nu, nv = int(hq.node_of[u]), int(hq.node_of[v])
    if nu == nv:
        return bool(hq.tau[u] <= hq.tau[v])
    du, dv = int(hq.depth[nu]), int(hq.depth[nv])
    return du < dv and bits[nv] >> (dv - du) == bits[nu]


def comparable(hq, u: int, v: int) -> bool:
    return precedes(hq, u, v) or precedes(hq, v, u)


def ancestors(hq, v: int) -> list[int]:
    """Ancestor chain of *v* (inclusive) ordered by rank: the element at
    index ``i`` has ``tau == i``; the last one is ``v`` itself."""
    tree = _tree(hq)
    nodes = []
    nid = int(hq.node_of[v])
    while nid >= 0:
        nodes.append(nid)
        nid = tree.parent[nid]
    chain = [w for node in reversed(nodes) for w in tree.members[node]]
    return chain[: int(hq.tau[v]) + 1]


class FrexpTables:
    """Batch ``|anc(s) ∩ anc(t)|`` over numpy renditions of H_Q's tables."""

    __slots__ = ("hq", "vectorised", "node_of", "depth", "bits", "chain", "tau")

    def __init__(self, hq):
        self.hq = hq
        max_depth = int(hq.depth.max(initial=0))
        self.vectorised = max_depth <= _MAX_VECTOR_DEPTH
        if not self.vectorised:
            return
        self.node_of = np.asarray(hq.node_of, dtype=np.int64)
        self.depth = np.asarray(hq.depth, dtype=np.int64)
        self.bits = np.asarray(node_bits(hq), dtype=np.int64)
        self.tau = np.asarray(hq.tau, dtype=np.int64)
        self.chain = np.asarray(hq.chain, dtype=np.int64)

    def counts(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorised ``|anc(s) ∩ anc(t)|`` over pair arrays.

        Mirrors :func:`common_ancestor_count`: the LCA depth comes from
        xor-ing depth-aligned bitstrings, with ``bit_length`` recovered
        from the float64 exponent (exact below 2**53, guaranteed by the
        ``vectorised`` gate); deeper hierarchies count pair by pair.
        """
        if not self.vectorised:
            pairs = zip(s.tolist(), t.tolist())
            count = (common_ancestor_count(self.hq, a, b) for a, b in pairs)
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


class _Static:
    """One hierarchy's H_Q-only oracle state: the numpy K tables, the
    ancestor chains as a flat ``(hubs, hub_offsets)`` store, and the
    last target set's scatter tables (one slot, swapped whole)."""

    def __init__(self, hq):
        self.lca = FrexpTables(hq)
        chains = [ancestors(hq, v) for v in range(hq.n)]
        self.hub_offsets = np.zeros(hq.n + 1, dtype=np.int64)
        np.cumsum([len(chain) for chain in chains], out=self.hub_offsets[1:])
        self.hubs = np.fromiter(
            (a for chain in chains for a in chain), np.int64, self.hub_offsets[-1]
        )
        self.targets: _TargetTables | None = None

    def target_tables(self, targets: np.ndarray) -> _TargetTables:
        """The set kernel's tables, re-keyed when *targets* change."""
        tables = self.targets
        if tables is None or not np.array_equal(tables.targets, targets):
            tables = _TargetTables(targets, self.hubs, self.hub_offsets)
            self.targets = tables
        return tables


_STATIC: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _static(hq) -> _Static:
    """The oracle state of *hq*, built on first use."""
    state = _STATIC.get(hq)
    if state is None:
        state = _STATIC[hq] = _Static(hq)
    return state


def gather_pairs(
    labels_s: HierarchicalLabelling,
    s: np.ndarray,
    labels_t: HierarchicalLabelling,
    t: np.ndarray,
    k: np.ndarray,
    want_ranks: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``min over i < k[p]`` of ``L_s[s[p]][i] + L_t[t[p]][i]`` per pair.

    The exact-K ragged gather over two flat label stores (the same one
    twice for an undirected index, out/in labels for a directed one):
    pair ``p`` owns ``k[p]`` consecutive cells of one flat run, so both
    sides cost ``sum(k)`` cells and the minimum is one ``reduceat``.
    Returns ``(distances, ranks)`` with ``ranks`` the first minimising
    ``i`` (``argmin``'s tie rule) when *want_ranks*; ``s == t`` answers
    ``0.0`` and, like a pair without a finite sum, rank ``-1``.
    """
    out = np.full(len(k), np.inf, dtype=np.float64)
    ranks = np.full(len(k), -1, dtype=np.int64) if want_ranks else None
    same = s == t
    # Pairs with k == 0 (other component, empty root separator) have no
    # cell to reduce over and keep ``inf``.
    live = np.flatnonzero(k)
    if len(live) < len(k):
        s, t, k = s[live], t[live], k[live]
    ends = np.cumsum(k)
    starts = ends - k
    values_s, values_t = labels_s.values, labels_t.values
    base = labels_s.offsets[s]
    shift = labels_t.offsets[t] - base
    base -= starts
    lo = 0
    while lo < len(live):
        first = starts[lo]
        hi = int(np.searchsorted(ends, first + _PAIR_CHUNK_CELLS, "right"))
        hi = max(lo + 1, hi)
        width = k[lo:hi]
        # Cell ``c`` of pair ``p`` reads ``values[offsets[v] + c - starts[p]]``
        # and ``c - starts[p] < K <= tau(v) + 1`` keeps it inside v's label.
        pos = np.repeat(base[lo:hi], width)
        pos += np.arange(first, ends[hi - 1], dtype=np.int64)
        sums = values_s.take(pos)
        pos += np.repeat(shift[lo:hi], width)
        sums += values_t.take(pos)
        seg = starts[lo:hi] - first
        best = np.minimum.reduceat(sums, seg)
        out[live[lo:hi]] = best
        if want_ranks:
            hit = np.flatnonzero(sums == np.repeat(best, width))
            ranks[live[lo:hi]] = hit[np.searchsorted(hit, seg)] - seg
        lo = hi
    out[same] = 0.0
    if want_ranks:
        ranks[same | np.isinf(out)] = -1
    return out, ranks


def common_ancestors(hq, s, t) -> np.ndarray:
    """:class:`FrexpTables`' K count under
    :func:`repro.labelling.native.engine.common_ancestors`' signature."""
    check_ids(len(hq.tau), s, t)
    return _static(hq).lca.counts(s, t)


def pair_kernel(labels_s, s, labels_t, t, hq, want_ranks=False):
    """:func:`gather_pairs` under
    :func:`repro.labelling.native.engine.gather_pairs`' signature (K
    counted by :func:`common_ancestors`)."""
    k = common_ancestors(hq, s, t)
    return gather_pairs(labels_s, s, labels_t, t, k, want_ranks)


def pair_array_kernel(labels_s, pairs, labels_t, hq, want_ranks=False):
    """:func:`pair_kernel` under
    :func:`repro.labelling.native.engine.gather_pair_array`' signature."""
    return pair_kernel(labels_s, pairs[:, 0], labels_t, pairs[:, 1], hq, want_ranks)


def one_pair(labels_s, labels_t, hq, one, s, t):
    """:func:`pair_kernel` of one pair under
    :func:`repro.labelling.native.engine.gather_one`' signature."""
    one.ids[:] = s, t
    out, ranks = pair_kernel(labels_s, one.ids[:1], labels_t, one.ids[1:], hq, True)
    return float(out[0]), int(ranks[0])


def distance_matrix(labels_s, sources, labels_t, targets, hq) -> np.ndarray:
    """The numpy set kernel under
    :func:`repro.labelling.native.engine.distance_matrix`' signature.

    ``anc(u) ∩ anc(t)`` *is* the common-ancestor prefix and an ancestor
    ``a`` has the same rank ``tau(a)`` on every descendant's chain, so
    the query is ``min over a in anc(u)`` of ``L_u[tau(a)] + M[a, t]``
    with ``M[a, t] = L_t[tau(a)]`` for ``a in anc(t)`` and ``inf``
    elsewhere: one dense block per target set (the "labels to a fixed
    cut" block of Hierarchical Cut Labelling), one ancestor-chain
    gather per source, no LCA — ``sum_u |anc(u) ∩ A| * |T|`` contiguous
    cells instead of ``|U| * |T|`` pair gathers, the target side
    through static H_Q-only tables kept for the last target set
    (:class:`_TargetTables`).
    """
    check_ids(labels_s.num_vertices, sources, targets)
    out = np.full((len(sources), len(targets)), np.inf, dtype=np.float64)
    if not out.size:
        return out
    state = _static(hq)
    tables = state.target_tables(targets)
    values = labels_s.values
    starts = labels_s.offsets
    target = labels_t
    hubs, hub_offsets = state.hubs, state.hub_offsets

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


def shard_batch(labels_s, labels_t, hq, shard, ids, count, fans, use_block):
    """The numpy composition under
    :func:`repro.labelling.native.engine.shard_batch`' signature: the
    pair kernel, the set kernel over the unique endpoints and the
    boundary-route combine. Fan rows come back in ``np.unique`` order,
    not the C kernel's first-mention order; ``rows[fan_inverse]`` is
    the same either way."""
    n = labels_s.num_vertices
    check_ids(n, ids, shard.boundary)
    fan, s, t = np.split(ids, [fans, fans + count])
    boundary = shard.boundary
    block = shard.block if use_block else None
    final = pair_kernel(labels_s, s, labels_t, t, hq)[0]
    ends = fan if block is None else np.concatenate((fan, s, t))
    uniq, inverse = np.unique(ends, return_inverse=True)
    matrix = distance_matrix(labels_s, uniq, labels_t, boundary, hq)
    if block is not None and len(s):
        src = inverse[len(fan) : len(fan) + len(s)]
        dst = inverse[len(fan) + len(s) :]
        final = np.minimum(final, min_plus(matrix, src, block, matrix, dst))
    rows, fan_inverse = np.unique(inverse[: len(fan)], return_inverse=True)
    return final, matrix[rows], fan_inverse


def min_plus(ds, ds_inverse, block, dt, dt_inverse) -> np.ndarray:
    """Pair-wise ``min_{a,b} (ds[p,a] + block[a,b]) + dt[p,b]``, the
    first hop once per row of *ds* that *ds_inverse* names, chunked so
    the 3-D intermediate stays bounded."""
    for inverse, rows in ((ds_inverse, len(ds)), (dt_inverse, len(dt))):
        if len(inverse) and (inverse.min() < 0 or inverse.max() >= rows):
            raise ValueError(f"row map points past the {rows} rows it indexes")
    used, ds_inverse = np.unique(ds_inverse, return_inverse=True)
    ds = ds[used]
    unique_count, width_a = ds.shape
    width_b = dt.shape[1]
    tmp = np.empty((unique_count, width_b), dtype=np.float64)
    chunk = max(1, _MIN_PLUS_CELLS // max(1, width_a * width_b))
    for lo in range(0, unique_count, chunk):
        hi = min(lo + chunk, unique_count)
        tmp[lo:hi] = (ds[lo:hi, :, None] + block[None, :, :]).min(axis=1)
    count = len(ds_inverse)
    out = np.empty(count, dtype=np.float64)
    chunk = max(1, _MIN_PLUS_CELLS // max(1, width_b))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = (tmp[ds_inverse[lo:hi]] + dt[dt_inverse[lo:hi]]).min(axis=1)
    return out
