"""Shard-routed query kernel for the sharded index.

:class:`BatchSplit` cuts a pair batch, in whole-array steps, into at
most one sub-query per shard: its **intra pairs** and its **fan**, every
cross-pair endpoint it owns, sources and targets together.

:func:`shard_batch` answers one sub-query — a replica's whole compute
step (:class:`~repro.service.workers.ShardExecutor`), this engine's
per-shard step and the shard runtime's degraded overlay answer alike.
Intra pairs get the pair kernel's answer, lowered by the boundary route
``min over (b1, b2) of d_shard(s, b1) + d_overlay(b1, b2) + d_shard(b2,
t)`` through the shard's own overlay block (a shortest path may leave
and re-enter its region); the fan comes back as its distinct rows
against the shard's boundary plus each entry's row, all in one C call.

The parent answers each cross region pair ``(i, j)`` with one
:func:`min_plus_compact` over the two shards' fans and the overlay block
``(i, j)``, a slice of one all-boundary overlay matrix computed once per
overlay maintenance epoch. A cross pair has a route only when both
regions have boundary vertices (else ``inf``).
"""

from __future__ import annotations

import numpy as np

from repro.labelling.native import engine as native_engine
from repro.utils.pairs import as_pair_array, check_ids

__all__ = [
    "BatchSplit",
    "ShardedQueryEngine",
    "min_plus_compact",
    "shard_batch",
]

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


def _local_ids(ids) -> np.ndarray:
    """*ids* as a flat int64 array (``None``: no ids)."""
    if ids is None:
        return _NO_IDS
    ids = native_engine.operand(ids, np.int64)
    if ids.ndim != 1:
        raise ValueError(f"local ids must be one-dimensional, got {ids.shape}")
    return ids


def shard_batch(engine, boundary, s=None, t=None, fan=None, block=None):
    """One shard's share of a batch: ``(final, fan_matrix, fan_inverse)``.

    *engine* is the shard's :class:`~repro.labelling.query.QueryEngine`
    and *boundary* its boundary vertices, both in shard-local ids, like
    the intra pairs *s* / *t* and the cross-pair endpoints *fan*
    (``None``: none). ``final`` answers the intra pairs, lowered by the
    boundary route through *block* (the shard's own ``|B| x |B|``
    overlay block) when one is given. ``fan_matrix`` holds the fan's
    distinct rows against *boundary* and ``fan_inverse[e]`` is the row
    of ``fan[e]``. The first hop of the route runs once per distinct
    source row, never for a target's.

    An id outside ``[0, n)`` raises
    :class:`~repro.exceptions.VertexNotFound`; mismatched pair arrays
    or a block of the wrong shape raise :class:`ValueError`.
    """
    s, t, fan, boundary = map(_local_ids, (s, t, fan, boundary))
    width = len(boundary)
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} sources, {len(t)} targets")
    check_ids(engine.hq.n, s, t, fan, boundary)
    if block is not None:
        block = native_engine.operand(block, np.float64)
        if block.shape != (width, width):
            raise ValueError(
                f"overlay block is {block.shape}, the boundary has {width} vertices"
            )
    return native_engine.shard_batch(
        engine.labels,
        engine.target_labels,
        engine.kernel_tables(),
        boundary,
        block,
        s,
        t,
        fan,
    )


def min_plus_compact(
    ds: np.ndarray,
    ds_inverse: np.ndarray,
    block: np.ndarray,
    dt: np.ndarray,
    dt_inverse: np.ndarray,
) -> np.ndarray:
    """Pair-wise ``min_{a,b} (ds[p,a] + block[a,b]) + dt[p,b]`` over
    deduplicated fans.

    The boundary-route combine: ``ds``/``dt`` are fan matrices with
    their row maps, ``block`` the overlay boundary-to-boundary matrix.
    The expensive first hop — ``min_a ds[u, a] + block[a, b]`` — runs
    once per row of *ds* that *ds_inverse* names (never for a row only
    a target uses), then the cheap second hop gathers through the row
    maps, both in one C loop
    (:func:`repro.labelling.native.engine.min_plus`). Operands of any
    layout are copied to what the kernel reads; a row map entry outside
    its matrix raises :class:`ValueError`.
    """
    operand = native_engine.operand
    return native_engine.min_plus(
        operand(ds, np.float64),
        operand(ds_inverse, np.int64),
        operand(block, np.float64),
        operand(dt, np.float64),
        operand(dt_inverse, np.int64),
    )


class BatchSplit:
    """A pair batch cut into at most one sub-query per shard.

    Every pair puts a source entry into its source shard and a target
    entry into its target shard; one stable sort over the entries' group
    keys lays each shard's entries out as one run: its cross sources by
    target region, its cross targets by source region, then its intra
    sources and intra targets. The sort keeps batch order within a
    group, so a region pair's sources and targets line up, and so do an
    intra pair's two ends.

    ``subs`` maps each shard the batch needs to its ``(s, t, fan,
    block)`` sub-query in local ids, ``block`` being its own overlay
    block when its intra pairs have a boundary route (else ``None``);
    ``intra`` maps it to the positions its finals answer. ``routes``
    lists each routed cross region pair as ``(i, j, positions, src,
    dst)``: where its sources start in shard i's fan, its targets in
    shard j's.
    """

    def __init__(self, owner, s: np.ndarray, t: np.ndarray):
        self.owner = owner
        k, m = owner.k, len(s)
        rs, rt = owner.region_of[s], owner.region_of[t]
        #: Shards with a boundary route: an overlay and boundary vertices.
        self.routed = np.array(
            [owner.overlay is not None and len(b) > 0 for b in owner.boundary_local]
        )
        intra = rs == rt
        self.self_pairs = s == t
        self.intra_pairs = int(np.count_nonzero(intra))
        self.cross_pairs = m - self.intra_pairs
        # Group key: shard * width + (target region | k + source region |
        # 2k for an intra source | 2k + 1 for an intra target). A cross
        # pair without a route goes to one group past every shard's.
        width = 2 * k + 2
        key = np.empty(2 * m, dtype=np.int64)
        np.add(rs * width, np.where(intra, 2 * k, rt), out=key[:m])
        np.add(rt * width, np.where(intra, 2 * k + 1, rs + k), out=key[m:])
        if not self.routed.all():
            lost = ~intra & ~(self.routed[rs] & self.routed[rt])
            key[:m][lost] = key[m:][lost] = k * width
        # Small keys take numpy's radix sort.
        order = np.argsort(key.astype(np.min_scalar_type(k * width)), kind="stable")
        local = np.concatenate((owner.local_of[s], owner.local_of[t]))[order]
        bounds = np.zeros(k * width + 2, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=k * width + 1), out=bounds[1:])
        bounds = bounds.tolist()
        self.subs: dict[int, tuple] = {}
        self.intra: dict[int, np.ndarray] = {}
        for sid in range(k):
            fan = bounds[sid * width]
            lo, mid, hi = bounds[sid * width + 2 * k : sid * width + 2 * k + 3]
            if fan < hi:
                block = None
                if mid > lo and self.routed[sid]:
                    block = owner.engine.overlay_block(sid, sid)
                self.intra[sid] = order[lo:mid]
                self.subs[sid] = (local[lo:mid], local[mid:hi], local[fan:lo], block)
        self.routes = [
            (
                i,
                j,
                order[bounds[i * width + j] : bounds[i * width + j + 1]],
                bounds[i * width + j] - bounds[i * width],
                bounds[j * width + k + i] - bounds[j * width],
            )
            for i in range(k)
            for j in range(k)
            if i != j and bounds[i * width + j] < bounds[i * width + j + 1]
        ]

    def answer(self, results: dict) -> np.ndarray:
        """The batch's distances from *results*, which maps a shard id to
        its :func:`shard_batch` triple: each shard's finals on its intra
        positions, one :func:`min_plus_compact` per route whose two shards
        both answered, ``inf`` for what a missing shard was needed for,
        ``0.0`` on self-pairs."""
        owner = self.owner
        out = np.full(len(self.self_pairs), np.inf, dtype=np.float64)
        for sid, at in self.intra.items():
            if sid in results:
                out[at] = results[sid][0]
        for i, j, positions, src, dst in self.routes:
            if i in results and j in results:
                _, ds, ds_inverse = results[i]
                _, dt, dt_inverse = results[j]
                out[positions] = min_plus_compact(
                    ds,
                    ds_inverse[src : src + len(positions)],
                    owner.engine.overlay_block(i, j),
                    dt,
                    dt_inverse[dst : dst + len(positions)],
                )
        out[self.self_pairs] = 0.0
        return out

    def route_only(self, sid: int):
        """Shard *sid*'s triple from the owner's own shard engine with the
        boundary route alone (the direct intra path is skipped): exact
        for its cross pairs, an upper bound for its intra pairs. The
        shard runtime's answer for a shard with no replica left."""
        owner, (s, t, fan, _) = self.owner, self.subs[sid]
        _, matrix, inverse = shard_batch(
            owner.shards[sid].engine,
            owner.boundary_local[sid],
            fan=np.concatenate((fan, s, t)),
        )
        fan_rows, src, dst = np.split(inverse, [len(fan), len(fan) + len(s)])
        block = owner.engine.overlay_block(sid, sid)
        route = min_plus_compact(matrix, src, block, matrix, dst)
        return route, matrix, fan_rows


class ShardedQueryEngine:
    """Distance oracle routing between region shards and the overlay."""

    def __init__(self, owner):
        # ``owner`` is the ShardedDHLIndex; the engine reads its shard
        # list, overlay index and id-mapping arrays but owns no state
        # beyond the cached overlay matrix: ``(epoch, matrix, bounds)``,
        # swapped whole.
        self.owner = owner
        self._overlay_matrix: tuple[int, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # overlay boundary-to-boundary blocks
    # ------------------------------------------------------------------
    def overlay_block(self, i: int, j: int) -> np.ndarray:
        """``(|B_i|, |B_j|)`` overlay distances, a view of one matrix.

        The all-boundary overlay matrix is computed by one set-kernel
        call per overlay epoch, its rows and columns ordered region by
        region so every block is a plain slice. Public because the
        shard runtime ships a shard its own block and combines the
        cross region pairs in the parent.
        """
        owner = self.owner
        overlay = owner.overlay
        cached = self._overlay_matrix
        if cached is None or cached[0] != overlay.epoch:
            order = np.concatenate(owner.boundary_overlay)
            bounds = np.zeros(owner.k + 1, dtype=np.int64)
            np.cumsum([len(b) for b in owner.boundary_overlay], out=bounds[1:])
            cached = (
                overlay.epoch,
                overlay.engine.distance_matrix(order, order),
                bounds,
            )
            self._overlay_matrix = cached
        _, matrix, bounds = cached
        return matrix[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances over parallel global-id arrays; an id outside
        ``[0, n)`` raises :class:`~repro.exceptions.VertexNotFound`."""
        owner = self.owner
        s = np.asarray(s, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        check_ids(owner.graph.num_vertices, s, t)
        split = BatchSplit(owner, s, t)
        return split.answer(
            {
                sid: shard_batch(
                    owner.shards[sid].engine, owner.boundary_local[sid], *sub
                )
                for sid, sub in split.subs.items()
            }
        )

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for global-id pairs: an ``(m, 2)`` integer
        array or any iterable of ``(s, t)``."""
        arr = as_pair_array(pairs)
        return self.distances_arrays(arr[:, 0], arr[:, 1])

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        return float(self.distances_arrays(np.array([s]), np.array([t]))[0])

    def search_space_size(self, s: int, t: int) -> int:
        """Label entries a pair inspects (shard fans + overlay block)."""
        owner = self.owner
        check_ids(owner.graph.num_vertices, np.array([s, t], dtype=np.int64))
        i = int(owner.region_of[s])
        j = int(owner.region_of[t])
        size = 0
        if i == j:
            size += owner.shards[i].engine.search_space_size(
                int(owner.local_of[s]), int(owner.local_of[t])
            )
        size += len(owner.boundary_local[i]) + len(owner.boundary_local[j])
        return size

    def invalidate_blocks(self) -> None:
        """Drop the cached overlay matrix (called after overlay maintenance)."""
        self._overlay_matrix = None

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        cached = self._overlay_matrix
        cells = cached[1].size if cached is not None else 0
        return f"ShardedQueryEngine(k={self.owner.k}, cached_overlay_cells={cells})"
