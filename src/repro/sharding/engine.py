"""Shard-routed query kernel for the sharded index.

:class:`BatchSplit` cuts a pair batch into at most one sub-query per
shard — its **intra pairs** and its **fan**, every cross-pair endpoint
it owns, sources and targets together — in one C pass
(``dhl_batch_split``), and :meth:`BatchSplit.answer` combines the
shards' answers in one C call (``dhl_batch_answer``).

:func:`sub_query` answers one sub-query — a replica's whole compute
step (:class:`~repro.service.workers.ShardExecutor`) and this engine's
per-shard step alike. Intra pairs get the pair kernel's answer, lowered
by the boundary route ``min over (b1, b2) of d_shard(s, b1) +
d_overlay(b1, b2) + d_shard(b2, t)`` through the shard's own overlay
block (a shortest path may leave and re-enter its region); the fan
comes back as its distinct rows against the shard's boundary plus each
entry's row, all in one C call (``dhl_shard_batch``).

The parent answers each cross region pair ``(i, j)`` with the min-plus
combine over the two shards' fans and the overlay block ``(i, j)``, a
block of one all-boundary overlay matrix computed once per overlay
maintenance epoch. A cross pair has a route only when both regions
have boundary vertices (else ``inf``).

The split, the combine and the in-process sub-queries read the index
through one bound :class:`Routing` state: ``region_of``, ``local_of``,
each shard's routed flag and boundary (a
:class:`~repro.labelling.native.engine.ShardRoute` whose block is a view
of the overlay matrix) and that matrix, bound again whenever the index
holds another of those arrays or the overlay epoch moves.
"""

from __future__ import annotations

from operator import index

import numpy as np

from repro.labelling.native import engine as native_engine
from repro.labelling.native.engine import ShardRoute
from repro.utils.pairs import as_ids, as_pair_array, check_ids

__all__ = [
    "BatchSplit",
    "Routing",
    "ShardedQueryEngine",
    "sub_query",
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


def sub_query(engine, shard: ShardRoute, s=None, t=None, fan=None, use_block=False):
    """One sub-query on *shard*'s bound boundary (and its block, with
    *use_block*): ``(final, fan_matrix, fan_inverse)``. *engine* is the
    shard's :class:`~repro.labelling.query.QueryEngine`; the intra pairs
    *s* / *t* and the cross-pair endpoints *fan* (``None``: none) are
    shard-local ids, and travel to the kernel as one int64 operand.
    ``final`` answers the intra pairs, lowered by the boundary route
    through the block when it is used; ``fan_matrix`` holds the fan's
    distinct rows against the boundary and ``fan_inverse[e]`` is the row
    of ``fan[e]``. An id outside ``[0, n)`` raises
    :class:`~repro.exceptions.VertexNotFound` and mismatched pair arrays
    :class:`ValueError`."""
    s, t, fan = _local_ids(s), _local_ids(t), _local_ids(fan)
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} sources, {len(t)} targets")
    return native_engine.shard_batch(
        engine.labels,
        engine.target_labels,
        engine.hq,
        shard,
        np.concatenate((fan, s, t)),
        len(s),
        len(fan),
        use_block,
    )


class Routing:
    """The sharded index's routing state, as the split and the combine
    read it through one record (``ROUTE_RECORD``).

    ``region_of`` / ``local_of`` over the index's ``n`` vertices, the
    ``k`` shards' ``routed`` flags (an overlay and boundary vertices)
    and boundary ``widths``, the overlay ``matrix`` of one overlay
    epoch (``None`` without an overlay) with its region ``bounds``, and
    one :class:`~repro.labelling.native.engine.ShardRoute` a shard
    whose block is a view of that matrix. Made by
    :meth:`ShardedQueryEngine.routing`, which makes a new one whenever
    :meth:`holds` says the index holds other arrays.
    """

    __slots__ = (
        "n",
        "k",
        "region_of",
        "local_of",
        "routed",
        "widths",
        "matrix",
        "bounds",
        "shards",
        "_bound",
        "_sources",
    )

    def __init__(self, owner, matrix: np.ndarray | None):
        boundary_local = owner.boundary_local
        self._sources = (owner.region_of, owner.local_of, boundary_local, matrix)
        self.n, self.k = len(owner.region_of), owner.k
        self.region_of = native_engine.operand(owner.region_of, np.int64)
        self.local_of = native_engine.operand(owner.local_of, np.int64)
        self.widths = [len(b) for b in boundary_local]
        self.routed = np.array(
            [matrix is not None and width > 0 for width in self.widths],
            dtype=np.int64,
        )
        self.bounds = np.zeros(self.k + 1, dtype=np.int64)
        np.cumsum(self.widths, out=self.bounds[1:])
        self.matrix = matrix
        self.shards = [
            ShardRoute(
                native_engine.operand(boundary, np.int64),
                self.block(sid, sid) if routed else None,
            )
            for sid, (boundary, routed) in enumerate(
                zip(boundary_local, self.routed.tolist())
            )
        ]
        self._bound = native_engine.bind_route(
            self.n,
            self.k,
            self.region_of,
            self.local_of,
            self.routed,
            self.bounds,
            matrix,
        )

    @property
    def address(self) -> int:
        """The routing record's address."""
        return self._bound.address

    def holds(self, owner, matrix: np.ndarray | None) -> bool:
        """Whether *owner* still holds the arrays this state was made
        from and *matrix* is the overlay matrix it binds."""
        region_of, local_of, boundary_local, held = self._sources
        return (
            region_of is owner.region_of
            and local_of is owner.local_of
            and boundary_local is owner.boundary_local
            and held is matrix
        )

    def block(self, i: int, j: int) -> np.ndarray:
        """The overlay block ``(i, j)``: a view of the matrix."""
        bounds = self.bounds
        return self.matrix[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]


class BatchSplit:
    """A pair batch cut into at most one sub-query per shard.

    Every pair puts a source entry into its source shard and a target
    entry into its target shard; one stable counting sort over the
    entries' group keys (``dhl_batch_split``) lays each shard's entries
    out as one run: its cross sources by target region, its cross
    targets by source region, then its intra sources and intra targets.
    The sort keeps batch order within a group, so a region pair's
    sources and targets line up, and so do an intra pair's two ends.

    *s* / *t* are parallel global-id arrays, or *s* alone an ``(m, 2)``
    pair array. ``subs`` maps each shard the batch needs to its ``(s,
    t, fan, block)`` sub-query in local ids, ``block`` being its own
    overlay block when its intra pairs have a boundary route (else
    ``None``); ``intra`` maps it to the positions its finals answer.
    ``routes`` lists each routed cross region pair as ``(i, j,
    positions, src, dst)``: where its sources start in shard i's fan,
    its targets in shard j's. An id outside ``[0, n)`` raises
    :class:`~repro.exceptions.VertexNotFound`.
    """

    def __init__(self, owner, s: np.ndarray, t: np.ndarray | None = None):
        self.owner = owner
        if t is not None:
            s = np.stack((_local_ids(s), _local_ids(t)), axis=1)
        self.pairs = pairs = native_engine.operand(as_pair_array(s), np.int64)
        self.routing = routing = owner.engine.routing()
        self.arena, self.intra_pairs = native_engine.batch_split(routing, pairs)
        m, k = len(pairs), owner.k
        self.cross_pairs = m - self.intra_pairs
        self.order = order = self.arena[: 2 * m]
        self.local = local = self.arena[2 * m : 4 * m]
        self.bounds = bounds = self.arena[4 * m :].tolist()
        width = 2 * k + 2
        self.subs: dict[int, tuple] = {}
        self.intra: dict[int, np.ndarray] = {}
        #: Each sub-query's entries ``fan | s | t`` as one run of
        #: ``local``: ``(fan, lo, mid, hi)``.
        self.spans: dict[int, tuple[int, int, int, int]] = {}
        for sid, shard in enumerate(routing.shards):
            fan = bounds[sid * width]
            lo, mid, hi = bounds[sid * width + 2 * k : sid * width + 2 * k + 3]
            if fan < hi:
                block = shard.block if mid > lo else None
                self.intra[sid] = order[lo:mid]
                self.subs[sid] = (local[lo:mid], local[mid:hi], local[fan:lo], block)
                self.spans[sid] = (fan, lo, mid, hi)

    @property
    def self_pairs(self) -> np.ndarray:
        """Each pair's ``s == t``."""
        return self.pairs[:, 0] == self.pairs[:, 1]

    @property
    def routes(self) -> list[tuple]:
        k, bounds, order = self.owner.k, self.bounds, self.order
        width = 2 * k + 2
        return [
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
        its :func:`sub_query` triple: each shard's finals on its intra
        positions, the min-plus combine per route whose two shards both
        answered, ``inf`` for what a missing shard was needed for,
        ``0.0`` on self-pairs — one C call over the bound routing state."""
        return native_engine.batch_answer(self.routing, self.pairs, self.arena, results)


class ShardedQueryEngine:
    """Distance oracle routing between region shards and the overlay."""

    def __init__(self, owner):
        # ``owner`` is the ShardedDHLIndex; the engine reads its shard
        # list, overlay index and id-mapping arrays but owns no state
        # beyond the cached overlay matrix, ``(epoch, matrix, bounds)``
        # swapped whole, and the routing state bound over it.
        self.owner = owner
        self._overlay_matrix: tuple[int, np.ndarray, np.ndarray] | None = None
        self._routing: Routing | None = None

    def __getstate__(self):
        """Everything but the routing state: it holds this process's
        addresses and is bound again at the first query."""
        return {**self.__dict__, "_routing": None}

    # ------------------------------------------------------------------
    # overlay boundary-to-boundary blocks
    # ------------------------------------------------------------------
    def _matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The all-boundary overlay matrix of the current overlay epoch
        and its region bounds: one set-kernel call per epoch, rows and
        columns ordered region by region so every block is a slice."""
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
        return cached[1], cached[2]

    def overlay_block(self, i: int, j: int) -> np.ndarray:
        """``(|B_i|, |B_j|)`` overlay distances, a view of one matrix.

        Public because the shard runtime ships a shard its own block
        and combines the cross region pairs in the parent.
        """
        matrix, bounds = self._matrix()
        return matrix[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

    def routing(self) -> Routing:
        """The bound :class:`Routing` state of the index as it is now:
        made again when the overlay epoch moved or the index holds
        another ``region_of``, ``local_of`` or boundary list."""
        owner = self.owner
        matrix = None if owner.overlay is None else self._matrix()[0]
        routing = self._routing
        if routing is None or not routing.holds(owner, matrix):
            routing = self._routing = Routing(owner, matrix)
        return routing

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _answer(self, split: BatchSplit) -> np.ndarray:
        """Each sub-query of *split* on its shard's engine and bound
        route (its ids one run of the split's ``local``), then the
        combine."""
        shards, routes = self.owner.shards, split.routing.shards
        local = split.local
        results = {}
        for sid, (fan, lo, mid, hi) in split.spans.items():
            engine = shards[sid].engine
            results[sid] = native_engine.shard_batch(
                engine.labels,
                engine.target_labels,
                engine.hq,
                routes[sid],
                local[fan:hi],
                mid - lo,
                lo - fan,
                split.subs[sid][3] is not None,
            )
        return split.answer(results)

    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances over parallel global-id arrays
        (:func:`~repro.utils.pairs.as_ids`); an id outside ``[0, n)``
        raises :class:`~repro.exceptions.VertexNotFound`."""
        return self._answer(BatchSplit(self.owner, as_ids(s), as_ids(t)))

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for global-id pairs: an ``(m, 2)`` integer
        array or any iterable of ``(s, t)``."""
        return self._answer(BatchSplit(self.owner, pairs))

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        pair = np.array([[index(s), index(t)]], dtype=np.int64)
        return float(self._answer(BatchSplit(self.owner, pair))[0])

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
        """Drop the cached overlay matrix (called after overlay
        maintenance); the routing state binds the next one."""
        self._overlay_matrix = None

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        cached = self._overlay_matrix
        cells = cached[1].size if cached is not None else 0
        return f"ShardedQueryEngine(k={self.owner.k}, cached_overlay_cells={cells})"
