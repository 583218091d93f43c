"""Flat CSR storage for the weight-independent shortcut hierarchy.

The shortcut *structure* of a contraction hierarchy never changes under
weight updates (structural stability, U1), so it is stored once as a
compressed-sparse-row triple:

* ``indptr``/``indices`` — vertex ``v``'s up-neighbours (shortcut
  partners contracted later) live at
  ``indices[indptr[v] : indptr[v + 1]]``, sorted by contraction rank;
* the weights live beside it in the owning store's single
  ``up_weights`` buffer: one float64 **plane** of ``m`` slots for the
  undirected hierarchy, two for the directed one, the weight *cell* of
  slot ``s`` in plane ``p`` being ``s + m * p`` (the store contract is
  :class:`~repro.hierarchy.contraction.ContractionResult`).

Two derived tables make the maintenance kernels array-native:

* ``slot_keys`` — the globally sorted key ``owner * n + rank[indices]``
  per slot, so a batch of ``(lo, hi)`` pairs resolves to weight slots
  with one :func:`numpy.searchsorted` (no per-pair dict probing);
* the reverse/down CSR (``down_indptr``/``down_indices``/``down_slots``)
  — vertex ``v``'s down-neighbours sorted by vertex id, each carrying
  the up-slot of its shortcut, so Property-3.1 recomputation is a walk
  over down rows and weight gathers: the C shortcut sweep scatters one
  endpoint's rows into slot maps and walks the other's down row once,
  and :meth:`ShortcutCSR.common_down` intersects two down rows.

:func:`build_shortcut_csr` builds the structure alone, from the up-rows
of the symbolic elimination (:func:`~repro.hierarchy.contraction.eliminate`);
the store then fills its weight planes by Algorithm 2. :func:`extend_slots`
and :func:`compact_slots` are the two ways the structure changes after
construction; both permute every weight plane alongside and hand the
result to the store's ``rebind``.

Every id and offset array is ``int32``, narrowed in one place — the
:class:`ShortcutCSR` constructor — so a build, :func:`extend_slots`,
:func:`compact_slots`, a snapshot load and an unpickle all land on it:

==================  =========  ===========================================
array               dtype      items
==================  =========  ===========================================
``rank``            int32      ``n``: contraction rank per vertex
``order``           int32      ``n``: vertices by rank (``rank``'s inverse)
``indptr``          int32      ``n + 1``
``indices``         int32      ``m``: each slot's shallower endpoint
``ranks``           int32      ``m``: ``rank[indices]``
``owners``          int32      ``m``: each slot's deeper endpoint
``slot_keys``       int64      ``m``: ``owners * n + ranks``
``down_indptr``     int32      ``n + 1``
``down_indices``    int32      ``m``
``down_slots``      int32      ``m``
==================  =========  ===========================================

``slot_keys`` stays 8 bytes (``owner * n + rank`` passes 2**31 above
46,341 vertices), and so do the store's ``float64`` weight planes: a
slot costs 20 id bytes, 8 key bytes and 8 bytes per plane. A structure
of 2**31 or more vertices or slots raises
:class:`~repro.exceptions.StoreCapacityError` before anything is
narrowed. Arithmetic that can pass 2**31 — a slot key, a weight cell
``slot + m * plane`` — is done in ``int64``: numpy keeps ``int32 *
int`` in ``int32`` and wraps silently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import StoreCapacityError

__all__ = [
    "ShortcutCSR",
    "build_shortcut_csr",
    "extend_slots",
    "compact_slots",
    "check_capacity",
]

#: The dtype of every id and offset array of the structure.
_ID_DTYPE = np.dtype(np.int32)
_ID_LIMIT = 2**31


def check_capacity(n: int, m: int) -> None:
    """Raise :class:`~repro.exceptions.StoreCapacityError` when *n*
    vertices or *m* slots do not fit the structure's ``int32`` ids."""
    if n >= _ID_LIMIT or m >= _ID_LIMIT:
        raise StoreCapacityError(
            f"a shortcut store of {n} vertices and {m} slots does not fit "
            f"int32 ids (fewer than 2**31 of each)"
        )


def _ids(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=_ID_DTYPE)


class ShortcutCSR:
    """Structure-only CSR of a shortcut hierarchy (weights live outside).

    Attributes
    ----------
    n:
        Vertex count.
    rank / order:
        Contraction rank per vertex and its inverse (vertices, earliest
        contracted first).
    indptr / indices:
        Up-adjacency rows, each sorted by contraction rank.
    ranks:
        ``rank[indices]`` — the low half of ``slot_keys`` and the key
        the shortcut sweep scatters an up row by.
    owners:
        Row owner per slot (``repeat(arange(n), row degrees)``).
    slot_keys:
        ``owners * n + ranks`` — globally ascending, the searchsorted
        key space of :meth:`slots_of`.
    down_indptr / down_indices / down_slots:
        Reverse adjacency: ``down_indices[down_indptr[v]:down_indptr[v+1]]``
        are the vertices contracted before ``v`` that share a shortcut
        with it (ascending vertex id) and ``down_slots`` holds each
        shortcut's up-slot index.
    """

    #: Every array of the structure, in :meth:`memory_bytes` order.
    ARRAYS = (
        "rank",
        "order",
        "indptr",
        "indices",
        "ranks",
        "owners",
        "slot_keys",
        "down_indptr",
        "down_indices",
        "down_slots",
    )

    # Weak references let a store's bound record tell by identity
    # whether it still holds this structure.
    __slots__ = ("n", *ARRAYS, "__weakref__")

    def __init__(
        self,
        n: int,
        rank: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        check_capacity(n, len(indices))
        self.n = n
        self.rank = _ids(rank)
        self.indptr = _ids(indptr)
        self.indices = _ids(indices)
        self.order = np.empty(n, dtype=_ID_DTYPE)
        self.order[self.rank] = np.arange(n, dtype=_ID_DTYPE)
        self.ranks = self.rank[self.indices]
        counts = np.diff(self.indptr)
        self.owners = np.repeat(np.arange(n, dtype=_ID_DTYPE), counts)
        self.slot_keys = self.owners.astype(np.int64) * n + self.ranks
        # Reverse (down) CSR: group slots by the shallow endpoint, order
        # each group by the deep endpoint's vertex id.
        down_order = np.lexsort((self.owners, self.indices))
        self.down_indices = self.owners[down_order]
        self.down_slots = down_order.astype(_ID_DTYPE)
        self.down_indptr = np.zeros(n + 1, dtype=_ID_DTYPE)
        np.cumsum(np.bincount(self.indices, minlength=n), out=self.down_indptr[1:])

    # -- pickling ---------------------------------------------------------
    def __getstate__(self):
        # Derived tables are cheap relative to pickling them; ship only
        # the defining arrays and rebuild on the far side (which narrows
        # an older pickle's int64 arrays).
        return (self.n, self.rank, self.indptr, self.indices)

    def __setstate__(self, state) -> None:
        n, rank, indptr, indices = state
        self.__init__(n, rank, indptr, indices)

    # -- basic shape ------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self.indices)

    def memory_bytes(self) -> int:
        """Bytes held by every array of the structure (``rank`` and
        ``order`` included)."""
        return sum(getattr(self, name).nbytes for name in self.ARRAYS)

    def row_bounds(self, v: int) -> tuple[int, int]:
        return int(self.indptr[v]), int(self.indptr[v + 1])

    def row(self, v: int) -> np.ndarray:
        start, end = self.row_bounds(v)
        return self.indices[start:end]

    def down_row(self, v: int) -> np.ndarray:
        start, end = int(self.down_indptr[v]), int(self.down_indptr[v + 1])
        return self.down_indices[start:end]

    # -- slot resolution --------------------------------------------------
    def slot_of(self, lo: int, hi: int) -> int:
        """Weight slot of shortcut ``(lo, hi)``; raises when absent."""
        key = int(lo) * self.n + int(self.rank[hi])
        slot = int(np.searchsorted(self.slot_keys, key))
        if slot >= len(self.slot_keys) or self.slot_keys[slot] != key:
            raise KeyError(f"no shortcut ({lo}, {hi})")
        return slot

    def find_slot(self, lo: int, hi: int) -> int:
        """Like :meth:`slot_of` but returns -1 when the pair is absent."""
        key = int(lo) * self.n + int(self.rank[hi])
        slot = int(np.searchsorted(self.slot_keys, key))
        if slot >= len(self.slot_keys) or self.slot_keys[slot] != key:
            return -1
        return slot

    def slots_of(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`slot_of` over pair arrays; raises when a pair
        is absent."""
        keys = lo.astype(np.int64, copy=False) * self.n + self.rank[hi]
        slots = np.searchsorted(self.slot_keys, keys)
        # A key past the last clips onto the last, which differs from it.
        if np.count_nonzero(self.slot_keys.take(slots, mode="clip") != keys):
            raise KeyError("a pair has no shortcut slot")
        return slots

    # -- Property 3.1 support ---------------------------------------------
    def common_down(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Aligned up-slots over the common down-neighbourhood of a and b.

        Returns ``(slots_a, slots_b)``: for each shared down-neighbour
        ``x`` (a vertex contracted before both), the slots of shortcuts
        ``(x, a)`` and ``(x, b)``. Runs as a sorted intersection of the
        two down rows. The slots come back as ``int64``, so a caller
        may add a plane offset to them.
        """
        sa, ea = int(self.down_indptr[a]), int(self.down_indptr[a + 1])
        sb, eb = int(self.down_indptr[b]), int(self.down_indptr[b + 1])
        xs_a = self.down_indices[sa:ea]
        xs_b = self.down_indices[sb:eb]
        _, ia, ib = np.intersect1d(
            xs_a, xs_b, assume_unique=True, return_indices=True
        )
        slots = self.down_slots
        return slots[sa + ia].astype(np.int64), slots[sb + ib].astype(np.int64)


def build_shortcut_csr(rows: Sequence[Iterable[int]], rank: np.ndarray) -> ShortcutCSR:
    """Build a :class:`ShortcutCSR` from rows.

    ``rows[v]`` holds vertex ``v``'s up-neighbours in any order (any
    sized iterable); each row is sorted by contraction rank. The
    structure carries no weights: a store fills its ``up_weights``
    beside it.
    """
    n = len(rows)
    rank = np.asarray(rank, dtype=np.int64)
    counts = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    m = int(counts.sum())
    check_capacity(n, m)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(
        (u for row in rows for u in row), dtype=np.int64, count=m
    )
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((rank[indices], owners))
    return ShortcutCSR(n, rank, indptr, indices[order])


def _counts_to_indptr(owners: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr


def extend_slots(store, new_lo: np.ndarray, new_hi: np.ndarray) -> None:
    """Grow *store* with new ``(lo, hi)`` slots (structural insertion).

    ``slot_keys`` must stay globally sorted for the searchsorted slot
    resolution, so growth is a sorted merge of the existing slots with
    the (deduplicated, previously absent) new pairs — one O(m + k)
    rebuild per *batch* of k slots, which is how the growth cost
    amortises: the insertion fast path collects a whole batch's closure
    before calling this once.

    Every weight plane is permuted alongside, with ``inf`` ("allocated
    but not yet relaxed") at the new slots.
    """
    new_lo = np.asarray(new_lo, dtype=np.int64)
    new_hi = np.asarray(new_hi, dtype=np.int64)
    k = len(new_lo)
    if k == 0:
        return
    csr = store.csr
    n = csr.n
    check_capacity(n, csr.num_slots + k)
    new_keys = new_lo * np.int64(n) + csr.rank[new_hi]
    if len(np.unique(new_keys)) != k:
        raise ValueError("extend_slots: duplicate pairs in batch")
    hit = np.searchsorted(csr.slot_keys, new_keys)
    hit = np.minimum(hit, max(len(csr.slot_keys) - 1, 0))
    if len(csr.slot_keys) and np.any(csr.slot_keys[hit] == new_keys):
        raise ValueError("extend_slots: pair already allocated")
    order = np.argsort(
        np.concatenate([csr.slot_keys, new_keys]), kind="stable"
    )
    indices = np.concatenate([csr.indices, new_hi])[order]
    owners = np.concatenate([csr.owners, new_lo])[order]
    planes = store.up_weights.reshape(store.planes, csr.num_slots)
    grown = np.concatenate(
        [planes, np.full((store.planes, k), np.inf)], axis=1
    )[:, order]
    store.rebind(
        ShortcutCSR(n, csr.rank, _counts_to_indptr(owners, n), indices),
        grown.ravel(),
    )


def compact_slots(store, keep: np.ndarray) -> None:
    """Drop the slots of *store* where *keep* is False (dead shortcuts).

    Surviving slots keep their relative order, so rows stay rank-sorted
    and ``slot_keys`` stays globally ascending; all derived tables are
    rebuilt by the :class:`ShortcutCSR` constructor, and every weight
    plane loses the same slots.
    """
    keep = np.asarray(keep, dtype=bool)
    csr = store.csr
    planes = store.up_weights.reshape(store.planes, csr.num_slots)
    store.rebind(
        ShortcutCSR(
            csr.n,
            csr.rank,
            _counts_to_indptr(csr.owners[keep], csr.n),
            csr.indices[keep],
        ),
        planes[:, keep].ravel(),
    )
