"""The validating wrappers over the C kernels: sweeps, queries, build.

Each wrapper unpacks the store's flat buffers, checks dtype,
C-contiguity, alignment and length of every one in Python, and hands
the work to a single loop of ``dhl_kernels.c``; the sweeps write the
caller's marks and touched lists
(:func:`~repro.labelling.maintenance.cell_marks` /
:func:`~repro.labelling.maintenance.entry_marks`) and the label sweep
runs its own seed phase, while the shortcut seeds and the stats are
the shared driver's (:mod:`repro.labelling.driver`). Vertex
ids are range-checked by the callers (``QueryEngine``'s entry points,
:func:`repro.sharding.engine.shard_batch`, the driver's batch
validation) before they reach a wrapper, and the label
sweep's slots are cells the shortcut sweep listed;
:func:`min_plus` checks its row maps itself. :func:`operand` is how a
caller meets the checks with any array-like, copying only what is not
a fit already.

Buffer addresses are read on every call: the label and weight stores
re-allocate (``extend_label``, ``ensure_writable``, ``rebind``,
compaction, a shared-memory republish) and an unpickled engine has new
arrays throughout, so no store address is kept anywhere. Every array
stays referenced by the calling frame until the C function returns.
The one exception is the service's result-cache table
(:class:`PairTable`): its columns never move, so their addresses are
checked and kept once, when the table is made.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.native import library

__all__ = [
    "CACHE_HEADER",
    "PairTable",
    "cache_fill",
    "cache_get",
    "cache_probe",
    "cache_put",
    "common_ancestors",
    "distance_matrix",
    "gather_pairs",
    "label_build",
    "label_sweep",
    "min_plus",
    "operand",
    "shard_batch",
    "shortcut_sweep",
]

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U64 = np.dtype(np.uint64)
_U8 = np.dtype(np.uint8)


def operand(arr, dtype) -> np.ndarray:
    """*arr* as an aligned C-contiguous *dtype* array, copied only when
    it is not one: a buffer decoded from a frame may start at any byte,
    and vectorised C loops assume natural alignment."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr if arr.flags.aligned else arr.copy()


def _addr(arr: np.ndarray, dtype: np.dtype, length: int, write: bool = False) -> int:
    """Address of *arr* once it is what the C side assumes it is."""
    if (
        arr.dtype != dtype
        or not arr.flags.c_contiguous
        or not arr.flags.aligned
        or arr.size != length
        or (write and not arr.flags.writeable)
    ):
        raise TypeError(
            f"native kernel needs a {'writable ' if write else ''}aligned "
            f"C-contiguous {dtype} buffer of {length} items; got {arr.dtype} "
            f"x {arr.size}, contiguous={arr.flags.c_contiguous}, "
            f"aligned={arr.flags.aligned}, writable={arr.flags.writeable}"
        )
    return arr.ctypes.data


def _label_addrs(values, offsets, n: int, write: bool = False) -> tuple[int, int]:
    """Addresses of a flat label store over *n* vertices whose value
    buffer covers every slot. The caller holds both arrays: the store
    may swap either for a new one at any time."""
    if len(offsets) != n + 1 or offsets[n] > values.size:
        raise ValueError("label offsets do not match the value buffer")
    return (
        _addr(values, _F64, values.size, write),
        _addr(offsets, _I64, n + 1),
    )


def _csr_rows(csr) -> tuple[int, int]:
    return (
        _addr(csr.indptr, _I64, csr.n + 1),
        _addr(csr.indices, _I64, csr.num_slots),
    )


def _csr_up(csr) -> tuple[int, ...]:
    m = csr.num_slots
    return (*_csr_rows(csr), _addr(csr.ranks, _I64, m), _addr(csr.owners, _I64, m))


def _csr_down(csr) -> tuple[int, ...]:
    m, n = csr.num_slots, csr.n
    return (
        _addr(csr.down_indptr, _I64, n + 1),
        _addr(csr.down_indices, _I64, m),
        _addr(csr.down_slots, _I64, m),
    )


def _checked(status: int) -> int:
    if status < 0:
        raise MemoryError("native kernel could not allocate its heap")
    return status


def _cell_marks(marks, cells: int) -> tuple[int, ...]:
    """Addresses of :func:`~repro.labelling.maintenance.cell_marks`."""
    changed, first_old, touched, count = marks
    return (
        _addr(changed, _U8, cells, write=True),
        _addr(first_old, _F64, cells, write=True),
        _addr(touched, _I64, cells, write=True),
        _addr(count, _I64, 1, write=True),
    )


def _entry_marks(marks, positions: int, n: int) -> tuple[int, ...]:
    """Addresses of :func:`~repro.labelling.maintenance.entry_marks`."""
    changed, touched, vertex_marks, touched_vertices, count = marks
    return (
        _addr(changed, _U8, positions, write=True),
        _addr(touched, _I64, positions, write=True),
        _addr(vertex_marks, _U8, n, write=True),
        _addr(touched_vertices, _I64, n, write=True),
        _addr(count, _I64, 2, write=True),
    )


# ---------------------------------------------------------------------------
# the two sweeps
# ---------------------------------------------------------------------------
#
# The contract of the two fixpoint sweeps (their Python oracles in the
# test suite hold it too, so either can run under the driver).
#
# The shortcut sweep takes a whole *store*
# (:class:`~repro.hierarchy.contraction.ContractionResult`: ``csr`` of
# ``m`` slots, ``planes`` weight planes in one flat ``up_weights``)
# and works on weight **cells** ``slot + m * plane``. Two rules make
# one sweep serve one plane or two. A triangle through owner ``v``
# from cell ``(v, w, plane)`` reads its second leg ``(v, o)`` from
# the opposite plane, ``leg + m * (planes - 1 - plane)``, and lands on
# pair ``(w, o)`` in plane ``(rank[o] > rank[w]) xor plane``. Property
# 3.1 for that cell is ``direct[cell]`` min-combined, over the common
# down-neighbours ``x``, with ``W[(x, v) + m * (planes - 1 - plane)] +
# W[(x, w) + m * plane]``. With one plane every offset is zero.
#
# The label sweep takes one plane at a time, shaped like a one-plane
# store (``csr``, that plane's ``up_weights``, ``tau``), and *labels*,
# a flat :class:`~repro.labelling.labels.HierarchicalLabelling`.
# Sweeps never touch the graph.
#
# **The invariant** both sweeps hold:
#
# * Pop order: a cell pops after every cell of a deeper owner, a
#   vertex after all its ancestors; each item pops at most once.
# * Seeds only read and queue. A raised change flags as *suspect*
#   each dependent whose pre-batch value it realised; a lowered change
#   queues what it may lower.
# * Every write is either a suspect's recompute at its pop (Property
#   3.1, or Algorithm 5's recompute) from witnesses that are already
#   final, or a relaxation ``min(current, a + b)`` where ``a`` and
#   ``b`` are each final or never suspect.
# * Relaxations skip suspects (the recompute covers them), and no
#   prune reads a suspect: a label relaxation through a lowered slot
#   ``(lo, hi)`` runs at ``lo``'s pop, when row ``hi`` is final.
# * Tightness tests compare pre-batch operands: a rewritten cell's
#   ``first_old``, a changed slot's pre-batch weight. An item the
#   batch has already lowered never turns suspect: relaxations bring
#   it to its final value.
#
# So a one-kind batch writes what Algorithm 2/4 or 3/5 alone writes,
# and in a mixed batch each moved cell and entry is written, and
# counted, once.
#
# Each sweep records its writes in the caller's fresh *marks* and
# hands back what it touched, so the driver reads lists, never a
# store-sized array: :func:`~repro.labelling.maintenance.cell_marks`
# ``(changed, first_old, touched, count)`` keep each written cell's
# pre-batch weight and list it once;
# :func:`~repro.labelling.maintenance.entry_marks` ``(changed, touched,
# vertex_marks, touched_vertices, count)`` list each changed label
# position once and each vertex on its first changed entry
# (``count[1]``). The label sweep reads its own ``changed`` marks as
# the queue of lowered entries.
#
# * ``shortcut_sweep(store, raised, lowered, direct, marks)`` —
#   Algorithms 2 and 3 from the *raised* (suspect) and *lowered* seed
#   cells; ``direct`` holds each cell's direct edge (arc) weight, inf
#   without one, already the batch's. Returns True as soon as a
#   *finite* candidate targets a pair that compaction removed: the
#   store has no slot to absorb it and the driver hands over to the
#   rebuild fallback.
# * ``label_sweep(store, labels, slots, slot_marks, marks)`` —
#   Algorithms 4 and 5 for the changed shortcut *slots* of the plane,
#   seed phase included; *slot_marks* are the plane's ``(changed,
#   first_old)`` of the shortcut sweep's marks, so a slot's pre-batch
#   weight is ``first_old[slot]`` where ``changed[slot]``. Returns the
#   entries handled (each lowered or suspect entry once).


def shortcut_sweep(sc, raised, lowered, direct, marks) -> bool:
    """Algorithms 2 and 3 — the C suspect-and-relax sweep."""
    csr, weights = sc.csr, sc.up_weights
    cells = weights.size
    return bool(
        _checked(
            library().dhl_shortcut_sweep(
                len(raised), _addr(raised, _I64, len(raised)),
                len(lowered), _addr(lowered, _I64, len(lowered)),
                cells, _addr(weights, _F64, cells, write=True),
                csr.num_slots, *_csr_up(csr), *_csr_down(csr),
                _addr(direct, _F64, cells),
                _addr(csr.rank, _I64, csr.n),
                *_cell_marks(marks, cells),
            )
        )
    )


def label_sweep(store, labels, slots, slot_marks, marks) -> int:
    """Algorithms 4 and 5 — C seed pass and vertex-heap sweep."""
    csr, n, m = store.csr, store.csr.n, store.csr.num_slots
    values, offsets = labels.values, labels.offsets
    values_addr, offsets_addr = _label_addrs(values, offsets, n, write=True)
    slot_changed, slot_old = slot_marks
    return _checked(
        library().dhl_label_sweep(
            len(slots), _addr(slots, _I64, len(slots)),
            _addr(slot_changed, _U8, m), _addr(slot_old, _F64, m),
            values.size, values_addr,
            n, offsets_addr, _addr(store.tau, _I64, n),
            _addr(store.up_weights, _F64, m),
            *_csr_rows(csr), _addr(csr.owners, _I64, m),
            *_csr_down(csr),
            *_entry_marks(marks, values.size, n),
        )
    )



# ---------------------------------------------------------------------------
# the pair query
# ---------------------------------------------------------------------------

def _table_addrs(tables) -> tuple:
    """``AncestorTables``' arrays in the kernel's order (read per call,
    like every other address: an unpickled engine has new arrays)."""
    n, nodes = len(tables.tau), len(tables.depth)
    words, width = tables.path.shape[1], tables.chain.shape[1]
    return (
        _addr(tables.node_of, _I64, n),
        _addr(tables.depth, _I64, nodes),
        _addr(tables.path, _U64, nodes * words),
        words,
        _addr(tables.chain, _I64, nodes * width),
        width,
        _addr(tables.tau, _I64, n),
    )


def common_ancestors(tables, s, t) -> np.ndarray:
    """``|anc(s[p]) ∩ anc(t[p])|`` per pair, counted from *tables* (an
    :class:`~repro.labelling.query.AncestorTables`) by the pair
    kernel's own LCA. *s* / *t* are C-contiguous int64 ids already
    known to lie in ``[0, n)``."""
    count = len(s)
    k = np.empty(count, dtype=np.int64)
    library().dhl_common_ancestors(
        count, _addr(s, _I64, count), _addr(t, _I64, count),
        *_table_addrs(tables), _addr(k, _I64, count),
    )
    return k


def gather_pairs(
    labels_s, s, labels_t, t, tables, want_ranks: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """:meth:`repro.labelling.query.QueryEngine.distances_arrays` as one
    fused C loop: each pair's K counted from *tables* (an
    :class:`~repro.labelling.query.AncestorTables`), then its scan and
    argmin. *s* / *t* are C-contiguous int64 ids already known to lie
    in ``[0, n)``.
    """
    count, n = len(s), labels_s.num_vertices
    values_s, offsets_s = labels_s.values, labels_s.offsets
    values_t, offsets_t = labels_t.values, labels_t.offsets
    out = np.empty(count, dtype=np.float64)
    ranks = np.empty(count, dtype=np.int64) if want_ranks else None
    library().dhl_gather_pairs(
        count, _addr(s, _I64, count), _addr(t, _I64, count),
        *_label_addrs(values_s, offsets_s, n),
        *_label_addrs(values_t, offsets_t, n),
        *_table_addrs(tables),
        _addr(out, _F64, count),
        None if ranks is None else _addr(ranks, _I64, count),
    )
    return out, ranks


def distance_matrix(labels_s, sources, labels_t, targets, tables) -> np.ndarray:
    """:meth:`repro.labelling.query.QueryEngine.distance_matrix` as one
    C loop: each ``(source, target)`` cell is :func:`gather_pairs`' pair
    answer, written straight into the ``(len(sources), len(targets))``
    result. Ids are int64, already known to lie in ``[0, n)``."""
    rows, cols, n = len(sources), len(targets), labels_s.num_vertices
    values_s, offsets_s = labels_s.values, labels_s.offsets
    values_t, offsets_t = labels_t.values, labels_t.offsets
    out = np.empty((rows, cols), dtype=np.float64)
    library().dhl_distance_matrix(
        rows, _addr(sources, _I64, rows), cols, _addr(targets, _I64, cols),
        *_label_addrs(values_s, offsets_s, n),
        *_label_addrs(values_t, offsets_t, n),
        *_table_addrs(tables),
        _addr(out, _F64, rows * cols),
    )
    return out


def _rows_addr(inverse: np.ndarray, count: int, rows: int) -> int:
    """Address of a row map of *count* entries, each below *rows*
    (read as unsigned, a negative entry is a huge one: one reduction)."""
    addr = _addr(inverse, _I64, count)
    if count and inverse.view(np.uint64).max() >= rows:
        raise ValueError(f"row map points past the {rows} rows it indexes")
    return addr


def min_plus(ds, ds_inverse, block, dt, dt_inverse) -> np.ndarray:
    """:func:`repro.sharding.engine.min_plus_compact` as one C loop.

    The first hop ``min over a of ds[u, a] + block[a, b]`` runs once per
    row of *ds* that *ds_inverse* names (a row no pair uses is never
    hopped), the second once per pair through the two row maps; the
    sums are numpy's, in its order, so the answers are its bits.
    """
    rows, width_a = ds.shape
    width_b = dt.shape[1]
    count = len(ds_inverse)
    if block.shape != (width_a, width_b) or len(dt_inverse) != count:
        raise ValueError(
            f"min-plus shapes disagree: ds {ds.shape}, block {block.shape}, "
            f"dt {dt.shape}, {count} vs {len(dt_inverse)} pairs"
        )
    hopped = np.zeros(rows, dtype=np.uint8)
    hop = np.empty((rows, width_b), dtype=np.float64)
    out = np.empty(count, dtype=np.float64)
    library().dhl_min_plus(
        width_a, width_b,
        _addr(ds, _F64, ds.size), _addr(block, _F64, block.size),
        _addr(dt, _F64, dt.size),
        count, _rows_addr(ds_inverse, count, rows),
        _rows_addr(dt_inverse, count, len(dt)),
        _addr(hopped, _U8, rows, write=True),
        _addr(hop, _F64, hop.size, write=True), _addr(out, _F64, count),
    )
    return out


def shard_batch(labels_s, labels_t, tables, boundary, block, s, t, fan):
    """:func:`repro.sharding.engine.shard_batch` as one C call.

    Returns ``(final, fan_matrix, fan_inverse)``: the intra pairs'
    answers (lowered by the boundary route through *block* when one is
    given), the fan's distinct rows against *boundary* in first-mention
    order and each fan entry's row. Ids are int64, already known to lie
    in ``[0, n)``; *tables* is the shard's
    :class:`~repro.labelling.query.AncestorTables`.
    """
    count, fans, width = len(s), len(fan), len(boundary)
    if len(t) != count or (block is not None and block.shape != (width, width)):
        raise ValueError(
            f"shard batch shapes disagree: {count} vs {len(t)} pair ends, "
            f"block {None if block is None else block.shape} for a "
            f"{width}-vertex boundary"
        )
    n = labels_s.num_vertices
    values_s, offsets_s = labels_s.values, labels_s.offsets
    values_t, offsets_t = labels_t.values, labels_t.offsets
    final = np.empty(count, dtype=np.float64)
    rows = np.empty((min(n, fans + (0 if block is None else 2 * count)), width))
    inverse = np.empty(fans, dtype=np.int64)
    used = _checked(
        library().dhl_shard_batch(
            n,
            *_label_addrs(values_s, offsets_s, n),
            *_label_addrs(values_t, offsets_t, n),
            *_table_addrs(tables),
            width, _addr(boundary, _I64, width),
            None if block is None else _addr(block, _F64, block.size),
            count, _addr(s, _I64, count), _addr(t, _I64, count),
            fans, _addr(fan, _I64, fans),
            _addr(final, _F64, count), _addr(rows, _F64, rows.size, write=True),
            _addr(inverse, _I64, fans, write=True),
        )
    )
    return final, rows[:used], inverse


# ---------------------------------------------------------------------------
# the build: Algorithm 1
# ---------------------------------------------------------------------------

def label_build(store, labels, order: np.ndarray) -> None:
    """Lines 5-8 of :func:`repro.labelling.build.build_labelling` as one
    C loop over the seeded *labels*: vertices in *order* (stable ``tau``
    order), each row lowered by ``w(v, w) + L_w`` over its up slots.
    A row is written below ``tau(w) + 1 <= tau(v)`` only, so the checks
    are that every shortcut points to an ancestor and every row holds
    its ``tau(v) + 1`` entries."""
    csr, n, m = store.csr, store.csr.n, store.csr.num_slots
    tau, offsets = store.tau, labels.offsets
    values_addr, offsets_addr = _label_addrs(labels.values, offsets, n, write=True)
    if n and (offsets[0] < 0 or (np.diff(offsets) <= tau).any()):
        raise ValueError("label rows do not hold tau + 1 entries")
    if m and (tau[csr.indices] >= tau[csr.owners]).any():
        raise ValueError("a shortcut does not point to an ancestor")
    library().dhl_label_build(
        n, _addr(order, _I64, n), *_csr_rows(csr),
        _addr(store.up_weights, _F64, m), _addr(tau, _I64, n),
        offsets_addr, values_addr,
    )


# ---------------------------------------------------------------------------
# the service's result cache
# ---------------------------------------------------------------------------

#: The C ``cache_header_t`` record: the table's geometry, its column
#: addresses, its clock, its invalidation watermark and its counters.
CACHE_HEADER = np.dtype(
    [
        (name, np.int64)
        for name in (
            "sets", "ways", "keys", "values", "epochs", "ticks",
            "tick", "watermark",
            "hits", "misses", "stored", "replaced", "lru_evictions",
        )
    ],
    align=True,
)


class PairTable:
    """The C view of :class:`~repro.service.cache.EpochLRUCache`'s table.

    Four ``(sets, ways)`` columns — packed ``int64`` key, ``float64``
    value, ``int64`` epoch stamp, ``int64`` last-use tick — described by
    one :data:`CACHE_HEADER` record. Each column is checked and its
    address written to the record here, once: the columns never move
    (an unpickled table has new ones and is bound to them on load). The
    kernels read the record's clock and watermark and update its
    counters in place; the owner reads them as ``header["hits"]``. The
    one-pair calls (:func:`cache_get`, :func:`cache_put`) run the same
    kernels on buffers of the table's own, bound here too.
    """

    def __init__(self, keys, values, epochs, ticks):
        self.keys, self.values, self.epochs, self.ticks = keys, values, epochs, ticks
        self.header = np.zeros((), dtype=CACHE_HEADER)
        self.header["sets"], self.header["ways"] = keys.shape
        self.header["tick"] = 1
        # One pair: ids, the probe's miss row, position, inverse and
        # counts; and its value.
        self.one = np.zeros(9, dtype=np.int64)
        self.one_value = np.zeros(1, dtype=np.float64)
        self._bind()

    def _bind(self) -> None:
        size, header = self.keys.size, self.header
        header["keys"] = _addr(self.keys, _I64, size, write=True)
        header["values"] = _addr(self.values, _F64, size, write=True)
        header["epochs"] = _addr(self.epochs, _I64, size, write=True)
        header["ticks"] = _addr(self.ticks, _I64, size, write=True)
        self.address = _addr(header, header.dtype, 1, write=True)
        one = _addr(self.one, _I64, 9, write=True)
        value = _addr(self.one_value, _F64, 1, write=True)
        self._one_probe = (
            self.address, 1, one, True, value, one + 16, one + 32, one + 40, one + 48
        )
        self._one_fill = (self.address, 1, one, value)

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind()


def cache_probe(table: PairTable, pairs, directed: bool):
    """The service door's probe of a ``(m, 2)`` int64 *pairs* array.

    Returns ``(out, misses, positions, inverse)``: ``out[p]`` is 0.0 for
    a self-pair and the cached distance for a hit (unwritten for a
    miss); ``misses`` the ``(u, 2)`` distinct missed pairs, ordered
    ``(min, max)`` unless *directed*, in first-seen order; ``positions``
    each miss's index in *pairs* and ``inverse`` its row of ``misses``.
    Hits refresh their ticks, probed stale entries are dropped and the
    table's clock and hit / miss counters move (``dhl_cache_probe``).
    """
    m = len(pairs)
    out = np.empty(m, dtype=np.float64)
    ints = np.empty(4 * m + 3, dtype=np.int64)  # misses, positions, inverse, counts
    base = _addr(ints, _I64, ints.size, write=True)
    _checked(
        library().dhl_cache_probe(
            table.address, m, _addr(pairs, _I64, 2 * m), directed,
            _addr(out, _F64, m, write=True),
            base, base + 16 * m, base + 24 * m, base + 32 * m,
        )
    )
    probes, hits, distinct = ints[4 * m :].tolist()
    missed = probes - hits
    return (
        out,
        ints[: 2 * distinct].reshape(distinct, 2),
        ints[2 * m : 2 * m + missed],
        ints[3 * m : 3 * m + missed],
    )


def cache_fill(table: PairTable, pairs, values, epoch: int) -> None:
    """Store the distinct ordered ``(u, 2)`` *pairs* with their *values*
    at *epoch* (``dhl_cache_fill``: held keys in place, new ones into an
    empty, stale or least recently used way, at most ``ways`` new keys
    per set and batch)."""
    count = len(pairs)
    _checked(
        library().dhl_cache_fill(
            table.address, count, _addr(pairs, _I64, 2 * count),
            _addr(values, _F64, count), epoch,
        )
    )


def cache_get(table: PairTable, lo: int, hi: int) -> float | None:
    """:func:`cache_probe` of the one ordered pair ``(lo, hi)``: its
    cached distance (0.0 for a self-pair), or None."""
    one = table.one
    one[0], one[1] = lo, hi
    _checked(library().dhl_cache_probe(*table._one_probe))
    return float(table.one_value[0]) if one[6] == one[7] else None


def cache_put(table: PairTable, lo: int, hi: int, value: float, epoch: int) -> None:
    """:func:`cache_fill` of the one ordered pair ``(lo, hi)``."""
    one = table.one
    one[0], one[1] = lo, hi
    table.one_value[0] = value
    _checked(library().dhl_cache_fill(*table._one_fill, epoch))
