"""The validating wrappers over the C kernels: queries, sweeps, build.

Each wrapper checks dtype, C-contiguity, alignment and length of the
buffers it hands over, and the work runs as a single loop of
``dhl_kernels.c``; the sweeps write the caller's marks and touched
lists (:func:`~repro.labelling.maintenance.cell_marks` /
:func:`~repro.labelling.maintenance.entry_marks`) and the label sweep
runs its own seed phase, while the shortcut seeds and the stats are
the shared driver's (:mod:`repro.labelling.driver`). Vertex ids are
range-checked by the callers (``QueryEngine``'s entry points,
:mod:`repro.sharding.engine`'s doors, the driver's batch validation)
before they reach a wrapper, and the label sweep's slots are cells the
shortcut sweep listed; the min-plus kernels check their row maps
themselves. :func:`operand` is how a caller meets the checks with any
array-like, copying only what is not a fit already; :func:`address`
is the one place an address is read.

**Owned buffers are bound once.** Each owner of a buffer the kernels
read keeps one :class:`Bound` record: its arrays are checked (dtype,
C-contiguity, alignment, length and, for a buffer a kernel writes,
writability) and their addresses written to the record when it is
bound, and every kernel call passes the record's address. The owners
are :class:`~repro.labelling.labels.HierarchicalLabelling`
(:data:`LABELS_RECORD`), :class:`~repro.labelling.query.AncestorTables`
(:data:`LCA_RECORD`), a shard's boundary and overlay block
(:class:`ShardRoute`, :data:`SHARD_RECORD`), the sharded index's
routing state (:func:`bind_route`, :data:`ROUTE_RECORD`) and the
shortcut store (:class:`~repro.hierarchy.contraction.ContractionResult`,
:data:`STORE_RECORD`: its int32 CSR arrays, its weight buffer and
``tau``), which the two sweeps and the label build read. A wrapper
binds again whenever an array the record was made from is no longer
the one its owner holds — an identity check, so label growth, slot
growth, compaction, copy-on-write, a republish, an unpickle, a load or
a shared-memory attach needs no hook where it happens — and a record
that is pickled or copied comes back unbound. A call reads only the
addresses of its own operands: the pair array (read in place, strided)
and one output arena; a one-pair query reads none (:class:`OnePair`);
a sweep its seeds or slots, ``direct`` and its marks; the build its
``tau`` order. The service's result-cache table (:class:`PairTable`)
is bound once, when it is made: its columns never move.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np

from repro.labelling.native import library
from repro.utils.pairs import check_ids

__all__ = [
    "CACHE_HEADER",
    "LABELS_RECORD",
    "LCA_RECORD",
    "ROUTE_RECORD",
    "SHARD_RECORD",
    "STORE_RECORD",
    "Bound",
    "OnePair",
    "PairTable",
    "ShardRoute",
    "address",
    "batch_answer",
    "batch_split",
    "bind_route",
    "cache_fill",
    "cache_get",
    "cache_probe",
    "cache_put",
    "common_ancestors",
    "distance_matrix",
    "gather_one",
    "gather_pair_array",
    "gather_pairs",
    "label_build",
    "label_sweep",
    "min_plus",
    "operand",
    "shard_batch",
    "shortcut_sweep",
]

_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_F64 = np.dtype(np.float64)
_U64 = np.dtype(np.uint64)
_U8 = np.dtype(np.uint8)


def operand(arr, dtype) -> np.ndarray:
    """*arr* as an aligned C-contiguous *dtype* array, copied only when
    it is not one (vectorised C loops assume natural alignment). A
    decoded frame's arrays pass through uncopied: the wire format starts
    every buffer at a frame offset that is a multiple of 8."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr if arr.flags.aligned else arr.copy()


_VIEW = ctypes.c_char * 0


def address(arr: np.ndarray) -> int:
    """The address of *arr*'s first item: the one place an address is
    read. A writable C-contiguous buffer is read through ``ctypes``
    directly (≈ 1 µs); numpy's ``ctypes.data``, which builds an object
    first, takes the rest (≈ 3 µs)."""
    try:
        return ctypes.addressof(_VIEW.from_buffer(arr))
    except TypeError:  # read-only, or not C-contiguous
        return arr.ctypes.data


def _addr(arr: np.ndarray, dtype: np.dtype, length: int, write: bool = False) -> int:
    """Address of *arr* once it is what the C side assumes it is."""
    flags = arr.flags
    if (
        arr.dtype != dtype
        or not flags.c_contiguous
        or not flags.aligned
        or arr.size != length
        or (write and not flags.writeable)
    ):
        raise TypeError(
            f"native kernel needs a {'writable ' if write else ''}aligned "
            f"C-contiguous {dtype} buffer of {length} items; got {arr.dtype} "
            f"x {arr.size}, contiguous={arr.flags.c_contiguous}, "
            f"aligned={arr.flags.aligned}, writable={arr.flags.writeable}"
        )
    return address(arr)


def _record_dtype(*names: str) -> np.dtype:
    """A C record of int64 fields (counts and addresses), in order."""
    return np.dtype([(name, np.int64) for name in names], align=True)


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
# The label sweep takes the same store and one weight plane of it at a
# time (``plane``, with ``tau``), and *labels*, a flat
# :class:`~repro.labelling.labels.HierarchicalLabelling`. Sweeps never
# touch the graph.
#
# Both read the store through its bound record (:data:`STORE_RECORD`:
# the int32 CSR arrays, the weight buffer, ``tau``), and the label
# sweep the labels through theirs, bound writable; a warm call reads
# the addresses of its per-call operands only — the seeds or slots,
# ``direct``, the slot marks and the marks.
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
# * ``label_sweep(store, labels, slots, slot_marks, marks, plane)`` —
#   Algorithms 4 and 5 for the changed shortcut *slots* of the plane,
#   seed phase included; *slot_marks* are the plane's ``(changed,
#   first_old)`` of the shortcut sweep's marks, so a slot's pre-batch
#   weight is ``first_old[slot]`` where ``changed[slot]``. Returns the
#   entries handled (each lowered or suspect entry once).


def shortcut_sweep(sc, raised, lowered, direct, marks) -> bool:
    """Algorithms 2 and 3 — the C suspect-and-relax sweep."""
    cells = sc.up_weights.size
    return bool(
        _checked(
            library().dhl_shortcut_sweep(
                len(raised),
                _addr(raised, _I64, len(raised)),
                len(lowered),
                _addr(lowered, _I64, len(lowered)),
                _store(sc),
                _addr(direct, _F64, cells),
                *_cell_marks(marks, cells),
            )
        )
    )


def label_sweep(store, labels, slots, slot_marks, marks, plane: int = 0) -> int:
    """Algorithms 4 and 5 — C seed pass and vertex-heap sweep, over
    weight plane *plane* of *store*."""
    m = store.csr.num_slots
    record = _store(store, plane, labels)
    slot_changed, slot_old = slot_marks
    return _checked(
        library().dhl_label_sweep(
            len(slots),
            _addr(slots, _I64, len(slots)),
            record,
            plane,
            _labels(labels, write=True),
            _addr(slot_changed, _U8, m),
            _addr(slot_old, _F64, m),
            *_entry_marks(marks, labels.values.size, store.csr.n),
        )
    )


# ---------------------------------------------------------------------------
# bound records: the query path's owned buffers, checked and addressed once
# ---------------------------------------------------------------------------

#: ``HierarchicalLabelling``'s record: ``n`` vertices, the addresses of
#: ``values`` and ``offsets``, and the value buffer's capacity.
LABELS_RECORD = _record_dtype("n", "values", "offsets", "capacity")
#: ``AncestorTables``' record (the C ``lca_record_t``).
LCA_RECORD = _record_dtype(
    "n", "words", "chain_width", "node_of", "depth", "path", "chain", "tau"
)
#: A :class:`ShardRoute`'s record: its boundary and its own overlay
#: block, whose rows lie ``ld`` values apart.
SHARD_RECORD = _record_dtype("width", "boundary", "block", "ld")
#: A shortcut store's record (the C ``store_record_t``): ``n`` vertices,
#: ``m`` slots, ``planes`` weight planes, then the addresses of the
#: weight buffer, the int32 CSR arrays and (0 without one) int64 ``tau``.
STORE_RECORD = _record_dtype(
    "n",
    "m",
    "planes",
    "weights",
    "indptr",
    "indices",
    "ranks",
    "owners",
    "down_indptr",
    "down_indices",
    "down_slots",
    "rank",
    "tau",
)
#: The sharded index's routing record (:func:`bind_route`).
ROUTE_RECORD = _record_dtype(
    "n", "k", "total", "region_of", "local_of", "routed", "bounds", "matrix"
)


def _ref(obj):
    """A reference that does not keep *obj* alive where it can be weak."""
    try:
        return weakref.ref(obj)
    except TypeError:  # None, a list: held as they are
        return lambda: obj


class Bound:
    """One C record over an owner's arrays, made when they are bound.

    ``address`` is the record's own address, which the kernels take;
    ``refs`` reach the arrays it was made from without keeping them
    alive, so a binder tells by identity whether its owner still holds
    exactly those (any swap — growth, compaction, copy-on-write, a
    re-attach — means a rebind). ``writable`` says that the buffers a
    kernel writes were checked writable when it was made. A pickled or
    copied record comes back as ``None``, unbound: its addresses belong
    to the process and the arrays it was made for.
    """

    __slots__ = ("record", "address", "refs", "writable")

    def __init__(self, dtype: np.dtype, arrays: tuple, writable=False, **fields):
        self.record = np.zeros((), dtype=dtype)
        for name, value in fields.items():
            self.record[name] = value
        self.address = address(self.record)
        self.refs = tuple(_ref(arr) for arr in arrays)
        self.writable = writable

    def __reduce__(self):
        return type(None), ()


def _labels(labels, write: bool = False) -> int:
    """Address of *labels*' record, bound again when it holds another
    ``values`` or ``offsets`` array than the record was made from, or,
    for a kernel that writes the values (*write*), when the record was
    made from a buffer that was read-only."""
    values, offsets = labels.values, labels.offsets
    bound = labels._record
    if (
        bound is None
        or bound.refs[0]() is not values
        or bound.refs[1]() is not offsets
        or (write and not bound.writable)
    ):
        n = labels.num_vertices
        if len(offsets) != n + 1 or offsets[n] > values.size:
            raise ValueError("label offsets do not match the value buffer")
        bound = labels._record = Bound(
            LABELS_RECORD,
            (values, offsets),
            writable=bool(values.flags.writeable),
            n=n,
            values=_addr(values, _F64, values.size, write),
            offsets=_addr(offsets, _I64, n + 1),
            capacity=values.size,
        )
    return bound.address


def _store(store, plane: int = 0, labels=None) -> int:
    """Address of *store*'s record (a
    :class:`~repro.hierarchy.contraction.ContractionResult`), bound on
    first use and again when it holds another structure, weight buffer
    or ``tau``. The sweeps write its weights, so they must be writable.

    With *labels* — the label kernels' operand, read in weight plane
    *plane* — the store must carry ``tau``, which its record checks
    once: every shortcut points to an ancestor, so a row written through
    a slot stays below its ``tau + 1`` entries.
    """
    csr, weights = store.csr, store.up_weights
    tau = getattr(store, "tau", None)
    bound = store._record
    if (
        bound is None
        or bound.refs[0]() is not csr
        or bound.refs[1]() is not weights
        or bound.refs[2]() is not tau
    ):
        n, m = csr.n, csr.num_slots
        tau_addr = 0
        if tau is not None:
            tau_addr = _addr(tau, _I64, n)
            if m and (tau[csr.indices] >= tau[csr.owners]).any():
                raise ValueError("a shortcut does not point to an ancestor")
        bound = store._record = Bound(
            STORE_RECORD,
            (csr, weights, tau),
            writable=True,
            n=n,
            m=m,
            planes=store.planes,
            weights=_addr(weights, _F64, store.planes * m, write=True),
            indptr=_addr(csr.indptr, _I32, n + 1),
            indices=_addr(csr.indices, _I32, m),
            ranks=_addr(csr.ranks, _I32, m),
            owners=_addr(csr.owners, _I32, m),
            down_indptr=_addr(csr.down_indptr, _I32, n + 1),
            down_indices=_addr(csr.down_indices, _I32, m),
            down_slots=_addr(csr.down_slots, _I32, m),
            rank=_addr(csr.rank, _I32, n),
            tau=tau_addr,
        )
    if labels is not None:
        if tau is None:
            raise TypeError("the label kernels need a store that carries tau")
        if not 0 <= plane < store.planes:
            raise ValueError(f"no weight plane {plane} in a {store.planes}-plane store")
        if labels.num_vertices != csr.n:
            raise ValueError("the labels and the store cover other vertices")
    return bound.address


def _tables(tables) -> int:
    """Address of *tables*' record (an
    :class:`~repro.labelling.query.AncestorTables`), bound on first use
    and again when any of its arrays was swapped."""
    bound = getattr(tables, "_record", None)
    if bound is not None:
        node_of, depth, path, chain, tau = bound.refs
        if (
            node_of() is tables.node_of
            and depth() is tables.depth
            and path() is tables.path
            and chain() is tables.chain
            and tau() is tables.tau
        ):
            return bound.address
    node_of, depth, path, chain, tau = arrays = (
        tables.node_of,
        tables.depth,
        tables.path,
        tables.chain,
        tables.tau,
    )
    n, nodes = len(tau), len(depth)
    words, width = path.shape[1], chain.shape[1]
    bound = tables._record = Bound(
        LCA_RECORD,
        arrays,
        n=n,
        words=words,
        chain_width=width,
        node_of=_addr(node_of, _I64, n),
        depth=_addr(depth, _I64, nodes),
        path=_addr(path, _U64, nodes * words),
        chain=_addr(chain, _I64, nodes * width),
        tau=_addr(tau, _I64, n),
    )
    return bound.address


class ShardRoute:
    """One shard's boundary (shard-local ids) and its own ``|B| x |B|``
    overlay block (``None`` while none is held), as
    :func:`shard_batch` reads them through one record.

    The block may be a block of a bigger row-major matrix (rows
    contiguous, any row pitch): the sharded index's routing state hands
    each shard a view of its one overlay matrix, read in place.
    """

    __slots__ = ("boundary", "block", "_record")

    def __init__(self, boundary: np.ndarray, block: np.ndarray | None = None):
        self.boundary = boundary
        self.block = block
        self._record: Bound | None = None


def _shard(shard: ShardRoute, n: int) -> int:
    """Address of *shard*'s record; its boundary is range-checked
    against the shard's *n* vertices when it is bound."""
    boundary, block = shard.boundary, shard.block
    bound = shard._record
    if bound is None or bound.refs[0]() is not boundary or bound.refs[1]() is not block:
        width = len(boundary)
        addr = _addr(boundary, _I64, width)
        check_ids(n, boundary)
        block_addr = ld = 0
        if block is not None:
            row_step, step = block.strides if block.ndim == 2 else (0, 0)
            if (
                block.dtype != _F64
                or block.shape != (width, width)
                or not block.flags.aligned
                or (width > 1 and (step != 8 or row_step % 8 or row_step < 8 * width))
            ):
                raise TypeError(
                    f"native kernel needs an aligned float64 {width} x {width} "
                    f"block with contiguous rows; got {block.dtype} "
                    f"{block.shape}, strides {block.strides}"
                )
            block_addr, ld = address(block), row_step // 8
        bound = shard._record = Bound(
            SHARD_RECORD,
            (boundary, block),
            width=width,
            boundary=addr,
            block=block_addr,
            ld=ld,
        )
    return bound.address


def bind_route(n, k, region_of, local_of, routed, bounds, matrix) -> Bound:
    """The sharded index's routing record: *region_of* / *local_of* over
    its *n* vertices, the *k* shards' ``routed`` flags (int64) and the
    overlay matrix (``None`` without an overlay) with its region
    *bounds*."""
    total = int(bounds[-1])
    return Bound(
        ROUTE_RECORD,
        (region_of, local_of, routed, bounds, matrix),
        n=n,
        k=k,
        total=total,
        region_of=_addr(region_of, _I64, n),
        local_of=_addr(local_of, _I64, n),
        routed=_addr(routed, _I64, k),
        bounds=_addr(bounds, _I64, k + 1),
        matrix=0 if matrix is None else _addr(matrix, _F64, total * total),
    )


# ---------------------------------------------------------------------------
# the pair query
# ---------------------------------------------------------------------------

#: A query kernel's status for an id outside ``[0, n)`` (nothing
#: written), and the base of the combine's "row map past its rows".
_BAD_ID, _BAD_ROWS = -2, -3


def _ids_in_range(status: int, n: int, *ids: np.ndarray) -> None:
    """A query kernel refused an id outside ``[0, n)``: raise
    :class:`~repro.exceptions.VertexNotFound` naming it."""
    if status == _BAD_ID:
        check_ids(n, *ids)
        raise ValueError("the label stores and the tables cover other vertices")


def common_ancestors(tables, s, t) -> np.ndarray:
    """``|anc(s[p]) ∩ anc(t[p])|`` per pair, counted from *tables* (an
    :class:`~repro.labelling.query.AncestorTables`) by the pair
    kernel's own LCA. *s* / *t* are C-contiguous int64 ids; one outside
    ``[0, n)`` raises :class:`~repro.exceptions.VertexNotFound`."""
    count = len(s)
    k = np.empty(count, dtype=np.int64)
    status = library().dhl_common_ancestors(
        _tables(tables),
        count,
        _addr(s, _I64, count),
        _addr(t, _I64, count),
        1,
        address(k),
    )
    _ids_in_range(status, len(tables.tau), s, t)
    return k


def _gather(labels_s, labels_t, tables, count, ids, s, t, stride, want_ranks):
    """``dhl_gather_pairs`` of the pairs at addresses *s* / *t* (every
    *stride* items) into one output arena: the distances, then (as
    int64) the ranks. *ids* are the arrays those addresses are in."""
    out = np.empty(2 * count if want_ranks else count, dtype=np.float64)
    base = address(out)
    status = library().dhl_gather_pairs(
        _labels(labels_s),
        _labels(labels_t),
        _tables(tables),
        count,
        s,
        t,
        stride,
        base,
        base + 8 * count if want_ranks else None,
    )
    _ids_in_range(status, labels_s.num_vertices, *ids)
    if not want_ranks:
        return out, None
    return out[:count], out[count:].view(np.int64)


def gather_pairs(
    labels_s, s, labels_t, t, tables, want_ranks: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """:meth:`repro.labelling.query.QueryEngine.distances_arrays` as one
    fused C loop: each pair's K counted from *tables* (an
    :class:`~repro.labelling.query.AncestorTables`), then its scan and
    argmin. *s* / *t* are C-contiguous int64 ids; one outside ``[0,
    n)`` raises :class:`~repro.exceptions.VertexNotFound`.
    """
    count = len(s)
    return _gather(
        labels_s,
        labels_t,
        tables,
        count,
        (s, t),
        _addr(s, _I64, count),
        _addr(t, _I64, count),
        1,
        want_ranks,
    )


def gather_pair_array(
    labels_s, pairs, labels_t, tables, want_ranks: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`gather_pairs` over a C-contiguous ``(m, 2)`` int64 *pairs*
    array, read in place by the kernel (no column copies)."""
    count = len(pairs)
    base = _addr(pairs, _I64, 2 * count)
    return _gather(
        labels_s,
        labels_t,
        tables,
        count,
        (pairs,),
        base,
        base + 8,
        2,
        want_ranks,
    )


class OnePair:
    """A one-pair query's operands and answer, bound once, as
    :class:`PairTable`'s one-pair buffers are: the two ids, then the
    distance and (as int64) the rank."""

    __slots__ = ("ids", "out", "rank", "_args")

    def __init__(self):
        self.ids = np.zeros(2, dtype=np.int64)
        self.out = np.zeros(2, dtype=np.float64)
        self.rank = self.out[1:].view(np.int64)
        ids, out = address(self.ids), address(self.out)
        self._args = (ids, ids + 8, out, out + 8)


def gather_one(labels_s, labels_t, tables, one: OnePair, s: int, t: int):
    """``(distance, rank)`` of the pair ``(s, t)`` through
    :func:`gather_pairs`' kernel on the bound buffers of *one*: no
    address is read. The ids are ints already known to lie in ``[0,
    n)``."""
    ids = one.ids
    ids[0] = s
    ids[1] = t
    s_addr, t_addr, out, rank = one._args
    library().dhl_gather_pairs(
        _labels(labels_s),
        _labels(labels_t),
        _tables(tables),
        1,
        s_addr,
        t_addr,
        1,
        out,
        rank,
    )
    return float(one.out[0]), int(one.rank[0])


def distance_matrix(labels_s, sources, labels_t, targets, tables) -> np.ndarray:
    """:meth:`repro.labelling.query.QueryEngine.distance_matrix` as one
    C loop: each ``(source, target)`` cell is :func:`gather_pairs`' pair
    answer, written straight into the ``(len(sources), len(targets))``
    result. Ids are int64; one outside ``[0, n)`` raises
    :class:`~repro.exceptions.VertexNotFound`."""
    rows, cols = len(sources), len(targets)
    sources_addr = _addr(sources, _I64, rows)
    targets_addr = _addr(targets, _I64, cols)
    out = np.empty((rows, cols), dtype=np.float64)
    status = library().dhl_distance_matrix(
        _labels(labels_s),
        _labels(labels_t),
        _tables(tables),
        rows,
        sources_addr,
        cols,
        targets_addr,
        address(out),
    )
    _ids_in_range(status, labels_s.num_vertices, sources, targets)
    return out


# ---------------------------------------------------------------------------
# the sharded batch: one shard's share, the split and the combine
# ---------------------------------------------------------------------------

def min_plus(ds, ds_inverse, block, dt, dt_inverse) -> np.ndarray:
    """:func:`repro.sharding.engine.min_plus_compact` as one C loop.

    The first hop ``min over a of ds[u, a] + block[a, b]`` runs once per
    row of *ds* that *ds_inverse* names (a row no pair uses is never
    hopped), the second once per pair through the two row maps; the
    sums are numpy's, in its order, so the answers are its bits. A row
    map entry outside its matrix raises :class:`ValueError`.
    """
    rows, width_a = ds.shape
    width_b = dt.shape[1]
    count = len(ds_inverse)
    if block.shape != (width_a, width_b) or len(dt_inverse) != count:
        raise ValueError(
            f"min-plus shapes disagree: ds {ds.shape}, block {block.shape}, "
            f"dt {dt.shape}, {count} vs {len(dt_inverse)} pairs"
        )
    # The answers, the hop rows, then one hopped byte a row.
    arena = np.empty(count + rows * width_b + -(-rows // 8), dtype=np.float64)
    status = library().dhl_min_plus(
        width_a,
        width_b,
        _addr(ds, _F64, ds.size),
        rows,
        _addr(block, _F64, block.size),
        _addr(dt, _F64, dt.size),
        len(dt),
        count,
        _addr(ds_inverse, _I64, count),
        _addr(dt_inverse, _I64, count),
        address(arena),
    )
    if status == _BAD_ROWS:
        bad = count and ds_inverse.view(np.uint64).max() >= rows
        raise ValueError(
            f"row map points past the {rows if bad else len(dt)} rows it indexes"
        )
    return arena[:count]


def shard_batch(labels_s, labels_t, tables, shard, ids, count, fans, use_block):
    """:func:`repro.sharding.engine.shard_batch` as one C call.

    *ids* is the sub-query's one int64 operand: its *fans* fan entries,
    then its *count* intra sources and *count* intra targets (one
    outside ``[0, n)`` raises :class:`~repro.exceptions.VertexNotFound`);
    *shard* the :class:`ShardRoute` whose
    boundary and block the call reads (the block only with
    *use_block*). Returns ``(final, fan_matrix, fan_inverse)``: the
    intra pairs' answers (lowered by the boundary route through the
    block), the fan's distinct rows against the boundary in
    first-mention order and each fan entry's row, all views of the
    call's one output arena.
    """
    n, width = labels_s.num_vertices, len(shard.boundary)
    route = use_block and count and shard.block is not None
    capacity = min(n, fans + (2 * count if route else 0))
    arena = np.empty(count + fans + capacity * width, dtype=np.float64)
    used = library().dhl_shard_batch(
        _labels(labels_s),
        _labels(labels_t),
        _tables(tables),
        _shard(shard, n),
        bool(use_block),
        count,
        fans,
        _addr(ids, _I64, fans + 2 * count),
        address(arena),
    )
    _ids_in_range(used, n, ids)
    _checked(used)
    rows = arena[count + fans :].reshape(capacity, width)
    return arena[:count], rows[:used], arena[count : count + fans].view(np.int64)


def batch_split(routing, pairs) -> tuple[np.ndarray, int]:
    """:class:`repro.sharding.engine.BatchSplit`'s cut of a C-contiguous
    ``(m, 2)`` int64 *pairs* array in one C pass over *routing*'s
    record (``dhl_batch_split``). Returns ``(arena, intra)``: ``order``
    (``2m`` entries), ``local`` (``2m``) and the ``k (2k + 2) + 2``
    group bounds in one int64 arena, and the number of intra pairs. An
    id outside ``[0, n)`` raises
    :class:`~repro.exceptions.VertexNotFound`."""
    m, k = len(pairs), routing.k
    base = _addr(pairs, _I64, 2 * m)
    arena = np.empty(4 * m + k * (2 * k + 2) + 2, dtype=np.int64)
    intra = library().dhl_batch_split(
        routing.address, m, base, base + 8, 2, address(arena)
    )
    _ids_in_range(intra, routing.n, pairs)
    return arena, intra


def batch_answer(routing, pairs, arena, results: dict) -> np.ndarray:
    """:meth:`repro.sharding.engine.BatchSplit.answer` as one C call
    (``dhl_batch_answer``): *arena* is :func:`batch_split`'s, *results*
    maps a shard to its :func:`shard_batch` triple. The triples are
    copied into one operand arena (a decoded frame's buffers are
    read-only views of separate frames); one of the wrong shape
    raises :class:`ValueError`, and so does a fan row map that points
    past its rows."""
    m, k = len(pairs), routing.k
    width = 2 * k + 2
    bounds = arena[4 * m :].tolist()
    # The answer, then each shard's row of (answered, final, rows,
    # rows_count, fan_inverse) with offsets into the operand arena.
    out = np.zeros(m + 5 * k, dtype=np.float64)
    table = out[m:].view(np.int64)
    parts = []
    at = 0
    for sid, (final, rows, inverse) in results.items():
        final = np.asarray(final, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        inverse = np.ascontiguousarray(inverse, dtype=np.int64)
        start = sid * width + 2 * k
        intra = bounds[start + 1] - bounds[start]
        fans = bounds[start] - bounds[sid * width]
        if (
            final.shape != (intra,)
            or inverse.shape != (fans,)
            or rows.ndim != 2
            or rows.shape[1] != routing.widths[sid]
        ):
            raise ValueError(
                f"shard {sid} answered {final.shape} finals, {rows.shape} fan "
                f"rows and {inverse.shape} fan rows for {intra} intra pairs and "
                f"{fans} fan entries over {routing.widths[sid]} boundary vertices"
            )
        table[5 * sid : 5 * sid + 5] = (
            1, at, at + intra, len(rows), at + intra + rows.size
        )
        parts += (final, rows.ravel(), inverse.view(np.float64))
        at += intra + rows.size + fans
    answers = np.concatenate(parts) if parts else out
    base, out_addr = address(pairs), address(out)
    status = library().dhl_batch_answer(
        routing.address,
        m,
        base,
        base + 8,
        2,
        address(arena),
        out_addr + 8 * m,
        address(answers),
        out_addr,
    )
    if status <= _BAD_ROWS:
        rows = len(results[_BAD_ROWS - status][1])
        raise ValueError(f"row map points past the {rows} rows it indexes")
    _checked(status)
    return out[:m]


# ---------------------------------------------------------------------------
# the build: Algorithm 1
# ---------------------------------------------------------------------------

def label_build(store, labels, order: np.ndarray, plane: int = 0) -> None:
    """Lines 5-8 of :func:`repro.labelling.build.build_labelling` as one
    C loop over the seeded *labels*, from weight plane *plane* of
    *store*: vertices in *order* (stable ``tau`` order), each row
    lowered by ``w(v, w) + L_w`` over its up slots. A row is written
    below ``tau(w) + 1 <= tau(v)`` only, so the checks are that every
    shortcut points to an ancestor (the store's record, once) and every
    row holds its ``tau(v) + 1`` entries."""
    n = store.csr.n
    record = _store(store, plane, labels)
    offsets = labels.offsets
    if n and (offsets[0] < 0 or (np.diff(offsets) <= store.tau).any()):
        raise ValueError("label rows do not hold tau + 1 entries")
    library().dhl_label_build(
        record, plane, _labels(labels, write=True), _addr(order, _I64, n)
    )


# ---------------------------------------------------------------------------
# the service's result cache
# ---------------------------------------------------------------------------

#: The C ``cache_header_t`` record: the table's geometry, its column
#: addresses, its clock, its invalidation watermark and its counters.
CACHE_HEADER = _record_dtype(
    "sets",
    "ways",
    "keys",
    "values",
    "epochs",
    "ticks",
    "tick",
    "watermark",
    "hits",
    "misses",
    "stored",
    "replaced",
    "lru_evictions",
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
            table.address,
            m,
            _addr(pairs, _I64, 2 * m),
            directed,
            _addr(out, _F64, m, write=True),
            base,
            base + 16 * m,
            base + 24 * m,
            base + 32 * m,
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
            table.address,
            count,
            _addr(pairs, _I64, 2 * count),
            _addr(values, _F64, count),
            epoch,
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
