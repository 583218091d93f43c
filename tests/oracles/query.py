"""The numpy query kernels, kept as the C pair and min-plus kernels' oracles.

:func:`gather_pairs` is the exact-K ragged gather over two flat label
stores and :func:`min_plus` the chunked numpy boundary-route combine:
what :class:`repro.labelling.query.QueryEngine` and
:func:`repro.sharding.engine.min_plus_compact` ran before the C kernels
were their only bodies. :func:`pair_kernel` and :func:`min_plus` take
:mod:`repro.labelling.native.engine`'s arguments, so
:func:`tests.oracles.kernels.python_kernels` can swap them in; the C
side must give their bits.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.labels import HierarchicalLabelling

__all__ = ["gather_pairs", "min_plus", "pair_kernel"]

# Cells per run of the pair kernel: its two temporaries (positions and
# sums, 128 kB each) are gathered, added and reduced while still in L2.
_PAIR_CHUNK_CELLS = 16_384

# Cap for the (pairs x |B_i| x |B_j|) min-plus intermediate, in cells.
_MIN_PLUS_CELLS = 4_000_000


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


def pair_kernel(labels_s, s, labels_t, t, k, tables, want_ranks=False):
    """:func:`gather_pairs` under
    :func:`repro.labelling.native.engine.gather_pairs`' signature (K
    counted from *tables* when *k* is None)."""
    if k is None:
        k = tables.counts(s, t)
    return gather_pairs(labels_s, s, labels_t, t, k, want_ranks)


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
