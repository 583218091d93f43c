"""Numba-compiled scalar kernels over the flat CSR buffers.

Each kernel is the scalar fixpoint sweep the frontier-batched numpy
engine solves with order-free rounds — but running as one compiled
loop over the raw ``up_weights`` / down-CSR / flat-label buffers, with
an array-backed binary min-heap replacing :class:`LazyHeap`. The heap
keeps the lazy-push semantics of the reference engine (an ``in_queue``
flag per item: pushes of queued items are dropped, items re-enter after
their pop), and every relaxation carries the same strict-improvement or
exact-equality guards, so the compiled sweeps converge to bit-identical
weights and labels.

When numba is missing the module still imports: ``njit`` degrades to an
identity decorator and every kernel runs as plain Python. That keeps
the differential tests meaningful on numba-less machines — the kernel
*logic* is exercised either way; only the speed differs — and lets the
capability probe in :mod:`repro.labelling.compiled` decide at runtime
whether ``engine="compiled"`` is honoured or downgraded.

Changed-entry tracking stays out of the hot loop: callers pass ``changed``
(uint8) and ``first_old`` (float64) mark arrays sized like the weight or
value buffer; kernels set the mark and record the pre-batch value on the
first write, and the driver rebuilds the ``affected_shortcuts`` dict /
``affected_labels`` set from the marks afterwards.
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised on the numba CI leg
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - default in the bare environment
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """Identity decorator standing in for :func:`numba.njit`."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def _heap_push(keys, items, size, key, item):
    """Sift ``(key, item)`` into the binary min-heap; returns new size."""
    i = size
    keys[i] = key
    items[i] = item
    while i > 0:
        parent = (i - 1) >> 1
        if keys[parent] <= keys[i]:
            break
        tk = keys[parent]
        keys[parent] = keys[i]
        keys[i] = tk
        ti = items[parent]
        items[parent] = items[i]
        items[i] = ti
        i = parent
    return size + 1


@njit(cache=True)
def _heap_pop(keys, items, size):
    """Pop the min item; returns ``(item, new_size)``."""
    item = items[0]
    size -= 1
    if size > 0:
        keys[0] = keys[size]
        items[0] = items[size]
        i = 0
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            child = left
            right = left + 1
            if right < size and keys[right] < keys[left]:
                child = right
            if keys[i] <= keys[child]:
                break
            tk = keys[i]
            keys[i] = keys[child]
            keys[child] = tk
            ti = items[i]
            items[i] = items[child]
            items[child] = ti
            i = child
    return item, size


@njit(cache=True)
def _vertex_of(offsets, pos):
    """Vertex owning flat label position ``pos`` (capacity offsets)."""
    lo = 0
    hi = offsets.shape[0] - 1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid
    return lo


@njit(cache=True)
def _find_slot(slot_keys, key):
    """Index of ``key`` in the sorted ``slot_keys`` (leftmost match)."""
    lo = 0
    hi = slot_keys.shape[0]
    while lo < hi:
        mid = (lo + hi) >> 1
        if slot_keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True)
def shortcut_decrease_sweep(
    seeds,
    weights,
    indptr,
    indices,
    ranks,
    owners,
    slot_keys,
    rank,
    n,
    changed,
    first_old,
):
    """Algorithm 2 fixpoint: chaotic min-relaxation, deepest owner first.

    Seeds are weight cells already lowered (and pre-marked) by the
    driver; ``weights`` holds one plane per ``owners.shape[0]`` cells
    (cell = slot + m * plane, see the ``Engine`` contract). Each pop
    relaxes every triangle through the owner's up-row — second leg from
    the opposite plane — and strictly improved targets are marked,
    lowered, and queued. Because pushes go strictly shallower than the
    popping owner, every cell pops at most once. Returns True (stopping
    early) when a finite candidate targets a pair that compaction
    removed — the contract's fallback signal.
    """
    num_cells = weights.shape[0]
    m = owners.shape[0]
    last = num_cells - m  # offset of the last plane: 0 with one plane
    heap_keys = np.empty(num_cells, np.int64)
    heap_items = np.empty(num_cells, np.int64)
    in_queue = np.zeros(num_cells, np.uint8)
    size = 0
    for i in range(seeds.shape[0]):
        cell = seeds[i]
        if in_queue[cell] == 0:
            in_queue[cell] = 1
            size = _heap_push(
                heap_keys, heap_items, size, rank[owners[cell % m]], cell
            )
    while size > 0:
        cell, size = _heap_pop(heap_keys, heap_items, size)
        in_queue[cell] = 0
        slot = cell
        own = 0
        if last > 0:
            slot = cell % m
            own = cell - slot
        opposite = last - own
        v = owners[slot]
        w_vw = weights[cell]
        ra = ranks[slot]
        a = indices[slot]
        for leg in range(indptr[v], indptr[v + 1]):
            if leg == slot:
                continue
            cand = w_vw + weights[leg + opposite]
            rb = ranks[leg]
            if ra < rb:
                key = a * n + rb
                plane = opposite
            else:
                key = indices[leg] * n + ra
                plane = own
            tslot = _find_slot(slot_keys, key)
            # A compacted store may have dropped the target pair (it was
            # inf). An inf candidate could never win a minimum and is
            # skipped; a finite one (only an insertion-seeded sweep can
            # produce it) has no slot to land in. The check also keeps
            # the probe in bounds.
            if tslot >= m or slot_keys[tslot] != key:
                if cand < math.inf:
                    return True
                continue
            target = tslot + plane
            if weights[target] > cand:
                if changed[target] == 0:
                    changed[target] = 1
                    first_old[target] = weights[target]
                weights[target] = cand
                if in_queue[target] == 0:
                    in_queue[target] = 1
                    size = _heap_push(
                        heap_keys,
                        heap_items,
                        size,
                        rank[owners[tslot]],
                        target,
                    )
    return False


@njit(cache=True)
def shortcut_increase_sweep(
    seeds,
    weights,
    indptr,
    indices,
    ranks,
    owners,
    slot_keys,
    down_indptr,
    down_indices,
    down_slots,
    direct,
    rank,
    n,
    changed,
    first_old,
):
    """Algorithm 3 fixpoint: recompute suspects, deepest owner first.

    A popped cell ``(v, w, plane)`` is recomputed as the min of its
    direct edge weight (the ``direct`` per-cell cache, inf where no
    edge) and every common down-triangle — ``(x, v)`` from the opposite
    plane plus ``(x, w)`` from its own; the down rows are vertex-sorted,
    so a two-pointer intersection walks them. When the weight moves,
    every shallower pair whose old chained value matched is re-queued
    (the exact-equality guard of the reference engine). Returns pop
    count.
    """
    num_cells = weights.shape[0]
    m = owners.shape[0]
    last = num_cells - m  # offset of the last plane: 0 with one plane
    heap_keys = np.empty(num_cells, np.int64)
    heap_items = np.empty(num_cells, np.int64)
    in_queue = np.zeros(num_cells, np.uint8)
    size = 0
    for i in range(seeds.shape[0]):
        cell = seeds[i]
        if in_queue[cell] == 0:
            in_queue[cell] = 1
            size = _heap_push(
                heap_keys, heap_items, size, rank[owners[cell % m]], cell
            )
    pops = 0
    while size > 0:
        cell, size = _heap_pop(heap_keys, heap_items, size)
        in_queue[cell] = 0
        pops += 1
        slot = cell
        own = 0
        if last > 0:
            slot = cell % m
            own = cell - slot
        opposite = last - own
        v = owners[slot]
        w = indices[slot]
        w_new = direct[cell]
        pa = down_indptr[v]
        ea = down_indptr[v + 1]
        pb = down_indptr[w]
        eb = down_indptr[w + 1]
        while pa < ea and pb < eb:
            xa = down_indices[pa]
            xb = down_indices[pb]
            if xa == xb:
                cand = (
                    weights[down_slots[pa] + opposite]
                    + weights[down_slots[pb] + own]
                )
                if cand < w_new:
                    w_new = cand
                pa += 1
                pb += 1
            elif xa < xb:
                pa += 1
            else:
                pb += 1
        old = weights[cell]
        if old != w_new:
            ra = ranks[slot]
            for leg in range(indptr[v], indptr[v + 1]):
                if leg == slot:
                    continue
                rb = ranks[leg]
                if ra < rb:
                    key = w * n + rb
                    plane = opposite
                else:
                    key = indices[leg] * n + ra
                    plane = own
                tslot = _find_slot(slot_keys, key)
                # Pairs dropped by compaction were inf — no suspect.
                if tslot >= m or slot_keys[tslot] != key:
                    continue
                target = tslot + plane
                if weights[target] == old + weights[leg + opposite]:
                    if in_queue[target] == 0:
                        in_queue[target] = 1
                        size = _heap_push(
                            heap_keys,
                            heap_items,
                            size,
                            rank[owners[tslot]],
                            target,
                        )
            if changed[cell] == 0:
                changed[cell] = 1
                first_old[cell] = old
            weights[cell] = w_new
    return pops


@njit(cache=True)
def label_decrease_sweep(
    seed_pos,
    values,
    offsets,
    tau,
    weights,
    down_indptr,
    down_indices,
    down_slots,
    changed,
):
    """Algorithm 4 fixpoint: push improved entries down, shallowest first.

    ``seed_pos`` are flat label positions already lowered (and marked)
    by the driver's batched seed phase. Each pop relaxes the entry along
    every down shortcut of its vertex into the same ancestor column;
    strict improvements are written, marked, and queued with key
    ``tau``. Returns the number of entries popped.
    """
    cap = values.shape[0]
    heap_keys = np.empty(cap, np.int64)
    heap_items = np.empty(cap, np.int64)
    in_queue = np.zeros(cap, np.uint8)
    size = 0
    for i in range(seed_pos.shape[0]):
        pos = seed_pos[i]
        if in_queue[pos] == 0:
            in_queue[pos] = 1
            size = _heap_push(
                heap_keys, heap_items, size, tau[_vertex_of(offsets, pos)], pos
            )
    pops = 0
    while size > 0:
        pos, size = _heap_pop(heap_keys, heap_items, size)
        in_queue[pos] = 0
        pops += 1
        v = _vertex_of(offsets, pos)
        col = pos - offsets[v]
        value = values[pos]
        for didx in range(down_indptr[v], down_indptr[v + 1]):
            u = down_indices[didx]
            cand = weights[down_slots[didx]] + value
            tpos = offsets[u] + col
            if cand < values[tpos]:
                values[tpos] = cand
                changed[tpos] = 1
                if in_queue[tpos] == 0:
                    in_queue[tpos] = 1
                    size = _heap_push(
                        heap_keys, heap_items, size, tau[u], tpos
                    )
    return pops


@njit(cache=True)
def label_increase_sweep(
    seed_verts,
    seed_cols,
    values,
    offsets,
    tau,
    weights,
    indptr,
    indices,
    down_indptr,
    down_indices,
    down_slots,
    changed,
):
    """Algorithm 5 fixpoint: recompute suspect entries, shallowest first.

    Each popped entry ``(v, col)`` is recomputed per Property 3.1 — the
    min over up shortcuts into ancestors at least ``col`` deep. If the
    value rose, down entries whose old chained value matched are queued
    (exact-equality guard); any change is marked. Returns
    ``(pops, increased)`` where ``increased`` counts entries whose
    recomputed value strictly rose — the reference engine's
    ``labels_changed``.
    """
    cap = values.shape[0]
    heap_keys = np.empty(cap, np.int64)
    heap_items = np.empty(cap, np.int64)
    in_queue = np.zeros(cap, np.uint8)
    size = 0
    for i in range(seed_verts.shape[0]):
        pos = offsets[seed_verts[i]] + seed_cols[i]
        if in_queue[pos] == 0:
            in_queue[pos] = 1
            size = _heap_push(
                heap_keys, heap_items, size, tau[seed_verts[i]], pos
            )
    pops = 0
    increased = 0
    while size > 0:
        pos, size = _heap_pop(heap_keys, heap_items, size)
        in_queue[pos] = 0
        pops += 1
        v = _vertex_of(offsets, pos)
        col = pos - offsets[v]
        w_new = math.inf
        for slot in range(indptr[v], indptr[v + 1]):
            w = indices[slot]
            if tau[w] >= col:
                cand = weights[slot] + values[offsets[w] + col]
                if cand < w_new:
                    w_new = cand
        old = values[pos]
        if w_new > old:
            for didx in range(down_indptr[v], down_indptr[v + 1]):
                u = down_indices[didx]
                tpos = offsets[u] + col
                if weights[down_slots[didx]] + old == values[tpos]:
                    if in_queue[tpos] == 0:
                        in_queue[tpos] = 1
                        size = _heap_push(
                            heap_keys, heap_items, size, tau[u], tpos
                        )
            increased += 1
        if w_new != old:
            changed[pos] = 1
        values[pos] = w_new
    return pops, increased


@njit(cache=True)
def query_gather(s, t, k, values, offsets, out, best):
    """Batch distance gather: per-pair min over the common ancestor run.

    For each pair the first ``k`` label entries of both endpoints are
    summed and minimised in one fused loop — no gather temporaries.
    ``best`` receives the argmin column (−1 for same-vertex pairs and
    unreachable results), matching the numpy kernel's hub contract.
    """
    for idx in range(s.shape[0]):
        si = s[idx]
        ti = t[idx]
        if si == ti:
            out[idx] = 0.0
            best[idx] = -1
            continue
        kk = k[idx]
        if kk <= 0:
            out[idx] = math.inf
            best[idx] = -1
            continue
        off_s = offsets[si]
        off_t = offsets[ti]
        bv = values[off_s] + values[off_t]
        bi = 0
        for j in range(1, kk):
            c = values[off_s + j] + values[off_t + j]
            if c < bv:
                bv = c
                bi = j
        out[idx] = bv
        if bv == math.inf:
            best[idx] = -1
        else:
            best[idx] = bi
