"""The scalar sweeps of Algorithms 2-5, kept as the C sweeps' oracle.

One pop per cell / entry, :class:`~tests.oracles.priority_queue.LazyHeap`
queues, exactly the paper's loops: the bodies the package ran as its
``reference`` engine before :mod:`repro.labelling.native.engine` became
the only one. :func:`shortcut_sweep` and :func:`label_sweep` take the
C sweeps' arguments and marks (the contract is stated in that module),
so :func:`tests.oracles.python_kernels` can swap them in under the
driver; the differential tests require equal bits, change counts and
affected sets.
"""

from __future__ import annotations

import math

import numpy as np

from tests.oracles.priority_queue import LazyHeap

__all__ = ["label_sweep", "mark_cell", "mark_entry", "shortcut_sweep"]


def mark_cell(marks, cell: int, weights) -> None:
    """First write to *cell*: mark it, keep its weight, list it."""
    changed, first_old, touched, count = marks
    if not changed[cell]:
        changed[cell] = 1
        first_old[cell] = weights[cell]
        touched[count[0]] = cell
        count[0] += 1


def mark_entry(marks, pos: int, v: int) -> None:
    """Flat position *pos* of vertex *v* changed: mark and list it, and
    *v* on the first change among its entries."""
    changed, touched, vertex_marks, touched_vertices, count = marks
    if not changed[pos]:
        changed[pos] = 1
        touched[count[0]] = pos
        count[0] += 1
        if not vertex_marks[v]:
            vertex_marks[v] = 1
            touched_vertices[count[1]] = v
            count[1] += 1


# ---------------------------------------------------------------------------
# Shortcut maintenance (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

def _push_cell(heap: LazyHeap[int], sc, cell: int) -> None:
    """Queue *cell* by its owner's contraction rank (deepest first)."""
    owner = sc.csr.owners[cell % sc.csr.num_slots]
    heap.push(cell, int(sc.rank[owner]))


def triangles(sc, cell: int):
    """Every triangle through the owner of *cell*: ``(leg cell, pair)``,
    whose target cell is ``sc.find_edge_slot(*pair)``.

    Cell ``(v, w)`` of plane 0 is the arc ``v -> w``, of the second of
    two planes the arc ``w -> v``. A partner ``o`` in ``v``'s up row
    closes the path ``o -> v -> w`` (resp. ``w -> v -> o``): its leg is
    slot ``(v, o)`` in the opposite plane and the result lands on the
    arc ``o -> w`` (resp. ``w -> o``) — -1 where compaction removed
    that pair. With one plane arcs are edges and both readings agree.
    """
    csr = sc.csr
    plane, slot = divmod(cell, csr.num_slots)
    w = int(csr.indices[slot])
    opposite = csr.num_slots * (sc.planes - 1 - plane)
    start, end = csr.row_bounds(int(csr.owners[slot]))
    for leg in range(start, end):
        if leg != slot:
            o = int(csr.indices[leg])
            yield leg + opposite, ((w, o) if plane else (o, w))


def shortcut_sweep(sc, raised, lowered, direct, marks) -> bool:
    """Algorithms 2 and 3 — DH-U under a mixed weight batch.

    A suspect cell is recomputed from Property 3.1 at its pop; any
    other queued cell takes its (lowered) direct weight. A cell that
    moved — or a suspect whose partner moved — then visits its
    triangles: a rise flags the targets its pre-batch weight realised,
    and every pair whose legs are both settled relaxes its target.
    """
    csr, weights = sc.csr, sc.up_weights
    m = csr.num_slots
    changed, first_old, _, _ = marks
    suspects = set(raised.tolist())
    heap: LazyHeap[int] = LazyHeap()
    for cell in (*raised.tolist(), *lowered.tolist()):
        _push_cell(heap, sc, cell)

    def old(cell: int) -> float:
        return first_old[cell] if changed[cell] else weights[cell]

    while heap:
        cell, _ = heap.pop()
        was = old(cell)
        suspect = cell in suspects
        now = direct[cell]
        if suspect:  # Property 3.1 over its (final) lower triangles
            plane, slot = divmod(cell, m)
            v, w = int(csr.owners[slot]), int(csr.indices[slot])
            via_v, via_w = csr.common_down(v, w)
            via_v += m * (sc.planes - 1 - plane)
            via_w += m * plane
            for leg_v, leg_w in zip(via_v.tolist(), via_w.tolist()):
                now = min(now, weights[leg_v] + weights[leg_w])
        else:
            now = min(now, weights[cell])
        if now != weights[cell]:
            mark_cell(marks, cell, weights)
            weights[cell] = now
        moved = not suspect or now != was
        for leg, pair in triangles(sc, cell):
            if not moved and not changed[leg]:
                continue
            target = sc.find_edge_slot(*pair)
            # A suspect partner still queued is not final: its own pop
            # relaxes this pair.
            settled = not (leg in suspects and leg in heap)
            candidate = now + weights[leg]
            if target < 0:
                # Compaction removed the pair as inf; only an insertion-
                # seeded sweep can make a finite candidate for it.
                if settled and math.isfinite(candidate):
                    return True
                continue
            if now > was and not changed[target] and (
                weights[target] == was + old(leg)
            ):
                suspects.add(target)
                _push_cell(heap, sc, target)
            if settled and target not in suspects and weights[target] > candidate:
                mark_cell(marks, target, weights)
                weights[target] = candidate
                _push_cell(heap, sc, target)
    return False


# ---------------------------------------------------------------------------
# Label maintenance (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

def label_sweep(hu, labels, slots, slot_marks, marks) -> int:
    """Algorithms 4 and 5 — DHL label maintenance under a mixed batch.

    Seeds: a raised slot ``(lo, hi)`` flags the entries of row ``lo``
    its old weight realised through row ``hi``; a lowered one queues a
    pull of row ``lo``, which pops once every row above ``lo`` is final
    and relaxes the non-suspect entries through ``lo``'s lowered slots.
    At its pop a suspect entry is recomputed from its up-neighbours
    (support-free). A risen entry then flags the descendant entries its
    old value realised, a lowered one relaxes them.
    """
    tau = hu.tau
    csr = hu.csr
    weights = hu.up_weights
    slot_changed, slot_old = slot_marks
    arrays = labels.views()
    offsets = labels.offsets
    changed = marks[0]
    heap: LazyHeap[tuple[int, int]] = LazyHeap()
    suspects: set[int] = set()
    pulls: dict[int, list[int]] = {}
    for slot in slots.tolist():
        lo, hi = int(csr.owners[slot]), int(csr.indices[slot])
        w, row, up = slot_old[slot], arrays[lo], arrays[hi]
        th = int(tau[hi])
        if weights[slot] < w:
            # Entry -1 is the pull; it pops after every shallower row.
            pulls.setdefault(lo, []).append(slot)
            heap.push((lo, -1), tau[lo] - 0.5)
        elif w == row[th]:
            for i in range(th + 1):
                # inf == inf keeps an unreachable entry suspect.
                if w + up[i] == row[i]:
                    suspects.add(int(offsets[lo]) + i)
                    heap.push((lo, i), int(tau[lo]))
    pops = 0
    while heap:
        (v, i), _ = heap.pop()
        row = arrays[v]
        if i < 0:
            base = int(offsets[v])
            for slot in pulls[v]:
                w, up = weights[slot], arrays[csr.indices[slot]]
                th = len(up) - 1
                # A slot no shorter than v's non-suspect entry for hi lowers nothing.
                if base + th not in suspects and not w < row[th]:
                    continue
                for c, candidate in enumerate((w + up).tolist()):
                    if candidate < row[c] and base + c not in suspects:
                        row[c] = candidate
                        mark_entry(marks, base + c, v)
                        heap.push((v, c), int(tau[v]))
            continue
        pops += 1
        pos = int(offsets[v]) + i
        value = fresh = row[i]
        if pos in suspects:
            fresh = math.inf
            for slot in range(*csr.row_bounds(v)):
                w = csr.indices[slot]
                if tau[w] >= i:
                    fresh = min(fresh, weights[slot] + arrays[w][i])
            if fresh != value:
                mark_entry(marks, pos, v)
                row[i] = fresh
        risen = fresh > value
        if not (risen or changed[pos]):
            continue
        down = slice(int(csr.down_indptr[v]), int(csr.down_indptr[v + 1]))
        us, down_slots = csr.down_indices[down], csr.down_slots[down]
        upositions = (offsets[us] + i).tolist()
        if risen:
            # Each down entry's pre-batch chain through v: old slot weight.
            old_weights = np.where(
                slot_changed[down_slots], slot_old[down_slots], weights[down_slots]
            )
            chains = (old_weights + value).tolist()
            for u, upos, chained in zip(us.tolist(), upositions, chains):
                if not changed[upos] and chained == arrays[u][i]:
                    suspects.add(upos)
                    heap.push((u, i), int(tau[u]))
            continue
        candidates = (weights[down_slots] + fresh).tolist()
        for u, upos, candidate in zip(us.tolist(), upositions, candidates):
            if candidate < arrays[u][i] and upos not in suspects:
                arrays[u][i] = candidate
                mark_entry(marks, upos, u)
                heap.push((u, i), int(tau[u]))
    return pops

