"""Dynamic maintenance — Algorithms 2-5 of the paper (scalar reference).

Two layers are maintained, in order, each by one sweep over a whole
weight batch, raised and lowered roads together: the shortcuts of the
update hierarchy H_U (Algorithms 2 and 3, bottom-up by contraction
rank, on any :class:`~repro.hierarchy.contraction.ContractionResult`,
so the DCH/IncH2H baselines reuse it), then the labelling L
(Algorithms 4 and 5, top-down by ``tau``, support-free — the paper's
Section 8 "Boundedness" trade-off). Either order makes whatever an
item reads final before it is read.

This module defines the engine contract (:class:`Engine`) and its
one-pop-per-entry *reference* implementation, selected with
``DHLConfig(engine="reference")`` and what ``"compiled"`` downgrades to
on a host without a C compiler. Production updates run the C sweeps of
:mod:`repro.labelling.native`, whose label sweep pops a vertex with all
its queued entries (ancestor columns are independent); both must
produce identical labels, change counts and affected sets — the
differential property tests rely on it.

Suspect tests compare exact equality of path sums; with integer
weights (the library default) these comparisons are exact in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.utils.priority_queue import LazyHeap

__all__ = [
    "Engine",
    "MaintenanceStats",
    "ENGINE",
    "cell_marks",
    "entry_marks",
    "mark_cell",
    "mark_entry",
]

WeightChange = tuple[int, int, float]
ShortcutKey = tuple[int, int]


class Engine(NamedTuple):
    """The whole maintenance-engine contract: two fixpoint sweeps.

    The shortcut sweep takes a whole *store*
    (:class:`~repro.hierarchy.contraction.ContractionResult`: ``csr`` of
    ``m`` slots, ``planes`` weight planes in one flat ``up_weights``)
    and works on weight **cells** ``slot + m * plane``. Two rules make
    one sweep serve one plane or two. A triangle through owner ``v``
    from cell ``(v, w, plane)`` reads its second leg ``(v, o)`` from
    the opposite plane, ``leg + m * (planes - 1 - plane)``, and lands on
    pair ``(w, o)`` in plane ``(rank[o] > rank[w]) xor plane``. Property
    3.1 for that cell is ``direct[cell]`` min-combined, over the common
    down-neighbours ``x``, with ``W[(x, v) + m * (planes - 1 - plane)] +
    W[(x, w) + m * plane]``. With one plane every offset is zero.

    The label sweep takes one plane at a time, shaped like a one-plane
    store (``csr``, that plane's ``up_weights``, ``tau``), and *labels*,
    a flat :class:`~repro.labelling.labels.HierarchicalLabelling`.
    Sweeps never touch the graph.

    **The invariant** both engines hold, in both sweeps:

    * Pop order: a cell pops after every cell of a deeper owner, a
      vertex after all its ancestors; each item pops at most once.
    * Seeds only read and queue. A raised change flags as *suspect*
      each dependent whose pre-batch value it realised; a lowered change
      queues what it may lower.
    * Every write is either a suspect's recompute at its pop (Property
      3.1, or Algorithm 5's recompute) from witnesses that are already
      final, or a relaxation ``min(current, a + b)`` where ``a`` and
      ``b`` are each final or never suspect.
    * Relaxations skip suspects (the recompute covers them), and no
      prune reads a suspect: a label relaxation through a lowered slot
      ``(lo, hi)`` runs at ``lo``'s pop, when row ``hi`` is final.
    * Tightness tests compare pre-batch operands: a rewritten cell's
      ``first_old``, a changed slot's pre-batch weight. An item the
      batch has already lowered never turns suspect: relaxations bring
      it to its final value.

    So a one-kind batch writes what Algorithm 2/4 or 3/5 alone writes,
    and in a mixed batch each moved cell and entry is written, and
    counted, once.

    Each sweep records its writes in the caller's fresh *marks* and
    hands back what it touched, so the driver reads lists, never a
    store-sized array: :func:`cell_marks` ``(changed, first_old,
    touched, count)`` keep each written cell's pre-batch weight and list
    it once; :func:`entry_marks` ``(changed, touched, vertex_marks,
    touched_vertices, count)`` list each changed label position once
    and each vertex on its first changed entry (``count[1]``). The
    label sweep reads its own ``changed`` marks as the queue of lowered
    entries. :func:`mark_cell` / :func:`mark_entry` are the one way the
    scalar sweeps append.

    * ``shortcut_sweep(store, raised, lowered, direct, marks)`` —
      Algorithms 2 and 3 from the *raised* (suspect) and *lowered* seed
      cells; ``direct`` holds each cell's direct edge (arc) weight, inf
      without one, already the batch's. Returns True as soon as a
      *finite* candidate targets a pair that compaction removed: the
      store has no slot to absorb it and the driver hands over to the
      rebuild fallback.
    * ``label_sweep(store, labels, slots, slot_marks, marks)`` —
      Algorithms 4 and 5 for the changed shortcut *slots* of the plane,
      seed phase included; *slot_marks* are the plane's ``(changed,
      first_old)`` of the shortcut sweep's marks, so a slot's pre-batch
      weight is ``first_old[slot]`` where ``changed[slot]``. Returns the
      entries handled (each lowered or suspect entry once).
    """

    shortcut_sweep: Callable
    label_sweep: Callable


@dataclass
class MaintenanceStats:
    """Work counters reported by the update algorithms.

    ``shortcuts_changed`` is the paper's |S-delta| (distinct weight
    cells whose value changed); ``labels_changed`` is |L-delta|
    (distinct label entries whose value changed); ``entries_processed``
    counts the label entries a sweep handled (search effort: each
    lowered or suspect entry once, whether the engine pops it alone or
    with its vertex's other queued entries). ``affected_labels`` holds
    the vertices whose label array was modified; a distance ``d(s, t)``
    is a pure function of ``L_s`` and ``L_t``, so a cached result is
    stale only when one of its endpoints is in this set — the serving
    layer's fine-grained cache eviction relies on it.

    ``phases`` maps maintenance phase names (``maintain.seed``,
    ``maintain.shortcut_sweep``, ``maintain.label_sweep``, ...) to
    wall seconds. It is populated only when a phase collector was
    active during the update (the observability layer's
    :func:`~repro.observability.collect_phases` — e.g. a service flush
    with an enabled registry); otherwise it stays empty, keeping the
    update path measurement-free.
    """

    shortcuts_changed: int = 0
    labels_changed: int = 0
    entries_processed: int = 0
    affected_shortcuts: dict[ShortcutKey, float] = field(default_factory=dict)
    affected_labels: set[int] = field(default_factory=set)
    phases: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "MaintenanceStats") -> "MaintenanceStats":
        # ``affected_shortcuts`` records the weight each shortcut held
        # *before* the batch; when both sides touched a shortcut, the
        # earliest recorded old weight must win, so *self* is unpacked
        # last.
        merged_shortcuts = {**other.affected_shortcuts, **self.affected_shortcuts}
        merged_phases = dict(self.phases)
        for name, seconds in other.phases.items():
            merged_phases[name] = merged_phases.get(name, 0.0) + seconds
        return MaintenanceStats(
            self.shortcuts_changed + other.shortcuts_changed,
            self.labels_changed + other.labels_changed,
            self.entries_processed + other.entries_processed,
            merged_shortcuts,
            self.affected_labels | other.affected_labels,
            merged_phases,
        )


# ---------------------------------------------------------------------------
# Marks: what a sweep wrote, and the lists of what it touched
# ---------------------------------------------------------------------------

def cell_marks(cells: int) -> tuple:
    """Fresh shortcut-sweep marks over *cells* weight cells:
    ``(changed, first_old, touched, count)``. The buffers are
    ``np.empty`` / ``np.zeros`` of the universe size, so only the pages
    a burst writes are ever committed."""
    return (
        np.zeros(cells, dtype=np.uint8),
        np.empty(cells, dtype=np.float64),
        np.empty(cells, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )


def entry_marks(positions: int, n: int) -> tuple:
    """Fresh label-sweep marks over *positions* flat label positions of
    *n* vertices: ``(changed, touched, vertex_marks, touched_vertices,
    count)``."""
    return (
        np.zeros(positions, dtype=np.uint8),
        np.empty(positions, dtype=np.int64),
        np.zeros(n, dtype=np.uint8),
        np.empty(n, dtype=np.int64),
        np.zeros(2, dtype=np.int64),
    )


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


ENGINE = Engine(shortcut_sweep, label_sweep)
