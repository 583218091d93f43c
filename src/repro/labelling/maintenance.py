"""Dynamic maintenance — Algorithms 2-5 of the paper (scalar reference).

Two layers are maintained, in order:

1. **Shortcuts** (update hierarchy H_U): Algorithm 2 (decrease) relaxes
   triangle inequalities outward from the changed edges; Algorithm 3
   (increase) re-derives affected shortcut weights from Property 3.1.
   Both process shortcuts bottom-up (decreasing ``tau`` of the deeper
   endpoint == increasing contraction rank), so triangle legs are always
   final before they are used. These run on any
   :class:`~repro.hierarchy.contraction.ContractionResult`, which lets the
   DCH/IncH2H baselines reuse them.
2. **Labels** (hierarchical labelling L): Algorithm 4 (decrease) relaxes
   label entries along shortcut chains; Algorithm 5 (increase) recomputes
   potentially affected entries from up-neighbours, support-free (the
   paper's deliberate trade-off — Section 8 "Boundedness"). Entries are
   processed top-down (increasing ``tau``), so ancestor columns are final
   before descendants read them.

This module defines the engine contract (:class:`Engine`: the four
sweeps :mod:`repro.labelling.driver` calls) and its one-pop-per-entry
*reference* implementation, selected with
``DHLConfig(engine="reference")`` and what ``"compiled"`` downgrades to
on a host without a C compiler. Production updates run the C heap
sweeps of :mod:`repro.labelling.native`, whose label sweeps pop a
vertex and handle all of its queued entries at once (ancestor columns
are independent); they must produce identical labels, change counts
and affected sets — the differential property tests rely on it.

Increase-side pruning tests exact equality of path sums; with integer
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
    """The whole maintenance-engine contract: four fixpoint sweeps.

    The shortcut sweeps take a whole *store*
    (:class:`~repro.hierarchy.contraction.ContractionResult`: ``csr`` of
    ``m`` slots, ``planes`` weight planes in one flat ``up_weights``)
    and work on weight **cells** ``slot + m * plane``. Two rules make
    one sweep serve one plane or two. A triangle through owner ``v``
    from cell ``(v, w, plane)`` reads its second leg ``(v, o)`` from
    the opposite plane, ``leg + m * (planes - 1 - plane)``, and lands on
    pair ``(w, o)`` in plane ``(rank[o] > rank[w]) xor plane``. Property
    3.1 for that cell is ``direct[cell]`` min-combined, over the common
    down-neighbours ``x``, with ``W[(x, v) + m * (planes - 1 - plane)] +
    W[(x, w) + m * plane]``. With one plane every offset is zero.

    The label sweeps take one plane at a time, shaped like a one-plane
    store (``csr``, that plane's ``up_weights``, ``tau``), and *labels*,
    a flat :class:`~repro.labelling.labels.HierarchicalLabelling`.
    Sweeps never touch the graph.

    Every sweep records its writes in the caller's *marks* and hands
    back what it touched, so the driver reads lists, never a
    store-sized array. Shortcut sweeps take :func:`cell_marks`
    ``(changed, first_old, touched, count)``: the first write to a cell
    sets ``changed[cell]``, keeps its pre-batch weight in
    ``first_old[cell]`` and appends it to ``touched``, ``count[0]``
    long; counts are in/out — a sweep appends after what the caller
    listed. Label sweeps take fresh :func:`entry_marks` ``(changed,
    touched, vertex_marks, touched_vertices, count)``: the first change
    of a flat position marks and lists it (``count[0]``), and the first
    of a vertex's entries also lists the vertex (``vertex_marks``,
    ``count[1]``). Fresh, because a decrease sweep may use its own
    ``changed`` marks as its queue. :func:`mark_cell` /
    :func:`mark_entry` are the one way the scalar sweeps (and the driver,
    for its own shortcut seed writes) append.

    * ``shortcut_decrease_sweep(store, seeds, marks)`` — Algorithm 2
      from the lowered seed cells, which the driver marked. Returns True
      as soon as a *finite* candidate targets a pair that compaction
      removed: the store has no slot to absorb it and the driver hands
      over to the rebuild fallback.
    * ``shortcut_increase_sweep(store, seeds, direct, marks)`` —
      Algorithm 3 over the suspect seed cells; ``direct`` holds each
      cell's direct edge (arc) weight, inf without one.
    * ``label_decrease_sweep(store, labels, slots, marks)`` — Algorithm
      4 for the changed shortcut *slots* of the plane, seed phase
      included: each slot ``(lo, hi)`` relaxes row ``lo`` against row
      ``hi`` with its new weight, then the lowered entries sweep down.
      Returns the entries handled (each lowered entry once).
    * ``label_increase_sweep(store, labels, slots, old, marks)`` —
      Algorithm 5 for the changed *slots*, whose pre-batch weights are
      *old*: the seed phase reads which entries of row ``lo`` the old
      chain through ``hi`` realised, and those suspects are recomputed;
      returns ``(entries handled, distinct entries whose value
      rose)``.
    """

    shortcut_decrease_sweep: Callable
    shortcut_increase_sweep: Callable
    label_decrease_sweep: Callable
    label_increase_sweep: Callable


@dataclass
class MaintenanceStats:
    """Work counters reported by the update algorithms.

    ``shortcuts_changed`` is the paper's |S-delta|; ``labels_changed`` is
    |L-delta| (distinct label entries whose value changed);
    ``entries_processed`` counts the label entries a sweep handled
    (search effort: each lowered or suspect entry once, whether the
    engine pops it alone or with its vertex's other queued entries). It
    is the only field that may differ between engines: their increase
    sweeps test suspects through different but equally exact chains.
    ``affected_labels`` holds the vertices
    whose label array was modified; a distance ``d(s, t)`` is a pure
    function of ``L_s`` and ``L_t``, so a cached result is stale only
    when one of its endpoints is in this set — the serving layer's
    fine-grained cache eviction relies on it.

    ``phases`` maps maintenance phase names (``decrease.relax_round``,
    ``increase.dependency_layer``, ``decrease.label_sweep``, ...) to
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


def _cell_heap(sc, seeds) -> LazyHeap[int]:
    heap: LazyHeap[int] = LazyHeap()
    for cell in seeds.tolist():
        _push_cell(heap, sc, cell)
    return heap


def triangles(sc, cell: int):
    """Every triangle through the owner of *cell*: ``(leg cell, target)``.

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
            target = sc.find_edge_slot(w, o) if plane else sc.find_edge_slot(o, w)
            yield leg + opposite, target


def shortcut_decrease_sweep(sc, seeds, marks) -> bool:
    """Algorithm 2 — DH-U under edge weight decrease."""
    weights = sc.up_weights
    heap = _cell_heap(sc, seeds)
    while heap:
        cell, _ = heap.pop()
        for leg, target in triangles(sc, cell):
            candidate = weights[cell] + weights[leg]
            if target < 0:
                # The pair was inf when the store was compacted. A pure
                # weight decrease can never produce a finite candidate
                # for it (both legs finite implies the target was finite
                # pre-compaction); an insertion-seeded sweep can.
                if math.isfinite(candidate):
                    return True
                continue
            if weights[target] > candidate:
                mark_cell(marks, target, weights)
                weights[target] = candidate
                _push_cell(heap, sc, target)
    return False


def shortcut_increase_sweep(sc, seeds, direct, marks) -> None:
    """Algorithm 3 — DH-U under edge weight increase.

    Recomputes every potentially affected shortcut from Property 3.1
    bottom-up.
    """
    csr = sc.csr
    m = csr.num_slots
    weights = sc.up_weights
    heap = _cell_heap(sc, seeds)
    while heap:
        cell, _ = heap.pop()
        plane, slot = divmod(cell, m)
        # Recompute the shortcut weight from Equation (1).
        w_new = direct[cell]
        via_v, via_w = csr.common_down(int(csr.owners[slot]), int(csr.indices[slot]))
        via_v += m * (sc.planes - 1 - plane)
        via_w += m * plane
        for leg_v, leg_w in zip(via_v.tolist(), via_w.tolist()):
            candidate = weights[leg_v] + weights[leg_w]
            if candidate < w_new:
                w_new = candidate
        old = weights[cell]
        if old != w_new:
            for leg, target in triangles(sc, cell):
                # Triangles realising the old weight are potentially hit
                # (pairs removed by compaction were inf — no suspect).
                if target >= 0 and weights[target] == old + weights[leg]:
                    _push_cell(heap, sc, target)
            mark_cell(marks, cell, weights)
            weights[cell] = w_new


# ---------------------------------------------------------------------------
# Label maintenance (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

def label_decrease_sweep(hu, labels, slots, marks) -> int:
    """Algorithm 4 — DHL- label maintenance under weight decrease."""
    tau = hu.tau
    csr = hu.csr
    weights = hu.up_weights
    arrays = labels.views()
    offsets = labels.offsets
    heap: LazyHeap[tuple[int, int]] = LazyHeap()
    # Phase 1: ancestor-side improvements through each changed shortcut.
    for slot in slots.tolist():
        lo, hi = int(csr.owners[slot]), int(csr.indices[slot])
        w, row, up = weights[slot], arrays[lo], arrays[hi]
        th = int(tau[hi])
        if w < row[th]:
            for i in range(th + 1):
                candidate = w + up[i]
                if candidate < row[i]:
                    row[i] = candidate
                    mark_entry(marks, offsets[lo] + i, lo)
                    heap.push((lo, i), int(tau[lo]))
    pops = 0
    while heap:
        (v, i), _ = heap.pop()
        pops += 1
        value = arrays[v][i]
        tv = int(tau[v])
        for u in csr.down_row(v).tolist():
            row = arrays[u]
            candidate = row[tv] + value
            if candidate < row[i]:
                row[i] = candidate
                mark_entry(marks, offsets[u] + i, u)
                heap.push((u, i), int(tau[u]))
    return pops


def label_increase_sweep(hu, labels, slots, old, marks) -> tuple[int, int]:
    """Algorithm 5 — DHL+ label maintenance under weight increase.

    Support-free: every suspect entry is recomputed from up-neighbour
    labels; strictly increased entries trigger a descendant sweep guarded
    by path-sum equality.
    """
    tau = hu.tau
    csr = hu.csr
    weights = hu.up_weights
    arrays = labels.views()
    offsets = labels.offsets
    heap: LazyHeap[tuple[int, int]] = LazyHeap()
    # Phase 1: entries the changed shortcuts' old weights realised.
    for slot, w in zip(slots.tolist(), old.tolist()):
        lo, hi = int(csr.owners[slot]), int(csr.indices[slot])
        row, up = arrays[lo], arrays[hi]
        th = int(tau[hi])
        if w == row[th]:
            for i in range(th + 1):
                # inf == inf keeps an unreachable entry suspect.
                if w + up[i] == row[i]:
                    heap.push((lo, i), int(tau[lo]))
    pops = increased = 0
    while heap:
        (v, i), _ = heap.pop()
        pops += 1
        row = arrays[v]
        w_new = math.inf
        for slot in range(*csr.row_bounds(v)):
            w = csr.indices[slot]
            if tau[w] >= i:
                candidate = weights[slot] + arrays[w][i]
                if candidate < w_new:
                    w_new = candidate
        old_value = row[i]
        if w_new > old_value:
            tv = int(tau[v])
            for u in csr.down_row(v).tolist():
                urow = arrays[u]
                chained = urow[tv] + old_value
                if chained == urow[i] or (
                    math.isinf(chained) and math.isinf(urow[i])
                ):
                    heap.push((u, i), int(tau[u]))
            increased += 1
        if w_new != old_value:
            mark_entry(marks, offsets[v] + i, v)
        row[i] = w_new
    return pops, increased


ENGINE = Engine(
    shortcut_decrease_sweep,
    shortcut_increase_sweep,
    label_decrease_sweep,
    label_increase_sweep,
)
