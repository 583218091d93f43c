"""Array-native dynamic maintenance — Algorithms 2-5 as order-free rounds.

The scalar reference in :mod:`repro.labelling.maintenance` processes one
shortcut or label entry per heap pop, in the paper's order (shortcuts
bottom-up by contraction rank, labels top-down by ``tau``), so that
everything an entry reads is final when it is read. These kernels drop
the order. Each sweep is a loop of **frontier rounds** over the flat CSR
stores — one ragged broadcast, one segmented reduction, one write per
round — and what the order used to guarantee is **re-delivered** by the
equality guard instead:

* **Decrease** (Algorithms 2 and 4) is a monotone min-relaxation:
  every active shortcut relaxes the triangles through its owner's up
  row, every active label entry relaxes its down row with
  ``w(u, v) + L_v[i]``; candidates that beat the stored value
  min-reduce per target (sort + ``np.minimum.reduceat``) and the
  strictly-improved targets form the next round's frontier. An
  improvement computed from a value that later improves again is
  simply improved again — chaotic label-correcting rounds.
* **Increase** (Algorithms 3 and 5) keeps a set of *pending suspects*
  and the invariant that **everything outside it satisfies its
  equation on the current values** (Property 3.1 for a shortcut, the
  up-row minimum ``min_w w(v, w) + L_w[i]`` for a label entry). A
  round recomputes *all* pending suspects from the current values and
  writes the ones that moved. A write can break an equation only where
  the moved value realised the minimum, so each moved value suspects
  exactly the dependants whose **post-write** value still equals its
  own **pre-write** value plus the other leg (pre-write too, for a
  shortcut triangle). That restores the invariant, whatever was stale:
  a suspect recomputed from a neighbour that had not moved yet is
  suspected again when the neighbour moves.

Both equation systems are acyclic (a shortcut depends on deeper
shortcuts only, an entry on shallower vertices' entries only), so each
has one fixpoint; values only move toward it (down on a decrease, up on
an increase, never past it), and a sweep ends when nothing is pending.
The final weights and labels therefore equal the reference's — and a
fresh build's — bit for bit, as do the change counts and affected sets:
``changed`` marks every position that moved and ``first_old`` keeps the
weight a slot held before its first write. Only ``entries_processed``
differs: it counts every entry of every round, re-delivered ones
included (1.2-1.4x the ordered sweep's count on the bench graphs).

What the rounds buy is their number. A burst's work chains through
shortcut *hops*, not through ``tau`` levels: measured on the benchmark's
graphs (rolling 16-change bursts, 2 cores; ms per burst,
best of three runs of the per-burst median, ordered level/layer sweeps
-> rounds):

=========================  ==============  ==============
phase                      ``grid`` 48x48  ``road`` 4,000
=========================  ==============  ==============
increase.dependency_layer  30.1 -> 11.1    1.11 -> 0.48
increase.label_sweep       25.0 -> 15.7    2.02 -> 1.38
decrease.relax_round        6.1 ->  3.4    0.24 -> 0.27
decrease.label_sweep       19.9 ->  5.6    1.75 -> 0.69
rounds, shortcut increase  93 -> 14.5      9.3 -> 6.8
rounds, label increase     177 -> 16.2     16.3 -> 9.0
rounds, label decrease     164 -> 13.5     13.2 -> 9.0
=========================  ==============  ==============

The label kernels relax along shortcut weights (Lemma 6.3) — the
substitution that makes the ancestor columns of the paper's Algorithms
6/7 independent, realised here as all columns in one batch rather than
threads. The four sweeps implement the
:class:`~repro.labelling.maintenance.Engine` contract; seeding,
validation, stats and phase marks live in :mod:`repro.labelling.driver`.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.maintenance import Engine
from repro.utils.ragged import expand_rows, segment_starts

__all__ = ["ENGINE"]


# ---------------------------------------------------------------------------
# Shortcut maintenance (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

def _mark_first_old(slots, weights, changed, first_old) -> None:
    """Record the pre-write weight of slots touched for the first time."""
    new = slots[changed[slots] == 0]
    first_old[new] = weights[new]
    changed[new] = 1


def _find_slots(slot_keys, keys):
    """``(slot, found)`` per key: one probe of the global slot-key table.

    ``found`` is False where compaction removed the pair (it was inf).
    """
    slots = np.searchsorted(slot_keys, keys)
    return slots, slot_keys[np.minimum(slots, len(slot_keys) - 1)] == keys


def _split_cells(sc, cells):
    """``(slots, own, opposite)`` of weight *cells*: each cell's slot and
    the buffer offsets of its own and of the opposite plane. A one-plane
    store's cells are its slots and both offsets are None — the
    undirected sweeps pay for neither the ``divmod`` nor the adds."""
    if sc.planes == 1:
        return cells, None, None
    m = sc.csr.num_slots
    plane, slots = np.divmod(cells, m)
    own = plane * m
    return slots, own, m - own


def _triangle_legs(sc, cells):
    """Every triangle through the owners' up rows.

    For each cell ``(v, w, plane)`` and each other slot ``(v, o)`` of
    its owner: ``(index into cells, leg cell, target cell, found)``. The
    leg is read from the opposite plane; the target is the pair
    ``(w, o)``, keyed by the deeper endpoint's id and the shallower
    one's rank, in plane ``(rank[o] > rank[w]) xor plane``.
    """
    csr = sc.csr
    slots, own, opposite = _split_cells(sc, cells)
    rep, legs = expand_rows(csr.indptr, csr.owners[slots])
    active = slots[rep]
    keep = legs != active
    rep, legs, active = rep[keep], legs[keep], active[keep]
    ra, rb = csr.ranks[active], csr.ranks[legs]
    lo_v = np.where(ra < rb, csr.indices[active], csr.indices[legs])
    keys = lo_v * csr.n + np.maximum(ra, rb)
    targets, found = _find_slots(csr.slot_keys, keys)
    if own is not None:
        legs = legs + opposite[rep]
        targets = targets + np.where(ra < rb, opposite[rep], own[rep])
    return rep, legs, targets, found


def shortcut_decrease_sweep(sc, seeds, changed, first_old) -> bool:
    """Algorithm 2 as chaotic min-relaxation rounds over the CSR store."""
    weights = sc.up_weights
    frontier = seeds
    while len(frontier):
        rep, legs, tslots, found = _triangle_legs(sc, frontier)
        cand = weights[frontier][rep] + weights[legs]
        if not found.all():
            # Compaction drops inf slots, so a candidate may target a
            # missing pair. An inf candidate is harmless (it could
            # never win a minimum) and is simply dropped. A *finite*
            # candidate cannot arise from pure weight decreases (both
            # legs finite now means both were finite — hence the
            # target too — when the store was compacted); only an
            # insertion-seeded sweep can produce one, and the store
            # has no slot to absorb it.
            if np.isfinite(cand[~found]).any():
                return True
            tslots, cand = tslots[found], cand[found]
        better = cand < weights[tslots]
        if not better.any():
            break
        tslots, cand = tslots[better], cand[better]
        sort = np.argsort(tslots)
        tslots = tslots[sort]
        seg = segment_starts(tslots)
        frontier = tslots[seg]
        _mark_first_old(frontier, weights, changed, first_old)
        weights[frontier] = np.minimum.reduceat(cand[sort], seg)
    return False


def shortcut_increase_sweep(sc, seeds, direct, changed, first_old) -> None:
    """Algorithm 3 as re-delivering recompute rounds.

    Each round recomputes every pending suspect from Property 3.1 over
    the *current* weights — the direct edge min-combined with the
    triangles ``(x, v) + (x, w)`` over the deeper endpoint's down row,
    the ``(x, w)`` leg resolved by one probe of the slot-key table and
    read from the suspect's own plane, the ``(x, v)`` leg from the
    opposite one — and writes the ones that moved. A moved cell then
    suspects every triangle target whose post-write weight still equals
    the cell's pre-write weight plus the partner leg's pre-write weight:
    exactly the cells whose equation the write may have broken, so
    every cell outside ``pending`` satisfies Property 3.1 after every
    round.
    """
    csr = sc.csr
    weights = sc.up_weights
    down_slots = csr.down_slots
    pending = seeds
    while len(pending):
        w_new = direct[pending]
        slots, own, opposite = _split_cells(sc, pending)
        rep, didx = expand_rows(csr.down_indptr, csr.owners[slots])
        keys = csr.down_indices[didx] * csr.n + csr.ranks[slots][rep]
        pos, found = _find_slots(csr.slot_keys, keys)
        if found.any():
            rep = rep[found]
            legs_w, legs_v = pos[found], down_slots[didx[found]]
            if own is not None:
                legs_w, legs_v = legs_w + own[rep], legs_v + opposite[rep]
            triangles = weights[legs_w] + weights[legs_v]
            seg = segment_starts(rep)
            mins = np.minimum.reduceat(triangles, seg)
            w_new[rep[seg]] = np.minimum(w_new[rep[seg]], mins)
        old = weights[pending]
        moved = w_new != old
        if not moved.any():
            break
        ch = pending[moved]
        rep, legs, tslots, found = _triangle_legs(sc, ch)
        realised = old[moved][rep] + weights[legs]
        _mark_first_old(ch, weights, changed, first_old)
        weights[ch] = w_new[moved]
        tslots, realised = tslots[found], realised[found]
        pending = np.unique(tslots[weights[tslots] == realised])


# ---------------------------------------------------------------------------
# Label maintenance (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

def label_decrease_sweep(store, labels, verts, cols, changed) -> int:
    """Algorithm 4 — DHL- label maintenance as chaotic relax rounds."""
    offsets = labels.offsets
    values = labels.values
    csr = store.csr
    weights = store.up_weights
    pops = 0
    while len(verts):
        pops += len(verts)
        rep, didx = expand_rows(csr.down_indptr, verts)
        cand = weights[csr.down_slots[didx]] + values[offsets[verts] + cols][rep]
        improved = labels.relax_entries(
            offsets[csr.down_indices[didx]] + cols[rep], cand
        )
        changed[improved] = 1
        verts, cols = labels.entries_of_positions(improved)
    return pops


def label_increase_sweep(store, labels, verts, cols, changed) -> tuple[int, int]:
    """Algorithm 5 — DHL+ label maintenance as re-delivering rounds.

    Each round recomputes every pending suspect, support-free, from the
    *current* up-row labels (one ragged gather + segmented min) and
    writes the ones that moved. A moved entry then suspects every
    down-row entry whose post-write value still equals the shortcut
    weight plus the entry's pre-write value — exactly the entries whose
    equation the write may have broken — so every entry outside
    ``pending`` equals its recompute after every round.
    """
    offsets = labels.offsets
    values = labels.values
    tau = store.tau
    csr = store.csr
    weights = store.up_weights
    pending = np.unique(offsets[verts] + cols)
    pops = risen = 0
    while len(pending):
        pops += len(pending)
        verts, cols = labels.entries_of_positions(pending)
        w_new = np.full(len(pending), np.inf)
        rep, slots = expand_rows(csr.indptr, verts)
        if len(rep):
            ups = csr.indices[slots]
            t_cols = cols[rep]
            valid = tau[ups] >= t_cols
            gather = offsets[ups] + np.where(valid, t_cols, 0)
            cand = np.where(valid, weights[slots] + values[gather], np.inf)
            seg = segment_starts(rep)
            w_new[rep[seg]] = np.minimum.reduceat(cand, seg)
        old = values[pending]
        moved = w_new != old
        if not moved.any():
            break
        ch = pending[moved]
        values[ch] = w_new[moved]
        risen += len(ch) - int(changed[ch].sum())
        changed[ch] = 1
        rep, didx = expand_rows(csr.down_indptr, verts[moved])
        targets = offsets[csr.down_indices[didx]] + cols[moved][rep]
        realised = weights[csr.down_slots[didx]] + old[moved][rep]
        pending = np.unique(targets[values[targets] == realised])
    return pops, risen


ENGINE = Engine(
    shortcut_decrease_sweep,
    shortcut_increase_sweep,
    label_decrease_sweep,
    label_increase_sweep,
)
