"""Array-native dynamic maintenance — frontier-batched Algorithms 2-5.

The scalar reference in :mod:`repro.labelling.maintenance` processes one
shortcut or label entry per heap pop. These kernels reformulate the same
algorithms as **frontier-batched sweeps** over the flat CSR stores:

* **Shortcut decrease** (Algorithm 2) is a monotone min-relaxation, so
  it runs as chaotic label-correcting *rounds*: every active shortcut
  relaxes against its owner's whole up-row in one ragged broadcast,
  target slots resolve with one ``searchsorted`` over the global
  slot-key table, conflicting candidates min-reduce with
  ``np.minimum.reduceat``, and the strictly-improved slots form the next
  round's frontier. Convergence and the final weights are order
  independent (any improvement re-activates its slot), so the fixpoint
  matches the reference's rank-ordered heap exactly.
* **Shortcut increase** (Algorithm 3) must recompute each suspect from
  *final* deeper weights, so it keeps the bottom-up rank order (one
  vertex per level — ranks are a permutation) but processes all of a
  vertex's suspects at once: the Property-3.1 recompute resolves the
  common down-neighbourhoods with a sorted-intersection membership test
  over the down-CSR (no Python set probing), and the equality-guarded
  suspect propagation scans every (suspect, row partner) triangle in one
  vectorised pass.
* **Labels** (Algorithms 4/5) bucket the active entry frontier by the
  hierarchy rank ``tau`` (top-down). All entries of a level relax into
  their descendants with vectorised gathers straight from the flat label
  ``values`` buffer via
  :meth:`~repro.labelling.labels.HierarchicalLabelling.relax_entries` /
  :meth:`~repro.labelling.labels.HierarchicalLabelling.recompute_entries`.
  Same-``tau`` vertices are incomparable (no shortcut joins them), so a
  level's entries are independent; reads only touch strictly shallower
  levels (already final) and writes only propagate strictly deeper —
  the level sweep is observationally equivalent to the heap order.

The label kernels use the shortcut-weight relaxation
``w(u, v) + L_v[i]`` (Lemma 6.3) — the substitution that makes the
ancestor columns of the paper's Algorithms 6/7 independent, realised
here as whole-level batches rather than threads — instead of the
reference scalar path's label-entry relaxation; both reach the same
fixpoint, so final labels, change counts and affected sets match the
reference exactly — only the intermediate ``entries_processed``
search-effort counter may differ.

The four sweeps implement the :class:`~repro.labelling.maintenance.Engine`
contract; seeding, validation, stats and phase marks live in
:mod:`repro.labelling.driver`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.labelling.maintenance import Engine

__all__ = ["ENGINE"]


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged-expansion helpers: (source index, within-row offset) arrays."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(counts)
    rep = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return rep, ramp


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """First index of each run in a sorted key array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.nonzero(first)[0]


# ---------------------------------------------------------------------------
# Shortcut maintenance (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

def _mark_first_old(slots, weights, changed, first_old) -> None:
    """Record the pre-write weight of slots touched for the first time."""
    new = slots[changed[slots] == 0]
    first_old[new] = weights[new]
    changed[new] = 1


def shortcut_decrease_sweep(sc, seeds, changed, first_old) -> bool:
    """Algorithm 2 as chaotic min-relaxation rounds over the CSR store."""
    csr = sc.csr
    weights = sc.up_weights
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    ranks, owners, slot_keys = csr.ranks, csr.owners, csr.slot_keys

    frontier = seeds
    while len(frontier):
        slot_owner = owners[frontier]
        deg = indptr[slot_owner + 1] - indptr[slot_owner]
        rep, ramp = _expand(deg)
        if not len(rep):
            break
        active = frontier[rep]
        legs = indptr[slot_owner][rep] + ramp
        keep = legs != active
        active, legs = active[keep], legs[keep]
        if not len(active):
            break
        cand = weights[active] + weights[legs]
        # Target = the (shortcut endpoint, leg endpoint) pair, keyed by
        # the deeper endpoint's id and the shallower one's rank.
        ra, rb = ranks[active], ranks[legs]
        lo_v = np.where(ra < rb, indices[active], indices[legs])
        keys = lo_v * n + np.maximum(ra, rb)
        tslots = np.searchsorted(slot_keys, keys)
        found = slot_keys[np.minimum(tslots, len(slot_keys) - 1)] == keys
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
            if not len(tslots):
                break

        sort = np.argsort(tslots, kind="stable")
        ts, cs = tslots[sort], cand[sort]
        seg = _segment_starts(ts)
        uts = ts[seg]
        mins = np.minimum.reduceat(cs, seg)
        improved = mins < weights[uts]
        uts = uts[improved]
        if not len(uts):
            break
        _mark_first_old(uts, weights, changed, first_old)
        weights[uts] = mins[improved]
        frontier = uts
    return False


def shortcut_increase_sweep(sc, seeds, direct, changed, first_old) -> None:
    """Algorithm 3 as bottom-up dependency-layer sweeps.

    A suspect's Property-3.1 recompute reads only slots owned by its
    deeper endpoint's down-neighbours, so each round processes every
    pending suspect whose owner has **no pending down-neighbour** — a
    topological layer, resolved with one membership test. The layer's
    recomputes then run as a single batch: triangle legs resolve through
    the slot-key table (``x`` is a common down-neighbour of ``v`` and
    ``w`` iff the key ``(x, v)`` exists and ``x`` sits in ``w``'s down
    row — a sorted intersection over the down-CSR), and per-suspect
    minima reduce with ``np.minimum.reduceat``. Suspects activated into
    an already-processed owner simply re-enter a later round; the
    equality guard re-delivers every realisation, so the fixpoint
    matches the reference's strict rank order.
    """
    csr = sc.csr
    weights = sc.up_weights
    n = csr.n
    rank = csr.rank
    indptr, indices = csr.indptr, csr.indices
    ranks, owners, slot_keys = csr.ranks, csr.owners, csr.slot_keys
    down_indptr, down_indices = csr.down_indptr, csr.down_indices
    down_slots = csr.down_slots

    pending = seeds
    while len(pending):
        # Topological layer: owners none of whose down-neighbours are
        # themselves pending (the deepest pending owner always is, so
        # every round makes progress).
        p_owner = owners[pending]
        layer_owners = np.unique(p_owner)
        odeg = down_indptr[layer_owners + 1] - down_indptr[layer_owners]
        rep, ramp = _expand(odeg)
        blocked = np.zeros(len(layer_owners), dtype=bool)
        if len(rep):
            xs = down_indices[down_indptr[layer_owners][rep] + ramp]
            pos = np.searchsorted(layer_owners, xs)
            member = (
                layer_owners[np.minimum(pos, len(layer_owners) - 1)] == xs
            )
            if member.any():
                blocked[np.unique(rep[member])] = True
        ready = layer_owners[~blocked]
        take = np.isin(p_owner, ready)
        slots = pending[take]
        rest = pending[~take]

        vs = owners[slots]
        ws = indices[slots]
        # Property 3.1 recompute for the whole layer: direct edge
        # weight min-combined with triangles over the common down
        # neighbourhood.
        w_new = direct[slots]
        ddeg = down_indptr[ws + 1] - down_indptr[ws]
        rep, ramp = _expand(ddeg)
        if len(rep):
            didx = down_indptr[ws][rep] + ramp
            xs = down_indices[didx]
            # x qualifies iff shortcut (x, v) exists: one global key
            # probe.
            keys = xs * n + rank[vs][rep]
            pos = np.searchsorted(slot_keys, keys)
            found = slot_keys[np.minimum(pos, len(slot_keys) - 1)] == keys
            if found.any():
                rep_f = rep[found]
                triangles = (
                    weights[pos[found]] + weights[down_slots[didx[found]]]
                )
                seg = _segment_starts(rep_f)
                mins = np.minimum.reduceat(triangles, seg)
                urep = rep_f[seg]
                w_new[urep] = np.minimum(w_new[urep], mins)

        old = weights[slots]
        moved = w_new != old
        next_chunks = [rest]
        if moved.any():
            ch = slots[moved]
            ch_old = old[moved]
            ch_owner = vs[moved]
            # Equality-guarded propagation: triangles through the owner
            # that realised a changed suspect's old weight mark deeper
            # suspects. All legs read pre-write weights, which covers
            # every realisation the reference's sequential order covers
            # (the first side processed always sees the other leg old).
            deg = indptr[ch_owner + 1] - indptr[ch_owner]
            rep2, ramp2 = _expand(deg)
            if len(rep2):
                legs = indptr[ch_owner][rep2] + ramp2
                keep = legs != ch[rep2]
                legs = legs[keep]
                rep2 = rep2[keep]
                cand_old = ch_old[rep2] + weights[legs]
                ra = ranks[ch[rep2]]
                rb = ranks[legs]
                lo_v = np.where(ra < rb, indices[ch[rep2]], indices[legs])
                tkeys = lo_v * n + np.maximum(ra, rb)
                tslots = np.searchsorted(slot_keys, tkeys)
                # Pairs removed by compaction were inf — there is no
                # suspect behind them to re-deliver; drop the probes.
                tfound = (
                    slot_keys[np.minimum(tslots, len(slot_keys) - 1)]
                    == tkeys
                )
                tslots = tslots[tfound]
                cand_old = cand_old[tfound]
                hits = tslots[weights[tslots] == cand_old]
                if len(hits):
                    next_chunks.append(hits)
            _mark_first_old(ch, weights, changed, first_old)
            weights[ch] = w_new[moved]
        pending = (
            np.unique(np.concatenate(next_chunks))
            if len(next_chunks) > 1
            else rest
        )


# ---------------------------------------------------------------------------
# Label maintenance (Algorithms 4 and 5, tau-level sweeps)
# ---------------------------------------------------------------------------

class _EntryFrontier:
    """Tau-keyed label-entry frontier: ``(vertex, column)`` batches."""

    __slots__ = ("_tau", "_pending", "_heap")

    def __init__(self, tau: np.ndarray):
        self._tau = tau
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._heap: list[int] = []

    def __bool__(self) -> bool:
        return bool(self._heap)

    def activate(self, verts: np.ndarray, cols: np.ndarray) -> None:
        if not len(verts):
            return
        levels = self._tau[verts]
        sort = np.argsort(levels, kind="stable")
        verts, cols, levels = verts[sort], cols[sort], levels[sort]
        bounds = _segment_starts(levels).tolist()
        bounds.append(len(levels))
        for bi in range(len(bounds) - 1):
            lo, hi = bounds[bi], bounds[bi + 1]
            level = int(levels[lo])
            bucket = self._pending.get(level)
            if bucket is None:
                self._pending[level] = [(verts[lo:hi], cols[lo:hi])]
                heapq.heappush(self._heap, level)
            else:
                bucket.append((verts[lo:hi], cols[lo:hi]))

    def pop(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Next level's entries, deduplicated by flat position."""
        level = heapq.heappop(self._heap)
        chunks = self._pending.pop(level)
        if len(chunks) == 1:
            verts, cols = chunks[0]
        else:
            verts = np.concatenate([c[0] for c in chunks])
            cols = np.concatenate([c[1] for c in chunks])
        pos = offsets[verts] + cols
        upos, uidx = np.unique(pos, return_index=True)
        return verts[uidx], cols[uidx], upos


def label_decrease_sweep(store, labels, verts, cols, changed) -> int:
    """Algorithm 4 — DHL- label maintenance as a top-down level sweep."""
    offsets = labels.offsets
    values = labels.values
    csr = store.csr
    weights = store.up_weights
    down_indptr, down_indices = csr.down_indptr, csr.down_indices
    down_slots = csr.down_slots

    frontier = _EntryFrontier(store.tau)
    frontier.activate(verts, cols)
    pops = 0
    while frontier:
        verts, cols, upos = frontier.pop(offsets)
        pops += len(verts)
        vals = values[upos]
        deg = down_indptr[verts + 1] - down_indptr[verts]
        rep, ramp = _expand(deg)
        if not len(rep):
            continue
        didx = down_indptr[verts][rep] + ramp
        targets = down_indices[didx]
        cand = weights[down_slots[didx]] + vals[rep]
        improved = labels.relax_entries(offsets[targets] + cols[rep], cand)
        if len(improved):
            changed[improved] = 1
            frontier.activate(*labels.entries_of_positions(improved))
    return pops


def label_increase_sweep(store, labels, verts, cols, changed) -> tuple[int, int]:
    """Algorithm 5 — DHL+ label maintenance as a top-down level sweep.

    Every suspect entry of a level is recomputed from its up-neighbour
    labels in one ragged gather + segmented min; entries that strictly
    increased seed deeper suspects through the equality-guarded down
    expansion before the level's values are written back.
    """
    offsets = labels.offsets
    values = labels.values
    tau = store.tau
    csr = store.csr
    weights = store.up_weights
    indptr, indices = csr.indptr, csr.indices
    down_indptr, down_indices = csr.down_indptr, csr.down_indices
    down_slots = csr.down_slots

    frontier = _EntryFrontier(tau)
    frontier.activate(verts, cols)
    pops = risen = 0
    while frontier:
        verts, cols, upos = frontier.pop(offsets)
        pops += len(verts)
        old_vals = values[upos]

        # Support-free recompute over the up rows (tau-guarded).
        deg = indptr[verts + 1] - indptr[verts]
        rep, ramp = _expand(deg)
        w_new = np.full(len(verts), np.inf)
        if len(rep):
            slots = indptr[verts][rep] + ramp
            ups = indices[slots]
            t_cols = cols[rep]
            valid = tau[ups] >= t_cols
            gather = offsets[ups] + np.where(valid, t_cols, 0)
            cand = np.where(valid, weights[slots] + values[gather], np.inf)
            nonzero = deg > 0
            seg_starts = (np.cumsum(deg) - deg)[nonzero]
            w_new[nonzero] = np.minimum.reduceat(cand, seg_starts)

        increased = w_new > old_vals

        # Seed deeper suspects whose entry was realised through the
        # old value — checked against pre-write deeper labels, as in
        # the reference heap order.
        if increased.any():
            pv, pc, po = (
                verts[increased],
                cols[increased],
                old_vals[increased],
            )
            ddeg = down_indptr[pv + 1] - down_indptr[pv]
            rep2, ramp2 = _expand(ddeg)
            if len(rep2):
                didx = down_indptr[pv][rep2] + ramp2
                targets = down_indices[didx]
                chained = weights[down_slots[didx]] + po[rep2]
                d_cols = pc[rep2]
                hit = chained == values[offsets[targets] + d_cols]
                if hit.any():
                    frontier.activate(targets[hit], d_cols[hit])

        labels.recompute_entries(upos, w_new)
        risen += int(increased.sum())
        changed[upos[w_new != old_vals]] = 1
    return pops, risen


ENGINE = Engine(
    shortcut_decrease_sweep,
    shortcut_increase_sweep,
    label_decrease_sweep,
    label_increase_sweep,
)
