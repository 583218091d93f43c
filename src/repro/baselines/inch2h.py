"""IncH2H [25] — dynamic maintenance of the H2H index (Section 3.2).

Maintenance runs in the paper's two phases. Phase one updates the
shortcut graph with the rank-generic Algorithms 2/3. Phase two repairs
the distance arrays: because H2H labels hold *global* distances, a label
entry ``d(v, a)`` depends both on same-column entries of ancestors and —
through the mixed lookup ``d(w, a) = D[a][depth(w)]`` for ``a`` below
``w`` — on other columns of shallower rows. The worklist therefore
propagates along two dependency types:

* (a) *descend*: entry ``(v, j)`` feeds ``(u, j)`` for shortcut
  down-neighbours ``u`` of ``v``;
* (b) *peak-crossing*: entry ``(v, j)`` is ``d(v, anc_j)`` == ``d(anc_j,
  v)`` seen from below, feeding ``(x, depth(v))`` for down-neighbours
  ``x`` of ``anc_j`` lying in ``v``'s subtree.

Decrease is chaotic relaxation to the least fixpoint; increase recomputes
suspect entries in increasing tree depth (both dependency sources live at
strictly smaller depth, so they are final when read). This support-free
increase mirrors our DHL+ choice and the paper's discussion of
boundedness trade-offs.

Our reproduction note: the original IncH2H tracks support counts to skip
some recomputations; we deliberately reproduce the structure/size/shape
comparison (tall min-degree trees, global distances, larger labels), not
its exact constant factors — see DESIGN.md §3.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush

import numpy as np

from repro.baselines.h2h import H2HIndex
from repro.labelling.driver import fold_batch, maintain_shortcuts
from repro.labelling.maintenance import MaintenanceStats

__all__ = ["IncH2HIndex"]

WeightChange = tuple[int, int, float]


class IncH2HIndex(H2HIndex):
    """H2H index with incremental edge-weight maintenance."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _mixed(self, w: int, j: int, ancestors: np.ndarray) -> float:
        """``d(w, anc_j)`` for an ancestor chain: the H2H mixed lookup."""
        k = int(self.depth[w])
        if j <= k:
            return float(self.dist[w, j])
        return float(self.dist[ancestors[j], k])

    def _mixed_row(self, v: int, w: int, dv: int) -> np.ndarray:
        """Vector of ``d(w, anc_j(v))`` for ``j in [0, dv)``."""
        k = int(self.depth[w])
        out = np.empty(dv, dtype=np.float64)
        hi = min(k + 1, dv)
        out[:hi] = self.dist[w, :hi]
        if k + 1 < dv:
            below = self.anc[v, k + 1 : dv]
            out[k + 1 :] = self.dist[below, k]
        return out

    # ------------------------------------------------------------------
    # decrease
    # ------------------------------------------------------------------
    def decrease(self, changes: list[WeightChange]) -> MaintenanceStats:
        """Edge-weight decreases: shortcut phase + label relaxation."""
        affected = maintain_shortcuts("decrease", self.sc, changes)
        stats = MaintenanceStats(
            shortcuts_changed=len(affected), affected_shortcuts=affected
        )
        depth = self.depth
        dist = self.dist
        heap, push, pop = _entry_queue(depth)

        # Phase 1: seed from affected shortcuts (v deeper, w its ancestor).
        for (v, w), _old in affected.items():
            w_new = self.sc.weight(v, w)
            dv = int(depth[v])
            row = dist[v]
            candidate = self._mixed_row(v, w, dv) + w_new
            improved = candidate < row[:dv]
            if improved.any():
                np.minimum(row[:dv], candidate, out=row[:dv])
                stats.labels_changed += int(improved.sum())
                for j in np.nonzero(improved)[0].tolist():
                    push(v, j)

        # Phase 2: chaotic relaxation along both dependency types.
        while heap:
            v, j = pop()
            stats.entries_processed += 1
            value = dist[v, j]
            dv = int(depth[v])
            anc_j = int(self.anc[v, j])
            # (a) descend: u below v reaches anc_j through v.
            for u, weight in zip(*self.sc.down_row(v)):
                candidate = weight + value
                if candidate < dist[u, j]:
                    dist[u, j] = candidate
                    stats.labels_changed += 1
                    push(u, j)
            # (b) peak-crossing: x below anc_j (with v on its chain)
            # reaches v through anc_j.
            for x, weight in zip(*self.sc.down_row(anc_j)):
                if depth[x] > dv and self.anc[x, dv] == v:
                    candidate = weight + value
                    if candidate < dist[x, dv]:
                        dist[x, dv] = candidate
                        stats.labels_changed += 1
                        push(x, dv)
        return stats

    # ------------------------------------------------------------------
    # increase
    # ------------------------------------------------------------------
    def increase(self, changes: list[WeightChange]) -> MaintenanceStats:
        """Edge-weight increases: shortcut phase + label recomputation."""
        affected = maintain_shortcuts("increase", self.sc, changes)
        stats = MaintenanceStats(
            shortcuts_changed=len(affected), affected_shortcuts=affected
        )
        depth = self.depth
        dist = self.dist
        heap, push, pop = _entry_queue(depth)

        # Phase 1: entries whose value was realised through an affected
        # shortcut's old weight are suspect.
        for (v, w), old in affected.items():
            dv = int(depth[v])
            row = dist[v]
            candidate = self._mixed_row(v, w, dv) + old
            suspect = candidate == row[:dv]
            suspect |= np.isinf(candidate) & np.isinf(row[:dv])
            for j in np.nonzero(suspect)[0].tolist():
                push(v, j)

        # Phase 2: recompute in increasing depth; dependencies (same
        # column above, and mixed lookups into shallower rows) are final.
        while heap:
            v, j = pop()
            stats.entries_processed += 1
            ancestors = self.anc[v]
            w_new = math.inf
            for w, weight in zip(*self.sc.up_row(v)):
                candidate = weight + self._mixed(w, j, ancestors)
                if candidate < w_new:
                    w_new = candidate
            old = dist[v, j]
            if w_new > old:
                dv = int(depth[v])
                anc_j = int(ancestors[j])
                # (a) descend dependents.
                for u, weight in zip(*self.sc.down_row(v)):
                    chained = weight + old
                    if chained == dist[u, j] or (
                        math.isinf(chained) and math.isinf(dist[u, j])
                    ):
                        push(u, j)
                # (b) peak-crossing dependents.
                for x, weight in zip(*self.sc.down_row(anc_j)):
                    if depth[x] > dv and self.anc[x, dv] == v:
                        chained = weight + old
                        if chained == dist[x, dv] or (
                            math.isinf(chained) and math.isinf(dist[x, dv])
                        ):
                            push(x, dv)
                stats.labels_changed += 1
            dist[v, j] = w_new
        return stats

    def update(self, changes: list[WeightChange]) -> MaintenanceStats:
        """Mixed batch: increases first, then decreases."""
        batch = fold_batch(changes, self.sc.edge_key)
        increases = [(u, v, w) for u, v, w in batch if w > self.graph.weight(u, v)]
        decreases = [(u, v, w) for u, v, w in batch if w < self.graph.weight(u, v)]
        stats = MaintenanceStats()
        if increases:
            stats = stats.merge(self.increase(increases))
        if decreases:
            stats = stats.merge(self.decrease(decreases))
        return stats


def _entry_queue(depth):
    """``(heap, push, pop)`` of a min-queue of label entries ``(v, j)``
    keyed by ``depth[v]``: :mod:`heapq` entries ``(depth, push counter,
    v, j)``, and an entry already queued is not queued again. An
    entry's key never changes, so no queued entry goes stale and ties
    pop in push order."""
    heap: list[tuple[int, int, int, int]] = []
    queued: set[tuple[int, int]] = set()
    counter = itertools.count()

    def push(v: int, j: int) -> None:
        if (v, j) not in queued:
            queued.add((v, j))
            heappush(heap, (int(depth[v]), next(counter), v, j))

    def pop() -> tuple[int, int]:
        _, _, v, j = heappop(heap)
        queued.remove((v, j))
        return v, j

    return heap, push, pop
