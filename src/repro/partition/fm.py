"""Fiduccia-Mattheyses (FM) bipartition refinement.

Classic single-vertex-move local search: repeatedly move the best-gain
unlocked vertex whose move keeps both sides within the balance bound,
remember the best prefix of the move sequence, and roll back to it. A few
passes converge; each pass is O(E log V) with the lazy gain queue.

The gain queue is a :mod:`heapq` list of ``(key, push counter, vertex)``
entries beside a per-vertex ``queued`` key: a push is refused while the
vertex is queued with a key <= the new one, and a popped entry whose key
is not the vertex's queued key is a superseded leftover. Entries are
distinct and totally ordered, so the pop sequence depends only on what
was pushed, and ties fall to the push counter — to the order the
adjacency rows list their neighbours in.

:func:`fm_refine` is the reference twin of the C kernel's FM (one call:
``dhl_fm_refine`` behind :func:`repro.partition.kernels.fm_refine`),
which the multilevel pipeline runs under the ``compiled`` engine: the
same passes over the same CSR rows, a binary heap of the same
``(key, push counter)`` entries, and the same row-order sums, so both
make the same moves. This loop runs under ``reference`` and on a host
without a compiler, and is the kernel's differential oracle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.partition.types import PartitionGraph, side_bytes, side_weights

__all__ = ["fm_refine", "rebalance"]


def _gain(rows, side, v: int) -> float:
    """Cut reduction achieved by moving *v* to the other side."""
    internal = external = 0.0
    sv = side[v]
    for u, w in rows[v]:
        if side[u] == sv:
            internal += w
        else:
            external += w
    return external - internal


def fm_refine(
    pgraph: PartitionGraph,
    side,
    max_side_weight: int,
    max_passes: int = 8,
) -> bytearray:
    """Refine a copy of *side*; returns the refined sides as a bytearray.

    ``max_side_weight`` is the balance bound: after every accepted prefix
    both sides weigh at most this much. The input partition may violate the
    bound; :func:`rebalance` should be called first in that case.

    A pass is not O(boundary): boundary vertices seed the queue, but every
    move queues the mover's neighbours, and a pass left to drain moved
    83 % (``road``) to 95 % (``grid``) of its vertices over the two bench
    builds and kept 8-9 % of those moves after the rollback. So a pass
    stops on a bound (never on a move-count heuristic): locked vertices do
    not move again, hence no later prefix cuts less than the weight of cut
    edges with both endpoints locked. ``room`` is the pass's starting cut
    minus that weight, the most any later prefix can gain in total; once
    ``room <= best_value + 1e-12`` none can pass ``cumulative >
    best_value + 1e-12``, and the rollback target — the result — is the
    drained pass's (moves 138 k -> 63 k on ``road``, 126 k -> 111 k on
    ``grid``, where the bound rarely closes).
    """
    rows = pgraph.rows
    weights = pgraph.vweight
    n = len(rows)
    side = side_bytes(side)
    side_weight = side_weights(weights, side)

    gains = [0.0] * n
    for _ in range(max_passes):
        # Gains of the boundary in vertex order; twice the cut is the
        # external weight summed over it.
        queued: list[float | None] = [None] * n
        have_gain = bytearray(n)
        heap = []
        room = 0.0
        for v, row in enumerate(rows):
            sv = side[v]
            internal = external = 0.0
            on_boundary = False
            for u, w in row:
                if side[u] == sv:
                    internal += w
                else:
                    external += w
                    on_boundary = True
            if on_boundary:
                gains[v] = gain = external - internal
                have_gain[v] = 1
                queued[v] = -gain
                heap.append((-gain, len(heap), v))
                room += external
        if not heap:
            break  # zero cut: nothing to refine
        room /= 2.0
        live = counter = len(heap)
        heapify(heap)

        locked = bytearray(n)
        moves: list[int] = []
        cumulative = 0.0
        best_prefix = 0
        best_value = 0.0

        while live:
            key, _, v = heappop(heap)
            if queued[v] != key:
                continue  # superseded entry
            queued[v] = None
            live -= 1
            gain = gains[v]
            if -key != gain:
                # Stale entry: pushes refuse key increases, so the
                # vertex's only queued entry may be outdated. Re-queue the
                # true gain before moving on.
                queued[v] = -gain
                live += 1
                heappush(heap, (-gain, counter, v))
                counter += 1
                continue
            sv = side[v]
            target = 1 - sv
            wv = weights[v]
            if side_weight[target] + wv > max_side_weight:
                continue  # infeasible move; drop (may be re-pushed later)
            locked[v] = 1
            side[v] = target
            side_weight[sv] -= wv
            side_weight[target] += wv
            cumulative += gain
            moves.append(v)
            if cumulative > best_value + 1e-12:
                best_value = cumulative
                best_prefix = len(moves)
            for u, w in rows[v]:
                if locked[u]:
                    if side[u] == sv:
                        room -= w  # (u, v) is cut for the rest of the pass
                    continue
                if have_gain[u]:
                    # v changed sides: edge (u, v) flips between internal
                    # and external for u, changing its gain by +-2w.
                    gain = gains[u] + (2.0 * w if side[u] == sv else -2.0 * w)
                else:
                    # Lazy entry: fresh gain already reflects v's move.
                    gain = _gain(rows, side, u)
                    have_gain[u] = 1
                gains[u] = gain
                key = -gain
                old = queued[u]
                if old is None:
                    live += 1
                elif old <= key:
                    continue
                queued[u] = key
                heappush(heap, (key, counter, u))
                counter += 1
            if room <= best_value + 1e-12:
                break  # no later prefix can beat the best one (docstring)

        # Roll back to the best prefix.
        for v in moves[best_prefix:]:
            sv = side[v]
            side[v] = 1 - sv
            side_weight[sv] -= weights[v]
            side_weight[1 - sv] += weights[v]

        if best_prefix == 0:
            break  # pass produced no improvement; converged
    return side


def rebalance(
    pgraph: PartitionGraph,
    side,
    max_side_weight: int,
) -> bytearray:
    """Force both sides under the balance bound with min-damage moves.

    Greedily moves boundary vertices (best gain first, then interior
    vertices) from the overweight side until feasible. Used when an
    initial partition (e.g. component packing or spectral) is skewed.
    Returns a fresh bytearray either way.
    """
    side = side_bytes(side)
    rows = pgraph.rows
    weights = pgraph.vweight
    side_weight = side_weights(weights, side)

    for heavy in (0, 1):
        if side_weight[heavy] <= max_side_weight:
            continue
        candidates = [v for v, s in enumerate(side) if s == heavy]
        candidates.sort(key=lambda v: -_gain(rows, side, v))
        for v in candidates:
            if side_weight[heavy] <= max_side_weight:
                break
            side[v] = 1 - heavy
            side_weight[heavy] -= weights[v]
            side_weight[1 - heavy] += weights[v]
    return side
