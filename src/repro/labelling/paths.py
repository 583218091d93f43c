"""Shortest-*path* reconstruction on top of the distance labelling.

The paper's index answers distance queries; applications like GPS
navigation also need the route. DHL admits exact path reconstruction with
no extra storage:

1. the query identifies a hub ``r`` (a common ancestor on a shortest
   path, Lemma 6.6);
2. each side's label entry is the length of a *shortcut chain* to ``r``
   (Lemma 6.3), and the chain can be re-extracted greedily: from ``v``,
   some up-neighbour ``w`` satisfies ``w(v, w) + L_w[r] == L_v[r]``;
3. every shortcut unpacks into original edges through its witness
   triangle (Property 3.1): either it is realised by the graph edge, or
   by ``x`` in ``N-(v) ∩ N-(w)`` with ``w(x,v) + w(x,w) == w(v,w)``.

Exactness of the equality tests relies on integer weights (the library's
recommended regime); a small tolerance parameter covers near-integer
float weights.
"""

from __future__ import annotations

import math

from repro.exceptions import ReproError
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.query import QueryEngine

__all__ = ["PathReconstructor"]


class PathReconstructor:
    """Reconstructs exact shortest paths from (H_Q, H_U, L)."""

    def __init__(
        self,
        engine: QueryEngine,
        hu: UpdateHierarchy,
        tolerance: float = 1e-9,
    ):
        self.engine = engine
        self.hu = hu
        self.labels: HierarchicalLabelling = engine.labels
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def shortest_path(self, s: int, t: int) -> list[int]:
        """Vertex sequence of a shortest path from *s* to *t*.

        Returns ``[s]`` for ``s == t``; raises :class:`ReproError` when
        the vertices are disconnected.
        """
        if s == t:
            return [s]
        distance, hub = self.engine.distance_with_hub(s, t)
        if math.isinf(distance) or hub < 0:
            raise ReproError(f"vertices {s} and {t} are disconnected")
        rank = int(self.hu.tau[hub])
        left = self._chain_path(s, rank)  # s -> hub
        right = self._chain_path(t, rank)  # t -> hub
        return left + right[::-1][1:]

    # ------------------------------------------------------------------
    # chain extraction (Lemma 6.3)
    # ------------------------------------------------------------------
    def _chain_path(self, v: int, rank: int) -> list[int]:
        """Original-graph path from *v* up to its rank-``rank`` ancestor."""
        labels = self.labels
        tau = self.hu.tau
        path = [v]
        while int(tau[v]) > rank:
            target = labels.entry(v, rank)
            if math.isinf(target):
                raise ReproError(f"no chain from {v} to ancestor rank {rank}")
            chosen = -1
            for w, weight in zip(*self.hu.up_row(v)):
                if tau[w] < rank:
                    continue
                candidate = weight + labels.entry(w, rank)
                if abs(candidate - target) <= self.tolerance:
                    chosen = w
                    break
            if chosen < 0:
                raise ReproError(
                    f"label chain broken at vertex {v} (stale labelling?)"
                )
            path.extend(self._unpack_shortcut(v, chosen)[1:])
            v = chosen
        return path

    # ------------------------------------------------------------------
    # shortcut unpacking (Property 3.1 witnesses)
    # ------------------------------------------------------------------
    def _unpack_shortcut(self, a: int, b: int) -> list[int]:
        """Expand shortcut ``(a, b)`` into consecutive original edges."""
        graph = self.hu.graph
        result = [a]
        stack = [(a, b)]
        while stack:
            u, v = stack.pop()
            weight = self.hu.weight(u, v)
            if (
                graph.has_edge(u, v)
                and abs(graph.weight(u, v) - weight) <= self.tolerance
            ):
                result.append(v)
                continue
            witness = self._witness(u, v, weight)
            # Expand u -> x then x -> v; pushed in reverse (LIFO).
            stack.append((witness, v))
            stack.append((u, witness))
        return result

    def _witness(self, u: int, v: int, weight: float) -> int:
        via_u = dict(zip(*self.hu.down_row(u)))
        for x, leg in zip(*self.hu.down_row(v)):
            if x in via_u and abs(via_u[x] + leg - weight) <= self.tolerance:
                return x
        raise ReproError(
            f"shortcut ({u}, {v}) has no witness; minimum-weight property "
            "violated (stale hierarchy?)"
        )

    # ------------------------------------------------------------------
    # validation helper (used by tests and debugging)
    # ------------------------------------------------------------------
    def validate_path(self, path: list[int], expected_length: float) -> None:
        """Assert *path* is a real path of exactly *expected_length*."""
        graph = self.hu.graph
        total = 0.0
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b), f"({a}, {b}) is not an edge"
            total += graph.weight(a, b)
        assert abs(total - expected_length) <= self.tolerance, (
            f"path length {total} != distance {expected_length}"
        )
        assert len(set(path)) == len(path), "path revisits a vertex"
