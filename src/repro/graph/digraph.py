"""Directed weighted graph used by the Section 8 directed extension."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import EdgeNotFound, GraphError, VertexNotFound
from repro.graph.graph import Graph

__all__ = ["DiGraph"]

ArcTriple = tuple[int, int, float]


class DiGraph:
    """Directed weighted graph over vertices ``0..n-1``.

    Keeps both out- and in-adjacency so that reverse searches (needed for
    the backward labels of the directed DHL extension) are as cheap as
    forward ones.
    """

    __slots__ = ("_out", "_in", "_m", "coords")

    def __init__(self, n: int, coords: np.ndarray | None = None):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self._out: list[dict[int, float]] = [{} for _ in range(n)]
        self._in: list[dict[int, float]] = [{} for _ in range(n)]
        self._m = 0
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (n, 2):
                raise GraphError(f"coords must have shape ({n}, 2), got {coords.shape}")
        self.coords = coords

    @classmethod
    def from_arcs(
        cls,
        n: int,
        arcs: Iterable[ArcTriple],
        coords: np.ndarray | None = None,
    ) -> "DiGraph":
        """Build from ``(u, v, w)`` arcs, as :meth:`Graph.from_edges`.

        Duplicates keep the minimum weight; an infinite weight is stored
        as a logically deleted arc.
        """
        g = cls(n, coords)
        for u, v, w in arcs:
            if g.has_arc(u, v):
                if w < g.weight(u, v):
                    g.set_weight(u, v, w)
            elif math.isfinite(w):
                g.add_arc(u, v, w)
            else:  # logically deleted arc: allocate the slot, then mark
                g.add_arc(u, v, 0.0)
                g.set_weight(u, v, w)
        return g

    @classmethod
    def from_undirected(cls, graph: Graph) -> "DiGraph":
        """Symmetric digraph with one arc per direction of each edge."""
        g = cls(graph.num_vertices, graph.coords)
        for u, v, w in graph.edges():
            g.add_arc(u, v, w)
            g.add_arc(v, u, w)
        return g

    def copy(self) -> "DiGraph":
        """Deep copy (coordinates shared: immutable by use)."""
        g = DiGraph(self.num_vertices, self.coords)
        g._out = [dict(nbrs) for nbrs in self._out]
        g._in = [dict(nbrs) for nbrs in self._in]
        g._m = self._m
        return g

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_arcs(self) -> int:
        return self._m

    def __len__(self) -> int:
        return len(self._out)

    def vertices(self) -> range:
        return range(len(self._out))

    def out_neighbors(self, v: int) -> Mapping[int, float]:
        self._check_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: int) -> Mapping[int, float]:
        self._check_vertex(v)
        return self._in[v]

    def arcs(self) -> Iterator[ArcTriple]:
        for u, nbrs in enumerate(self._out):
            for v, w in nbrs.items():
                yield u, v, w

    @staticmethod
    def road_key(u: int, v: int) -> tuple[int, int]:
        """Road ``(u, v)``'s name in a batch: the arc itself."""
        return u, v

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def weight(self, u: int, v: int) -> float:
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._out[u][v]
        except KeyError:
            raise EdgeNotFound(u, v) from None

    def add_arc(self, u: int, v: int, w: float) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u} not allowed")
        if not math.isfinite(w) or w < 0:
            raise GraphError(f"arc weight must be finite and non-negative, got {w!r}")
        if v in self._out[u]:
            raise GraphError(f"arc ({u}, {v}) already exists")
        self._out[u][v] = w
        self._in[v][u] = w
        self._m += 1

    def set_weight(self, u: int, v: int, w: float) -> float:
        """Update an existing arc's weight; returns the old weight."""
        old = self.weight(u, v)
        if w < 0 or math.isnan(w):
            raise GraphError(f"arc weight must be non-negative, got {w!r}")
        self._out[u][v] = w
        self._in[v][u] = w
        return old

    def remove_arc(self, u: int, v: int) -> float:
        """Physically remove an arc; returns its last weight.

        Used by shortcut-store compaction to make logical deletions
        permanent — most callers should prefer an infinite-weight
        :meth:`set_weight`, which the maintenance kernels understand.
        """
        old = self.weight(u, v)
        del self._out[u][v]
        del self._in[v][u]
        self._m -= 1
        return old

    # The road vocabulary the index core, the structural driver and the
    # snapshot writer speak (``Graph``'s names): on a digraph a road is
    # an arc.
    has_edge = has_arc
    add_edge = add_arc
    remove_edge = remove_arc
    edges = arcs
    num_edges = num_arcs

    def reversed(self) -> "DiGraph":
        """Return a new digraph with every arc reversed."""
        g = DiGraph(self.num_vertices, self.coords)
        for u, v, w in self.arcs():
            g.add_arc(v, u, w)
        return g

    def to_undirected(self) -> Graph:
        """Collapse to an undirected graph keeping min weight per pair; a
        pair whose every arc is logically deleted stays as an inf edge,
        so it keeps its place in the structure."""
        return Graph.from_edges(self.num_vertices, self.arcs(), self.coords)

    def is_symmetric(self) -> bool:
        """True when every arc has a reverse arc of equal weight."""
        return all(self._out[v].get(u) == w for u, v, w in self.arcs())

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"DiGraph(n={self.num_vertices}, m={self.num_arcs})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._out):
            raise VertexNotFound(v)
