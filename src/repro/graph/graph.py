"""Undirected weighted graph with mutable edge weights.

Vertices are the contiguous integers ``0..n-1``; adjacency is stored as one
neighbour->weight dict per vertex, which keeps weight updates O(1) and suits
the low, near-constant degrees of road networks. Optional per-vertex
coordinates support the geometric generators and the A* baseline.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import EdgeNotFound, GraphError, VertexNotFound

__all__ = ["Graph", "road_arrays"]

EdgeTriple = tuple[int, int, float]


def road_arrays(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """*graph*'s roads in ``edges()`` order as ``(u, v, w)`` arrays
    (``int64``, ``int64``, ``float64``): each edge once on a
    :class:`Graph`, each arc on a :class:`~repro.graph.digraph.DiGraph`."""
    u, v, w = zip(*graph.edges()) if graph.num_edges else ((), (), ())
    return np.array(u, np.int64), np.array(v, np.int64), np.array(w, np.float64)


class Graph:
    """Undirected weighted graph over vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    coords:
        Optional ``(n, 2)`` array of planar coordinates.
    """

    __slots__ = ("_adj", "_m", "coords")

    def __init__(self, n: int, coords: np.ndarray | None = None):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self._adj: list[dict[int, float]] = [{} for _ in range(n)]
        self._m = 0
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (n, 2):
                raise GraphError(f"coords must have shape ({n}, 2), got {coords.shape}")
        self.coords = coords

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[EdgeTriple],
        coords: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from ``(u, v, w)`` triples.

        Duplicate edges keep the minimum weight, mirroring how parallel road
        segments collapse in distance computations. Infinite weights are
        accepted and stored as logically deleted edges.
        """
        g = cls(n, coords)
        for u, v, w in edges:
            if g.has_edge(u, v):
                if w < g.weight(u, v):
                    g.set_weight(u, v, w)
            elif math.isfinite(w):
                g.add_edge(u, v, w)
            else:  # logically deleted edge: allocate the slot, then mark
                g.add_edge(u, v, 0.0)
                g.set_weight(u, v, w)
        return g

    def copy(self) -> "Graph":
        """Deep copy (coordinates are shared: they are immutable by use)."""
        g = Graph(self.num_vertices, self.coords)
        g._adj = [dict(nbrs) for nbrs in self._adj]
        g._m = self._m
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._m

    def __len__(self) -> int:
        return len(self._adj)

    def vertices(self) -> range:
        return range(len(self._adj))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> Mapping[int, float]:
        """Read-only view of ``{neighbour: weight}`` for vertex *v*."""
        self._check_vertex(v)
        return self._adj[v]

    def edges(self) -> Iterator[EdgeTriple]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    @staticmethod
    def road_key(u: int, v: int) -> tuple[int, int]:
        """Road ``(u, v)``'s name in a batch: the unordered pair."""
        return (u, v) if u <= v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises :class:`EdgeNotFound` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFound(u, v) from None

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, w: float) -> None:
        """Insert edge ``(u, v)`` with weight *w* (must not already exist)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u} not allowed")
        if not math.isfinite(w) or w < 0:
            # Infinite weights are reserved for logical deletions, which go
            # through set_weight so the edge slot stays allocated.
            raise GraphError(f"edge weight must be finite and non-negative, got {w!r}")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already exists")
        self._adj[u][v] = w
        self._adj[v][u] = w
        self._m += 1

    def set_weight(self, u: int, v: int, w: float) -> float:
        """Update the weight of an existing edge; returns the old weight.

        ``w`` may be ``math.inf`` to represent a logically deleted road
        (Section 8 of the paper); the adjacency slot is kept so that the
        weight-independent shortcut structure remains valid.
        """
        old = self.weight(u, v)
        if w < 0 or math.isnan(w):
            raise GraphError(f"edge weight must be non-negative, got {w!r}")
        self._adj[u][v] = w
        self._adj[v][u] = w
        return old

    def remove_edge(self, u: int, v: int) -> float:
        """Physically remove edge ``(u, v)``; returns its weight."""
        w = self.weight(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._m -= 1
        return w

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Return the induced subgraph on *vertices* with compact local ids.

        Returns ``(subgraph, local_to_global)``; vertex ``i`` of the
        subgraph corresponds to ``local_to_global[i]`` in this graph.
        """
        local_to_global = list(vertices)
        index = {g: l for l, g in enumerate(local_to_global)}
        if len(index) != len(local_to_global):
            raise GraphError("induced_subgraph got duplicate vertices")
        coords = None
        if self.coords is not None:
            coords = self.coords[local_to_global]
        sub = Graph(len(local_to_global), coords)
        for g_u in local_to_global:
            l_u = index[g_u]
            for g_v, w in self._adj[g_u].items():
                l_v = index.get(g_v)
                if l_v is not None and l_u < l_v:
                    if math.isfinite(w):
                        sub.add_edge(l_u, l_v, w)
                    else:  # preserve logically deleted edges as deleted
                        sub.add_edge(l_u, l_v, 0.0)
                        sub.set_weight(l_u, l_v, w)
        return sub, local_to_global

    def degree_array(self) -> np.ndarray:
        return np.fromiter((len(nbrs) for nbrs in self._adj), dtype=np.int64, count=len(self._adj))

    def weights_are_integral(self) -> bool:
        """True when every finite edge weight is an integer value.

        Integer weights guarantee exact equality of path sums, which the
        increase-side maintenance algorithms rely on for pruning.
        """
        return all(
            (not math.isfinite(w)) or float(w).is_integer() for _, _, w in self.edges()
        )

    def validate(self) -> None:
        """Check internal symmetry invariants; raises GraphError on failure."""
        count = 0
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u == v:
                    raise GraphError(f"self-loop stored at {u}")
                if self._adj[v].get(u) != w:
                    raise GraphError(f"asymmetric edge ({u}, {v})")
                count += 1
        if count != 2 * self._m:
            raise GraphError(f"edge count mismatch: counted {count // 2}, stored {self._m}")

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise VertexNotFound(v)
