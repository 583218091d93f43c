"""Shared types for the partitioning pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.graph import Graph

__all__ = ["PartitionGraph", "Bipartition", "side_bytes", "side_weights"]


class PartitionGraph:
    """Working graph for the partitioner: one frozen flat adjacency.

    Differences from :class:`~repro.graph.graph.Graph`:

    * edge weights are *cut multiplicities* (how many original edges a
      coarse edge represents), not travel times — minimising the cut of
      this graph minimises the number of original cut edges. They are
      integers held in floats, so sums of them are exact;
    * vertices carry integer weights (how many original vertices a coarse
      vertex represents) for balance accounting.

    ``rows[v]`` is a tuple of ``(u, w)`` pairs, one per neighbour, and
    ``rows`` a tuple of those: the combinatorial loops read plain Python
    ints and floats. Pair order is part of the contract — gain-queue ties
    break in it — so every builder keeps the insertion order of what it
    reads. ``dict`` rows (``{u: w}``) are accepted and frozen the same way.
    :meth:`flat` is the same adjacency as CSR arrays, for the C kernels.
    """

    __slots__ = ("rows", "vweight", "_flat")

    def __init__(
        self,
        adj: Iterable[dict[int, float] | Sequence[tuple[int, float]]],
        vweight: list[int],
    ):
        self.rows: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            [
                tuple(row.items()) if isinstance(row, dict) else tuple(row)
                for row in adj
            ]
        )
        self.vweight = vweight
        self._flat: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_graph(cls, graph: Graph, vertices: Iterable[int] | None = None) -> "PartitionGraph":
        """Build from a Graph (optionally induced on *vertices*).

        All original edges get multiplicity 1; logically deleted edges
        (infinite weight) still count — the shortcut structure is
        weight-independent, so the hierarchy must respect them.
        """
        neighbors = graph.neighbors
        if vertices is None:
            n = graph.num_vertices
            return cls(
                [tuple([(u, 1.0) for u in neighbors(v)]) for v in range(n)], [1] * n
            )
        local = list(vertices)
        index = {g: l for l, g in enumerate(local)}
        return cls(
            [
                tuple([(index[u], 1.0) for u in neighbors(g) if u in index])
                for g in local
            ],
            [1] * len(local),
        )

    @classmethod
    def from_flat(cls, indptr, indices, mult, vweight) -> "PartitionGraph":
        """The graph whose :meth:`flat` is these four CSR arrays."""
        pairs = list(zip(indices.tolist(), mult.tolist()))
        bounds = indptr.tolist()
        pgraph = cls(
            [pairs[a:b] for a, b in zip(bounds, bounds[1:])], vweight.tolist()
        )
        pgraph._flat = (indptr, indices, mult, vweight)
        return pgraph

    @property
    def num_vertices(self) -> int:
        return len(self.rows)

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, multiplicities, vertex weights)``: ``rows``
        and ``vweight`` as int64 / float64 CSR arrays in pair order, built
        on first use. Raises ``ValueError`` for a neighbour outside
        ``[0, n)``."""
        if self._flat is None:
            rows = self.rows
            n = len(rows)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, rows), np.int64, n), out=indptr[1:])
            nnz = int(indptr[-1])
            pairs = np.fromiter(
                chain.from_iterable(chain.from_iterable(rows)), np.float64, 2 * nnz
            ).reshape(nnz, 2)
            indices = pairs[:, 0].astype(np.int64)
            if nnz and indices.view(np.uint64).max() >= n:
                raise ValueError(f"a row names a neighbour outside [0, {n})")
            self._flat = (
                indptr,
                indices,
                np.ascontiguousarray(pairs[:, 1]),
                np.array(self.vweight, dtype=np.int64),
            )
        return self._flat

    def total_vweight(self) -> int:
        return sum(self.vweight)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for v, row in enumerate(self.rows):
            for u, w in row:
                if v < u:
                    yield v, u, w


def side_bytes(side) -> bytearray:
    """A private ``bytearray`` copy of a 0/1 side sequence: what the
    C steps of :mod:`repro.partition.kernels` write their sides into."""
    if isinstance(side, np.ndarray) and side.dtype.itemsize != 1:
        side = side.astype(np.int8)
    return bytearray(side)


def side_weights(vweight: list[int], side) -> list[int]:
    """``[weight of side 0, weight of side 1]`` for a 0/1 side sequence."""
    heavy = sum(compress(vweight, side))
    return [sum(vweight) - heavy, heavy]


@dataclass
class Bipartition:
    """Result of bisecting a :class:`PartitionGraph`.

    ``side[v]`` is 0 or 1; ``cut_edges`` lists the crossing edges (local
    ids, u on side 0); ``cut_weight`` is their total multiplicity.
    """

    side: np.ndarray
    cut_weight: float
    cut_edges: list[tuple[int, int]] = field(default_factory=list)

    def side_weights(self, pgraph: PartitionGraph) -> tuple[int, int]:
        w0, w1 = side_weights(pgraph.vweight, self.side.tolist())
        return w0, w1
