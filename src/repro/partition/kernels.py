"""The partitioner in C: a validating wrapper over ``dhl_kernels.c``.

Every combinatorial step of the multilevel bisection runs in the native
library (:mod:`repro.labelling.native`) over flat CSR arrays, with the
decisions of the dict-row Python bodies the package started from (the
test suite keeps them as the oracle). :class:`Bisector` is a C context
over one source graph that runs a whole bisection of one vertex subset
after another. Its graphs — the induced subgraph, the giant component,
every coarse level — live in C memory; Python passes it numpy's draws
and the spectral candidate and reads back the cut or the separator
split. :func:`repro.partition.multilevel.bisect_subset` drives it.

Every array is checked here before C reads it: dtype, contiguity and
length, every vertex id in ``[0, n)``, a level's permutation a
permutation, side bytes 0 or 1, subset ids distinct. A failed
allocation in C raises ``MemoryError``.
"""

from __future__ import annotations

import weakref
from itertools import chain

import numpy as np

from repro.partition.types import Bipartition, side_bytes

__all__ = ["Bisector"]

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U8 = np.dtype(np.uint8)

# info[] slots the context writes (dhl_kernels.c's INFO_* order)
_N, _NNZ, _TOTAL, _CUT_EDGES, _SEPARATOR, _LEFT, _RIGHT = range(7)


def _native():
    """``(library, _addr, _checked)`` of the loaded kernels."""
    from repro.labelling.native import library
    from repro.labelling.native.engine import _addr, _checked

    return library(), _addr, _checked


def _ids(ids: np.ndarray, n: int, what: str) -> None:
    """Every entry of *ids* lies in ``[0, n)`` (read as unsigned, a
    negative id is a huge one: one reduction)."""
    if ids.size and ids.view(np.uint64).max() >= n:
        raise ValueError(f"{what} names a vertex outside [0, {n})")


def _check_perm(perm, n: int) -> np.ndarray:
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    if len(perm) != n:
        raise ValueError(f"a level's permutation needs {n} entries, got {len(perm)}")
    _ids(perm, n, "the permutation")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValueError("the level's order is not a permutation")
    return perm


class Bisector:
    """A C partitioner context over one source graph.

    The source CSR arrays are borrowed by C for the context's life; this
    object holds them. A bisection is :meth:`load` (the induced
    subgraph of a subset, returning its component count),
    :meth:`disconnected` when that is more than one, :meth:`coarsen` per
    level, :meth:`initial`, :meth:`consider` for the spectral candidate
    (:meth:`coarsest` gives its graph), :meth:`project`; then
    :meth:`result`, :meth:`parts` or :meth:`split` read it back.
    :attr:`work` accumulates FM's pops and pass-vertices over every
    bisection. :meth:`close` (or the end of a ``with`` block, or
    garbage collection) frees the C side.
    """

    def __init__(self, indptr, indices, mult, vweight, beta: float):
        lib, addr, checked = _native()
        n, nnz = len(vweight), len(indices)
        source = (
            addr(indptr, _I64, n + 1), addr(indices, _I64, nnz),
            addr(mult, _F64, nnz), addr(vweight, _I64, n),
        )
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise ValueError("indptr does not bound the neighbour lists")
        _ids(indices, n, "a row")
        self.n = n
        self._source = (indptr, indices, mult, vweight)
        self.out = np.empty(n, dtype=np.int64)
        self.info = np.zeros(8, dtype=np.int64)
        self.cut = np.zeros(1, dtype=np.float64)
        self.work = np.zeros(2, dtype=np.int64)
        self._subset = np.empty(n, dtype=np.int64)
        self._loaded = self._components = 0
        self._subset_addr = addr(self._subset, _I64, n, write=True)
        handle = lib.dhl_part_new(
            n, nnz, *source, float(beta),
            addr(self.out, _I64, n, write=True),
            addr(self.info, _I64, 8, write=True),
            addr(self.cut, _F64, 1, write=True),
            addr(self.work, _I64, 2, write=True),
        )
        if not handle:
            raise MemoryError("native partitioner could not allocate its context")
        self._lib, self._addr, self._checked = lib, addr, checked
        self._handle = handle
        self._free = weakref.finalize(self, lib.dhl_part_free, handle)

    @classmethod
    def over_graph(cls, graph, beta: float) -> "Bisector":
        """Over a :class:`~repro.graph.graph.Graph`: its adjacency in
        neighbour order, every edge of multiplicity 1 (deleted ones
        too), every vertex of weight 1 — ``PartitionGraph.from_graph``."""
        n = graph.num_vertices
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(graph.degree_array(), out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(
            chain.from_iterable(graph.neighbors(v) for v in range(n)), np.int64, nnz
        )
        return cls(
            indptr, indices, np.ones(nnz), np.ones(n, dtype=np.int64), beta
        )

    def close(self) -> None:
        self._free()

    def __enter__(self) -> "Bisector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def size(self) -> int:
        """Vertices of the working level (the coarsest so far)."""
        return int(self.info[_N])

    @property
    def total(self) -> int:
        """Total vertex weight of the working graph."""
        return int(self.info[_TOTAL])

    def load(self, subset) -> int:
        """Make the subgraph induced by *subset* (source ids, distinct)
        the one to bisect; returns its number of components."""
        count = len(subset)
        buf = self._subset[:count]
        buf[:] = subset
        _ids(buf, self.n, "the subset")
        if count > 1 and not (buf[1:] > buf[:-1]).all():
            if len(np.unique(buf)) != count:
                raise ValueError("the subset names a vertex twice")
        self._loaded = count
        self._components = self._checked(
            self._lib.dhl_part_load(self._handle, count, self._subset_addr)
        )
        return self._components

    def disconnected(self) -> bool:
        """Pack the components (True: bisected) or make the giant one
        the working graph (False)."""
        if self._components < 2:
            raise ValueError("the loaded subgraph is connected")
        return bool(self._checked(self._lib.dhl_part_disconnected(self._handle)))

    def coarsen(self, perm, max_vertex_weight: int, min_shrink: float) -> int:
        """One matching level in *perm* order; its vertex count, or 0
        when it kept ``min_shrink`` of them or more (dropped)."""
        perm = _check_perm(perm, self.size)
        return self._checked(
            self._lib.dhl_part_coarsen(
                self._handle, self._addr(perm, _I64, len(perm)),
                max_vertex_weight, min_shrink,
            )
        )

    def initial(self, seeds) -> float:
        """Growing trials from ``seeds[:-1]``, BFS halves from
        ``seeds[-1]``; returns the best cut."""
        seeds = np.ascontiguousarray(seeds, dtype=np.int64)
        if not len(seeds):
            raise ValueError("the portfolio needs a BFS seed")
        _ids(seeds, self.size, "a seed")
        self._lib.dhl_part_initial(
            self._handle, self._addr(seeds, _I64, len(seeds)), len(seeds) - 1
        )
        return float(self.cut[0])

    def coarsest(self) -> tuple[np.ndarray, ...]:
        """The working level's ``(indptr, indices, mult, vweight)``."""
        n, nnz = self.size, int(self.info[_NNZ])
        out = (
            np.empty(n + 1, dtype=np.int64), np.empty(nnz, dtype=np.int64),
            np.empty(nnz, dtype=np.float64), np.empty(n, dtype=np.int64),
        )
        addr = self._addr
        self._lib.dhl_part_coarsest(
            self._handle,
            addr(out[0], _I64, n + 1, write=True), addr(out[1], _I64, nnz, write=True),
            addr(out[2], _F64, nnz, write=True), addr(out[3], _I64, n, write=True),
        )
        return out

    def consider(self, side) -> float:
        """One more candidate on the working level; returns the best cut."""
        n = self.size
        buf = np.frombuffer(side_bytes(side), dtype=np.uint8)
        if len(buf) != n or (n and buf.max() > 1):
            raise ValueError(f"the partitioner needs {n} sides of 0 or 1")
        self._lib.dhl_part_consider(self._handle, self._addr(buf, _U8, n))
        return float(self.cut[0])

    def project(self) -> None:
        self._lib.dhl_part_project(self._handle)

    def _sides_and_cut(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, m = self._loaded, int(self.info[_CUT_EDGES])
        side = np.empty(n, dtype=np.uint8)
        a, b = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
        addr = self._addr
        self._lib.dhl_part_result(
            self._handle, addr(side, _U8, n, write=True),
            addr(a, _I64, m, write=True), addr(b, _I64, m, write=True),
        )
        return side.view(np.int8), a, b

    def result(self) -> Bipartition:
        """The loaded subgraph's :class:`Bipartition` (local ids)."""
        side, a, b = self._sides_and_cut()
        return Bipartition(side, float(self.cut[0]), list(zip(a.tolist(), b.tolist())))

    def parts(self) -> tuple[list[int], list[int]]:
        """The loaded subset's two sides as source ids, in subset order."""
        side = self._sides_and_cut()[0]
        ids = self._subset[: self._loaded]
        return ids[side == 0].tolist(), ids[side == 1].tolist()

    def split(self) -> tuple[list[int], list[int], list[int]]:
        """``(separator, side 0, side 1)`` of the cut as source ids: the
        separator in subset order, the sides without it."""
        self._checked(self._lib.dhl_part_split(self._handle))
        s, left, right = self.info[_SEPARATOR:_RIGHT + 1].tolist()
        out = self.out
        return (
            out[:s].tolist(),
            out[s:s + left].tolist(),
            out[s + left:s + left + right].tolist(),
        )
