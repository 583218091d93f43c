"""The partitioner in C: validating wrappers over ``dhl_kernels.c``.

Every combinatorial step of the multilevel bisection runs in the native
library (:mod:`repro.labelling.native`) over flat CSR arrays, with the
decisions of the dict-row Python bodies the package started from (the
test suite keeps them as the oracle). Two layers:

* one wrapper per step over a :class:`PartitionGraph`
  (:func:`fm_refine`, :func:`rebalance`, :func:`greedy_growing`,
  :func:`bfs_halves`, :func:`components`, :func:`coarsen_once`,
  :func:`cut_weight`, :func:`minimum_vertex_separator`), for the
  parity tests and one-off calls;
* :class:`Bisector`, a C context over one source graph that runs a
  whole bisection of one vertex subset after another. Its graphs —
  the induced subgraph, the giant component, every coarse level — live
  in C memory; Python passes it numpy's draws and the spectral
  candidate and reads back the cut or the separator split.
  :func:`repro.partition.multilevel.compiled_bisection` drives it.

Every array is checked here before C reads it: dtype, contiguity and
length, every vertex id in ``[0, n)``, a level's permutation a
permutation, side bytes 0 or 1, subset ids distinct. A failed
allocation in C raises ``MemoryError``.
"""

from __future__ import annotations

import weakref
from itertools import chain

import numpy as np

from repro.partition.coarsen import CoarseningLevel
from repro.partition.types import Bipartition, PartitionGraph, side_bytes
from repro.utils.rng import make_rng

__all__ = [
    "Bisector",
    "bfs_halves",
    "coarsen_once",
    "components",
    "cut_weight",
    "fm_refine",
    "greedy_growing",
    "minimum_vertex_separator",
    "rebalance",
]

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


def _flat(pgraph: PartitionGraph) -> tuple[int, int, tuple[int, ...]]:
    """``(n, nnz, addresses)`` of ``pgraph.flat()``, whose builder has
    range-checked every neighbour."""
    _, addr, _ = _native()
    indptr, indices, mult, vweight = pgraph.flat()
    n, nnz = len(vweight), len(indices)
    return n, nnz, (
        addr(indptr, _I64, n + 1),
        addr(indices, _I64, nnz),
        addr(mult, _F64, nnz),
        addr(vweight, _I64, n),
    )


def _sides(side, n: int) -> tuple[bytearray, np.ndarray]:
    """A private bytearray copy of *side* and its uint8 view, once it
    is *n* bytes of 0 or 1."""
    side = side_bytes(side)
    buf = np.frombuffer(side, dtype=np.uint8)
    if len(buf) != n or (n and buf.max() > 1):
        raise ValueError(f"the partitioner needs {n} sides of 0 or 1")
    return side, buf


# ---------------------------------------------------------------------------
# one step per call
# ---------------------------------------------------------------------------


def fm_refine(
    pgraph, side, max_side_weight: int, max_passes: int = 8, work=None
) -> bytearray:
    """Fiduccia-Mattheyses refinement of a copy of *side*, one C loop.

    Each pass moves the best-gain unlocked vertex whose move keeps both
    sides within *max_side_weight*, then rolls back to the best prefix;
    a pass stops once no later prefix can beat that one (the ``room``
    bound), after at most *max_passes* passes. Ties fall to the order
    the rows list their neighbours in. Returns the sides as a
    bytearray. *side* is any 0/1 sequence and is left as it is. *work*, when given,
    is an int64 pair the kernel adds its gain-queue pops and
    pass-vertices (n per pass that queued a boundary) to.
    """
    lib, addr, checked = _native()
    n, nnz, graph = _flat(pgraph)
    side, buf = _sides(side, n)
    if work is None:
        work = np.zeros(2, dtype=np.int64)
    checked(
        lib.dhl_fm_refine(
            n, nnz, *graph, max_side_weight, max_passes,
            addr(buf, _U8, n, write=True), addr(work, _I64, 2, write=True),
        )
    )
    return side


def rebalance(pgraph, side, max_side_weight: int) -> bytearray:
    """Both sides forced under *max_side_weight*, moving vertices off the
    overweight side best gain first, in C; a fresh bytearray."""
    lib, addr, checked = _native()
    n, _, graph = _flat(pgraph)
    side, buf = _sides(side, n)
    checked(
        lib.dhl_step_rebalance(
            n, *graph, max_side_weight, addr(buf, _U8, n, write=True)
        )
    )
    return side


def greedy_growing(pgraph, rng=None, seed_vertex: int | None = None) -> np.ndarray:
    """Greedy graph growing in C: side 0 grows from a seed to half the
    weight, the frontier by cut gain. *rng* is drawn from (once) only
    when no *seed_vertex* is given."""
    lib, addr, checked = _native()
    n, nnz, graph = _flat(pgraph)
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    if seed_vertex is None:
        seed_vertex = int(make_rng(rng).integers(0, n))
    if not 0 <= seed_vertex < n:
        raise ValueError(f"seed vertex {seed_vertex} outside [0, {n})")
    side = np.empty(n, dtype=np.uint8)
    checked(
        lib.dhl_step_grow(
            n, nnz, *graph, seed_vertex, addr(side, _U8, n, write=True)
        )
    )
    return side.view(np.int8)


def bfs_halves(pgraph, rng=None, seed: int | None = None) -> np.ndarray:
    """BFS layering from a pseudo-peripheral vertex (two sweeps from
    *seed*, or a vertex drawn from *rng*), split at half the weight, in
    C; unreached vertices join in id order."""
    lib, addr, checked = _native()
    n, _, (indptr, indices, _, vweight) = _flat(pgraph)
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    if seed is None:
        seed = int(make_rng(rng).integers(0, n))
    if not 0 <= seed < n:
        raise ValueError(f"seed vertex {seed} outside [0, {n})")
    side = np.empty(n, dtype=np.uint8)
    checked(
        lib.dhl_step_bfs_halves(
            n, indptr, indices, vweight, seed, addr(side, _U8, n, write=True)
        )
    )
    return side.view(np.int8)


def components(pgraph) -> list[tuple[int, list[int]]]:
    """Connected components as ``(total_vertex_weight, members)`` pairs,
    members in BFS order, in C."""
    lib, addr, checked = _native()
    n, _, (indptr, indices, _, vweight) = _flat(pgraph)
    members = np.empty(n, dtype=np.int64)
    starts = np.empty(n + 1, dtype=np.int64)
    weights = np.empty(n, dtype=np.int64)
    num = checked(
        lib.dhl_step_components(
            n, indptr, indices, vweight,
            addr(members, _I64, n, write=True),
            addr(starts, _I64, n + 1, write=True),
            addr(weights, _I64, n, write=True),
        )
    )
    bounds = starts[: num + 1].tolist()
    flat = members.tolist()
    return [
        (w, flat[a:b]) for w, a, b in zip(weights[:num].tolist(), bounds, bounds[1:])
    ]


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


def coarsen_once(pgraph, rng, max_vertex_weight: int) -> CoarseningLevel:
    """Contract one heavy-edge matching in C: vertices visited in one
    ``rng.permutation`` draw's order, each pairing with its unmatched
    neighbour of largest multiplicity (ties: lighter first) unless the
    pair would outweigh *max_vertex_weight*. The coarse graph is read
    back through :meth:`PartitionGraph.from_flat`."""
    lib, addr, checked = _native()
    n, nnz, graph = _flat(pgraph)
    perm = _check_perm(make_rng(rng).permutation(n), n)
    f2c = np.empty(n, dtype=np.int64)
    c_indptr = np.empty(n + 1, dtype=np.int64)
    c_indices = np.empty(nnz, dtype=np.int64)
    c_mult = np.empty(nnz, dtype=np.float64)
    c_vweight = np.empty(n, dtype=np.int64)
    nc = checked(
        lib.dhl_step_coarsen(
            n, *graph, addr(perm, _I64, n), max_vertex_weight,
            addr(f2c, _I64, n, write=True),
            addr(c_indptr, _I64, n + 1, write=True),
            addr(c_indices, _I64, nnz, write=True),
            addr(c_mult, _F64, nnz, write=True),
            addr(c_vweight, _I64, n, write=True),
        )
    )
    c_nnz = int(c_indptr[nc])
    coarse = PartitionGraph.from_flat(
        c_indptr[: nc + 1].copy(), c_indices[:c_nnz].copy(),
        c_mult[:c_nnz].copy(), c_vweight[:nc].copy(),
    )
    return CoarseningLevel(coarse, f2c)


def cut_weight(pgraph, side) -> float:
    """Total multiplicity of the edges crossing *side*, in C."""
    lib, addr, _ = _native()
    n, _, (indptr, indices, mult, _) = _flat(pgraph)
    _, buf = _sides(side, n)
    return lib.dhl_step_cut_weight(n, indptr, indices, mult, addr(buf, _U8, n))


def minimum_vertex_separator(cut_edges) -> set[int]:
    """Minimum vertex separator of an edge cut, in C: a minimum vertex
    cover of the bipartite cut graph (Hopcroft-Karp matching, then
    Koenig's construction), ids relabelled in order to ``[0, k)`` and
    the cover marked there."""
    lib, addr, checked = _native()
    if not len(cut_edges):
        return set()
    ends = np.asarray(cut_edges, dtype=np.int64).reshape(-1, 2)
    ids, local = np.unique(ends, return_inverse=True)
    local = local.reshape(-1, 2)
    a, b = np.ascontiguousarray(local[:, 0]), np.ascontiguousarray(local[:, 1])
    k, m = len(ids), len(a)
    in_sep = np.empty(k, dtype=np.uint8)
    checked(
        lib.dhl_step_separator(
            k, m, addr(a, _I64, m), addr(b, _I64, m),
            addr(in_sep, _U8, k, write=True),
        )
    )
    return set(ids[in_sep.view(bool)].tolist())


# ---------------------------------------------------------------------------
# the context: one bisection after another
# ---------------------------------------------------------------------------


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
        _, buf = _sides(side, n)
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
