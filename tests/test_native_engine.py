"""The native library: seen executing, and every way of not having it.

The library must load — every algorithm runs in it. The pair kernel's
and the min-plus combine's contracts, and what the set kernel's and the
build kernels' wrappers refuse, are checked here against their numpy
oracles in ``tests/oracles/`` (the set kernel's parity lives in
``test_distance_matrix``, FM's in ``test_partition_identity``,
Algorithm 1's in ``test_labelling``); the sweeps' differential coverage
lives in the C-vs-oracle suites (``test_sweep_rounds``,
``test_maintenance_kernels``, ``test_structural_batch``,
``test_directed``). The loader cases each run against an empty cache
directory under ``tmp_path`` and a fresh loader state, so they neither
see nor disturb the library the rest of the session runs on; a host
without a compiler raises :class:`NativeUnavailableError`, once per
process, naming the fix.
"""

from __future__ import annotations

import ctypes
import json
import gc
import os
import pickle
import shutil
import stat
import subprocess
import sys
import sysconfig
import textwrap
from multiprocessing import shared_memory
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import NativeUnavailableError
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling import native
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import cell_marks, entry_marks
from repro.labelling.native import engine as native_engine
from repro.observability import collect_phases
from repro.partition import kernels
from repro.partition.types import PartitionGraph
from repro.sharding.engine import BatchSplit
from repro.utils.rng import make_rng, sample_pairs
from tests.oracles import query as oracle_query
from tests.oracles.kernels import python_kernels
from tests.strategies import WORD_EDGES, caterpillar_index

SRC = str(Path(native.__file__).resolve().parents[3])


def two_component_graph() -> Graph:
    g = Graph(6)
    g.add_edge(0, 1, 2.0)
    g.add_edge(1, 2, 3.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 5, 1.0)
    return g


def path_index() -> DHLIndex:
    g = Graph(5)
    for i in range(4):
        g.add_edge(i, i + 1, float(i + 1))
    return DHLIndex.build(g, DHLConfig(leaf_size=2, seed=0))


def on_oracles(call, *args):
    """``call(*args)`` with every kernel on its Python oracle."""
    with python_kernels():
        return call(*args)


class TestOneEngine:
    def test_config_has_no_engine_option(self):
        with pytest.raises(TypeError):
            DHLConfig(engine="reference")
        assert not hasattr(DHLConfig(), "engine")

    def test_the_library_is_loaded(self):
        """The library every algorithm runs on is really there."""
        status = native.status()
        assert status.library_path is not None, status.reason
        assert DHLConfig().resolve_engine() == "compiled"
        lib = native.library()
        assert all(hasattr(lib, name) for name in native.SIGNATURES)
        for name in native.SIGNATURES:
            assert getattr(lib, name).argtypes is not None
        assert os.path.isfile(status.library_path)
        assert path_index().distances([(0, 4)]).tolist() == [10.0]


# ---------------------------------------------------------------------------
# the pair kernel's contract
# ---------------------------------------------------------------------------

@pytest.fixture
def road_index(small_road) -> DHLIndex:
    """The 300-vertex road index the kernel contracts are checked on."""
    return DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))


class TestPairKernel:
    def test_matches_array_kernel(self, road_index):
        idx_c = road_index
        n = idx_c.graph.num_vertices
        pairs = sample_pairs(n, 2000, make_rng(9), distinct=False)
        pairs += [(v, v) for v in range(0, n, 13)]
        d_r, h_r = on_oracles(idx_c.engine.distances_with_hubs, pairs)
        d_c, h_c = idx_c.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(d_c, d_r)
        np.testing.assert_array_equal(h_c, h_r)
        np.testing.assert_array_equal(idx_c.distances(pairs), d_r)

    def test_self_and_disconnected_pairs(self):
        idx = DHLIndex.build(
            two_component_graph(), DHLConfig(leaf_size=2, seed=0)
        )
        pairs = [(0, 3), (2, 5), (0, 2), (3, 5), (2, 2)]
        out, hubs = idx.engine.distances_with_hubs(pairs)
        assert np.isinf(out[0]) and np.isinf(out[1])
        assert hubs[0] == -1 and hubs[1] == -1
        assert out[2] == 5.0 and out[3] == 2.0
        assert out[4] == 0.0 and hubs[4] == -1

    def test_c_k_equals_the_frexp_k_on_every_pair(self, road_index):
        """K counted in C == the oracle's numpy frexp count, and the
        fused kernel == the numpy gather fed that K, on all n^2 pairs."""
        n = road_index.graph.num_vertices
        s, t = (a.ravel() for a in np.divmod(np.arange(n * n), n))
        hq = road_index.hq
        labels = road_index.labels
        k = oracle_query.FrexpTables(road_index.hq).counts(s, t)
        np.testing.assert_array_equal(native_engine.common_ancestors(hq, s, t), k)
        fused = native_engine.gather_pairs(labels, s, labels, t, hq, True)
        numpy_side = oracle_query.gather_pairs(labels, s, labels, t, k, True)
        np.testing.assert_array_equal(fused[0], numpy_side[0])
        np.testing.assert_array_equal(fused[1], numpy_side[1])

    def test_ties_answer_the_first_rank(self):
        """On an all-equal-weight grid nearly every minimum is tied."""
        graph = grid_network(9, 9, diagonal_fraction=0.0, weight_jitter=0.0)
        for u, v, _ in list(graph.edges()):
            graph.set_weight(u, v, 1.0)
        index = DHLIndex.build(graph, DHLConfig(seed=0))
        n = graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want = on_oracles(index.engine.distances_with_hubs, pairs)
        got = index.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_all_inf_prefix_has_no_hub(self, road_index):
        """Deleting every road at a vertex leaves whole prefixes inf."""
        index, v = road_index, 17
        index.apply_batch(deletions=[(v, u) for u in list(index.graph.neighbors(v))])
        pairs = [(17, t) for t in range(0, 300, 7) if t != 17] + [(3, 250)]
        want = on_oracles(index.engine.distances_with_hubs, pairs)
        got = index.engine.distances_with_hubs(pairs)
        assert np.isinf(got[0][:-1]).all() and (got[1][:-1] == -1).all()
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_two_different_labellings(self):
        """A directed index hands the kernel its (out, in) label pair."""
        digraph = DiGraph.from_undirected(delaunay_network(120, seed=5))
        for i, (u, v, w) in enumerate(list(digraph.arcs())):
            if i % 2 == 0:
                digraph.set_weight(u, v, float(w + 3))
        index = DirectedDHLIndex.build(digraph, DHLConfig(leaf_size=4, seed=0))
        assert index.labellings[0] is not index.labellings[1]
        n = digraph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want = on_oracles(index.engine.distances_with_hubs, pairs)
        got = index.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert (got[0] != got[0].reshape(n, n).T.ravel()).any()  # asymmetric

    @pytest.mark.parametrize("depth", WORD_EDGES)
    def test_word_edge_depths(self, depth):
        """Path bits filling a 64-bit word or spilling past it: the C LCA
        counts K exactly, as the oracle does pair by pair past depth 50."""
        deep = caterpillar_index(depth)
        n = deep.graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        s, t = pairs[:, 0].copy(), pairs[:, 1].copy()
        np.testing.assert_array_equal(
            deep.engine.common_ancestor_counts(s, t),
            on_oracles(deep.engine.common_ancestor_counts, s, t),
        )
        want = on_oracles(deep.engine.distances_with_hubs, pairs)
        got = deep.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickled_after_a_batch_query_reads_its_own_arrays(self, directed):
        """A clone made after the kernel has run must hand C the clone's
        buffers: the original's are freed (and overwritten) first."""
        graph = delaunay_network(150, seed=9)
        config = DHLConfig(leaf_size=4, seed=0)
        if directed:
            idx = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
        else:
            idx = DHLIndex.build(graph, config)
        pairs = sample_pairs(150, 400, make_rng(4), distinct=False)
        want = idx.engine.distances_with_hubs(pairs)
        payload = pickle.dumps(idx)
        hq = idx.hq
        for name in ("node_of", "depth", "path", "chain", "tau"):
            # What a stale pointer would read.
            getattr(hq, name).view(np.int64).fill(-1)
        del idx, hq
        gc.collect()
        clone = pickle.loads(payload)
        assert clone.engine.labels is clone.labellings[0]
        assert clone.engine.target_labels is clone.labellings[-1]
        got = clone.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        again = pickle.loads(pickle.dumps(clone)).engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(again[0], want[0])

    def test_read_only_mmap_labels(self, road_index, tmp_path):
        idx_r = road_index
        idx_r.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
        assert not loaded.labels.values.flags.writeable
        pairs = sample_pairs(300, 500, make_rng(2), distinct=False)
        np.testing.assert_array_equal(
            loaded.distances(pairs), idx_r.distances(pairs)
        )
        # The first update materialises a writable buffer at a new
        # address; the kernel must follow it.
        u, v, w = next(iter(loaded.graph.edges()))
        for index in (loaded, idx_r):
            index.update([(u, v, w + 5.0)])
        assert loaded.labels.values.flags.writeable
        np.testing.assert_array_equal(
            loaded.distances(pairs), idx_r.distances(pairs)
        )

    def test_shared_memory_labels_after_a_republish(self, road_index):
        """A replica re-binds its labelling onto a new segment: the
        kernel reads the new address, never a cached one."""
        idx_r = idx_c = road_index
        pairs = sample_pairs(300, 500, make_rng(4), distinct=False)
        segments = []

        def publish(index):
            values, offsets = index.labels.values, index.labels.offsets
            segment = shared_memory.SharedMemory(create=True, size=values.nbytes)
            segments.append(segment)
            shared = np.ndarray(values.shape, np.float64, buffer=segment.buf)
            shared[:] = values
            shared.flags.writeable = False
            return HierarchicalLabelling(shared, offsets.copy(), index.hq.tau)

        try:
            replica = DHLIndex.build(idx_c.graph.copy(), idx_c.config)
            engine_before = replica.engine
            replica._adopt(replica.hq, replica.hu, (publish(idx_c),))
            np.testing.assert_array_equal(
                replica.distances(pairs), idx_r.distances(pairs)
            )
            edges = list(idx_c.graph.edges())[:20]
            idx_c.update([(u, v, 2 * w) for u, v, w in edges])
            first = replica.labels.values
            replica._adopt(replica.hq, replica.hu, (publish(idx_c),))
            assert replica.engine is not engine_before
            assert replica.labels.values.ctypes.data != first.ctypes.data
            np.testing.assert_array_equal(
                replica.distances(pairs), idx_r.distances(pairs)
            )
            del first, replica
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_wrapper_rejects_what_c_would_misread(self, road_index):
        """dtype, contiguity and length are checked before any pointer."""
        idx_c = road_index
        labels = idx_c.labels
        hq = idx_c.hq
        s = np.arange(10, dtype=np.int64)

        def gather(s, t):
            return native_engine.gather_pairs(labels, s, labels, t, hq)

        with pytest.raises(TypeError):
            gather(s.astype(np.int32), s)
        with pytest.raises(TypeError):
            gather(np.arange(20, dtype=np.int64)[::2], s)
        with pytest.raises(TypeError):
            gather(s, s[:9])
        with pytest.raises(TypeError):
            native_engine.common_ancestors(hq, s, s.astype(np.int32))
        signed = SimpleNamespace(
            node_of=hq.node_of,
            depth=hq.depth,
            path=hq.path.view(np.int64),  # the path words are unsigned
            chain=hq.chain,
            tau=hq.tau,
        )
        with pytest.raises(TypeError):
            native_engine.common_ancestors(signed, s, s)
        short = HierarchicalLabelling(labels.values[:50], labels.offsets, labels.tau)
        with pytest.raises(ValueError, match="offsets"):
            native_engine.gather_pairs(short, s, labels, s, hq)

    @pytest.mark.parametrize("sweep", ["shortcut_sweep", "label_sweep"])
    def test_sweep_reports_a_failed_allocation(self, road_index, monkeypatch, sweep):
        """A heap that cannot be allocated comes back as a status, which
        the wrapper turns into ``MemoryError``: nothing was written,
        marked or listed."""
        idx_c = road_index
        store, labels = idx_c.hu, idx_c.labels
        weights, values = store.up_weights.copy(), labels.values.copy()
        real, statuses = native.library(), []

        class HugeSeedCount:
            """Tells every sweep of 2**60 seeds: a heap the kernel would
            need 2**63 bytes for."""

            def __getattr__(self, name):
                def call(num_seeds, *args):
                    statuses.append(getattr(real, name)(2**60, *args))
                    return statuses[-1]

                return call

        monkeypatch.setattr(native_engine, "library", HugeSeedCount)
        seeds = np.arange(4, dtype=np.int64)
        if sweep == "shortcut_sweep":
            marks = cell_marks(weights.size)
            lowered = np.empty(0, dtype=np.int64)
            args = (store, seeds, lowered, np.full(weights.size, np.inf), marks)
        else:
            # Changed shortcut slots whose seed phase would write: raised
            # from the weights they held.
            marks = entry_marks(values.size, store.csr.n)
            slot_marks = cell_marks(weights.size)[:2]
            slot_marks[0][seeds] = 1
            slot_marks[1][seeds] = weights[seeds]
            store.up_weights[seeds] = weights[seeds] + 1000.0
            args = (store, labels, seeds, slot_marks, marks)
            weights = store.up_weights.copy()
        with pytest.raises(MemoryError):
            getattr(native_engine, sweep)(*args)
        assert statuses == [-1]
        with pytest.raises(MemoryError):
            native_engine._checked(statuses[0])
        np.testing.assert_array_equal(store.up_weights, weights)
        np.testing.assert_array_equal(labels.values, values)
        assert not marks[0].any()
        assert not marks[-1].any()
        if sweep.startswith("label"):
            assert not marks[2].any()


# ---------------------------------------------------------------------------
# the build kernels
# ---------------------------------------------------------------------------

def grid_halves() -> tuple[PartitionGraph, np.ndarray]:
    """A 6 x 6 grid split into two jagged halves FM has moves to make on."""
    pg = PartitionGraph.from_graph(grid_network(6, 6))
    return pg, (np.arange(36) % 7 < 3).astype(np.int8)


class TestBuildKernels:
    def test_partitioner_steps_report_a_failed_allocation(self, monkeypatch):
        """The partitioner context allocates its scratch when it is made
        and turns a size it cannot have into ``MemoryError`` (told of
        2**58 vertices here)."""
        pg, _ = grid_halves()
        real = native.library()

        class HugeVertexCount:
            def __getattr__(self, name):
                def call(n, *args):
                    return getattr(real, name)(2**58, *args)

                return call

        monkeypatch.setattr(native, "library", HugeVertexCount)
        with pytest.raises(MemoryError):
            kernels.Bisector(*pg.flat(), 0.2)

    def test_partitioner_wrappers_reject_what_c_would_misread(self, monkeypatch):
        """One case per array a partitioner context call reads: each bad
        one raises ``ValueError`` in the wrapper, and C is never called
        (every library symbol is a tripwire once the context exists)."""
        pg, side = grid_halves()
        n = pg.num_vertices
        bad_side = side.copy()
        bad_side[3] = 2
        with kernels.Bisector(*pg.flat(), 0.2) as ctx:
            assert ctx.load(range(n)) == 1
            calls = []

            class Tripwire:
                def __getattr__(self, name):
                    calls.append(name)
                    raise AssertionError(f"{name} reached C")

            monkeypatch.setattr(native, "library", Tripwire)
            ctx._lib = Tripwire()
            indptr, indices, mult, vweight = pg.flat()
            wide, negative = indices.copy(), indices.copy()
            wide[5], negative[5] = n, -1
            cases = {
                "context neighbour >= n": lambda: kernels.Bisector(
                    indptr, wide, mult, vweight, 0.2
                ),
                "negative context neighbour": lambda: kernels.Bisector(
                    indptr, negative, mult, vweight, 0.2
                ),
                "subset id >= n": lambda: ctx.load([0, 1, n]),
                "negative subset id": lambda: ctx.load([-1, 0, 1]),
                "repeated subset id": lambda: ctx.load([3, 1, 3]),
                "perm repeats an id": lambda: ctx.coarsen(
                    np.r_[0, np.arange(n - 1)], 4, 0.95
                ),
                "perm id >= n": lambda: ctx.coarsen(
                    np.r_[np.arange(n - 1), n], 4, 0.95
                ),
                "perm too short": lambda: ctx.coarsen(np.arange(n - 1), 4, 0.95),
                "side byte 2 (candidate)": lambda: ctx.consider(bad_side),
                "candidate too short": lambda: ctx.consider(side[:-1]),
                "portfolio seed >= n": lambda: ctx.initial([0, 1, 2, 3, n]),
                "negative portfolio seed": lambda: ctx.initial([0, 1, -2, 3, 4]),
            }
            for case, call in cases.items():
                with pytest.raises(ValueError):
                    call()
                assert not calls, case

    def test_label_build_wrapper_rejects_what_c_would_misread(self, road_index):
        """Rows shorter than ``tau + 1`` and a shortcut that does not
        point to an ancestor would send the C writes past a row."""
        idx_c = road_index
        hu, tau = idx_c.hu, idx_c.hu.tau
        order = np.argsort(tau, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(tau)])  # every row one short
        short = HierarchicalLabelling(np.zeros(offsets[-1]), offsets, tau)
        with pytest.raises(ValueError, match="tau"):
            native_engine.label_build(hu, short, order)
        skewed = UpdateHierarchy(hu, SimpleNamespace(tau=tau.copy()))
        skewed.tau[hu.csr.owners[0]] = 0  # its up-neighbour is now no ancestor
        with pytest.raises(ValueError, match="ancestor"):
            native_engine.label_build(skewed, idx_c.labels.copy(), order)


# ---------------------------------------------------------------------------
# the min-plus combine and the set kernel
# ---------------------------------------------------------------------------

def bridged_grids() -> Graph:
    """Two 5 x 5 grids joined by one road: each region's boundary is one
    vertex, so every overlay block is 1 x 1."""
    graph = Graph(50)
    for offset in (0, 25):
        for u, v, w in grid_network(5, 5, seed=offset).edges():
            graph.add_edge(u + offset, v + offset, w)
    graph.add_edge(24, 25, 1.0)
    return graph


COMBINE_GRAPHS = {"grid": lambda: grid_network(10, 10, seed=2), "bridge": bridged_grids}


@pytest.fixture(scope="module")
def cross_split():
    """``name -> BatchSplit`` of 300 random pairs' cross pairs on a k = 2
    index of that graph, built on first use."""
    built = {}

    def get(name: str) -> BatchSplit:
        if name not in built:
            index = ShardedDHLIndex.build(
                COMBINE_GRAPHS[name](), k=2, config=DHLConfig(seed=0)
            )
            s, t = make_rng(1).integers(0, index.graph.num_vertices, (2, 300))
            cross = index.region_of[s] != index.region_of[t]
            built[name] = BatchSplit(index, s[cross], t[cross])
        return built[name]

    return get


#: Fan rows per fan entry: one each, a few shared by many entries, one
#: shared by all, and more rows than entries (some named by none).
ROW_COUNTS = {
    "one-per-entry": lambda entries: entries,
    "duplicate-rows": lambda entries: max(1, entries // 8),
    "one-row": lambda entries: 1,
    "unused-rows": lambda entries: entries + 5,
}


def fan_results(split, rng, rows_of, layout: str) -> dict:
    """Made-up replies for *split*'s shards: fan rows with inf cells and
    an inf row mixed in, row maps that repeat rows, laid out as a frame
    could hand them over (contiguous, unaligned or row-strided)."""
    results = {}
    for sid, (fan, lo, mid, _) in split.spans.items():
        entries, width = lo - fan, split.routing.widths[sid]
        rows = rows_of(entries)
        matrix = rng.integers(0, 60, (rows, width)).astype(np.float64)
        matrix[rng.random(matrix.shape) < 0.15] = np.inf
        if rows > 2:
            matrix[rows // 2] = np.inf
        if layout == "unaligned":
            raw = bytes(1) + matrix.tobytes()
            matrix = np.frombuffer(raw, np.float64, matrix.size, offset=1)
            matrix = matrix.reshape(rows, width)
            assert not matrix.flags.aligned
        elif layout == "strided":
            wide = np.full((rows, 2 * width), 7.0)
            wide[:, ::2] = matrix
            matrix = wide[:, ::2]
            assert matrix.size < 2 or not matrix.flags.c_contiguous
        inverse = rng.integers(0, rows, entries)
        results[sid] = (np.empty(mid - lo), matrix, inverse)
    return results


class TestMinPlusCombine:
    """The C min-plus (``min_plus_run``, inside ``dhl_batch_answer``)
    against ``tests/oracles/query.py::min_plus``, through
    :meth:`BatchSplit.answer` on made-up fan rows: every cross pair is
    ``min over (a, b) of (ds[a] + block[a, b]) + dt[b]``, numpy's bits."""

    @pytest.mark.parametrize("layout", ["contiguous", "unaligned", "strided"])
    @pytest.mark.parametrize("rows", list(ROW_COUNTS))
    @pytest.mark.parametrize("graph", list(COMBINE_GRAPHS))
    def test_equals_numpy(self, cross_split, graph, rows, layout):
        split = cross_split(graph)
        assert split.routes and not split.intra_pairs
        if graph == "bridge":
            assert split.routing.widths == [1, 1]
        results = fan_results(split, make_rng(len(rows)), ROW_COUNTS[rows], layout)
        got = split.answer(results)
        with python_kernels():
            want = split.answer(results)
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_a_reply_of_the_wrong_shape_is_refused(self, cross_split):
        split = cross_split("grid")
        good = fan_results(split, make_rng(3), ROW_COUNTS["one-per-entry"], "contiguous")
        for sid, (final, rows, inverse) in good.items():
            for bad in (
                (np.zeros(1), rows, inverse),
                (final, rows[:, :-1], inverse),
                (final, rows, inverse[:-1]),
            ):
                with pytest.raises(ValueError, match="answered"):
                    split.answer({**good, sid: bad})


class TestSetKernelWrapper:
    def test_rejects_what_c_would_misread(self, road_index):
        idx_c = road_index
        labels = idx_c.labels
        hq = idx_c.hq
        ids = np.arange(10, dtype=np.int64)

        def matrix(sources, targets):
            return native_engine.distance_matrix(
                labels, sources, labels, targets, hq
            )

        want = idx_c.engine.distance_matrix(ids, ids[:4])
        np.testing.assert_array_equal(matrix(ids, ids[:4].copy()), want)
        with pytest.raises(TypeError):
            matrix(ids.astype(np.int32), ids)
        with pytest.raises(TypeError):
            matrix(ids, np.arange(20, dtype=np.int64)[::2])
        with pytest.raises(TypeError):
            matrix(np.stack((ids, ids)), ids)
        raw = bytes(3) + ids.tobytes()
        with pytest.raises(TypeError):
            matrix(np.frombuffer(raw, np.int64, len(ids), offset=3), ids)
        short = HierarchicalLabelling(labels.values[:50], labels.offsets, labels.tau)
        with pytest.raises(ValueError, match="offsets"):
            native_engine.distance_matrix(short, ids, labels, ids, hq)

    def test_engine_takes_any_integer_ids(self, road_index):
        """The query door coerces lists, other dtypes and strided or
        unaligned arrays before the wrapper sees them."""
        idx_c = road_index
        ids = np.arange(0, 40, 3, dtype=np.int64)
        want = on_oracles(idx_c.engine.distance_matrix, ids, ids[:5])
        raw = bytes(5) + ids.tobytes()
        unaligned = np.frombuffer(raw, np.int64, len(ids), offset=5)
        for sources in (ids.tolist(), ids.astype(np.int32), unaligned,
                        np.repeat(ids, 2)[::2]):
            np.testing.assert_array_equal(
                idx_c.engine.distance_matrix(sources, ids[:5]), want
            )
        np.testing.assert_array_equal(
            idx_c.engine.distances_arrays(unaligned, unaligned[::-1]),
            on_oracles(idx_c.engine.distances_arrays, ids, ids[::-1]),
        )


# ---------------------------------------------------------------------------
# the loader, on a cold cache
# ---------------------------------------------------------------------------

@pytest.fixture
def cold(monkeypatch, tmp_path) -> Path:
    """A fresh loader state over an empty per-test cache home."""
    home = tmp_path / "cache-home"
    home.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.setattr(native, "_state", native._State())
    return home / "repro-dhl"


def fake_compiler(directory: Path, body: str) -> None:
    directory.mkdir(exist_ok=True)
    script = directory / "cc"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(0o755)


def built_by_another_process() -> Path:
    """Fill the (cold) cache from a child; this process never maps the
    file, so the test may damage it the way a crashed writer would."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.labelling import native;"
            "print(native.status().library_path)",
        ],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    return Path(done.stdout.strip())


class TestUnavailable:
    def test_no_compiler_raises_a_typed_error_naming_the_fix_once(
        self, cold, monkeypatch, tmp_path
    ):
        """Without cc / gcc / clang the first build raises, naming the
        reason and the fix; a second raises again without another
        attempt: the failed resolution is kept."""
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        attempts = {"_compiler": 0, "_compile": 0}
        for name in attempts:
            real = getattr(native, name)

            def counted(*args, name=name, real=real):
                attempts[name] += 1
                return real(*args)

            monkeypatch.setattr(native, name, counted)
        for _ in range(2):
            with pytest.raises(NativeUnavailableError) as raised:
                path_index()
            message = str(raised.value)
            assert "no C compiler (cc, gcc, clang) on PATH" in message
            assert "install a C compiler" in message
        assert attempts == {"_compiler": 1, "_compile": 0}
        status = native.status()
        assert status == (status.reason, None, None)
        assert not cold.exists() or not list(cold.iterdir())

    def test_compilation_failure_reason(self, cold, monkeypatch, tmp_path):
        fake_compiler(
            tmp_path / "bin", "echo 'dhl_kernels.c:1: error: no' >&2; exit 1"
        )
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        for _ in range(2):
            with pytest.raises(NativeUnavailableError, match="exited 1: .*error: no"):
                DHLConfig().resolve_engine()
        assert not list(cold.iterdir())  # no temporary left behind

    def test_a_pickle_landing_without_the_library_raises_on_its_first_kernel(
        self, cold, monkeypatch, tmp_path
    ):
        payload = pickle.dumps(path_index())
        monkeypatch.setattr(native, "_state", native._State())  # another host
        monkeypatch.setenv("PATH", str(tmp_path))
        clone = pickle.loads(payload)
        # The scalar query is the pair kernel on one pair, like a batch.
        with pytest.raises(NativeUnavailableError, match="no C compiler"):
            clone.distance(0, 4)
        with pytest.raises(NativeUnavailableError, match="no C compiler"):
            clone.distances([(0, 4), (1, 3)])


class TestLoader:
    def test_cold_then_warm(self, cold, monkeypatch):
        runs = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            runs.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(native.subprocess, "run", counting_run)
        with collect_phases() as phases:
            first = native.status()
        assert first.library_path and first.compile_seconds > 0
        assert 0 < phases.as_dict()["build.native_compile"] <= first.compile_seconds
        (build,) = runs
        assert build[1:-4] == list(native._CFLAGS) and build[-4] == "-o"
        assert build[-2:] == [str(native.SOURCE), str(native.INGEST)]
        assert "-ffast-math" not in build and "-march=native" not in build
        assert native.status() is first and len(runs) == 1  # one resolution
        (built,) = cold.iterdir()
        assert str(built) == first.library_path
        assert stat.S_IMODE(cold.stat().st_mode) == 0o700
        assert not built.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        # A second process (a fresh state) finds it and spawns nothing: a
        # child forked from a large process counts as large.
        monkeypatch.setattr(native, "_state", native._State())
        again = native.status()
        assert again.library_path == first.library_path
        assert again.compile_seconds is None and len(runs) == 1
        assert path_index().distance(0, 4) == 10.0

    def test_compiler_flags_name_the_build(self, monkeypatch):
        """Two flag tuples name two files, so a changed ``_CFLAGS``
        never opens the build of the old ones; nothing is compiled."""
        monkeypatch.setattr(
            native.subprocess, "run", lambda *a, **k: pytest.fail("compiled")
        )
        _, identity = native._compiler()
        flags = native._CFLAGS
        other = tuple(
            "-ffp-contract=fast" if flag == "-ffp-contract=off" else flag
            for flag in flags
        )
        assert native._digest(identity, flags) == native._digest(identity, flags)
        assert native._digest(identity, flags) != native._digest(identity, other)
        # A flag moved into its neighbour is another tuple too.
        joined = (*flags[:-2], flags[-2] + flags[-1])
        assert native._digest(identity, flags) != native._digest(identity, joined)
        loaded = Path(native.status().library_path).name
        assert loaded.split("-")[1] == native._digest(identity, flags)

    def test_python_include_dirs_name_the_build(self):
        """The include directory is the last flag: two interpreters'
        headers name two files, so the ingest built against one
        interpreter's ABI is never opened by another."""
        _, identity = native._compiler()
        flags = native._CFLAGS
        assert flags[-2:] == ("-isystem", sysconfig.get_paths()["include"])
        assert Path(flags[-1], "Python.h").is_file()
        other = (*flags[:-1], flags[-1].replace("python3", "python9"))
        assert native._digest(identity, flags) != native._digest(identity, other)

    def test_digest_covers_both_sources(self, monkeypatch, tmp_path):
        _, identity = native._compiler()
        flags = native._CFLAGS
        digest = native._digest(identity, flags)
        for name in ("SOURCE", "INGEST"):
            edited = tmp_path / f"{name}.c"
            edited.write_bytes(getattr(native, name).read_bytes() + b"\n")
            with monkeypatch.context() as patch:
                patch.setattr(native, name, edited)
                assert native._digest(identity, flags) != digest

    def test_missing_python_headers_name_the_fix(self, cold, monkeypatch, tmp_path):
        """An include directory without ``Python.h`` is refused before any
        compile, naming the missing headers; nothing is built or left."""
        monkeypatch.setattr(
            native, "_CFLAGS", (*native._CFLAGS[:-1], str(tmp_path / "include"))
        )
        monkeypatch.setattr(
            native.subprocess, "run", lambda *a, **k: pytest.fail("compiled")
        )
        with pytest.raises(NativeUnavailableError) as raised:
            native.library()
        message = str(raised.value)
        assert f"no Python.h in {tmp_path / 'include'}" in message
        assert "Python's C headers" in message
        assert native.status().library_path is None
        assert not cold.exists() or not list(cold.iterdir())

    def test_the_ingest_is_bound_as_a_python_api_call(self):
        """It holds the GIL and ctypes raises the exception it sets."""
        ingest = native.library().dhl_ingest_ids
        assert ingest._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ingest([1.5], 1, np.empty(1, dtype=np.int64))

    def test_truncated_cached_library_is_rebuilt_once(self, cold):
        target = built_by_another_process()
        assert target.parent == cold
        whole = target.stat().st_size
        target.write_bytes(target.read_bytes()[: whole // 3])
        status = native.status()  # opening the torn file would fault
        assert status.library_path and status.compile_seconds > 0
        assert Path(status.library_path) == target
        assert target.stat().st_size == whole
        assert path_index().distances([(0, 4)]).tolist() == [10.0]

    def test_cached_library_missing_a_symbol_is_rebuilt_once(
        self, cold, tmp_path
    ):
        target = built_by_another_process()
        stub = tmp_path / "stub.c"
        stub.write_text("int dhl_label_sweep(void) { return 7; }\n")
        cc = next(filter(None, map(shutil.which, native._COMPILERS)))
        subprocess.run(
            [cc, "-shared", "-fPIC", "-o", str(target), str(stub)], check=True
        )
        status = native.status()
        assert status.library_path and status.compile_seconds > 0
        assert path_index().distances([(0, 4)]).tolist() == [10.0]

    def test_rebuild_that_still_does_not_load_raises(
        self, cold, monkeypatch, tmp_path
    ):
        """A compiler that 'succeeds' with garbage: one rebuild, then the error."""
        fake_compiler(
            tmp_path / "bin",
            'while [ $# -gt 1 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done',
        )
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        with pytest.raises(NativeUnavailableError, match="does not load"):
            DHLConfig().resolve_engine()

    def test_group_writable_directory_is_never_loaded_from(self, cold):
        cold.mkdir(mode=0o700)
        cold.chmod(0o770)
        status = native.status()
        assert status.library_path is not None
        assert Path(status.library_path).parent != cold
        assert not list(cold.iterdir())
        shutil.rmtree(Path(status.library_path).parent)

    def test_group_writable_library_is_never_loaded(self, cold, monkeypatch):
        target = Path(native.status().library_path)
        target.chmod(0o770)
        monkeypatch.setattr(native, "_state", native._State())
        status = native.status()
        assert status.library_path and status.compile_seconds > 0
        loaded = Path(status.library_path)  # rebuilt over the suspect file
        assert not loaded.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)

    def test_read_only_cache_directory(self, cold, monkeypatch, tmp_path):
        cold.mkdir(mode=0o500)
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        try:
            status = native.status()
            assert status.library_path is not None
            if os.getuid() != 0:  # root writes anywhere
                assert Path(status.library_path).parent != cold
            assert path_index().distance(0, 4) == 10.0
        finally:
            cold.chmod(0o700)

    def test_four_processes_starting_cold_at_once(self, cold):
        """Racing builders each end with a whole file and the same answers."""
        script = textwrap.dedent(
            """
            import json, warnings, zlib
            import numpy as np
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                from repro import DHLConfig, DHLIndex
                from repro.graph.generators import delaunay_network
                from repro.labelling import native
                index = DHLIndex.build(delaunay_network(200, seed=3))
                pairs = np.random.default_rng(0).integers(0, 200, (500, 2))
                out = index.distances(pairs)
                edges = list(index.graph.edges())[:16]
                index.update([(u, v, 2 * w) for u, v, w in edges])
                out = np.concatenate([out, index.distances(pairs)])
            print(json.dumps({
                "status": native.status()._asdict(),
                "warnings": len(caught),
                "crc": zlib.crc32(out.tobytes()),
            }))
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(4)
        ]
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0
            reports.append(json.loads(out))
        assert len({r["crc"] for r in reports}) == 1
        assert all(r["warnings"] == 0 for r in reports)
        assert len({r["status"]["library_path"] for r in reports}) == 1
        (built,) = cold.iterdir()  # one file, no temporaries
        native._open(built)
