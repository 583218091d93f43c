"""The native engine: seen executing, and every way of not having it.

With a C compiler on ``PATH`` the library must load and
``engine="compiled"`` must mean it — the first class fails, not skips,
otherwise. The pair kernel's and the min-plus combine's contracts, and
what the set kernel's and the build kernels' wrappers refuse, are
checked here against the numpy code they replace (the set kernel's
parity lives in ``test_distance_matrix``, FM's in
``test_partition_identity``, Algorithm 1's in ``test_labelling``); the
sweeps' differential coverage lives in
the compiled-vs-reference suites (``test_sweep_rounds``,
``test_maintenance_kernels``, ``test_structural_batch``,
``test_directed``). The loader cases each run
against an empty cache directory under ``tmp_path`` and a fresh loader
state, so they neither see nor disturb the library the rest of the
session runs on.
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
import textwrap
import warnings
from multiprocessing import shared_memory
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.labelling import native
from repro.labelling import query as query_module
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import cell_marks, entry_marks
from repro.labelling.native import engine as native_engine
from repro.observability import collect_phases
from repro.partition import kernels
from repro.partition.types import PartitionGraph
from repro.sharding.engine import min_plus_compact
from repro.utils.rng import make_rng, sample_pairs
from tests.conftest import require_engine
from tests.strategies import caterpillar_index

HAVE_COMPILER = any(shutil.which(name) for name in native._COMPILERS)
SRC = str(Path(native.__file__).resolve().parents[3])


def two_component_graph() -> Graph:
    g = Graph(6)
    g.add_edge(0, 1, 2.0)
    g.add_edge(1, 2, 3.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 5, 1.0)
    return g


def path_index(**config) -> DHLIndex:
    g = Graph(5)
    for i in range(4):
        g.add_edge(i, i + 1, float(i + 1))
    return DHLIndex.build(g, DHLConfig(leaf_size=2, seed=0, **config))


class TestConfigEngine:
    def test_accepts_compiled(self):
        assert DHLConfig(engine="compiled").engine == "compiled"
        assert DHLConfig().engine == "compiled"

    @pytest.mark.parametrize("bad", ["numba", "jit", "", "ARRAY"])
    def test_rejects_unknown_engines(self, bad):
        with pytest.raises(IndexBuildError, match="engine must be one of"):
            DHLConfig(engine=bad)

    def test_retired_array_engine_is_rejected_naming_the_two_engines(self):
        with pytest.raises(IndexBuildError) as raised:
            DHLConfig(engine="array")
        message = str(raised.value)
        assert "'compiled' or 'reference'" in message and "'array'" in message

    def test_non_compiled_resolution_is_identity(self):
        assert DHLConfig(engine="reference").resolve_engine() == "reference"

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler on PATH")
    def test_compiler_on_path_resolves_to_compiled(self):
        """The library this session's parity suites run on is really there."""
        status = native.status()
        assert status.engine == "compiled", status.reason
        assert DHLConfig().resolve_engine() == "compiled"
        lib = native.library()
        assert all(hasattr(lib, name) for name in native.SIGNATURES)
        for name in native.SIGNATURES:
            assert getattr(lib, name).argtypes is not None
        assert os.path.isfile(status.library_path)
        index = path_index()
        assert index.engine.engine == "compiled"
        assert "engine=compiled" in repr(index)


# ---------------------------------------------------------------------------
# the pair kernel's contract
# ---------------------------------------------------------------------------

@pytest.fixture
def road_pair(small_road) -> tuple[DHLIndex, DHLIndex]:
    """The same index under the numpy and the native pair kernel."""
    require_engine("compiled")
    return tuple(
        DHLIndex.build(
            small_road.copy(), DHLConfig(leaf_size=6, seed=0, engine=engine)
        )
        for engine in ("reference", "compiled")
    )


class TestPairKernel:
    def test_matches_array_kernel(self, road_pair):
        idx_r, idx_c = road_pair
        assert idx_c.engine.engine == "compiled"
        n = idx_r.graph.num_vertices
        pairs = sample_pairs(n, 2000, make_rng(9), distinct=False)
        pairs += [(v, v) for v in range(0, n, 13)]
        d_r, h_r = idx_r.engine.distances_with_hubs(pairs)
        d_c, h_c = idx_c.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(d_c, d_r)
        np.testing.assert_array_equal(h_c, h_r)
        np.testing.assert_array_equal(idx_c.distances(pairs), d_r)

    def test_self_and_disconnected_pairs(self):
        require_engine("compiled")
        idx = DHLIndex.build(
            two_component_graph(), DHLConfig(leaf_size=2, seed=0)
        )
        pairs = [(0, 3), (2, 5), (0, 2), (3, 5), (2, 2)]
        out, hubs = idx.engine.distances_with_hubs(pairs)
        assert np.isinf(out[0]) and np.isinf(out[1])
        assert hubs[0] == -1 and hubs[1] == -1
        assert out[2] == 5.0 and out[3] == 2.0
        assert out[4] == 0.0 and hubs[4] == -1

    def test_fused_k_equals_supplied_k_on_every_pair(self, road_pair):
        """K counted in C == ``AncestorTables.counts``, on all n^2 pairs."""
        idx_r, idx_c = road_pair
        n = idx_c.graph.num_vertices
        s, t = (a.ravel() for a in np.divmod(np.arange(n * n), n))
        engine = idx_c.engine
        tables = engine._batch_tables()
        assert tables.vectorised
        labels = idx_c.labels
        fused = native_engine.gather_pairs(
            labels, s, labels, t, None, tables, True
        )
        supplied = native_engine.gather_pairs(
            labels, s, labels, t, tables.counts(s, t), None, True
        )
        numpy_side = query_module.gather_pairs(
            labels, s, labels, t, tables.counts(s, t), True
        )
        for got in (fused, supplied):
            np.testing.assert_array_equal(got[0], numpy_side[0])
            np.testing.assert_array_equal(got[1], numpy_side[1])

    def test_ties_answer_the_first_rank(self):
        """On an all-equal-weight grid nearly every minimum is tied."""
        require_engine("compiled")
        graph = grid_network(9, 9, diagonal_fraction=0.0, weight_jitter=0.0)
        for u, v, _ in list(graph.edges()):
            graph.set_weight(u, v, 1.0)
        built = [
            DHLIndex.build(graph.copy(), DHLConfig(seed=0, engine=engine))
            for engine in ("reference", "compiled")
        ]
        n = graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want, got = (index.engine.distances_with_hubs(pairs) for index in built)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_all_inf_prefix_has_no_hub(self, road_pair):
        """Deleting every road at a vertex leaves whole prefixes inf."""
        for index in road_pair:
            v = 17
            index.apply_batch(
                deletions=[(v, u) for u in list(index.graph.neighbors(v))]
            )
        idx_r, idx_c = road_pair
        pairs = [(17, t) for t in range(0, 300, 7) if t != 17] + [(3, 250)]
        want, got = (i.engine.distances_with_hubs(pairs) for i in road_pair)
        assert np.isinf(got[0][:-1]).all() and (got[1][:-1] == -1).all()
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_two_different_labellings(self):
        """A directed index hands the kernel its (out, in) label pair."""
        require_engine("compiled")
        digraph = DiGraph.from_undirected(delaunay_network(120, seed=5))
        for i, (u, v, w) in enumerate(list(digraph.arcs())):
            if i % 2 == 0:
                digraph.set_weight(u, v, float(w + 3))
        built = [
            DirectedDHLIndex.build(
                digraph.copy(), DHLConfig(leaf_size=4, seed=0, engine=engine)
            )
            for engine in ("reference", "compiled")
        ]
        assert built[1].labellings[0] is not built[1].labellings[1]
        assert built[1].engine.engine == "compiled"
        n = digraph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want, got = (index.engine.distances_with_hubs(pairs) for index in built)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert (got[0] != got[0].reshape(n, n).T.ravel()).any()  # asymmetric

    def test_hierarchy_deeper_than_the_lca_tables(self):
        """Past the vector depth K arrives from Python, pair by pair."""
        require_engine("compiled")
        spine = query_module._MAX_VECTOR_DEPTH + 6
        deep = caterpillar_index(spine)
        flat = caterpillar_index(spine, DHLConfig(seed=0, engine="reference"))
        assert deep.engine.engine == "compiled"
        assert not deep.engine.supports_batch_kernel()
        n = deep.graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want, got = (i.engine.distances_with_hubs(pairs) for i in (flat, deep))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickled_after_a_batch_query_reads_its_own_arrays(self, directed):
        """A clone made after the kernel has run must hand C the clone's
        buffers: the original's are freed (and overwritten) first."""
        require_engine("compiled")
        graph = delaunay_network(150, seed=9)
        config = DHLConfig(leaf_size=4, seed=0)
        if directed:
            idx = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
        else:
            idx = DHLIndex.build(graph, config)
        pairs = sample_pairs(150, 400, make_rng(4), distinct=False)
        want = idx.engine.distances_with_hubs(pairs)
        payload = pickle.dumps(idx)
        tables = idx.engine._batch_tables()
        for name in ("node_of", "depth", "bits", "chain", "tau"):
            getattr(tables, name).fill(-1)  # what a stale pointer would read
        del idx, tables
        gc.collect()
        clone = pickle.loads(payload)
        assert clone.engine.engine == "compiled"
        assert clone.engine.labels is clone.labellings[0]
        assert clone.engine.target_labels is clone.labellings[-1]
        got = clone.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        again = pickle.loads(pickle.dumps(clone)).engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(again[0], want[0])

    def test_read_only_mmap_labels(self, road_pair, tmp_path):
        idx_r, idx_c = road_pair
        idx_c.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
        assert loaded.engine.engine == "compiled"
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

    def test_shared_memory_labels_after_a_republish(self, road_pair):
        """A replica re-binds its labelling onto a new segment: the
        kernel reads the new address, never a cached one."""
        idx_r, idx_c = road_pair
        pairs = sample_pairs(300, 500, make_rng(4), distinct=False)
        segments = []

        def publish(index):
            values, offsets = index.labels.export_buffers()
            segment = shared_memory.SharedMemory(create=True, size=values.nbytes)
            segments.append(segment)
            shared = np.ndarray(values.shape, np.float64, buffer=segment.buf)
            shared[:] = values
            shared.flags.writeable = False
            return HierarchicalLabelling.from_shared_buffers(
                shared, offsets.copy(), index.hq.tau
            )

        try:
            replica = DHLIndex.build(idx_c.graph.copy(), idx_c.config)
            engine_before = replica.engine
            replica._adopt(replica.hq, replica.hu, (publish(idx_c),))
            np.testing.assert_array_equal(
                replica.distances(pairs), idx_r.distances(pairs)
            )
            edges = list(idx_c.graph.edges())[:20]
            for index in road_pair:
                index.update([(u, v, 2 * w) for u, v, w in edges])
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

    def test_wrapper_rejects_what_c_would_misread(self, road_pair):
        """dtype, contiguity and length are checked before any pointer."""
        _, idx_c = road_pair
        labels = idx_c.labels
        addrs = idx_c.engine._batch_tables()
        s = np.arange(10, dtype=np.int64)

        def gather(s, t, k=None):
            return native_engine.gather_pairs(labels, s, labels, t, k, addrs)

        with pytest.raises(TypeError):
            gather(s.astype(np.int32), s)
        with pytest.raises(TypeError):
            gather(np.arange(20, dtype=np.int64)[::2], s)
        with pytest.raises(TypeError):
            gather(s, s[:9])
        with pytest.raises(TypeError):
            gather(s, s, k=np.ones(10, dtype=np.int32))
        short = HierarchicalLabelling(
            labels.values[:50], labels.offsets, labels.lengths, labels.tau
        )
        with pytest.raises(ValueError, match="offsets"):
            native_engine.gather_pairs(short, s, labels, s, None, addrs)

    @pytest.mark.parametrize("sweep", ["shortcut_sweep", "label_sweep"])
    def test_sweep_reports_a_failed_allocation(self, road_pair, monkeypatch, sweep):
        """A heap that cannot be allocated comes back as a status, which
        the wrapper turns into ``MemoryError``: nothing was written,
        marked or listed."""
        _, idx_c = road_pair
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
    def test_fm_reports_a_failed_allocation(self, monkeypatch):
        """A heap the kernel cannot allocate comes back as a status, which
        the wrapper turns into ``MemoryError``: the side buffer the kernel
        was handed and its work counts are as they came in."""
        require_engine("compiled")
        pg, side = grid_halves()
        before = side.copy()
        real, statuses, seen = native.library(), [], []

        class HugeRowCount:
            """Tells the kernel of 2**58 adjacency entries: a heap it
            would need 2**62 bytes and more for."""

            def __getattr__(self, name):
                def call(n, nnz, *args):
                    statuses.append(getattr(real, name)(n, 2**58, *args))
                    seen.append(ctypes.string_at(args[-2], n))
                    return statuses[-1]

                return call

        monkeypatch.setattr(native, "library", HugeRowCount)
        work = np.zeros(2, dtype=np.int64)
        with pytest.raises(MemoryError):
            kernels.fm_refine(pg, side, 20, work=work)
        assert statuses == [-1]
        assert seen == [before.tobytes()]
        np.testing.assert_array_equal(side, before)
        assert not work.any()
        monkeypatch.undo()
        assert kernels.fm_refine(pg, side, 20) != bytearray(before.tobytes())

    def test_partitioner_steps_report_a_failed_allocation(self, monkeypatch):
        """Every partitioner entry point that allocates turns a size it
        cannot have into ``MemoryError``: the context and the one-step
        kernels alike (told of 2**58 vertices here)."""
        require_engine("compiled")
        pg, side = grid_halves()
        real = native.library()

        class HugeVertexCount:
            def __getattr__(self, name):
                def call(n, *args):
                    return getattr(real, name)(2**58, *args)

                return call

        monkeypatch.setattr(native, "library", HugeVertexCount)
        with pytest.raises(MemoryError):
            kernels.Bisector(*pg.flat(), 0.2)
        with pytest.raises(MemoryError):
            kernels.rebalance(pg, side, 10)
        with pytest.raises(MemoryError):
            kernels.greedy_growing(pg, seed_vertex=0)
        with pytest.raises(MemoryError):
            kernels.bfs_halves(pg, seed=0)
        with pytest.raises(MemoryError):
            kernels.components(pg)
        with pytest.raises(MemoryError):
            kernels.coarsen_once(pg, 0, 4)
        with pytest.raises(MemoryError):
            kernels.minimum_vertex_separator([(0, 1)])

    def test_partitioner_wrappers_reject_what_c_would_misread(self, monkeypatch):
        """One case per array a partitioner entry point reads: each bad
        one raises ``ValueError`` in the wrapper, and C is never called
        (every library symbol is a tripwire once the context exists)."""
        require_engine("compiled")
        pg, side = grid_halves()
        n = pg.num_vertices
        stray = PartitionGraph([((1, 1.0),), ((0, 1.0), (2, 1.0))], [1, 1])
        negative = PartitionGraph([((-1, 1.0),), ((0, 1.0),)], [1, 1])
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
            wide = indices.copy()
            wide[5] = n
            cases = {
                "neighbour >= n": lambda: kernels.greedy_growing(stray, seed_vertex=0),
                "negative neighbour": lambda: kernels.components(negative),
                "context neighbour >= n": lambda: kernels.Bisector(
                    indptr, wide, mult, vweight, 0.2
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
                "side byte 2 (rebalance)": lambda: kernels.rebalance(pg, bad_side, 20),
                "side byte 2 (cut)": lambda: kernels.cut_weight(pg, bad_side),
                "side byte 2 (FM)": lambda: kernels.fm_refine(pg, bad_side, 20),
                "side byte 2 (candidate)": lambda: ctx.consider(bad_side),
                "growing seed >= n": lambda: kernels.greedy_growing(pg, seed_vertex=n),
                "BFS seed >= n": lambda: kernels.bfs_halves(pg, seed=n),
                "portfolio seed >= n": lambda: ctx.initial([0, 1, 2, 3, n]),
                "negative portfolio seed": lambda: ctx.initial([0, 1, -2, 3, 4]),
            }
            for case, call in cases.items():
                with pytest.raises(ValueError):
                    call()
                assert not calls, case

    def test_fm_wrapper_rejects_what_c_would_misread(self):
        require_engine("compiled")
        pg, side = grid_halves()
        with pytest.raises(ValueError, match="sides"):
            kernels.fm_refine(pg, side[:-1], 20)
        bad = side.copy()
        bad[3] = 2
        with pytest.raises(ValueError, match="sides"):
            kernels.fm_refine(pg, bad, 20)
        with pytest.raises(TypeError):
            kernels.fm_refine(pg, side, 20, work=np.zeros(2, dtype=np.int32))
        stray = PartitionGraph([((1, 1.0),), ((0, 1.0), (2, 1.0))], [1, 1])
        with pytest.raises(ValueError, match="neighbour"):
            kernels.fm_refine(stray, [0, 1], 1)

    def test_label_build_wrapper_rejects_what_c_would_misread(self, road_pair):
        """Rows shorter than ``tau + 1`` and a shortcut that does not
        point to an ancestor would send the C writes past a row."""
        _, idx_c = road_pair
        hu, tau = idx_c.hu, idx_c.hu.tau
        order = np.argsort(tau, kind="stable")
        lengths = tau.copy()  # one entry short on every row
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        short = HierarchicalLabelling(np.zeros(offsets[-1]), offsets, lengths, tau)
        with pytest.raises(ValueError, match="tau"):
            native_engine.label_build(hu, short, order)
        skewed = SimpleNamespace(csr=hu.csr, up_weights=hu.up_weights, tau=tau.copy())
        skewed.tau[hu.csr.owners[0]] = 0  # its up-neighbour is now no ancestor
        with pytest.raises(ValueError, match="ancestor"):
            native_engine.label_build(skewed, idx_c.labels.copy(), order)


# ---------------------------------------------------------------------------
# the set kernel and the min-plus combine
# ---------------------------------------------------------------------------

def fan_case(rng, rows, width_a, width_b, dt_rows, count):
    """A min-plus input with inf rows, columns and cells mixed in; a
    *count* above *rows* / *dt_rows* repeats entries of the row maps."""
    def matrix(r, c):
        out = rng.integers(0, 60, (r, c)).astype(np.float64)
        out[rng.random((r, c)) < 0.15] = np.inf
        return out

    ds = matrix(rows, width_a)
    block = matrix(width_a, width_b)
    dt = matrix(dt_rows, width_b)
    ds[rows // 2] = np.inf
    block[:, width_b // 2] = np.inf
    dt[-1] = np.inf
    ds_inv = rng.integers(0, rows, count)
    dt_inv = rng.integers(0, dt_rows, count)
    return ds, ds_inv, block, dt, dt_inv


class TestMinPlus:
    @pytest.mark.parametrize(
        "shape",
        [(7, 5, 6, 4, 40), (1, 5, 6, 3, 9), (6, 1, 4, 5, 20), (5, 6, 1, 5, 20),
         (1, 1, 1, 1, 3), (4, 3, 3, 2, 0), (9, 51, 51, 8, 64)],
        ids=["wide", "one-ds-row", "one-row-block", "one-column-block",
             "scalar", "no-pairs", "grid-fan"],
    )
    def test_equals_numpy(self, shape):
        require_engine("compiled")
        rng = make_rng(sum(shape))
        case = fan_case(rng, *shape)
        want = min_plus_compact(*case, engine="reference")
        got = min_plus_compact(*case, engine="compiled")
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_strided_and_unaligned_inputs_are_copied_not_misread(self):
        """A block is a slice of the overlay matrix and a fan decoded
        from a frame may start at any byte: the call site makes them
        aligned contiguous copies; the wrapper itself takes neither."""
        require_engine("compiled")
        ds, ds_inv, block, dt, dt_inv = fan_case(make_rng(2), 5, 4, 6, 3, 25)
        big = np.full((9, 10), 7.0)
        big[2:6, 1:7] = block
        view = big[2:6, 1:7]
        raw = bytes(1) + ds.tobytes()
        unaligned = np.frombuffer(raw, np.float64, ds.size, offset=1)
        unaligned = unaligned.reshape(ds.shape)
        assert not view.flags.c_contiguous and not unaligned.flags.aligned
        want = min_plus_compact(ds, ds_inv, block, dt, dt_inv, engine="reference")
        got = min_plus_compact(
            unaligned, ds_inv, view, dt, dt_inv, engine="compiled"
        )
        np.testing.assert_array_equal(got, want)
        with pytest.raises(TypeError):
            native_engine.min_plus(ds, ds_inv, view, dt, dt_inv)
        with pytest.raises(TypeError):
            native_engine.min_plus(unaligned, ds_inv, block, dt, dt_inv)

    def test_wrapper_rejects_what_c_would_misread(self):
        require_engine("compiled")
        ds, ds_inv, block, dt, dt_inv = fan_case(make_rng(3), 5, 4, 6, 3, 25)

        def call(**replace):
            args = dict(
                ds=ds, ds_inverse=ds_inv, block=block, dt=dt, dt_inverse=dt_inv
            )
            args.update(replace)
            return native_engine.min_plus(**args)

        np.testing.assert_array_equal(
            call(), min_plus_compact(ds, ds_inv, block, dt, dt_inv)
        )
        with pytest.raises(TypeError):
            call(ds_inverse=ds_inv.astype(np.int32))
        with pytest.raises(TypeError):
            call(ds=ds.astype(np.float32))
        with pytest.raises(TypeError):
            call(dt=np.asfortranarray(dt))
        with pytest.raises(TypeError):
            call(dt_inverse=np.repeat(dt_inv, 2)[::2])
        with pytest.raises(ValueError, match="shapes"):
            call(block=block[:, :-1].copy())
        with pytest.raises(ValueError, match="shapes"):
            call(dt_inverse=dt_inv[:-1].copy())
        for bad in (-1, len(ds)):
            inv = ds_inv.copy()
            inv[3] = bad
            with pytest.raises(ValueError, match="row map"):
                call(ds_inverse=inv)
        inv = dt_inv.copy()
        inv[0] = len(dt)
        with pytest.raises(ValueError, match="row map"):
            call(dt_inverse=inv)


class TestSetKernelWrapper:
    def test_rejects_what_c_would_misread(self, road_pair):
        _, idx_c = road_pair
        labels = idx_c.labels
        tables = idx_c.engine._batch_tables()
        ids = np.arange(10, dtype=np.int64)

        def matrix(sources, targets):
            return native_engine.distance_matrix(
                labels, sources, labels, targets, tables
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
        short = HierarchicalLabelling(
            labels.values[:50], labels.offsets, labels.lengths, labels.tau
        )
        with pytest.raises(ValueError, match="offsets"):
            native_engine.distance_matrix(short, ids, labels, ids, tables)

    def test_engine_takes_any_integer_ids(self, road_pair):
        """The query door coerces lists, other dtypes and strided or
        unaligned arrays before the wrapper sees them."""
        idx_r, idx_c = road_pair
        ids = np.arange(0, 40, 3, dtype=np.int64)
        want = idx_r.engine.distance_matrix(ids, ids[:5])
        raw = bytes(5) + ids.tobytes()
        unaligned = np.frombuffer(raw, np.int64, len(ids), offset=5)
        for sources in (ids.tolist(), ids.astype(np.int32), unaligned,
                        np.repeat(ids, 2)[::2]):
            np.testing.assert_array_equal(
                idx_c.engine.distance_matrix(sources, ids[:5]), want
            )
        np.testing.assert_array_equal(
            idx_c.engine.distances_arrays(unaligned, unaligned[::-1]),
            idx_r.engine.distances_arrays(ids, ids[::-1]),
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


needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler on PATH"
)


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


class TestFallback:
    def test_downgrade_warns_exactly_once(self, cold, monkeypatch, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        config = DHLConfig(engine="compiled")
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert config.resolve_engine() == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.resolve_engine() == "reference"
            assert DHLConfig().resolve_engine() == "reference"
            assert DHLConfig(engine="reference").resolve_engine() == "reference"
        status = native.status()
        assert status == ("reference", status.reason, None, None)
        assert native.library() is None
        assert not cold.exists() or not list(cold.iterdir())

    def test_compilation_failure_reason(self, cold, monkeypatch, tmp_path):
        fake_compiler(
            tmp_path / "bin", "echo 'dhl_kernels.c:1: error: no' >&2; exit 1"
        )
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        with pytest.warns(RuntimeWarning, match="exited 1: .*error: no"):
            assert DHLConfig().resolve_engine() == "reference"
        assert not list(cold.iterdir())  # no temporary left behind

    def test_index_builds_and_updates_without_a_compiler(
        self, cold, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.warns(RuntimeWarning, match="falling back"):
            idx = path_index()
        assert idx.config.engine == "compiled"
        assert idx.engine.engine == "reference"
        assert idx.distance(0, 4) == 10.0
        assert idx.distances([(0, 4), (1, 3)]).tolist() == [10.0, 5.0]
        idx.update([(0, 1, 0.5)])
        assert idx.distance(0, 4) == 9.5
        idx.update([(0, 1, 4.0)])
        assert idx.distance(0, 4) == 13.0

    def test_compiled_pickle_landing_without_the_library(
        self, cold, monkeypatch, tmp_path
    ):
        """The engine name is re-resolved where the pickle is opened."""
        idx = path_index(engine="reference")
        idx.config = DHLConfig(leaf_size=2, seed=0)
        idx.engine.engine = "compiled"  # as pickled on a host that had it
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.warns(RuntimeWarning, match="falling back"):
            clone = pickle.loads(pickle.dumps(idx))
        assert clone.engine.engine == "reference"
        assert clone.distances([(0, 4), (1, 3)]).tolist() == [10.0, 5.0]


@needs_compiler
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
        assert first.engine == "compiled" and first.compile_seconds > 0
        assert 0 < phases.as_dict()["build.native_compile"] <= first.compile_seconds
        (build,) = runs
        assert build[1:-3] == list(native._CFLAGS) and build[-1].endswith(".c")
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

    def test_truncated_cached_library_is_rebuilt_once(self, cold):
        target = built_by_another_process()
        assert target.parent == cold
        whole = target.stat().st_size
        target.write_bytes(target.read_bytes()[: whole // 3])
        status = native.status()  # opening the torn file would fault
        assert status.engine == "compiled" and status.compile_seconds > 0
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
        assert status.engine == "compiled" and status.compile_seconds > 0
        assert path_index().distances([(0, 4)]).tolist() == [10.0]

    def test_rebuild_that_still_does_not_load_downgrades(
        self, cold, monkeypatch, tmp_path
    ):
        """A compiler that 'succeeds' with garbage: one rebuild, then reference."""
        fake_compiler(
            tmp_path / "bin",
            'while [ $# -gt 1 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done',
        )
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        with pytest.warns(RuntimeWarning, match="does not load"):
            assert DHLConfig().resolve_engine() == "reference"

    def test_group_writable_directory_is_never_loaded_from(self, cold):
        cold.mkdir(mode=0o700)
        cold.chmod(0o770)
        status = native.status()
        assert status.engine == "compiled"
        assert Path(status.library_path).parent != cold
        assert not list(cold.iterdir())
        shutil.rmtree(Path(status.library_path).parent)

    def test_group_writable_library_is_never_loaded(self, cold, monkeypatch):
        target = Path(native.status().library_path)
        target.chmod(0o770)
        monkeypatch.setattr(native, "_state", native._State())
        status = native.status()
        assert status.engine == "compiled" and status.compile_seconds > 0
        loaded = Path(status.library_path)  # rebuilt over the suspect file
        assert not loaded.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)

    def test_read_only_cache_directory(self, cold, monkeypatch, tmp_path):
        cold.mkdir(mode=0o500)
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        try:
            status = native.status()
            assert status.engine == "compiled"
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
                "engine": index.engine.engine,
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
        assert {r["engine"] for r in reports} == {"compiled"}
        assert len({r["crc"] for r in reports}) == 1
        assert all(r["warnings"] == 0 for r in reports)
        assert len({r["status"]["library_path"] for r in reports}) == 1
        (built,) = cold.iterdir()  # one file, no temporaries
        native._open(built)
