"""The set-to-set kernel must equal the pair kernel bit for bit.

``QueryEngine.distance_matrix`` answers a whole ``sources x targets``
block in C (each cell the pair kernel's LCA and scan); its oracle,
swapped in by :func:`tests.oracles.kernels.python_kernels`, builds one
dense per-target-set table in numpy, with the pair kernel's numpy
oracle beside it. The reference throughout is ``distances_arrays`` on
the expanded pairs, compared with ``np.array_equal`` (never
``allclose``): all minimise the same float sums.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.labelling.native.engine import ShardRoute
from repro.sharding.engine import sub_query
from repro.utils.rng import make_rng
from tests.oracles import query as oracle_query
from tests.oracles.kernels import python_kernels
from tests.strategies import (
    WORD_EDGES,
    caterpillar_index,
    connected_graphs,
    pair_matrix,
)


def assert_kernel_matches(engine, sources, targets) -> np.ndarray:
    got = engine.distance_matrix(sources, targets)
    assert got.dtype == np.float64
    assert got.shape == (len(sources), len(targets))
    assert not np.isnan(got).any()
    assert np.array_equal(got, pair_matrix(engine, sources, targets))
    return got


KERNELS = {"c": nullcontext, "oracle": python_kernels}


@pytest.fixture(params=list(KERNELS))
def road_index(request, small_road) -> DHLIndex:
    """The road index, the test run on the C kernels or on the oracles."""
    with KERNELS[request.param]():
        yield DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))


class TestHubStore:
    @pytest.mark.parametrize(
        "graph",
        [
            grid_network(9, 11, seed=3),
            delaunay_network(250, seed=5),
            Graph.from_edges(40, [(i, i + 1, 1.0 + i % 4) for i in range(39)]),
        ],
        ids=["grid", "delaunay", "path"],
    )
    def test_equals_ancestor_chains(self, graph):
        index = DHLIndex.build(graph, DHLConfig(leaf_size=4, seed=0))
        hubs, offsets = index.engine.hub_store()
        assert offsets[0] == 0 and offsets[-1] == len(hubs)
        for v in range(graph.num_vertices):
            chain = hubs[offsets[v] : offsets[v + 1]].tolist()
            assert chain == oracle_query.ancestors(index.hq, v)

    def test_holds_int32_ids_and_hands_out_int64_hubs(self):
        """One id per label entry: ``int32`` halves the store. The
        gathered hubs are cast, so callers still see ``int64`` arrays
        and Python ints."""
        index = DHLIndex.build(grid_network(9, 11, seed=3), DHLConfig(leaf_size=4))
        engine = index.engine
        hubs, _ = engine.hub_store()
        assert hubs.dtype == np.int32
        pairs = np.array([(0, 98), (5, 5), (17, 60)], dtype=np.int64)
        _, gathered = engine.distances_with_hubs(pairs)
        assert gathered.dtype == np.int64 and gathered[1] == -1
        for (s, t), hub in zip(pairs.tolist(), gathered.tolist()):
            assert type(engine.distance_with_hub(s, t)[1]) is int
            assert engine.distance_with_hub(s, t)[1] == hub


class TestKernelAgainstPairKernel:
    def test_random_and_duplicated_sources(self, road_index):
        engine = road_index.engine
        n = road_index.graph.num_vertices
        rng = make_rng(4)
        targets = rng.choice(n, 23, replace=False)
        sources = rng.integers(0, n, 90)
        assert_kernel_matches(engine, sources, targets)
        doubled = np.concatenate((sources[:10], sources[:10], sources[:3]))
        got = assert_kernel_matches(engine, doubled, targets)
        assert np.array_equal(got[:10], got[10:20])

    def test_sources_that_are_targets_have_zero_diagonal(self, road_index):
        targets = np.arange(0, road_index.graph.num_vertices, 7)
        got = assert_kernel_matches(road_index.engine, targets, targets)
        assert (np.diag(got) == 0.0).all()
        assert np.array_equal(got, got.T)

    def test_matches_dijkstra(self, road_index):
        targets = np.array([3, 77, 150, 299])
        sources = np.array([0, 77, 201])
        got = road_index.engine.distance_matrix(sources, targets)
        for row, s in zip(got, sources.tolist()):
            assert np.array_equal(row, dijkstra(road_index.graph, s)[targets])

    def test_empty_sides(self, road_index):
        engine = road_index.engine
        none = np.empty(0, dtype=np.int64)
        some = np.array([1, 5, 9])
        assert engine.distance_matrix(none, some).shape == (0, 3)
        assert engine.distance_matrix(some, none).shape == (3, 0)
        assert engine.distance_matrix(none, none).shape == (0, 0)

    def test_target_set_change_rekeys_the_tables(self, road_index):
        engine = road_index.engine
        sources = np.arange(0, 60, 3)
        first = np.array([2, 40, 41, 250])
        second = np.array([250, 7, 41])
        assert_kernel_matches(engine, sources, first)
        assert_kernel_matches(engine, sources, second)
        assert_kernel_matches(engine, sources, first)

    def test_disconnected_graph_gives_inf_rows_no_nan(self):
        graph = Graph(9)
        edges = [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0), (4, 5, 1.0), (5, 6, 4.0)]
        for u, v, w in edges:
            graph.add_edge(u, v, w)  # vertices 7 and 8 are isolated
        everyone = np.arange(9)
        answers = []
        index = DHLIndex.build(graph, DHLConfig(leaf_size=2, seed=0))
        for kernels in KERNELS.values():
            with kernels():
                got = assert_kernel_matches(index.engine, everyone, everyone[:4])
                assert np.isinf(got[4:]).all() and np.isfinite(got[:4]).all()
                answers.append(assert_kernel_matches(index.engine, everyone, everyone))
        assert np.array_equal(*answers)

    @pytest.mark.parametrize("depth", WORD_EDGES)
    def test_word_edge_depths(self, depth):
        """Path bits that fill a 64-bit word or spill past it: the C set
        kernel equals the scalar path and the numpy set kernel."""
        index = caterpillar_index(depth)
        engine = index.engine
        n = index.graph.num_vertices
        sources = np.arange(n)
        targets = np.array([0, 5, depth - 1, depth, n // 2 + 3, n - 1])
        got = assert_kernel_matches(engine, sources, targets)
        scalar = [[engine.distance(s, t) for t in targets] for s in sources]
        assert np.array_equal(got, scalar)
        with python_kernels():
            assert np.array_equal(assert_kernel_matches(engine, sources, targets), got)
        for s in (0, 17, n - 1):
            assert np.array_equal(got[s], dijkstra(index.graph, s)[targets])

    def test_two_labellings(self):
        """A directed index: sources read out-labels, targets in-labels."""
        digraph = DiGraph.from_undirected(delaunay_network(150, seed=5))
        for i, (u, v, w) in enumerate(list(digraph.arcs())):
            if i % 3 == 0:
                digraph.set_weight(u, v, float(w + 4))
        n = digraph.num_vertices
        sources, targets = np.arange(0, n, 3), np.arange(1, n, 5)
        answers = []
        index = DirectedDHLIndex.build(digraph, DHLConfig(leaf_size=4, seed=0))
        assert index.labellings[0] is not index.labellings[-1]
        for kernels in KERNELS.values():
            with kernels():
                got = assert_kernel_matches(index.engine, sources, targets)
                back = assert_kernel_matches(index.engine, targets, sources)
            assert (got != back.T).any()  # the two labellings really differ
            answers.append(got)
        assert np.array_equal(*answers)

    def test_chunked_calls_equal_one_call(self, road_index, monkeypatch):
        engine = road_index.engine
        n = road_index.graph.num_vertices
        sources = np.arange(n)
        targets = np.arange(0, n, 11)
        whole = assert_kernel_matches(engine, sources, targets)
        # A cap below one chain x one column forces the numpy set kernel
        # into a chunk per source and per target column.
        monkeypatch.setattr(oracle_query, "_CHUNK_CELLS", 8)
        assert np.array_equal(engine.distance_matrix(sources, targets), whole)


class TestKernelReadsTheLiveStore:
    """Nothing is rebuilt between steps: the engine object is the same,
    only the label values (and, later, their layout) move."""

    def test_bursts_restore_insert_extend_and_compact(self, road_index):
        index = road_index
        engine = index.engine
        n = index.graph.num_vertices
        rng = make_rng(8)
        targets = rng.choice(n, 17, replace=False)
        sources = rng.integers(0, n, 64)
        base = assert_kernel_matches(engine, sources, targets)

        edges = list(index.graph.edges())[:24]
        index.increase([(u, v, 3 * w) for u, v, w in edges])
        raised = assert_kernel_matches(engine, sources, targets)
        assert not np.array_equal(raised, base)
        index.decrease([(u, v, w) for u, v, w in edges])
        assert np.array_equal(assert_kernel_matches(engine, sources, targets), base)

        # A new edge between comparable vertices takes the closure fast
        # path: shortcut slots are appended, H_Q (and the engine) stay.
        u, v = next(
            (a, b)
            for a in range(n)
            for b in oracle_query.ancestors(index.hq, a)[:-1]
            if not index.graph.has_edge(a, b)
        )
        index.apply_batch(insertions=[(u, v, 1.0)])
        assert index.engine is engine
        inserted = assert_kernel_matches(engine, sources, targets)
        row = engine.distance_matrix(np.array([u]), targets)[0]
        assert np.array_equal(row, dijkstra(index.graph, u)[targets])

        # A swapped value buffer (what a mapped store's first write
        # does) rebinds the kernels' record; compaction keeps the engine.
        index.labels.values = index.labels.values.copy()
        assert np.array_equal(assert_kernel_matches(engine, sources, targets), inserted)
        index.compact()
        assert index.engine is engine
        assert np.array_equal(assert_kernel_matches(engine, sources, targets), inserted)


class TestShardedCallSites:
    @pytest.fixture
    def sharded(self) -> ShardedDHLIndex:
        return ShardedDHLIndex.build(
            grid_network(10, 10, seed=2),
            k=2,
            config=DHLConfig(seed=0),
        )

    def test_fans_dedupe_and_match_the_pair_kernel(self, sharded):
        shard = sharded.shards[0]
        boundary = sharded.boundary_local[0]
        fan = make_rng(1).integers(0, shard.graph.num_vertices, 40)
        final, matrix, inverse = sub_query(shard.engine, ShardRoute(boundary), fan=fan)
        assert len(final) == 0 and len(matrix) == len(np.unique(fan))
        assert np.array_equal(matrix[inverse], pair_matrix(shard.engine, fan, boundary))

    def test_overlay_blocks_are_slices_of_one_matrix(self, sharded):
        engine = sharded.engine
        overlay = sharded.overlay.engine
        for i in range(sharded.k):
            for j in range(sharded.k):
                block = engine.overlay_block(i, j)
                want = pair_matrix(
                    overlay, sharded.boundary_overlay[i], sharded.boundary_overlay[j]
                )
                assert np.array_equal(block, want)
                assert np.array_equal(block, engine.overlay_block(j, i).T)
        held = engine.overlay_block(0, 1)
        assert held.base is engine.overlay_block(1, 1).base  # views of one matrix
        (u, v, w) = sharded.partition.cut_edges[0]
        sharded.update([(u, v, w + 7)])  # the overlay epoch moves
        fresh = engine.overlay_block(0, 1)
        assert fresh.base is not held.base
        assert np.array_equal(
            fresh,
            pair_matrix(
                overlay, sharded.boundary_overlay[0], sharded.boundary_overlay[1]
            ),
        )

    def test_c_and_oracle_agree_after_an_overlay_burst(self):
        """Fans, overlay matrix, clique refresh and combine all follow
        the shard kernels: the oracle kernels and C answer every pair
        with the same bits, before and after a burst that moves the
        overlay."""
        graph = grid_network(10, 10, seed=2)
        both = []
        for kernels in (python_kernels, nullcontext):
            with kernels():
                both.append(
                    ShardedDHLIndex.build(graph.copy(), k=2, config=DHLConfig(seed=0))
                )
        n = graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        region_of = both[0].region_of
        inner = [e for e in graph.edges() if region_of[e[0]] == region_of[e[1]]]
        cut = both[0].partition.cut_edges[:4]
        burst = [(u, v, 3 * w) for u, v, w in cut + inner[:12]]
        answers, blocks = [], []
        for index, kernels in zip(both, (python_kernels, nullcontext)):
            with kernels():
                before = index.distances(pairs)
                epoch = index.overlay.epoch
                index.update(burst)
                assert index.overlay.epoch != epoch
                answers.append((before, index.distances(pairs)))
                blocks.append(
                    [
                        index.engine.overlay_block(i, j)
                        for i in range(2)
                        for j in range(2)
                    ]
                )
        (want_before, want), (got_before, got) = answers
        assert np.array_equal(got_before, want_before)
        assert np.array_equal(got, want)
        for s in (0, 37, n - 1):
            row = got[s * n : (s + 1) * n]
            assert np.array_equal(row, dijkstra(both[1].graph, s))
        for want_block, got_block in zip(*blocks):
            assert np.array_equal(got_block, want_block)

    def test_new_cut_edge_rekeys_the_boundary_tables(self, sharded):
        n = sharded.graph.num_vertices
        pairs = [(s, t) for s in range(0, n, 7) for t in range(3, n, 11)]
        sharded.distances(pairs)  # key every shard engine on its boundary
        interior = [
            [v for v in sharded.shard_vertices[r].tolist() if sharded.overlay_of[v] < 0]
            for r in range(2)
        ]
        u, v = interior[0][0], interior[1][-1]
        before = [b.copy() for b in sharded.boundary_local]
        sharded.apply_batch(insertions=[(u, v, 1.0)])
        assert all(
            len(after) == len(old) + 1
            for after, old in zip(sharded.boundary_local, before)
        )
        got = sharded.distances(pairs)
        for (s, t), d in zip(pairs, got.tolist()):
            assert d == dijkstra(sharded.graph, s)[t]
        for r in range(2):
            assert_kernel_matches(
                sharded.shards[r].engine,
                np.arange(sharded.shards[r].graph.num_vertices),
                sharded.boundary_local[r],
            )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(graph=connected_graphs(min_n=2, max_n=24), data=st.data())
def test_property_kernel_equals_pair_kernel(graph, data):
    index = DHLIndex.build(graph, DHLConfig(leaf_size=2, seed=0))
    vertex = st.integers(0, graph.num_vertices - 1)
    sources = np.array(data.draw(st.lists(vertex, max_size=12)), dtype=np.int64)
    targets = np.array(data.draw(st.lists(vertex, max_size=8)), dtype=np.int64)
    got = assert_kernel_matches(index.engine, sources, targets)
    for row, s in zip(got, sources.tolist()):
        assert np.array_equal(row, dijkstra(graph, s)[targets])
