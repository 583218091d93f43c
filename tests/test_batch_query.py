"""The vectorised batch query kernel must be bit-identical to the scalar path."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import VertexNotFound
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.labelling import query as query_module
from repro.labelling.query import QueryEngine
from repro.utils.rng import make_rng, sample_pairs
from tests.conftest import directed_dijkstra
from tests.oracles import query as oracle_query
from tests.oracles.kernels import python_kernels
from tests.strategies import caterpillar_index, connected_graphs


def scalar_distances(index, pairs):
    distance = index.engine.distance
    return np.array([distance(s, t) for s, t in pairs])


class TestBatchKernel:
    def test_ten_thousand_pairs_match_per_pair(self, small_index):
        n = small_index.graph.num_vertices
        rng = make_rng(7)
        pairs = sample_pairs(n, 10_000, rng, distinct=False)
        pairs += [(v, v) for v in range(0, n, 17)]
        batch = small_index.distances(pairs)
        assert np.array_equal(batch, scalar_distances(small_index, pairs))

    def test_matches_dijkstra_rows(self, small_index):
        n = small_index.graph.num_vertices
        for s in (0, 13, n - 1):
            ref = dijkstra(small_index.graph, s)
            got = small_index.distances([(s, t) for t in range(n)])
            assert np.array_equal(got, ref)

    def test_common_ancestor_counts_vectorised(self, small_index):
        hq = small_index.hq
        engine = small_index.engine
        n = small_index.graph.num_vertices
        rng = make_rng(3)
        pairs = np.asarray(sample_pairs(n, 500, rng, distinct=False))
        counts = engine.common_ancestor_counts(pairs[:, 0], pairs[:, 1])
        for (s, t), k in zip(pairs.tolist(), counts.tolist()):
            assert k == hq.common_ancestor_count(s, t)

    def test_hubs_match_scalar(self, small_index):
        engine = small_index.engine
        n = small_index.graph.num_vertices
        rng = make_rng(5)
        pairs = sample_pairs(n, 300, rng, distinct=False) + [(4, 4)]
        dists, hubs = engine.distances_with_hubs(pairs)
        for (s, t), d, hub in zip(pairs, dists.tolist(), hubs.tolist()):
            ds, hs = engine.distance_with_hub(s, t)
            assert d == ds
            assert hub == hs

    def test_disconnected_pairs_are_inf(self):
        g = Graph(6)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 3.0)
        g.add_edge(3, 4, 1.0)
        g.add_edge(4, 5, 1.0)
        index = DHLIndex.build(g, DHLConfig(leaf_size=2, seed=0))
        pairs = [(0, 3), (2, 5), (0, 2), (3, 5)]
        out = index.distances(pairs)
        assert np.array_equal(out, scalar_distances(index, pairs))
        assert np.isinf(out[0]) and np.isinf(out[1])
        assert np.isfinite(out[2]) and np.isfinite(out[3])

    def test_empty_batch(self, small_index):
        assert small_index.distances([]).shape == (0,)
        d, h = small_index.engine.distances_with_hubs([])
        assert d.shape == (0,) and h.shape == (0,)

    def test_scalar_fallback_matches(self, small_index, monkeypatch):
        n = small_index.graph.num_vertices
        pairs = sample_pairs(n, 400, make_rng(11), distinct=False)
        expected, expected_hubs = small_index.engine.distances_with_hubs(pairs)
        # Past the depth gate only K goes scalar; the gather is the same.
        monkeypatch.setattr(query_module, "_MAX_VECTOR_DEPTH", 0)
        engine = QueryEngine(small_index.hq, small_index.labels)
        assert not engine.supports_batch_kernel()
        assert np.array_equal(engine.distances(pairs), expected)
        d, h = engine.distances_with_hubs(pairs)
        assert np.array_equal(d, expected)
        assert np.array_equal(h, expected_hubs)


def two_component_index() -> DHLIndex:
    """Two 3 x 4 grids with no edge between them (K = 0 across)."""
    half = grid_network(3, 4, seed=1)
    n = half.num_vertices
    g = Graph(2 * n)
    for u, v, w in half.edges():
        g.add_edge(u, v, w)
        g.add_edge(n + u, n + v, w + 1.0)
    return DHLIndex.build(g, DHLConfig(leaf_size=3, seed=0))


class TestRaggedGather:
    """The exact-K kernel: chunk edges, ties, empty segments, live store.
    The C pair kernel against its numpy oracle (``tests/oracles/query.py``)
    with a chunk edge after every pair or at a run's end."""

    @pytest.fixture(params=["grid", "delaunay", "caterpillar"])
    def index(self, request) -> DHLIndex:
        if request.param == "grid":
            return DHLIndex.build(grid_network(9, 11, seed=3), DHLConfig(seed=0))
        if request.param == "delaunay":
            return DHLIndex.build(
                delaunay_network(250, seed=5), DHLConfig(leaf_size=6, seed=0)
            )
        index = caterpillar_index(query_module._MAX_VECTOR_DEPTH + 6)
        assert not index.engine.supports_batch_kernel()  # scalar K, same gather
        return index

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_chunk_size_never_changes_an_answer(self, index, monkeypatch, cells):
        engine = index.engine
        n = index.graph.num_vertices
        pairs = sample_pairs(n, 600, make_rng(cells), distinct=False)
        pairs += [(v, v) for v in range(0, n, 13)]
        whole, whole_hubs = engine.distances_with_hubs(pairs)
        assert np.array_equal(whole, scalar_distances(index, pairs))
        monkeypatch.setattr(oracle_query, "_PAIR_CHUNK_CELLS", cells)
        with python_kernels():
            assert np.array_equal(engine.distances(pairs), whole)
            chunked, chunked_hubs = engine.distances_with_hubs(pairs)
        assert np.array_equal(chunked, whole)
        assert np.array_equal(chunked_hubs, whole_hubs)

    @pytest.mark.parametrize("cells", [5, 16_384])
    def test_hubs_take_the_first_minimum_when_every_path_ties(
        self, monkeypatch, cells
    ):
        g = grid_network(7, 8, seed=0)
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, 1.0)
        half = g.num_vertices
        both = Graph(half + 2)  # plus a far component: 56 - 57
        for u, v, w in g.edges():
            both.add_edge(u, v, w)
        both.add_edge(half, half + 1, 1.0)
        index = DHLIndex.build(both, DHLConfig(leaf_size=3, seed=0))
        engine = index.engine
        pairs = [(s, t) for s in range(0, half, 3) for t in range(half)]
        pairs += [(0, half), (half + 1, 5), (half, half + 1), (half, half)]
        monkeypatch.setattr(oracle_query, "_PAIR_CHUNK_CELLS", cells)
        dists, hubs = engine.distances_with_hubs(pairs)
        with python_kernels():
            oracle = engine.distances_with_hubs(pairs)
        assert np.array_equal(oracle[0], dists) and np.array_equal(oracle[1], hubs)
        for (s, t), d, hub in zip(pairs, dists.tolist(), hubs.tolist()):
            assert (d, hub) == engine.distance_with_hub(s, t), (s, t)
            if s == t or np.isinf(d):
                assert hub == -1

    def test_pairs_without_a_common_ancestor_stay_inf(self, monkeypatch):
        index = two_component_index()
        engine = index.engine
        n = index.graph.num_vertices
        half = n // 2
        cross = [(a, half + b) for a in range(half) for b in range(0, half, 5)]
        counts = engine.common_ancestor_counts(*np.asarray(cross).T)
        assert not counts.any()
        out, hubs = engine.distances_with_hubs(cross)
        assert np.isinf(out).all() and (hubs == -1).all()

        inner = [(a, b) for a in range(half) for b in range(half)]
        inner += [(half + a, half + b) for a, b in inner[::3]]
        want = scalar_distances(index, inner)
        k = engine.common_ancestor_counts(*np.asarray(inner).T)
        # Cross pairs first, last, and exactly where a 40-cell run ends.
        edge = int(np.searchsorted(np.cumsum(k), 40, "right"))
        for cells in (40, 16_384):
            monkeypatch.setattr(oracle_query, "_PAIR_CHUNK_CELLS", cells)
            for at in (0, len(inner), edge, edge + 1):
                mixed = inner[:at] + [(3, half + 2), (half, 0)] + inner[at:]
                with python_kernels():
                    oracle = engine.distances(mixed)
                for got in (engine.distances(mixed), oracle):
                    assert np.isinf(got[at : at + 2]).all()
                    assert np.array_equal(np.delete(got, [at, at + 1]), want)

    def test_degenerate_batches(self, small_index):
        engine = small_index.engine
        empty = np.empty(0, dtype=np.int64)
        assert engine.distances_arrays(empty, empty).shape == (0,)
        assert engine.distances([(4, 9)]) == [engine.distance(4, 9)]
        out, hubs = engine.distances_with_hubs([(6, 6)])
        assert out.tolist() == [0.0] and hubs.tolist() == [-1]
        with pytest.raises(ValueError, match="length mismatch"):
            engine.distances_arrays(np.arange(3), np.arange(2))

    def test_kernel_reads_the_live_store(self, small_index):
        """Nothing is rebuilt between steps: one engine object, while the
        label values and then their layout move under it."""
        index, engine = small_index, small_index.engine
        n = index.graph.num_vertices
        pairs = sample_pairs(n, 800, make_rng(8), distinct=False)

        def check() -> np.ndarray:
            got = engine.distances(pairs)
            assert np.array_equal(got, scalar_distances(index, pairs))
            return got

        base = check()
        edges = list(index.graph.edges())[:24]
        index.increase([(u, v, 3 * w) for u, v, w in edges])
        assert not np.array_equal(check(), base)
        index.decrease([(u, v, w) for u, v, w in edges])
        assert np.array_equal(check(), base)

        # Closure fast path: slots are appended, H_Q and the engine stay.
        u, v = next(
            (a, b)
            for a in range(n)
            for b in index.hq.ancestors(a)[:-1]
            if not index.graph.has_edge(a, b)
        )
        index.apply_batch(insertions=[(u, v, 1.0)])
        assert index.engine is engine
        inserted = check()
        row = engine.distances_arrays(np.full(n, u), np.arange(n))
        assert np.array_equal(row, dijkstra(index.graph, u))

        # Growing a slot past capacity moves every later offset;
        # compaction squeezes the store back.
        widest = int(np.argmax(index.labels.lengths))
        index.labels.extend_label(widest, int(index.labels.lengths[widest]) + 1)
        assert not index.labels.is_packed
        assert np.array_equal(check(), inserted)
        index.compact()
        assert index.labels.is_packed and index.engine is engine
        assert np.array_equal(check(), inserted)

    def test_read_only_mapped_store(self, small_index, tmp_path):
        pairs = sample_pairs(small_index.graph.num_vertices, 500, make_rng(4))
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
        assert not loaded.labels.values.flags.writeable
        want, want_hubs = small_index.engine.distances_with_hubs(pairs)
        got, got_hubs = loaded.engine.distances_with_hubs(pairs)
        assert type(got) is np.ndarray
        assert np.array_equal(got, want) and np.array_equal(got_hubs, want_hubs)

    def test_directed_batch_equals_scalar_and_dijkstra_after_updates(self):
        g = grid_network(6, 7, seed=2)
        dg = DiGraph.from_undirected(g)
        rng = np.random.default_rng(4)
        arcs = list(dg.arcs())
        for u, v, w in arcs[: len(arcs) // 2]:
            dg.set_weight(u, v, float(w + rng.integers(1, 25)))
        index = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
        n = dg.num_vertices
        pairs = np.array([(s, t) for s in range(n) for t in range(n)])
        for _ in range(3):
            picks = rng.choice(len(arcs), 6, replace=False)
            index.update(
                [
                    (arcs[i][0], arcs[i][1], float(rng.integers(1, 40)))
                    for i in picks
                ]
            )
            got = index.distances(pairs).reshape(n, n)
            assert not np.array_equal(got, got.T)  # one arc moved, not its twin
            for s in range(n):
                assert np.array_equal(got[s], directed_dijkstra(index.digraph, s))
            sample = pairs[rng.choice(len(pairs), 200, replace=False)]
            want = [index.distance(s, t) for s, t in sample.tolist()]
            assert np.array_equal(index.distances(sample), want)
        assert index.distances([]).shape == (0,)

    def test_temporaries_stay_cache_sized(self):
        """A regression to whole-batch temporaries (the bucketed kernel
        peaked at 19 MB here, this one at 0.9 MB) fails a test, not a
        benchmark."""
        index = DHLIndex.build(grid_network(48, 48, seed=7), DHLConfig(seed=0))
        engine = index.engine
        rng = np.random.default_rng(1)
        s, t = rng.integers(0, index.graph.num_vertices, (2, 8_192))
        engine.distances_arrays(s[:8], t[:8])  # build the LCA tables first
        tracemalloc.start()
        try:
            engine.distances_arrays(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


class TestKernelAfterMaintenance:
    def test_kernel_reads_fresh_labels_after_updates(self, small_index):
        n = small_index.graph.num_vertices
        pairs = sample_pairs(n, 2_000, make_rng(2), distinct=False)
        before = small_index.distances(pairs)
        edges = list(small_index.graph.edges())[:30]
        stats = small_index.increase([(u, v, 2 * w) for u, v, w in edges])
        assert stats.affected_labels  # maintenance touched the flat store
        after = small_index.distances(pairs)
        assert np.array_equal(after, scalar_distances(small_index, pairs))
        small_index.decrease([(u, v, w) for u, v, w in edges])
        assert np.array_equal(small_index.distances(pairs), before)

    def test_epoch_counts_applied_batches(self, small_index):
        assert small_index.epoch == 0
        (u, v, w) = next(iter(small_index.graph.edges()))
        small_index.increase([(u, v, w + 5)])
        assert small_index.epoch == 1
        small_index.update([(u, v, w)])  # one decrease batch
        assert small_index.epoch == 2
        small_index.update([(u, v, w)])  # no-op: nothing applied
        assert small_index.epoch == 2

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(graph=connected_graphs(min_n=4, max_n=20))
    def test_random_graphs_batch_equals_scalar(self, graph):
        index = DHLIndex.build(graph, DHLConfig(leaf_size=3, seed=0))
        n = graph.num_vertices
        pairs = [(s, t) for s in range(n) for t in range(n)]
        batch = index.distances(pairs)
        assert np.array_equal(batch, scalar_distances(index, pairs))


def test_update_coalesced_merges_and_matches_sequential(small_index):
    edges = list(small_index.graph.edges())[:8]
    (u0, v0, w0) = edges[0]
    stream = [(u, v, 2 * w) for u, v, w in edges]
    stream += [(u0, v0, 7 * w0), (u0, v0, w0)]  # raise twice, then restore
    stats = small_index.update(stream)
    assert small_index.graph.weight(u0, v0) == w0  # last write won
    for u, v, w in edges[1:]:
        assert small_index.graph.weight(u, v) == 2 * w
    ref = dijkstra(small_index.graph, 3)
    assert np.array_equal(
        small_index.distances([(3, t) for t in range(len(ref))]), ref
    )
    assert stats.shortcuts_changed >= 0  # merged batch applied in one pass


def test_distances_from_and_k_nearest_still_consistent(small_index):
    edges = list(small_index.graph.edges())[:10]
    small_index.increase([(u, v, 2 * w) for u, v, w in edges])
    targets = list(range(0, 200, 7))
    out = small_index.distances_from(5, targets)
    assert np.array_equal(
        out, np.array([small_index.distance(5, t) for t in targets])
    )
    nearest = small_index.k_nearest(5, targets, 4)
    assert len(nearest) == 4
    assert nearest == sorted(nearest, key=lambda item: item[1])[:4]


# ---------------------------------------------------------------------------
# vertex ids are checked before they become indices (or pointers)
# ---------------------------------------------------------------------------

def _door_index(family: str):
    graph = delaunay_network(300, seed=7)
    config = DHLConfig(leaf_size=6, seed=0)
    if family == "directed":
        return DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
    return DHLIndex.build(graph, config)


@pytest.mark.usefixtures("on_kernels")
@pytest.mark.parametrize("family", ["undirected", "directed"])
class TestVertexIdsAtTheDoor:
    """numpy wraps a negative id onto another vertex's label and C would
    read out of bounds: every entry point rejects ids outside [0, n), in
    front of the C kernels and of their numpy oracles alike."""

    def test_out_of_range_ids_raise_vertex_not_found(self, family):
        index = _door_index(family)
        for bad in (-2, -1, 300, 2**40):
            for pair in ((0, bad), (bad, 0)):
                with pytest.raises(VertexNotFound) as caught:
                    index.distances([(4, 9), pair])
                assert caught.value.vertex == bad
                with pytest.raises(VertexNotFound):
                    index.distance(*pair)
                with pytest.raises(VertexNotFound):
                    index.distance_with_hub(*pair)
                with pytest.raises(VertexNotFound):
                    index.engine.distances_with_hubs([pair])
                with pytest.raises(VertexNotFound):
                    index.engine.distances_arrays(
                        np.array([pair[0]]), np.array([pair[1]])
                    )
            with pytest.raises(VertexNotFound):
                index.engine.distance_matrix([0, bad], [1, 2])
            with pytest.raises(VertexNotFound):
                index.engine.distance_matrix([0, 3], [1, bad])
            with pytest.raises(VertexNotFound):
                index.distances_from(0, [5, bad])

    def test_any_integer_columns_are_copied_not_passed_through(
        self, family
    ):
        index = _door_index(family)
        pairs = np.asarray(sample_pairs(300, 400, make_rng(6), distinct=False))
        want = np.array([index.distance(s, t) for s, t in pairs.tolist()])
        wide = np.zeros((400, 6), dtype=np.int64)
        wide[:, 1], wide[:, 4] = pairs[:, 0], pairs[:, 1]
        for s, t in (
            (pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32)),
            (pairs[:, 0].astype(np.uint16), pairs[:, 1].tolist()),
            (wide[:, 1], wide[:, 4]),  # neither column is contiguous
            (pairs[::-1, 0][::-1], pairs[:, 1]),
        ):
            assert np.array_equal(index.engine.distances_arrays(s, t), want)
        assert np.array_equal(index.distances(pairs.astype(np.int32)), want)
        assert np.array_equal(index.distances(pairs[:, ::-1][:, ::-1]), want)

    def test_empty_batches(self, family):
        index = _door_index(family)
        empty = np.empty(0, dtype=np.int64)
        assert index.distances([]).shape == (0,)
        assert index.distances(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert index.engine.distances_arrays(empty, empty).shape == (0,)
        out, hubs = index.engine.distances_with_hubs([])
        assert out.shape == hubs.shape == (0,)
        assert index.engine.distance_matrix([], [1, 2]).shape == (0, 2)
