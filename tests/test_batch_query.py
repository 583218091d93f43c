"""The vectorised batch query kernel must be bit-identical to the scalar path."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.graph.graph import Graph
from repro.utils.rng import make_rng, sample_pairs
from tests.strategies import connected_graphs


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
        engine = small_index.engine
        n = small_index.graph.num_vertices
        pairs = sample_pairs(n, 400, make_rng(11), distinct=False)
        expected = engine.distances(pairs)
        monkeypatch.setattr(
            type(engine), "supports_batch_kernel", lambda self: False
        )
        assert np.array_equal(engine.distances(pairs), expected)
        d, h = engine.distances_with_hubs(pairs)
        assert np.array_equal(d, expected)


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
    stats = small_index.update_coalesced(stream)
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
