"""Tests for the H2H index and IncH2H dynamic maintenance."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.baselines.h2h import H2HIndex
from repro.baselines.inch2h import IncH2HIndex
from tests.strategies import connected_graphs, update_sequences


class TestH2HStructure:
    def test_tree_parent_is_lowest_ranked_up_neighbor(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        for v in range(medium_random.num_vertices):
            if len(h2h.sc.csr.row(v)):
                expected = min(h2h.sc.csr.row(v), key=lambda u: h2h.sc.rank[u])
                assert h2h.parent[v] == expected
            else:
                assert h2h.parent[v] == -1

    def test_bag_vertices_are_ancestors(self, medium_random):
        """The tree-decomposition property: N+(v) lie on v's root path."""
        h2h = H2HIndex.build(medium_random.copy())
        for v in range(medium_random.num_vertices):
            ancestors = set(h2h.anc[v, : h2h.depth[v] + 1].tolist())
            for w in h2h.sc.csr.row(v):
                assert w in ancestors, (v, w)

    def test_ancestor_arrays_consistent(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        for v in range(medium_random.num_vertices):
            dv = int(h2h.depth[v])
            assert h2h.anc[v, dv] == v
            p = int(h2h.parent[v])
            if p >= 0:
                assert h2h.anc[v, dv - 1] == p

    def test_distance_arrays_are_true_distances(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        for v in range(0, medium_random.num_vertices, 17):
            ref = dijkstra(medium_random, v)
            for j in range(int(h2h.depth[v]) + 1):
                a = int(h2h.anc[v, j])
                assert h2h.dist[v, j] == ref[a], (v, j, a)

    def test_positions_cover_bag(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        for v in range(medium_random.num_vertices):
            depths = {int(h2h.depth[w]) for w in h2h.sc.csr.row(v)}
            depths.add(int(h2h.depth[v]))
            assert set(h2h.pos[v].tolist()) == depths

    def test_sizes(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        assert h2h.label_entries() == int((h2h.depth + 1).sum())
        assert h2h.memory_bytes() > 0
        assert h2h.height == int(h2h.depth.max()) + 1


class TestH2HQueries:
    def test_matches_dijkstra(self, medium_random):
        h2h = H2HIndex.build(medium_random.copy())
        for s in range(0, 120, 9):
            ref = dijkstra(medium_random, s)
            for t in range(120):
                assert h2h.distance(s, t) == ref[t], (s, t)

    def test_same_vertex(self, small_road):
        h2h = H2HIndex.build(small_road.copy())
        assert h2h.distance(3, 3) == 0.0

    def test_disconnected(self):
        from repro.graph.graph import Graph

        g = Graph(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(2, 3, 2.0)
        h2h = H2HIndex.build(g)
        assert math.isinf(h2h.distance(0, 2))
        assert h2h.distance(2, 3) == 2.0


class TestIncH2H:
    def test_increase_then_queries_exact(self, medium_random):
        idx = IncH2HIndex.build(medium_random.copy())
        edges = list(idx.graph.edges())[:25]
        idx.increase([(u, v, 2 * w) for u, v, w in edges])
        for s in range(0, 120, 13):
            ref = dijkstra(idx.graph, s)
            for t in range(120):
                assert idx.distance(s, t) == ref[t], (s, t)

    def test_decrease_then_queries_exact(self, medium_random):
        idx = IncH2HIndex.build(medium_random.copy())
        edges = list(idx.graph.edges())[:25]
        idx.decrease([(u, v, max(1.0, w // 2)) for u, v, w in edges])
        for s in range(0, 120, 13):
            ref = dijkstra(idx.graph, s)
            for t in range(120):
                assert idx.distance(s, t) == ref[t], (s, t)

    def test_double_restore_returns_to_start(self, medium_random):
        idx = IncH2HIndex.build(medium_random.copy())
        before = idx.dist.copy()
        edges = list(idx.graph.edges())[:30]
        idx.increase([(u, v, 2 * w) for u, v, w in edges])
        idx.decrease([(u, v, w) for u, v, w in edges])
        assert np.array_equal(
            np.nan_to_num(before, posinf=-1), np.nan_to_num(idx.dist, posinf=-1)
        )

    def test_labels_match_rebuild_after_updates(self, medium_random):
        idx = IncH2HIndex.build(medium_random.copy())
        edges = list(idx.graph.edges())
        idx.increase([(u, v, 3 * w) for u, v, w in edges[5:20]])
        idx.decrease([(u, v, max(1.0, w - 3)) for u, v, w in edges[10:30]])
        rebuilt = H2HIndex.build(idx.graph.copy(), order=idx.sc.order.tolist())
        assert np.array_equal(
            np.nan_to_num(idx.dist, posinf=-1),
            np.nan_to_num(rebuilt.dist, posinf=-1),
        )

    def test_deletion_via_infinite_weight(self, medium_random):
        idx = IncH2HIndex.build(medium_random.copy())
        u, v, w = list(idx.graph.edges())[4]
        idx.increase([(u, v, math.inf)])
        ref = dijkstra(idx.graph, u)
        assert idx.distance(u, v) == ref[v]
        idx.decrease([(u, v, w)])
        ref = dijkstra(idx.graph, u)
        assert idx.distance(u, v) == ref[v]

    def test_mixed_update_api(self, small_road):
        idx = IncH2HIndex.build(small_road.copy())
        edges = list(idx.graph.edges())
        stats = idx.update(
            [
                (edges[0][0], edges[0][1], 2 * edges[0][2]),
                (edges[1][0], edges[1][1], max(1.0, edges[1][2] - 1)),
            ]
        )
        assert stats.shortcuts_changed >= 0
        ref = dijkstra(idx.graph, 0)
        for t in range(0, 300, 37):
            assert idx.distance(0, t) == ref[t]

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=connected_graphs(min_n=4, max_n=14).flatmap(
        lambda g: update_sequences(g, max_steps=4).map(lambda seq: (g, seq))
    ))
    def test_random_update_sequences(self, data):
        graph, sequence = data
        idx = IncH2HIndex.build(graph)
        for batch in sequence:
            seen = {}
            for u, v, w in batch:
                seen[(min(u, v), max(u, v))] = (u, v, w)
            idx.update(list(seen.values()))
        ref = dijkstra(graph, 0)
        for t in range(graph.num_vertices):
            assert idx.distance(0, t) == ref[t]
