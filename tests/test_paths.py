"""Tests for shortest-path reconstruction and one-to-many queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import ReproError
from repro.graph.graph import Graph
from repro.labelling.paths import PathReconstructor
from tests.strategies import connected_graphs


def reconstructor(index: DHLIndex) -> PathReconstructor:
    return PathReconstructor(index.engine, index.hu)


class TestShortestPath:
    def test_trivial(self, small_index):
        assert small_index.shortest_path(9, 9) == [9]

    def test_adjacent(self, small_index):
        u, v, w = next(iter(small_index.graph.edges()))
        path = small_index.shortest_path(u, v)
        reconstructor(small_index).validate_path(path, small_index.distance(u, v))
        assert path[0] == u and path[-1] == v

    def test_paths_valid_and_optimal(self, small_index):
        recon = reconstructor(small_index)
        rng = np.random.default_rng(5)
        for _ in range(60):
            s = int(rng.integers(0, 300))
            t = int(rng.integers(0, 300))
            if s == t:
                continue
            path = small_index.shortest_path(s, t)
            assert path[0] == s and path[-1] == t
            recon.validate_path(path, small_index.distance(s, t))

    def test_disconnected_raises(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        idx = DHLIndex.build(g, DHLConfig(leaf_size=2))
        with pytest.raises(ReproError):
            idx.shortest_path(0, 3)

    def test_paths_after_updates(self, small_index):
        edges = list(small_index.graph.edges())[:30]
        small_index.increase([(u, v, 2 * w) for u, v, w in edges])
        recon = reconstructor(small_index)
        rng = np.random.default_rng(9)
        for _ in range(30):
            s, t = int(rng.integers(0, 300)), int(rng.integers(0, 300))
            if s == t:
                continue
            path = small_index.shortest_path(s, t)
            recon.validate_path(path, small_index.distance(s, t))
        small_index.decrease(edges)

    def test_path_avoids_deleted_edge(self, small_index):
        s, t = 0, 250
        path = small_index.shortest_path(s, t)
        # delete the first edge of the path and re-route
        small_index.apply_batch(deletions=[(path[0], path[1])])
        new_path = small_index.shortest_path(s, t)
        assert (path[0], path[1]) not in zip(new_path, new_path[1:])
        reconstructor(small_index).validate_path(
            new_path, small_index.distance(s, t)
        )

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs(min_n=3, max_n=20))
    def test_random_graphs(self, graph):
        idx = DHLIndex.build(graph, DHLConfig(leaf_size=3, seed=0))
        recon = reconstructor(idx)
        ref = dijkstra(idx.graph, 0)
        for t in range(graph.num_vertices):
            if t == 0:
                continue
            path = idx.shortest_path(0, t)
            assert path[0] == 0 and path[-1] == t
            recon.validate_path(path, float(ref[t]))


class TestOneToMany:
    def test_distances_from_matches_pointwise(self, small_index):
        targets = list(range(0, 300, 13))
        out = small_index.distances_from(7, targets)
        for t, d in zip(targets, out):
            assert d == small_index.distance(7, t)

    def test_k_nearest_ordering(self, small_index):
        candidates = list(range(50, 120))
        top = small_index.k_nearest(3, candidates, 5)
        assert len(top) == 5
        dists = [d for _, d in top]
        assert dists == sorted(dists)
        # nothing outside the answer is closer than the worst answer
        all_d = small_index.distances_from(3, candidates)
        assert dists[-1] <= np.partition(all_d, 4)[4] + 1e-12

    def test_k_nearest_excludes_unreachable(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(3, 4, 1.0)
        idx = DHLIndex.build(g, DHLConfig(leaf_size=2))
        top = idx.k_nearest(0, [1, 2, 3, 4], 4)
        assert [v for v, _ in top] == [1, 2]

    def test_k_nearest_k_zero(self, small_index):
        assert small_index.k_nearest(0, [1, 2], 0) == []
