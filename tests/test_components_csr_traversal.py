"""Tests for components and traversal helpers."""

from __future__ import annotations

import math

from repro.graph.components import connected_components, is_connected, largest_component
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances, bfs_order, eccentric_vertex


def two_component_graph() -> Graph:
    g = Graph(6)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(3, 4, 1.0)
    return g


class TestComponents:
    def test_connected_components(self):
        comps = connected_components(two_component_graph())
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 2, 3]

    def test_is_connected(self, small_road):
        assert is_connected(small_road)
        assert not is_connected(two_component_graph())
        assert is_connected(Graph(0))

    def test_inf_edges_do_not_connect(self):
        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        g.set_weight(0, 1, math.inf)
        assert not is_connected(g)

    def test_largest_component(self):
        sub, mapping = largest_component(two_component_graph())
        assert sub.num_vertices == 3
        assert sorted(mapping) == [0, 1, 2]


class TestTraversal:
    def test_bfs_order_covers_component(self, small_road):
        order = bfs_order(small_road, 0)
        assert len(order) == small_road.num_vertices
        assert order[0] == 0
        assert len(set(order)) == len(order)

    def test_bfs_distances_monotone_along_edges(self, small_grid):
        dist = bfs_distances(small_grid, 0)
        for u, v, _ in small_grid.edges():
            assert abs(dist[u] - dist[v]) <= 1

    def test_bfs_distances_unreachable(self):
        dist = bfs_distances(two_component_graph(), 0)
        assert dist[3] == -1 and dist[5] == -1

    def test_eccentric_vertex_is_peripheral(self, small_grid):
        """The returned vertex's eccentricity approaches the diameter."""
        v = eccentric_vertex(small_grid, 0)
        ecc_v = max(bfs_distances(small_grid, v))
        ecc_0 = max(bfs_distances(small_grid, 0))
        assert ecc_v >= ecc_0  # double sweep can only move outward
