"""Tests for the contraction engine and min-degree ordering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra_subgraph
from repro.graph.graph import Graph, road_arrays
from repro.hierarchy.contraction import contract_in_order, min_degree_order
from tests.strategies import connected_graphs


class TestContractInOrder:
    def test_path_graph_shortcuts(self, path_graph):
        # Contract middle vertices first: each contraction bridges ends.
        sc = contract_in_order(path_graph, [2, 1, 3, 0, 4])
        # contracting 2 adds (1,3) = 2+3 = 5; contracting 1 adds (0,3)=1+5;
        # contracting 3 adds (0,4) = 6+4
        assert sc.weight(1, 3) == 5.0
        assert sc.weight(0, 3) == 6.0
        assert sc.weight(0, 4) == 10.0

    def test_rejects_non_permutation(self, path_graph):
        with pytest.raises(ValueError):
            contract_in_order(path_graph, [0, 1, 2])
        with pytest.raises(ValueError):
            contract_in_order(path_graph, [0, 0, 1, 2, 3])

    def test_up_down_consistency(self, medium_random):
        sc = contract_in_order(medium_random, list(range(medium_random.num_vertices)))
        for v in range(medium_random.num_vertices):
            for u in sc.csr.row(v):
                assert sc.rank[u] > sc.rank[v]
                assert v in sc.csr.down_row(u)
            for u in sc.csr.down_row(v):
                assert sc.rank[u] < sc.rank[v]

    def test_every_edge_is_a_shortcut(self, medium_random):
        sc = contract_in_order(medium_random, list(range(medium_random.num_vertices)))
        u, v, _ = road_arrays(medium_random)
        cells = sc.cells_of(u, v)  # raises KeyError for a road with no slot
        assert len(np.unique(cells)) == medium_random.num_edges

    def test_minimum_weight_property(self, medium_random):
        sc = contract_in_order(medium_random, list(range(medium_random.num_vertices)))
        sc.verify_minimum_weight_property()

    def test_shortcut_weight_is_valley_distance(self, small_road):
        """w(u, v) equals the shortest valley-path length (Definition 4.6):
        intermediate vertices must rank strictly below both endpoints."""
        order = list(range(small_road.num_vertices))
        sc = contract_in_order(small_road, order)
        rank = sc.rank
        checked = 0
        for v in range(0, small_road.num_vertices, 29):
            for u in sc.csr.row(v).tolist():
                cap = min(rank[v], rank[u])
                expected = dijkstra_subgraph(
                    small_road, v, u, lambda x, u=u, cap=cap: rank[x] < cap or x == u
                )
                assert sc.weight(v, u) == expected
                checked += 1
        assert checked > 0

    def test_weight_accessors(self, path_graph):
        sc = contract_in_order(path_graph, [2, 1, 3, 0, 4])
        old = sc.set_weight(1, 3, 99.0)
        assert old == 5.0
        assert sc.weight(3, 1) == 99.0

    def test_num_shortcuts_and_memory(self, medium_random):
        sc = contract_in_order(medium_random, list(range(medium_random.num_vertices)))
        assert sc.num_shortcuts >= medium_random.num_edges
        assert sc.memory_bytes() > 0

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs(max_n=18))
    def test_property_3_1_random(self, graph):
        sc = contract_in_order(graph, list(range(graph.num_vertices)))
        sc.verify_minimum_weight_property()


class TestMinDegreeOrder:
    def test_is_permutation(self, medium_random):
        order = min_degree_order(medium_random)
        assert sorted(order) == list(range(medium_random.num_vertices))

    def test_path_graph_contracts_inward(self):
        g = Graph(4)
        for i in range(3):
            g.add_edge(i, i + 1, 1.0)
        order = min_degree_order(g)
        # endpoints (degree 1) come first
        assert set(order[:2]) <= {0, 3, 1, 2}
        assert order[0] in (0, 3)

    def test_star_contracts_leaves_first(self):
        g = Graph(5)
        for leaf in range(1, 5):
            g.add_edge(0, leaf, 1.0)
        order = min_degree_order(g)
        assert order[-1] == 0 or order[-2] == 0  # hub is among the last

    def test_produces_sparser_hierarchy_than_random(self, small_road):
        smart = contract_in_order(small_road, min_degree_order(small_road))
        naive = contract_in_order(small_road, list(range(small_road.num_vertices)))
        assert smart.num_shortcuts <= naive.num_shortcuts
