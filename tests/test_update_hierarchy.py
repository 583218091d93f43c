"""Tests for the update hierarchy H_U (Definitions 4.5/4.6, U1/U2)."""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import dijkstra_subgraph
from repro.graph.generators import random_connected_graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.driver import maintain_shortcuts
from repro.partition.recursive import recursive_bisection


@pytest.fixture
def built(small_road):
    tree = recursive_bisection(small_road, seed=0)
    hq = QueryHierarchy.from_partition_tree(tree, small_road.num_vertices)
    hu = UpdateHierarchy.build(small_road, hq)
    return small_road, hq, hu


class TestConstruction:
    def test_shortcut_endpoints_comparable(self, built):
        _, _, hu = built
        hu.validate_comparability()  # Lemma 4.8

    def test_minimum_weight_property(self, built):
        _, _, hu = built
        hu.verify_minimum_weight_property()  # Property 3.1

    def test_up_neighbors_are_ancestors(self, built):
        _, hq, hu = built
        for v in range(hq.n):
            for u in hu.csr.row(v):
                assert hq.precedes(u, v) and u != v
                assert hu.tau[u] < hu.tau[v]

    def test_shortcut_weight_is_interval_valley_distance(self, built):
        """Shortcut weight == shortest path through strict descendants."""
        graph, hq, hu = built
        tau = hu.tau
        checked = 0
        for v in range(0, hq.n, 37):
            for u in hu.csr.row(v).tolist():
                expected = dijkstra_subgraph(
                    graph,
                    v,
                    u,
                    lambda x, u=u, v=v: x == u or tau[x] > tau[v],
                )
                assert hu.weight(v, u) == expected
                checked += 1
        assert checked > 0

    def test_degree_stats(self, built):
        _, _, hu = built
        stats = hu.degree_stats()
        assert stats["max_up"] == hu.max_up_degree()
        assert stats["shortcuts"] == hu.num_shortcuts
        assert stats["mean_up"] > 0


class TestStructuralStability:
    """U1: updates change weights only, never the shortcut structure."""

    def test_u1_under_decrease_and_increase(self, built):
        graph, _, hu = built
        structure_before = hu.csr.slot_keys.tolist()
        edges = list(graph.edges())[:30]
        maintain_shortcuts("increase", hu, [(u, v, 3 * w) for u, v, w in edges])
        maintain_shortcuts("decrease", hu, [(u, v, w) for u, v, w in edges])
        assert hu.csr.slot_keys.tolist() == structure_before

    def test_property_3_1_preserved_after_updates(self, built):
        graph, _, hu = built
        edges = list(graph.edges())
        maintain_shortcuts(
            "increase", hu, [(u, v, 2 * w) for u, v, w in edges[10:40]]
        )
        hu.verify_minimum_weight_property()
        maintain_shortcuts(
            "decrease",
            hu,
            [(u, v, max(1.0, w // 2)) for u, v, w in edges[5:25]],
        )
        hu.verify_minimum_weight_property()

    def test_u1_with_infinite_weight(self, built):
        """Logical deletion keeps the slot and the invariants."""
        graph, _, hu = built
        u, v, w = next(iter(graph.edges()))
        maintain_shortcuts("increase", hu, [(u, v, math.inf)])
        assert graph.has_edge(u, v)  # slot retained
        assert math.isinf(graph.weight(u, v))
        hu.verify_minimum_weight_property()
        maintain_shortcuts("decrease", hu, [(u, v, w)])
        hu.verify_minimum_weight_property()


class TestBoundedSearching:
    """U2: an update of (v, w) only affects shortcuts between common
    ancestors of the endpoints."""

    def test_u2_affected_shortcuts_are_ancestors(self, built):
        graph, hq, hu = built
        edges = list(graph.edges())
        for u0, v0, w0 in edges[:15]:
            affected = maintain_shortcuts("increase", hu, [(u0, v0, 2 * w0)])
            for (a, b) in affected:
                assert hq.precedes(a, u0) or hq.precedes(a, v0)
                assert hq.precedes(b, u0) or hq.precedes(b, v0)
            maintain_shortcuts("decrease", hu, [(u0, v0, w0)])


class TestOnAdversarialGraphs:
    def test_dense_random_graph(self):
        g = random_connected_graph(40, extra_edges=120, seed=17)
        tree = recursive_bisection(g, leaf_size=4, seed=0)
        hq = QueryHierarchy.from_partition_tree(tree, g.num_vertices)
        hq.validate_graph(g)
        hu = UpdateHierarchy.build(g, hq)
        hu.validate_comparability()
        hu.verify_minimum_weight_property()
