"""Tests for the directed graph structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import EdgeNotFound, GraphError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph


class TestDiGraph:
    def test_arcs_are_directional(self):
        g = DiGraph(3)
        g.add_arc(0, 1, 2.0)
        assert g.has_arc(0, 1)
        assert not g.has_arc(1, 0)
        assert g.weight(0, 1) == 2.0
        with pytest.raises(EdgeNotFound):
            g.weight(1, 0)

    def test_in_out_neighbors(self):
        g = DiGraph(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(2, 1, 3.0)
        assert set(g.in_neighbors(1)) == {0, 2}
        assert set(g.out_neighbors(0)) == {1}

    def test_duplicate_arc_rejected(self):
        g = DiGraph(2)
        g.add_arc(0, 1, 1.0)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, 2.0)

    def test_from_arcs_keeps_min(self):
        g = DiGraph.from_arcs(2, [(0, 1, 5.0), (0, 1, 2.0)])
        assert g.weight(0, 1) == 2.0

    def test_from_arcs_has_the_from_edges_contract(self):
        """``inf`` is a logically deleted arc (slot kept, as
        ``Graph.from_edges`` keeps the edge) and coords ride along."""
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        arcs = [(0, 1, math.inf), (1, 2, 3.0), (2, 1, math.inf), (2, 1, 4.0)]
        g = DiGraph.from_arcs(3, arcs, coords)
        undirected = Graph.from_edges(2, [(0, 1, math.inf)])
        assert math.isinf(undirected.weight(0, 1))
        assert math.isinf(g.weight(0, 1)) and g.in_neighbors(1)[0] == math.inf
        assert g.weight(2, 1) == 4.0  # a finite duplicate revives the slot
        assert list(g.arcs()) == [(0, 1, math.inf), (1, 2, 3.0), (2, 1, 4.0)]
        assert g.num_arcs == 3 and g.coords is not None
        np.testing.assert_array_equal(g.coords, coords)
        assert DiGraph.from_arcs(2, [(0, 1, 1.0)]).coords is None

    @pytest.mark.parametrize("w", [math.nan, -1.0, -math.inf])
    def test_from_arcs_rejects_what_from_edges_rejects(self, w):
        """Only ``+inf`` is a deletion marker; NaN and negative weights
        fail in both constructors."""
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 1, w)])
        with pytest.raises(GraphError):
            DiGraph.from_arcs(2, [(0, 1, w)])

    def test_from_arcs_checks_coords_shape(self):
        with pytest.raises(GraphError):
            DiGraph.from_arcs(3, [(0, 1, 1.0)], np.zeros((2, 2)))

    def test_set_weight_updates_both_tables(self):
        g = DiGraph(2)
        g.add_arc(0, 1, 1.0)
        g.set_weight(0, 1, 4.0)
        assert g.in_neighbors(1)[0] == 4.0

    def test_from_undirected_symmetric(self, diamond_graph):
        dg = DiGraph.from_undirected(diamond_graph)
        assert dg.num_arcs == 2 * diamond_graph.num_edges
        assert dg.is_symmetric()

    def test_reversed(self):
        g = DiGraph(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 2.0)
        r = g.reversed()
        assert r.has_arc(1, 0) and r.has_arc(2, 1)
        assert not r.has_arc(0, 1)

    def test_to_undirected_min_of_directions(self):
        g = DiGraph.from_arcs(
            3, [(0, 1, 5.0), (1, 0, 2.0), (1, 2, math.inf), (2, 1, math.inf)]
        )
        u = g.to_undirected()
        assert isinstance(u, Graph)
        assert u.weight(0, 1) == 2.0
        # A pair deleted both ways stays as structure.
        assert u.has_edge(1, 2) and math.isinf(u.weight(1, 2))
        assert u.num_edges == 2

    def test_is_symmetric_detects_asymmetry(self):
        g = DiGraph(2)
        g.add_arc(0, 1, 1.0)
        assert not g.is_symmetric()
        g.add_arc(1, 0, 1.0)
        assert g.is_symmetric()
        g.set_weight(1, 0, 3.0)
        assert not g.is_symmetric()
