"""Tests for structural updates (Section 8): delete/restore/insert."""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import MaintenanceError


@pytest.fixture
def index(small_road):
    return DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))


class TestEdgeDeletion:
    def test_delete_edge_reroutes(self, index):
        u, v, w = min(index.graph.edges(), key=lambda e: e[2])
        index.apply_batch(deletions=[(u, v)])
        assert math.isinf(index.graph.weight(u, v))
        expected = dijkstra_distance(index.graph, u, v)
        assert index.distance(u, v) == expected

    def test_delete_is_idempotent(self, index):
        u, v, _ = next(iter(index.graph.edges()))
        index.apply_batch(deletions=[(u, v)])
        stats = index.apply_batch(deletions=[(u, v)])
        assert stats.already_deleted == 1
        assert stats.maintenance.labels_changed == 0

    def test_restore_edge(self, index):
        u, v, w = next(iter(index.graph.edges()))
        original = index.labels.copy()
        index.apply_batch(deletions=[(u, v)])
        index.restore_edge(u, v, w)
        assert index.labels.equals(original)

    def test_restore_validates_weight(self, index):
        u, v, w = next(iter(index.graph.edges()))
        with pytest.raises(MaintenanceError):
            index.restore_edge(u, v, math.inf)
        index.apply_batch(deletions=[(u, v)])
        with pytest.raises(MaintenanceError):
            index.restore_edge(u, v, math.inf)


class TestVertexDeletion:
    def test_delete_vertex_disconnects(self, index):
        v = 42
        index.delete_vertex(v)
        for u in index.graph.neighbors(v):
            assert math.isinf(index.graph.weight(u, v))
        # v unreachable from elsewhere
        other = 0 if v != 0 else 1
        assert math.isinf(index.distance(other, v))

    def test_delete_vertex_rest_of_graph_correct(self, index):
        index.delete_vertex(13)
        s = 7
        expected = dijkstra_distance(index.graph, s, 200)
        assert index.distance(s, 200) == expected
        rebuilt = index.rebuild()
        assert index.labels.equals(rebuilt.labels)

    def test_delete_isolated_vertex_noop(self, index):
        index.delete_vertex(99)
        stats = index.delete_vertex(99)
        assert stats.labels_changed == 0


class TestEdgeInsertion:
    def test_insert_bad_weight_rejected(self, index):
        with pytest.raises(MaintenanceError):
            index.apply_batch(insertions=[(0, 299, math.inf)])

    def test_insert_edge_correct_distances(self, index):
        # a shortcut edge between two far-apart vertices: the repartition
        # may reshape H_Q, so correctness is checked against Dijkstra.
        s, t = 0, 299
        if index.graph.has_edge(s, t):
            pytest.skip("random fixture happens to contain the edge")
        index.apply_batch(insertions=[(s, t, 1.0)])
        assert index.distance(s, t) == 1.0
        for a, b in [(5, 250), (10, 290), (0, 150), (299, 40)]:
            assert index.distance(a, b) == dijkstra_distance(
                index.graph, a, b
            )
        index.verify()

    def test_insert_preserves_other_subtrees(self, index):
        """Inserting inside one region must keep queries exact everywhere."""
        # pick two vertices owned by the same (deep) tree node's subtree
        hq = index.hq
        order, starts = hq.members()
        leaf_nodes = [
            nid
            for nid in range(hq.num_nodes)
            if hq.depth[nid] >= 2 and starts[nid + 1] - starts[nid] >= 2
        ]
        # the first pair of members of such a node that no road joins yet
        a, b = next(
            (a, b)
            for nid in leaf_nodes
            for i, a in enumerate(order[starts[nid] : starts[nid + 1]].tolist())
            for b in order[starts[nid] + i + 1 : starts[nid + 1]].tolist()
            if not index.graph.has_edge(a, b)
        )
        index.apply_batch(insertions=[(a, b, 2.0)])
        assert index.distance(a, b) <= 2.0
        for s, t in [(a, b), (0, 200), (3, 299)]:
            assert index.distance(s, t) == dijkstra_distance(
                index.graph, s, t
            )
        index.verify()
