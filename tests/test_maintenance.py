"""Tests for dynamic maintenance (Algorithms 2-5).

The strongest check exploits determinism: label entries are interval-
subgraph distances, so after any update sequence the maintained labelling
must be *identical* to one rebuilt from scratch on the updated graph.
The unit cases run on the C sweeps and again on their oracle
(``tests/oracles/maintenance.py``), build and rebuild included.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import MaintenanceError
from repro.graph.generators import grid_network
from repro.labelling.driver import maintain_shortcuts
from tests.oracles.kernels import python_kernels
from tests.strategies import connected_graphs, rolling_stream, update_sequences


def fresh_index(graph, leaf_size=4):
    return DHLIndex.build(graph.copy(), DHLConfig(leaf_size=leaf_size, seed=0))


def assert_matches_rebuild(index):
    rebuilt = DHLIndex.build(index.graph.copy(), index.config)
    assert index.labels.equals(rebuilt.labels), "maintained labels diverge"
    index.hu.verify_minimum_weight_property()


@pytest.mark.usefixtures("on_kernels")
class TestShortcutMaintenance:
    def test_decrease_updates_shortcut_weights(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        affected = maintain_shortcuts("decrease", idx.hu, [(u, v, w / 2)])
        assert affected  # at least the edge's own shortcut
        idx.hu.verify_minimum_weight_property()

    def test_increase_updates_shortcut_weights(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        affected = maintain_shortcuts("increase", idx.hu, [(u, v, 5 * w)])
        idx.hu.verify_minimum_weight_property()
        for key, old in affected.items():
            assert idx.hu.weight(*key) != old

    def test_noop_decrease(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        assert maintain_shortcuts("decrease", idx.hu, [(u, v, w)]) == {}

    def test_decrease_rejects_increase(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        with pytest.raises(MaintenanceError):
            maintain_shortcuts("decrease", idx.hu, [(u, v, w + 1)])

    def test_increase_rejects_decrease(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        with pytest.raises(MaintenanceError):
            maintain_shortcuts("increase", idx.hu, [(u, v, w - 0.5)])

    def test_increase_not_realised_by_edge_is_cheap(self, diamond_graph):
        """Increasing an edge that no shortcut realises affects nothing."""
        idx = fresh_index(diamond_graph)
        # (0,2) has weight 2 but the path 0-1-3-2... make (0,2) irrelevant
        idx.increase([(0, 2, 50.0)])
        ref = dijkstra(idx.graph, 0)
        for t in range(4):
            assert idx.distance(0, t) == ref[t]


@pytest.mark.usefixtures("on_kernels")
class TestLabelDecrease:
    def test_single_decrease_correct(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = list(idx.graph.edges())[7]
        stats = idx.decrease([(u, v, max(1.0, w // 3))])
        assert stats.labels_changed >= 0
        assert_matches_rebuild(idx)

    def test_batch_decrease_correct(self, small_road):
        idx = fresh_index(small_road)
        batch = [
            (u, v, max(1.0, w // 2)) for u, v, w in list(idx.graph.edges())[:40]
        ]
        idx.decrease(batch)
        assert_matches_rebuild(idx)

    def test_decrease_to_zero_weight(self, small_road):
        idx = fresh_index(small_road)
        u, v, _ = list(idx.graph.edges())[3]
        idx.decrease([(u, v, 0.0)])
        assert idx.distance(u, v) == 0.0
        assert_matches_rebuild(idx)

    def test_stats_count_changed_entries(self, small_road):
        idx = fresh_index(small_road)
        before = idx.labels.copy()
        u, v, w = list(idx.graph.edges())[11]
        stats = idx.decrease([(u, v, 1.0)])
        assert stats.labels_changed == before.diff_count(idx.labels)


@pytest.mark.usefixtures("on_kernels")
class TestLabelIncrease:
    def test_single_increase_correct(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = list(idx.graph.edges())[9]
        idx.increase([(u, v, 4 * w)])
        assert_matches_rebuild(idx)

    def test_batch_increase_correct(self, small_road):
        idx = fresh_index(small_road)
        batch = [(u, v, 2 * w) for u, v, w in list(idx.graph.edges())[:40]]
        idx.increase(batch)
        assert_matches_rebuild(idx)

    def test_double_then_restore_roundtrip(self, small_road):
        """The paper's protocol: x2 then restore returns to the start."""
        idx = fresh_index(small_road)
        original = idx.labels.copy()
        batch = [(u, v, w) for u, v, w in list(idx.graph.edges())[:50]]
        idx.increase([(u, v, 2 * w) for u, v, w in batch])
        idx.decrease(batch)
        assert idx.labels.equals(original)

    def test_increase_to_infinity(self, small_road):
        """Logical deletion via the increase path."""
        idx = fresh_index(small_road)
        u, v, w = list(idx.graph.edges())[5]
        idx.increase([(u, v, math.inf)])
        assert_matches_rebuild(idx)
        ref = dijkstra(idx.graph, u)
        assert idx.distance(u, v) == ref[v]

    def test_restore_from_infinity(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = list(idx.graph.edges())[5]
        idx.increase([(u, v, math.inf)])
        idx.decrease([(u, v, w)])
        assert_matches_rebuild(idx)


def _monolithic(graph):
    idx = fresh_index(graph)
    return idx, idx.graph, [idx.labels]


def _directed(graph):
    from repro.core.directed import DirectedDHLIndex
    from repro.graph.digraph import DiGraph

    idx = DirectedDHLIndex.build(
        DiGraph.from_undirected(graph), DHLConfig(leaf_size=4, seed=0)
    )
    return idx, idx.digraph, [idx.labels_out, idx.labels_in]


def _sharded(graph):
    from repro.core.sharded import ShardedDHLIndex

    idx = ShardedDHLIndex.build(
        graph.copy(), k=2, config=DHLConfig(seed=0), build_workers=1
    )
    return idx, idx.graph, [shard.labels for shard in idx.shards]


class TestMixedUpdates:
    @pytest.mark.usefixtures("on_kernels")
    def test_update_splits_batches(self, small_road):
        idx = fresh_index(small_road)
        edges = list(idx.graph.edges())
        changes = [(edges[0][0], edges[0][1], edges[0][2] * 3)]
        changes += [(edges[1][0], edges[1][1], max(1.0, edges[1][2] - 1))]
        changes += [(edges[2][0], edges[2][1], edges[2][2])]  # no-op
        stats = idx.update(changes)
        assert stats.shortcuts_changed >= 0
        assert_matches_rebuild(idx)

    @pytest.mark.usefixtures("on_kernels")
    def test_invalid_weight_rejected(self, small_road):
        idx = fresh_index(small_road)
        u, v, _ = next(iter(idx.graph.edges()))
        with pytest.raises(MaintenanceError):
            idx.increase([(u, v, -3.0)])
        with pytest.raises(MaintenanceError):
            idx.decrease([(u, v, math.nan)])

    @pytest.mark.usefixtures("on_kernels")
    def test_wrong_direction_rejected_by_wrappers(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        with pytest.raises(MaintenanceError, match="is not an increase; use decr"):
            idx.increase([(u, v, w / 2)])
        with pytest.raises(MaintenanceError, match="is not a decrease; use incr"):
            idx.decrease([(u, v, w * 2)])

    @pytest.mark.usefixtures("on_kernels")
    def test_empty_batch_is_noop(self, small_road):
        idx = fresh_index(small_road)
        before = idx.labels.copy()
        idx.update([])
        assert idx.labels.equals(before)

    @pytest.mark.parametrize(
        "family", [_monolithic, _directed, _sharded], ids=["dhl", "directed", "sharded"]
    )
    def test_mixed_batch_is_one_epoch(self, family):
        """``epoch`` counts maintenance batches applied: a batch that
        raises one road and lowers another is one, on every family."""
        idx, graph, _ = family(grid_network(8, 8, seed=1))
        edges = list(graph.arcs() if hasattr(graph, "arcs") else graph.edges())
        (a, b, w_ab), (c, d, w_cd) = edges[0], edges[-1]
        idx.update([(a, b, 2 * w_ab), (c, d, w_cd / 2)])
        assert idx.epoch == 1

    @pytest.mark.parametrize(
        "kernels", [nullcontext, python_kernels], ids=["c", "oracle"]
    )
    def test_mixed_counts_are_the_diff(self, kernels):
        """On rolling bursts (8 roads doubled, the previous 8 restored)
        each counter is the diff of the before and after buffers: an
        entry or shortcut both halves of the batch moved counts once."""
        graph = grid_network(16, 16, seed=7)
        idx = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
        halves = np.arange(graph.num_vertices) % 2
        for changes, _ in rolling_stream(graph, halves, rounds=4, seed=3, group=8):
            labels, weights = idx.labels.copy(), idx.hu.up_weights.copy()
            with kernels():
                stats = idx.update(changes)
            moved = np.count_nonzero(weights != idx.hu.up_weights)
            assert stats.shortcuts_changed == len(stats.affected_shortcuts) == moved
            assert stats.labels_changed == labels.diff_count(idx.labels)
            assert stats.affected_labels == {
                v
                for v in range(graph.num_vertices)
                if not np.array_equal(labels.view(v), idx.labels.view(v))
            }


class TestRejectedBatchIsNotHalfApplied:
    """A batch that fails validation must leave graph, labels and epoch
    exactly as they were — whatever position the bad change is in."""

    CASES = [
        ("decrease", lambda w: 1.0, lambda w: w + 10),  # wrong direction
        ("increase", lambda w: w + 5, lambda w: -1.0),  # negative
        ("update", lambda w: w + 5, lambda w: -1.0),  # after valid increases
        ("update", lambda w: 1.0, lambda w: math.nan),
    ]

    @pytest.mark.parametrize(
        "family, method, first, bad",
        [(_monolithic, *case) for case in CASES]
        + [(_directed, *case) for case in CASES]
        # the sharded index only exposes update()
        + [(_sharded, *case) for case in CASES if case[0] == "update"],
    )
    def test_graph_labels_epoch_untouched(
        self, small_road, family, method, first, bad
    ):
        idx, graph, label_stores = family(small_road)
        edges = list(graph.arcs() if hasattr(graph, "arcs") else graph.edges())
        (a, b, w_ab), (c, d, w_cd) = edges[0], edges[-1]
        before = [labels.copy() for labels in label_stores]
        with pytest.raises(MaintenanceError):
            getattr(idx, method)([(a, b, first(w_ab)), (c, d, bad(w_cd))])
        assert graph.weight(a, b) == w_ab
        assert graph.weight(c, d) == w_cd
        assert idx.epoch == 0
        for labels, old in zip(label_stores, before):
            assert labels.equals(old)

    def test_repeated_edge_checked_in_sequence(self, small_road):
        idx = fresh_index(small_road)
        u, v, w = next(iter(idx.graph.edges()))
        before = idx.labels.copy()
        # Each mention is a decrease from the original weight, but the
        # second raises the weight the first one leaves.
        with pytest.raises(MaintenanceError):
            idx.decrease([(u, v, w / 4), (u, v, w / 2)])
        assert idx.graph.weight(u, v) == w
        assert idx.labels.equals(before)
        idx.decrease([(u, v, w / 2), (u, v, w / 4)])
        assert idx.graph.weight(u, v) == w / 4
        assert_matches_rebuild(idx)


class TestPropertyBased:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=connected_graphs(min_n=4, max_n=18).flatmap(
        lambda g: update_sequences(g, max_steps=5).map(lambda seq: (g, seq))
    ))
    def test_random_update_sequences_match_rebuild_and_dijkstra(self, data):
        graph, sequence = data
        idx = DHLIndex.build(graph, DHLConfig(leaf_size=3, seed=0))
        for batch in sequence:
            # deduplicate edges inside a batch (API applies sequentially,
            # but the strategy may repeat an edge across entries)
            seen = {}
            for u, v, w in batch:
                seen[(min(u, v), max(u, v))] = (u, v, w)
            idx.update(list(seen.values()))
        rebuilt = DHLIndex.build(idx.graph.copy(), idx.config)
        assert idx.labels.equals(rebuilt.labels)
        n = graph.num_vertices
        ref = dijkstra(idx.graph, 0)
        for t in range(n):
            assert idx.distance(0, t) == ref[t]
