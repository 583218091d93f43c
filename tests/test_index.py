"""Tests for the DHLIndex facade, config and stats."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.stats import IndexStats
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = DHLConfig()
        assert cfg.beta == 0.2  # the paper's balance threshold
        assert cfg.leaf_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 0.7},
            {"leaf_size": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(IndexBuildError):
            DHLConfig(**kwargs)

    def test_frozen(self):
        cfg = DHLConfig()
        with pytest.raises(Exception):
            cfg.beta = 0.3  # type: ignore[misc]


class TestBuild:
    def test_empty_graph_rejected(self):
        with pytest.raises(IndexBuildError):
            DHLIndex.build(Graph(0))

    def test_single_vertex(self):
        idx = DHLIndex.build(Graph(1))
        assert idx.distance(0, 0) == 0.0

    def test_two_vertices_disconnected(self):
        idx = DHLIndex.build(Graph(2))
        assert math.isinf(idx.distance(0, 1))

    def test_default_build_passes_verify(self, small_road):
        idx = DHLIndex.build(small_road.copy(), DHLConfig())
        idx.verify()
        assert idx.distance(0, 1) >= 0

    def test_deterministic_given_seed(self, small_road):
        a = DHLIndex.build(small_road.copy(), DHLConfig(seed=4))
        b = DHLIndex.build(small_road.copy(), DHLConfig(seed=4))
        assert a.labels.equals(b.labels)
        assert np.array_equal(a.hq.tau, b.hq.tau)

    def test_verify_full_suite(self, small_index):
        small_index.verify()


class TestQueries:
    def test_distances_batch(self, small_index):
        pairs = [(0, 10), (5, 5), (20, 100)]
        out = small_index.distances(pairs)
        assert out[1] == 0.0
        assert out[0] == small_index.distance(0, 10)

    def test_agreement_with_dijkstra_sampled(self, small_index):
        ref = dijkstra(small_index.graph, 17)
        for t in range(0, 300, 11):
            assert small_index.distance(17, t) == ref[t]

    def test_distance_with_hub(self, small_index):
        d, hub = small_index.distance_with_hub(3, 250)
        assert d == small_index.distance(3, 250)
        assert hub >= 0


class TestStats:
    def test_stats_fields(self, small_index):
        stats = small_index.stats()
        assert isinstance(stats, IndexStats)
        assert stats.num_vertices == 300
        assert stats.label_entries == small_index.labels.num_entries
        assert stats.label_bytes > 0
        assert stats.num_shortcuts >= small_index.graph.num_edges
        assert stats.height == small_index.hq.height
        assert stats.construction_seconds > 0
        assert stats.total_bytes >= stats.label_bytes

    def test_summary_renders(self, small_index):
        text = small_index.stats().summary()
        assert "label entries" in text
        assert "total construction" in text

    def test_stats_track_graph_after_updates(self, small_index):
        u, v, w = next(iter(small_index.graph.edges()))
        small_index.increase([(u, v, 2 * w)])
        stats = small_index.stats()
        assert stats.label_entries == small_index.labels.num_entries


class TestRebuild:
    def test_rebuild_equals_original_on_unchanged_graph(self, small_index):
        rebuilt = small_index.rebuild()
        assert rebuilt.labels.equals(small_index.labels)

    def test_repr(self, small_index):
        assert "DHLIndex" in repr(small_index)
