"""Tests for workloads, reporting and the experiment harness."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.context import ExperimentContext
from repro.experiments.measure import mean, time_callable, time_queries
from repro.experiments.report import (
    ascii_table,
    fmt_ms,
    fmt_us,
    format_series,
    save_results,
)
from repro.experiments.workloads import (
    distance_stratified_queries,
    double_weights,
    random_query_pairs,
    restore_weights,
    sample_update_batches,
    scale_weights,
)


class TestWorkloads:
    def test_sample_update_batches_shapes(self, small_road):
        batches = sample_update_batches(small_road, 3, 20, seed=0)
        assert len(batches) == 3
        for batch in batches:
            assert len(batch) == 20
            # no duplicate edge inside a batch
            keys = {(min(u, v), max(u, v)) for u, v, _ in batch}
            assert len(keys) == 20
            for u, v, w in batch:
                assert small_road.weight(u, v) == w

    def test_batch_size_capped_by_edges(self, diamond_graph):
        batches = sample_update_batches(diamond_graph, 1, 100, seed=0)
        assert len(batches[0]) == diamond_graph.num_edges

    def test_weight_transformations(self):
        batch = [(0, 1, 4.0), (1, 2, 6.0)]
        assert double_weights(batch) == [(0, 1, 8.0), (1, 2, 12.0)]
        assert restore_weights(batch) == batch
        assert scale_weights(batch, 3.0) == [(0, 1, 12.0), (1, 2, 18.0)]

    def test_random_query_pairs(self):
        pairs = random_query_pairs(50, 100, seed=1)
        assert len(pairs) == 100
        assert all(s != t for s, t in pairs)

    def test_distance_stratified_sets(self, small_index):
        sets = distance_stratified_queries(
            small_index.distance, 300, per_set=20, seed=0
        )
        assert len(sets) == 10
        distances = [
            [small_index.distance(s, t) for s, t in bucket] for bucket in sets
        ]
        # bucket medians should be non-decreasing where buckets are filled
        medians = [sorted(d)[len(d) // 2] for d in distances if d]
        assert all(a <= b * 1.5 for a, b in zip(medians, medians[1:]))

    def test_stratified_bucket_ranges(self, small_index):
        sets = distance_stratified_queries(
            small_index.distance, 300, per_set=10, seed=0, l_min=500.0
        )
        for bucket in sets:
            for s, t in bucket:
                assert small_index.distance(s, t) > 500.0


class TestMeasure:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(1000))) > 0

    def test_time_queries_empty(self):
        assert time_queries(lambda s, t: 0.0, []) == 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series(
            "S", "x", [1, 2], {"m": [0.001, 0.002]}, y_format=fmt_ms
        )
        assert "1.000" in text and "2.000" in text

    def test_fmt_helpers(self):
        assert fmt_ms(0.0015) == "1.500"
        assert fmt_us(0.0000015) == "1.50"

    def test_save_results_handles_inf(self, tmp_path):
        save_results({"x": math.inf, "y": [1, math.inf]}, tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["x"] == "inf" and data["y"][1] == "inf"


class TestContext:
    @pytest.fixture
    def ctx(self):
        return ExperimentContext(
            datasets=["NY"], scale=5e-4, query_count=200, num_batches=2
        )

    def test_graph_cached(self, ctx):
        assert ctx.graph("NY") is ctx.graph("NY")

    def test_batch_size_scales(self, ctx):
        size = ctx.batch_size("NY")
        assert 10 <= size <= 1_000

    def test_indexes_cached_and_timed(self, ctx):
        idx = ctx.dhl("NY")
        assert ctx.dhl("NY") is idx
        assert ctx.built("NY").dhl_seconds > 0

    def test_drop_frees(self, ctx):
        ctx.dhl("NY")
        ctx.drop("NY")
        assert ctx.built("NY").dhl is None


class TestHarnessSmoke:
    """End-to-end smoke of every experiment on a tiny context."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return ExperimentContext(
            datasets=["NY", "BAY"],
            scale=5e-4,
            num_batches=2,
            query_count=300,
        )

    def test_table1(self, ctx):
        payload = __import__(
            "repro.experiments.tables", fromlist=["table1_datasets"]
        ).table1_datasets(ctx)
        assert "NY" in payload["text"]

    def test_table2(self, ctx):
        from repro.experiments.tables import table2_updates

        payload = table2_updates(ctx)
        assert set(payload["raw"]) == {"NY", "BAY"}
        for name in payload["raw"]:
            batch = payload["raw"][name]["batch"]
            assert all(v >= 0 for v in batch.values())

    def test_table3(self, ctx):
        from repro.experiments.tables import table3_index

        payload = table3_index(ctx)
        for name, row in payload["raw"].items():
            assert row["label_bytes"]["DHL"] < row["label_bytes"]["IncH2H"]

    def test_figure1(self, ctx):
        from repro.experiments.tables import figure1_summary

        payload = figure1_summary(ctx)
        assert len(payload["rows"]) == 6  # 2 datasets x 3 methods

    def test_figure5(self, ctx):
        from repro.experiments.figures import figure5_weight_sweep

        payload = figure5_weight_sweep(ctx)
        for name in ("NY", "BAY"):
            assert len(payload["raw"][name]["DHL+"]) == 9

    def test_figure6(self, ctx):
        from repro.experiments.figures import figure6_query_sets

        payload = figure6_query_sets(ctx)
        assert len(payload["raw"]["NY"]["DHL_us"]) == 10

    def test_figure7(self, ctx):
        from repro.experiments.figures import figure7_scalability

        payload = figure7_scalability(ctx)
        assert len(payload["raw"]["NY"]["sizes"]) == 10

    def test_runner_cli(self, tmp_path, monkeypatch):
        from repro.experiments.runner import main

        code = main(
            [
                "table1",
                "--datasets",
                "NY",
                "--scale",
                "0.0005",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "table1.json").exists()
