"""Cross-method equivalence: DHL, IncH2H, DCH and the search baselines
must agree exactly on every query, statically and under updates.

This mirrors the paper's experimental setup where all methods answer the
same workloads; any disagreement is a bug in one of them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.astar import ALTHeuristic, astar_distance
from repro.baselines.dch import DCHIndex
from repro.baselines.dijkstra import bidirectional_dijkstra, dijkstra
from repro.baselines.inch2h import IncH2HIndex
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from tests.strategies import connected_graphs, update_sequences


@pytest.fixture(scope="module")
def road():
    from repro.graph.generators import delaunay_network

    return delaunay_network(300, seed=77)


@pytest.fixture(scope="module")
def trio(road):
    dhl = DHLIndex.build(road.copy(), DHLConfig(seed=0))
    inch2h = IncH2HIndex.build(road.copy())
    dch = DCHIndex.build(road.copy())
    return dhl, inch2h, dch


class TestStaticAgreement:
    def test_all_methods_agree(self, trio, road):
        dhl, inch2h, dch = trio
        rng = np.random.default_rng(0)
        for _ in range(150):
            s = int(rng.integers(0, 300))
            t = int(rng.integers(0, 300))
            d = dhl.distance(s, t)
            assert inch2h.distance(s, t) == d
            assert dch.distance(s, t) == d

    def test_search_methods_agree(self, trio, road):
        dhl, _, _ = trio
        alt = ALTHeuristic(road, k=3, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = int(rng.integers(0, 300))
            t = int(rng.integers(0, 300))
            d = dhl.distance(s, t)
            assert bidirectional_dijkstra(road, s, t) == d
            assert astar_distance(road, s, t) == d
            assert astar_distance(road, s, t, heuristic=alt.heuristic(t)) == d


class TestDynamicAgreement:
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        data=connected_graphs(min_n=5, max_n=16).flatmap(
            lambda g: update_sequences(g, max_steps=4, max_batch=3).map(
                lambda seq: (g, seq)
            )
        )
    )
    def test_indexes_track_identically(self, data):
        graph, sequence = data
        dhl = DHLIndex.build(graph.copy(), DHLConfig(leaf_size=3, seed=0))
        inch2h = IncH2HIndex.build(graph.copy())
        dch = DCHIndex.build(graph.copy())
        for batch in sequence:
            seen = {}
            for u, v, w in batch:
                seen[(min(u, v), max(u, v))] = (u, v, w)
            batch = list(seen.values())
            dhl.update(batch)
            inch2h.update(batch)
            dch.update(batch)
        n = graph.num_vertices
        reference = dijkstra(dhl.graph, 0)
        for t in range(n):
            assert dhl.distance(0, t) == reference[t]
            assert inch2h.distance(0, t) == reference[t]
            assert dch.distance(0, t) == reference[t]

    def test_trio_after_batch_cycle(self, trio):
        dhl, inch2h, dch = trio
        edges = list(dhl.graph.edges())[:40]
        for index in (dhl, inch2h, dch):
            index.increase([(u, v, 2 * w) for u, v, w in edges])
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = int(rng.integers(0, 300))
            t = int(rng.integers(0, 300))
            d = dhl.distance(s, t)
            assert inch2h.distance(s, t) == d
            assert dch.distance(s, t) == d
        for index in (dhl, inch2h, dch):
            index.decrease(edges)


class TestVerificationExperiment:
    @staticmethod
    def _verify():
        from repro.experiments.context import ExperimentContext
        from repro.experiments.verification import verify_correctness

        ctx = ExperimentContext(
            datasets=["NY"], scale=5e-4, num_batches=1, query_count=50
        )
        return verify_correctness(ctx, pairs_per_phase=15)

    def test_verify_reports_zero_errors(self):
        payload = self._verify()
        for name, report in payload["raw"].items():
            for phase in ("static", "after_increase", "after_restore"):
                assert all(v == 0 for v in report[phase].values()), (name, phase)

    def test_verify_raises_on_a_wrong_distance(self, monkeypatch):
        """An off-by-one DHL answer fails the run, naming every phase."""
        exact = DHLIndex.distance
        monkeypatch.setattr(
            DHLIndex, "distance", lambda self, s, t: exact(self, s, t) + 1
        )
        with pytest.raises(AssertionError) as caught:
            self._verify()
        message = str(caught.value)
        for phase in ("static", "after_increase", "after_restore"):
            assert f"NY/DHL/{phase}: " in message
        assert "IncH2H/" not in message and "DCH/" not in message
