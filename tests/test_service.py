"""The serving layer: cache, coalescer, and DistanceService correctness.

The load-bearing checks: cached results must match a fresh Dijkstra on
the *current* graph across long interleaved query/update streams, in
both invalidation modes, and coalescing must never change the net effect
of a change stream.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.graph.generators import delaunay_network
from repro.partition.regions import partition_regions
from repro.service import (
    DistanceService,
    EpochLRUCache,
    QueryBatch,
    UpdateBatch,
    UpdateCoalescer,
    commute_traffic,
    replay,
    rush_hour_traffic,
    uniform_traffic,
    zipf_hotspot_traffic,
)
from repro.service.cache import pair_key
from repro.utils.rng import make_rng, sample_pairs
from tests.strategies import connected_graphs, update_sequences


def build_index(graph, leaf_size=4):
    return DHLIndex.build(graph.copy(), DHLConfig(leaf_size=leaf_size, seed=0))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
class TestEpochLRUCache:
    def test_hit_and_miss_accounting(self):
        cache = EpochLRUCache(capacity=4)
        assert cache.get(pair_key(1, 2)) is None
        cache.put(pair_key(1, 2), 10.0, 7, epoch=0)
        assert cache.get(pair_key(1, 2)) == 10.0
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.size == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_lru_eviction_order(self):
        cache = EpochLRUCache(capacity=2)
        cache.put(pair_key(0, 1), 1.0, -1, 0)
        cache.put(pair_key(0, 2), 2.0, -1, 0)
        cache.get(pair_key(0, 1))  # (0, 2) becomes least-recent
        cache.put(pair_key(0, 3), 3.0, -1, 0)
        assert pair_key(0, 2) not in cache
        assert pair_key(0, 1) in cache and pair_key(0, 3) in cache
        assert cache.stats().lru_evictions == 1

    def test_watermark_invalidates_lazily(self):
        cache = EpochLRUCache(capacity=8)
        cache.put(pair_key(1, 2), 5.0, 3, epoch=0)
        cache.invalidate_all(epoch=1)
        assert pair_key(1, 2) not in cache
        assert len(cache) == 0  # stale entries are not live
        assert cache.get(pair_key(1, 2)) is None  # lazily dropped
        assert cache.stats().invalidated == 1
        cache.put(pair_key(1, 2), 6.0, 3, epoch=1)
        assert cache.get(pair_key(1, 2)) == 6.0

    def test_fine_grained_eviction_by_endpoint_and_hub(self):
        cache = EpochLRUCache(capacity=8)
        cache.put(pair_key(1, 2), 5.0, 9, 0)
        cache.put(pair_key(3, 4), 6.0, 10, 0)
        cache.put(pair_key(5, 6), 7.0, 11, 0)
        removed = cache.evict_vertices({3, 11})
        assert removed == 2
        assert pair_key(1, 2) in cache
        assert pair_key(3, 4) not in cache  # endpoint match
        assert pair_key(5, 6) not in cache  # hub match
        assert cache.evict_vertices(set()) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EpochLRUCache(capacity=0)


# ---------------------------------------------------------------------------
# coalescer
# ---------------------------------------------------------------------------
class TestUpdateCoalescer:
    def test_duplicates_merge_last_write_wins(self, path_graph):
        co = UpdateCoalescer()
        co.add(0, 1, 5.0)
        co.add(1, 0, 7.0)  # same road, either orientation
        co.add(0, 1, 9.0)
        assert co.pending_edges == 1
        batch = co.drain(path_graph)
        assert batch.increases == [(0, 1, 9.0)]
        assert not batch.decreases and batch.noops == 0
        stats = co.stats()
        assert stats.submitted == 3 and stats.merged_duplicates == 2

    def test_raise_then_restore_is_noop(self, path_graph):
        co = UpdateCoalescer()
        original = path_graph.weight(1, 2)
        co.add(1, 2, original * 4)
        co.add(1, 2, original)
        batch = co.drain(path_graph)
        assert batch.size == 0 and batch.noops == 1
        assert co.stats().noops_dropped == 1

    def test_mixed_batch_splits(self, path_graph):
        co = UpdateCoalescer()
        co.add(0, 1, path_graph.weight(0, 1) + 3)
        co.add(2, 3, path_graph.weight(2, 3) - 1)
        co.add(3, 4, path_graph.weight(3, 4))  # explicit no-op
        batch = co.drain(path_graph)
        assert batch.increases == [(0, 1, path_graph.weight(0, 1) + 3)]
        assert batch.decreases == [(2, 3, path_graph.weight(2, 3) - 1)]
        assert batch.noops == 1
        assert batch.changes() == batch.increases + batch.decreases
        assert not co  # drained

    def test_drain_empty(self, path_graph):
        co = UpdateCoalescer()
        assert co.drain(path_graph).size == 0
        assert len(co) == 0


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_graph():
    return delaunay_network(150, seed=21)


def fresh_service(graph, **kwargs):
    return DistanceService(build_index(graph), **kwargs)


class TestDistanceService:
    def test_batch_matches_per_pair_engine(self, small_index):
        service = DistanceService(small_index, cache_capacity=16_384)
        n = small_index.graph.num_vertices
        pairs = sample_pairs(n, 10_000, make_rng(1), distinct=False)
        out = service.distances(pairs)
        distance = small_index.engine.distance
        assert np.array_equal(out, [distance(s, t) for s, t in pairs])
        # Second pass is served from the cache — still identical.
        assert np.array_equal(service.distances(pairs), out)
        assert service.stats().cache.hits > 0

    def test_stats_name_the_loaded_library(self, small_index):
        """Every backend runs on the one C library: the stats say so,
        with the loader's note, on a monolithic and a sharded index."""
        from repro.core.sharded import ShardedDHLIndex
        from repro.labelling import native

        want = f"compiled ({native.status().reason})"
        assert native.status().library_path is not None
        sharded = ShardedDHLIndex.build(
            small_index.graph.copy(), k=2, config=DHLConfig(seed=0), build_workers=1
        )
        for backend in (small_index, sharded):
            stats = DistanceService(backend).stats()
            assert stats.engine == want == "compiled (native library loaded)"
            assert f"engine  : {want}" in stats.summary()

    def test_empty_batch_counts_no_operation(self, service_graph):
        """Queries and latency operations count the same pairs."""
        service = fresh_service(service_graph)
        assert len(service.distances([])) == 0
        service.distances([(0, 1), (2, 3)])
        stats = service.stats()
        assert stats.queries == stats.query_latency.operations == 2
        assert stats.query_latency.calls == 2

    def test_single_distance_cached(self, service_graph):
        service = fresh_service(service_graph)
        d = service.distance(3, 77)
        assert d == service.index.distance(3, 77)
        assert service.distance(77, 3) == d  # symmetric key
        assert service.stats().cache.hits == 1
        assert service.distance(5, 5) == 0.0

    @pytest.mark.parametrize("fine_grained", [False, True])
    def test_updates_invalidate_cached_results(self, service_graph, fine_grained):
        service = fresh_service(
            service_graph, fine_grained_eviction=fine_grained
        )
        rng = make_rng(9)
        n = service_graph.num_vertices
        pairs = sample_pairs(n, 400, rng)
        service.distances(pairs)
        edges = list(service.index.graph.edges())[:25]
        service.submit_many([(u, v, 3 * w) for u, v, w in edges])
        out = service.distances(pairs)  # auto-flush, then query
        for (s, t), got in zip(pairs[:60], out[:60]):
            assert got == dijkstra(service.index.graph, s)[t]

    @pytest.mark.parametrize("fine_grained", [False, True])
    def test_fifty_interleaved_coalesced_batches_stay_correct(
        self, service_graph, fine_grained
    ):
        """Acceptance: cached results match fresh Dijkstra across >= 50
        interleaved coalesced update batches."""
        service = fresh_service(
            service_graph,
            fine_grained_eviction=fine_grained,
            cache_capacity=8_192,
        )
        rng = make_rng(1234)
        n = service_graph.num_vertices
        base = {(u, v): w for u, v, w in service_graph.edges()}
        edge_list = list(base)
        factors = (0.5, 1.0, 2.0, 3.0)
        hot = sample_pairs(n, 40, rng)  # recurring pairs keep the cache warm
        for round_no in range(50):
            picks = rng.choice(len(edge_list), size=6, replace=False)
            for p in picks:
                u, v = edge_list[int(p)]
                factor = factors[int(rng.integers(len(factors)))]
                service.submit(u, v, float(max(1, round(base[(u, v)] * factor))))
                if round_no % 3 == 0:  # duplicate traffic to coalesce
                    service.submit(u, v, float(base[(u, v)]))
            pairs = hot + sample_pairs(n, 10, rng)
            out = service.distances(pairs)
            sources = {s for s, _ in pairs[:12]}
            reference = {s: dijkstra(service.index.graph, s) for s in sources}
            for (s, t), got in zip(pairs[:12], out[:12]):
                assert got == reference[s][t], (round_no, s, t)
        stats = service.stats()
        assert stats.coalescer.flushes >= 50
        assert stats.cache.hits > 0  # the cache genuinely served traffic

    def test_flush_threshold_auto_applies(self, service_graph):
        service = fresh_service(service_graph, flush_threshold=3)
        edges = list(service.index.graph.edges())[:3]
        for u, v, w in edges[:2]:
            service.submit(u, v, 2 * w)
        assert service.pending_updates == 2 and service.epoch == 0
        u, v, w = edges[2]
        service.submit(u, v, 2 * w)  # third distinct edge trips the flush
        assert service.pending_updates == 0
        assert service.epoch >= 1

    def test_noop_flush_keeps_epoch_and_cache(self, service_graph):
        service = fresh_service(service_graph)
        pairs = sample_pairs(service_graph.num_vertices, 50, make_rng(3))
        service.distances(pairs)
        (u, v, w) = next(iter(service.index.graph.edges()))
        service.submit(u, v, 5 * w)
        service.submit(u, v, w)  # restored before anyone queried
        stats = service.flush()
        assert stats.shortcuts_changed == 0
        assert service.epoch == 0
        service.distances(pairs)
        assert service.stats().cache.hits >= len(pairs)

    def test_staleness_mode_defers_updates(self, service_graph):
        service = fresh_service(service_graph, auto_flush_on_query=False)
        (u, v, w) = next(iter(service.index.graph.edges()))
        before = service.distance(u, v)
        service.submit(u, v, 10 * w)
        assert service.distance(u, v) == before  # bounded staleness
        service.flush()
        assert service.distance(u, v) == service.index.distance(u, v)

    def test_direct_index_updates_invalidate_via_epoch_drift(
        self, service_graph
    ):
        service = fresh_service(service_graph)
        (u, v, w) = next(iter(service.index.graph.edges()))
        service.distance(u, v)  # cached
        service.index.increase([(u, v, 10 * w)])  # bypasses the service
        assert service.distance(u, v) == dijkstra(service.index.graph, u)[v]
        service.index.apply_batch(deletions=[(u, v)])  # structural, also direct
        assert service.distance(u, v) == dijkstra(service.index.graph, u)[v]

    def test_fine_grained_flush_does_not_absorb_foreign_updates(
        self, service_graph
    ):
        # A flush evicts only its own batch's vertices; epoch drift from a
        # direct index update must still nuke the cache, even when the
        # flush runs first in the query path.
        service = fresh_service(service_graph, fine_grained_eviction=True)
        edges = list(service.index.graph.edges())
        (u, v, w) = edges[0]
        service.distance(u, v)  # cached
        service.index.increase([(u, v, 10 * w)])  # foreign update
        (a, b, wb) = edges[-1]  # unrelated change through the service
        service.submit(a, b, 2 * wb)
        assert service.distance(u, v) == dijkstra(service.index.graph, u)[v]

    def test_k_nearest_through_cache(self, service_graph):
        service = fresh_service(service_graph)
        candidates = list(range(0, 140, 5))
        assert service.k_nearest(7, candidates, 5) == service.index.k_nearest(
            7, candidates, 5
        )

    def test_fine_grained_keeps_unaffected_entries(self):
        # A path graph: changing the far end cannot affect the near end.
        from repro.graph.graph import Graph

        g = Graph(8)
        for i in range(7):
            g.add_edge(i, i + 1, 2.0)
        service = DistanceService(
            build_index(g, leaf_size=2), fine_grained_eviction=True
        )
        near = service.distance(0, 1)
        service.submit(6, 7, 9.0)
        service.flush()
        stats = service.stats()
        assert pair_key(0, 1) in service.cache or stats.cache.invalidated == 0
        assert service.distance(0, 1) == near
        assert service.distance(0, 7) == dijkstra(service.index.graph, 0)[7]


# ---------------------------------------------------------------------------
# workloads + replay
# ---------------------------------------------------------------------------
def four_region_commute(graph, seed):
    partition = partition_regions(graph, 4, seed=seed)
    return commute_traffic(
        graph, partition.region_of, boundary=partition.boundary, seed=seed
    )


class TestWorkloads:
    @pytest.mark.parametrize(
        "maker",
        [
            uniform_traffic,
            zipf_hotspot_traffic,
            rush_hour_traffic,
            four_region_commute,
        ],
    )
    def test_replay_restores_graph_and_matches_dijkstra(
        self, service_graph, maker
    ):
        service = fresh_service(service_graph, fine_grained_eviction=True)
        baseline = {(u, v): w for u, v, w in service_graph.edges()}
        events = maker(service.index.graph, seed=5)
        assert any(isinstance(e, QueryBatch) for e in events)
        assert any(isinstance(e, UpdateBatch) for e in events)
        report = replay(service, events)
        assert report.queries > 0 and report.update_batches > 0
        assert math.isfinite(report.distance_checksum)
        # Every stream ends with weights restored to base.
        for (u, v), w in baseline.items():
            assert service.index.graph.weight(u, v) == w
        ref = dijkstra(service.index.graph, 0)
        for t in range(0, service_graph.num_vertices, 13):
            assert service.distance(0, t) == ref[t]

    def test_replay_deterministic_checksum(self, service_graph):
        events = zipf_hotspot_traffic(service_graph, query_batches=8, seed=2)
        reports = [
            replay(fresh_service(service_graph), list(events)) for _ in range(2)
        ]
        assert reports[0].distance_checksum == reports[1].distance_checksum

    def test_commute_traffic_loads_no_experiments_module(self):
        """The serving layer stands alone: a fresh interpreter that
        imports the workload module and draws commute traffic holds no
        ``repro.experiments`` module."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.graph.generators import grid_network\n"
            "import repro.service.workload as workload\n"
            "graph = grid_network(6, 6)\n"
            "workload.commute_traffic(graph, np.arange(36) % 2, query_batches=2)\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_zipf_alpha_validation(self, service_graph):
        with pytest.raises(ValueError):
            zipf_hotspot_traffic(service_graph, alpha=1.0)


class TestPropertyBased:
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        data=connected_graphs(min_n=4, max_n=16).flatmap(
            lambda g: update_sequences(g, max_steps=4, max_batch=3).map(
                lambda seq: (g, seq)
            )
        ),
        fine_grained=st.booleans(),
    )
    def test_interleaved_streams_match_fresh_dijkstra(self, data, fine_grained):
        graph, sequence = data
        service = DistanceService(
            DHLIndex.build(graph, DHLConfig(leaf_size=3, seed=0)),
            fine_grained_eviction=fine_grained,
            cache_capacity=512,
        )
        n = graph.num_vertices
        pairs = [(s, t) for s in range(n) for t in range(n)]
        for batch in sequence:
            service.distances(pairs)  # populate the cache pre-update
            service.submit_many(batch)
            out = service.distances(pairs)
            ref = np.stack([dijkstra(service.index.graph, s) for s in range(n)])
            assert np.array_equal(out, ref.reshape(-1)), "stale cache entry"
