"""The observability layer: registry, exporters, tracing, phases, slow log.

Two contracts matter. The *format* contract: the JSON-lines and
Prometheus exporters are parsed by CI tooling and external scrapers, so
their exact shapes are pinned here. The *one-count* contract: the
service and frontend stats are read off the registry instruments they
increment, so they count alike with the default null stack, which
exports nothing, builds no span and collects no kernel phase.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import random
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import PartialResultError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.labelling import native
from repro.observability import (
    NULL_OBSERVABILITY,
    NULL_REGISTRY,
    NULL_TRACER,
    Counter,
    Histogram,
    MetricsRegistry,
    Observability,
    PhaseCollector,
    SlowLog,
    Span,
    Timer,
    collect_phases,
    maybe_child,
    phase,
    phases_active,
)
from repro.observability.tracing import Tracer
from repro.service.async_frontend import AsyncDistanceService
from repro.service.metrics import LatencySummary
from repro.service.runtime import InProcessRuntime
from repro.service.service import DistanceService

# ---------------------------------------------------------------------------
# registry instruments
# ---------------------------------------------------------------------------


def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    a = registry.counter("req_total")
    b = registry.counter("req_total")
    assert a is b
    labelled = registry.counter("req_total", labels={"phase": "q"})
    assert labelled is not a
    a.inc()
    a.inc(2)
    labelled.inc(5)
    snapshot = registry.snapshot()
    assert snapshot["req_total"]["value"] == 3
    assert snapshot['req_total{phase="q"}']["value"] == 5


def test_gauge_set_and_inc():
    registry = MetricsRegistry()
    gauge = registry.gauge("pending")
    gauge.set(7)
    gauge.inc(-2)
    assert registry.snapshot()["pending"] == {"type": "gauge", "value": 5}


def test_histogram_percentiles_interpolate():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", bounds=[1.0, 2.0, 4.0])
    for value in (0.5, 1.5, 1.5, 3.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.max == 3.0
    assert hist.mean == pytest.approx(1.625)
    # p50 lands in the (1, 2] bucket: 1 seen below, 2 in bucket,
    # target 2 -> halfway through the bucket.
    assert 1.0 < hist.percentile(50) <= 2.0
    # The top bucket interpolates up to the tracked max, not its edge.
    assert hist.percentile(100) == 3.0
    assert hist.percentile(75) == 2.0
    # The +Inf bucket is capped by the tracked max, not unbounded.
    hist.observe(10.0)
    assert 4.0 < hist.percentile(100) <= 10.0
    assert hist.max == 10.0
    summary = hist.summary()
    assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99", "max"}


def test_histogram_empty_and_validation():
    hist = MetricsRegistry().histogram("lat", bounds=[1.0])
    assert hist.percentile(99) == 0.0
    assert hist.mean == 0.0
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", bounds=[])


def test_histogram_percentiles_never_exceed_the_largest_observation():
    """Whatever bucket the values land in — the first, a middle one,
    the last finite one or +Inf — no percentile estimate reads above
    the largest value observed, and the estimates stay ordered."""
    for value in (0.0004, 0.003, 0.7, 42.0):
        hist = Histogram("lat")  # DEFAULT_LATENCY_BUCKETS
        for _ in range(3):
            hist.observe(value)
        estimates = [hist.percentile(p) for p in (1, 50, 95, 99, 100)]
        assert estimates == sorted(estimates), value
        assert 0.0 < estimates[0], (value, estimates)
        assert estimates[-1] == pytest.approx(value), (value, estimates)


def test_latency_summary_of_fresh_instruments_is_empty():
    summary = LatencySummary.of(Histogram("lat"), Counter("ops"))
    assert summary == LatencySummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert summary.throughput == 0.0
    assert str(summary) == "no calls recorded"


def test_latency_summary_reads_its_histogram_and_counter():
    latency, operations = Histogram("lat", bounds=[0.01, 0.1, 1.0]), Counter("ops")
    for seconds, ops in ((0.005, 1), (0.05, 10), (0.05, 10), (0.5, 100)):
        latency.observe(seconds)
        operations.inc(ops)
    summary = LatencySummary.of(latency, operations)
    assert (summary.calls, summary.operations) == (4, 121)
    assert summary.total_seconds == pytest.approx(0.605)
    assert summary.mean_seconds == pytest.approx(0.605 / 4)
    assert summary.max_seconds == 0.5
    assert summary.throughput == pytest.approx(121 / 0.605)
    assert 0.01 < summary.p50_seconds <= 0.1
    assert 0.1 < summary.p95_seconds <= summary.p99_seconds <= 0.5
    assert summary.as_dict()["calls"] == 4


# ---------------------------------------------------------------------------
# exporter format stability (parsed by CI tooling — exact shapes pinned)
# ---------------------------------------------------------------------------


def test_jsonl_export_format_stable():
    registry = MetricsRegistry()
    registry.counter("req_total").inc(2)
    assert registry.to_jsonl() == (
        '{"labels": {}, "name": "req_total", "type": "counter", "value": 2}\n'
    )


def test_jsonl_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", labels={"phase": "q"}, bounds=[0.1, 1.0])
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)  # overflow bucket
    (line,) = registry.to_jsonl().splitlines()
    record = json.loads(line)
    assert record["name"] == "lat"
    assert record["type"] == "histogram"
    assert record["labels"] == {"phase": "q"}
    assert record["count"] == 3
    assert record["buckets"] == {"0.1": 1, "1.0": 2, "+Inf": 3}
    assert record["max"] == 5.0


def test_prometheus_export_format_stable():
    registry = MetricsRegistry()
    registry.counter("req_total", help="requests served").inc(3)
    hist = registry.histogram("lat_seconds", labels={"phase": "q"}, bounds=[0.1, 1.0])
    hist.observe(0.05)
    assert registry.to_prometheus() == (
        "# HELP req_total requests served\n"
        "# TYPE req_total counter\n"
        "req_total 3\n"
        "# TYPE lat_seconds histogram\n"
        'lat_seconds_bucket{le="0.1",phase="q"} 1\n'
        'lat_seconds_bucket{le="1.0",phase="q"} 1\n'
        'lat_seconds_bucket{le="+Inf",phase="q"} 1\n'
        'lat_seconds_sum{phase="q"} 0.05\n'
        'lat_seconds_count{phase="q"} 1\n'
    )


def test_null_registry_is_inert():
    """Its instruments count for whoever holds them, but the registry
    keeps none of them, so nothing is exported."""
    assert not NULL_REGISTRY.enabled
    counter = NULL_REGISTRY.counter("anything")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3
    histogram = NULL_REGISTRY.histogram("lat")
    histogram.observe(1.0)
    assert (histogram.count, histogram.max) == (1, 1.0)
    gauge = NULL_REGISTRY.gauge("other")
    gauge.set(4)
    assert gauge.value == 4
    again = NULL_REGISTRY.counter("anything")
    assert again is not counter and again.value == 0  # not kept
    assert len(NULL_REGISTRY) == 0 and list(NULL_REGISTRY) == []
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.to_jsonl() == ""
    assert NULL_REGISTRY.to_prometheus() == ""


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_builds_nested_tree():
    tracer = Tracer(sample_rate=1.0)
    with tracer.trace("root", pairs=4) as root:
        with tracer.trace("stage_a"):
            assert tracer.current.name == "stage_a"
        with tracer.trace("stage_b"):
            pass
    assert tracer.current is None
    finished = tracer.last_trace()
    assert finished is root
    assert finished.seconds > 0.0
    assert finished.meta == {"pairs": 4}
    assert [child.name for child in finished.children] == ["stage_a", "stage_b"]


def test_tracer_deterministic_sampling():
    tracer = Tracer(sample_rate=0.25)
    for _ in range(8):
        with tracer.trace("request"):
            with tracer.trace("inner"):  # must no-op on unsampled roots
                pass
    assert len(tracer.finished) == 2  # every 4th of 8 requests
    assert all(root.children[0].name == "inner" for root in tracer.finished)


def test_tracer_zero_rate_records_nothing():
    tracer = Tracer(sample_rate=0.0)
    with tracer.trace("request"):
        assert tracer.current is None
    assert tracer.last_trace() is None
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)


def test_tracer_finishes_root_on_exception():
    tracer = Tracer(sample_rate=1.0)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.trace("request"):
            raise RuntimeError("boom")
    assert tracer.last_trace().name == "request"
    assert tracer.current is None  # stack unwound


def test_tracer_keeps_bounded_history():
    tracer = Tracer(sample_rate=1.0, keep=4)
    for i in range(10):
        with tracer.trace(f"r{i}"):
            pass
    assert [span.name for span in tracer.finished] == ["r6", "r7", "r8", "r9"]


def test_span_dict_roundtrip_and_graft():
    span = Span("parent")
    span.child("local").finish()
    span.annotate(pairs=3)
    span.finish()
    shipped = {
        "name": "shard_compute",
        "seconds": 0.002,
        "children": [{"name": "sub[0]", "seconds": 0.001}],
    }
    span.graft(shipped)
    clone = Span.from_dict(span.to_dict())
    assert clone.to_dict() == span.to_dict()
    text = clone.format()
    assert "parent" in text and "shard_compute" in text and "sub[0]" in text
    assert "pairs=3" in text


def test_maybe_child_handles_missing_parent():
    with maybe_child(None, "anything") as nothing:
        assert nothing is None
    parent = Span("parent")
    with maybe_child(parent, "stage") as stage:
        assert stage.name == "stage"
    assert parent.children == [stage]


def test_null_tracer_is_inert():
    with NULL_TRACER.trace("request") as span:
        assert span is None
    assert NULL_TRACER.current is None
    assert NULL_TRACER.last_trace() is None


# ---------------------------------------------------------------------------
# kernel-phase collection
# ---------------------------------------------------------------------------


def test_phase_is_noop_without_collector():
    assert not phases_active()
    with phase("decrease.seed"):
        pass  # shared null context manager: nothing recorded anywhere
    assert not phases_active()


def test_collect_phases_accumulates_time_and_counts():
    with collect_phases() as collector:
        assert phases_active()
        for _ in range(3):
            with phase("flush.apply"):
                time.sleep(0.001)
    assert not phases_active()
    assert collector.counts["flush.apply"] == 3
    assert collector.as_dict()["flush.apply"] >= 0.003


def test_nested_collectors_both_observe():
    with collect_phases() as outer:
        with collect_phases() as inner:
            with phase("increase.seed"):
                pass
        with phase("decrease.seed"):
            pass
    assert set(inner.as_dict()) == {"increase.seed"}
    assert set(outer.as_dict()) == {"increase.seed", "decrease.seed"}


def test_phase_collector_is_addressable_directly():
    collector = PhaseCollector()
    collector.add("x", 0.5)
    collector.add("x", 0.25)
    assert collector.as_dict() == {"x": 0.75}
    assert collector.counts == {"x": 2}


@pytest.mark.parametrize(
    "build",
    [
        lambda graph: DHLIndex.build(graph, DHLConfig(seed=0)),
        lambda graph: DirectedDHLIndex.build(
            DiGraph.from_undirected(graph), DHLConfig(seed=0)
        ),
    ],
    ids=["undirected", "directed"],
)
def test_an_increase_reports_its_three_phases_in_every_family(build):
    """Both families maintain through the driver, so a collected update
    names the seed, the shortcut sweep and the label sweep (whose seed
    phase runs inside it) — the shortcut sweep is most of a directed
    burst and must not be blind."""
    graph = grid_network(10, 10, seed=1)
    index = build(graph.copy())
    edges = list(graph.edges())[::9]
    with collect_phases() as collector:
        stats = index.update([(u, v, 3 * w) for u, v, w in edges])
    names = {
        "maintain.seed",
        "maintain.shortcut_sweep",
        "maintain.label_sweep",
    }
    assert names <= set(stats.phases)
    assert names <= set(collector.as_dict())


@pytest.mark.parametrize(
    "build",
    [
        lambda graph: DHLIndex.build(graph, DHLConfig(seed=0)),
        lambda graph: DirectedDHLIndex.build(
            DiGraph.from_undirected(graph), DHLConfig(seed=0)
        ),
    ],
    ids=["undirected", "directed"],
)
def test_phase_marks_cover_the_burst(build):
    """``stats.phases`` sums to the burst: validation, the
    seeds and sweeps, the affected sets and the stats assembly are all
    marked, and no mark nests inside another (the sum never exceeds
    the wall time)."""
    graph = grid_network(24, 24, seed=3)
    index = build(graph.copy())
    edges = list(graph.edges())
    rng = random.Random(5)
    shares = []
    for _ in range(5):
        chosen = rng.sample(edges, 32)
        burst = [(u, v, 3 * w) for u, v, w in chosen[:16]]
        burst += [(u, v, max(1.0, w // 2)) for u, v, w in chosen[16:]]
        with collect_phases():
            start = time.perf_counter()
            stats = index.update(burst)
            wall = time.perf_counter() - start
        marked = sum(stats.phases.values())
        assert marked <= wall
        shares.append(marked / wall)
    assert statistics.median(shares) >= 0.8, shares


def test_build_marks_its_phases_and_the_partition_stages_add_up():
    """``build.*`` wrap the three ``IndexStats`` laps; the ``partition.*``
    stage marks are disjoint and account for the partition lap. Every
    build's marks must have that structure; the share of the lap the
    stages cover is the median of several builds, so one build slowed
    by a busy machine does not decide it."""
    graph = grid_network(24, 24)
    shares = []
    for _ in range(5):
        with collect_phases() as collector:
            stats = DHLIndex.build(graph.copy(), DHLConfig(seed=0)).stats()
        seconds = collector.as_dict()
        for lap in ("partition", "contraction", "labelling"):
            assert collector.counts[f"build.{lap}"] == 1
            assert seconds[f"build.{lap}"] == pytest.approx(
                getattr(stats, f"{lap}_seconds"), rel=0.05, abs=1e-3
            )
        stages = {k: v for k, v in seconds.items() if k.startswith("partition.")}
        assert {"coarsen", "initial", "refine", "separator"} <= {
            k.split(".")[1] for k in stages
        }
        assert sum(stages.values()) <= stats.partition_seconds
        shares.append(sum(stages.values()) / stats.partition_seconds)
    assert statistics.median(shares) >= 0.9, shares


# ---------------------------------------------------------------------------
# slow log + timing primitives
# ---------------------------------------------------------------------------


def test_slow_log_thresholds_and_bound():
    log = SlowLog(slow_query_seconds=0.1, slow_flush_seconds=0.5, keep=2)
    assert not log.note_query(0.05)
    assert log.note_query(0.2, pairs=10)
    assert not log.note_flush(0.4)
    assert log.note_flush(0.9, edges=3)
    log.note_query(0.3)
    records = log.as_list()
    assert len(records) == 2  # keep=2 bound
    assert records[-1]["kind"] == "query"
    assert records[0] == {"kind": "flush", "seconds": 0.9, "edges": 3}


def test_default_slow_log_never_fires():
    log = SlowLog()
    assert not log.note_query(1e9)
    assert log.as_list() == []


def test_timer():
    with Timer() as timer:
        time.sleep(0.001)
    assert timer.seconds >= 0.001


# ---------------------------------------------------------------------------
# Observability bundle + service integration
# ---------------------------------------------------------------------------


def test_null_observability_is_the_disabled_default():
    assert Observability.disabled() is NULL_OBSERVABILITY
    assert not NULL_OBSERVABILITY.is_enabled
    live = Observability.enabled(trace_sample_rate=1.0, slow_query_seconds=0.5)
    assert live.is_enabled
    assert live.tracer.sample_rate == 1.0
    assert live.slow_log.slow_query_seconds == 0.5
    assert math.isinf(live.slow_log.slow_flush_seconds)


@pytest.fixture()
def small_service_graph():
    return grid_network(5, 5)


def build_service(graph, observability=None, **kwargs):
    index = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    return DistanceService(index, observability=observability, **kwargs)


def test_service_disabled_observability_records_nothing(small_service_graph):
    service = build_service(small_service_graph)
    service.distances([(0, 5), (3, 9)])
    assert service.metrics() == {}
    assert service.last_trace() is None
    u, v, w = next(iter(small_service_graph.edges()))
    service.submit(u, v, 2.0 * w)
    stats = service.flush()
    assert stats.phases == {}  # kernels stayed uninstrumented


def test_untraced_metrics_cost_per_call_not_per_pair(
    small_service_graph, monkeypatch
):
    """The scrape configuration (metrics on, tracing off) adds a fixed
    handful of instrument calls per ``distances`` call, however many
    pairs it carries — one latency observation per call, and not a
    single span object built."""
    spans = []
    original = Span.__init__

    def counting(self, name):
        spans.append(name)
        original(self, name)

    monkeypatch.setattr(Span, "__init__", counting)
    service = build_service(
        small_service_graph, observability=Observability.enabled(), cache_capacity=1
    )
    n = small_service_graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    for _ in range(3):
        service.distances(pairs)
    snapshot = service.metrics()
    assert snapshot["dhl_query_seconds"]["count"] == 3
    assert snapshot["dhl_queries_total"]["value"] == 3 * len(pairs)
    assert spans == [] and service.last_trace() is None


def test_service_metrics_snapshot_core_names(small_service_graph, tmp_path):
    obs = Observability.enabled(trace_sample_rate=1.0, slow_query_seconds=0.0)
    service = build_service(small_service_graph, observability=obs)
    service.distances([(0, 5), (3, 9), (0, 5)])
    u, v, w = next(iter(small_service_graph.edges()))
    service.submit(u, v, 2.0 * w)
    flush_stats = service.flush()
    snapshot = service.metrics()
    for name in (
        "dhl_queries_total",
        "dhl_query_seconds",
        "dhl_flush_seconds",
        "dhl_flush_edges_total",
        "dhl_slow_queries_total",
        "dhl_epoch",
        "dhl_cache_hits",
        "dhl_coalescer_submitted",
    ):
        assert name in snapshot, name
    assert snapshot["dhl_queries_total"]["value"] == 3
    assert snapshot["dhl_query_seconds"]["count"] == 1
    # One typed record says which library answers this backend.
    reason = native.status().reason
    info = f'dhl_native_engine_info{{engine="compiled",reason="{reason}"}}'
    assert snapshot[info] == {"type": "gauge", "value": 1}
    assert f"engine  : compiled ({reason})" in service.stats().summary()
    assert snapshot["dhl_slow_queries_total"]["value"] == 1  # threshold 0
    # Maintenance phases surfaced both as labelled histograms and on the
    # returned MaintenanceStats.
    assert flush_stats.phases
    phase_keys = [
        key
        for key in snapshot
        if key.startswith("dhl_maintenance_phase_seconds")
    ]
    assert any('phase="flush.apply"' in key for key in phase_keys)
    assert obs.slow_log.as_list()  # threshold 0 catches the query

    out = service.dump_metrics(tmp_path / "metrics.jsonl")
    for line in out.read_text().splitlines():
        json.loads(line)
    prom = service.dump_metrics(tmp_path / "metrics.prom", fmt="prometheus")
    assert "# TYPE dhl_query_seconds histogram" in prom.read_text()
    with pytest.raises(ValueError, match="unknown metrics format"):
        service.dump_metrics(tmp_path / "nope", fmt="xml")


#: ServiceStats count field -> the registry series that holds it.
SERVICE_SERIES = {
    "queries": "dhl_queries_total",
    "shortcuts_changed": "dhl_shortcuts_changed",
    "labels_changed": "dhl_labels_changed",
    "structural_batches": "dhl_structural_batches",
    "compactions": "dhl_compactions",
    "dead_slots_reclaimed": "dhl_dead_slots_reclaimed",
    "bytes_reclaimed": "dhl_bytes_reclaimed",
    "shed_pairs": "dhl_shed_pairs_total",
    "partial_batches": "dhl_partial_batches_total",
}

#: AsyncFrontendStats field -> its series (offered = requests + shed).
FRONTEND_SERIES = {
    "answered_requests": "dhl_async_answered_total",
    "shed_requests": "dhl_async_shed_total",
    "batches": "dhl_async_batches_total",
    "batched_pairs": "dhl_async_batched_pairs_total",
    "updates": "dhl_async_updates_total",
    "max_merged": "dhl_async_max_merged",
    "partial_requests": "dhl_async_partial_requests_total",
}


def serve_mixed_traffic(graph, observability):
    """Empty, one-pair and multi-pair batches through a frontend and
    the service, a weight flush, a structural flush and a forced
    compaction; returns ``(service.stats(), frontend_stats(), metrics)``."""
    u, v, w = next(iter(graph.edges()))
    service = build_service(graph, observability=observability)

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            await frontend.distances([])
            await frontend.distances([(0, 5)])
            await asyncio.gather(
                frontend.distances([(0, 5), (3, 9), (3, 9), (7, 7)]),
                *(frontend.distance(s, s + 6) for s in range(8)),
            )
            await frontend.update([(u, v, 2.0 * w)])
            await frontend.distances([(0, 24), (u, v)])
            return frontend.frontend_stats()

    with service:
        front = asyncio.run(scenario())
        service.distances([])
        service.distance(u, v)
        service.submit_delete(u, v)
        service.flush()
        service.distances([(u, v), (0, 24)])
        service.submit_insert(u, v, w)
        service.compact()
        service.distance(u, v)
        return service.stats(), front, service.metrics()


def test_stats_count_alike_with_observability_off_and_on(small_service_graph):
    """The same traffic leaves the same counts whether or not the
    registry is exported, and every count the enabled service reports
    is the value of its one registry series."""
    off, front_off, exported = serve_mixed_traffic(small_service_graph, None)
    assert exported == {}
    on, front_on, metrics = serve_mixed_traffic(
        small_service_graph, Observability.enabled()
    )
    assert front_on == front_off
    # 11 queries answered and one update offered; the empty batch is not.
    assert (front_on.offered_requests, front_on.answered_requests) == (12, 11)
    assert front_on.updates == 1
    for field in (*SERVICE_SERIES, "batches", "epoch", "cache", "coalescer"):
        assert getattr(on, field) == getattr(off, field), field
    for latency in ("query_latency", "update_latency"):
        for field in ("calls", "operations"):
            assert getattr(getattr(on, latency), field) == getattr(
                getattr(off, latency), field
            ), (latency, field)
    assert on.structural_batches == 2 and on.compactions == 1
    assert on.update_latency.calls == 3  # the weight and both structural flushes

    for field, series in SERVICE_SERIES.items():
        assert metrics[series]["value"] == getattr(on, field), field
    assert metrics["dhl_query_seconds"]["count"] == on.query_latency.calls
    assert on.query_latency.calls == on.batches
    assert on.query_latency.operations == on.queries
    assert metrics["dhl_flush_seconds"]["count"] == on.update_latency.calls
    assert metrics["dhl_flush_edges_total"]["value"] == on.update_latency.operations
    assert metrics["dhl_epoch"]["value"] == on.epoch
    for name in ("hits", "misses", "size", "capacity", "lru_evictions", "invalidated"):
        assert metrics[f"dhl_cache_{name}"]["value"] == getattr(on.cache, name)
    for name in ("submitted", "merged_duplicates", "noops_dropped", "flushes"):
        assert metrics[f"dhl_coalescer_{name}"]["value"] == getattr(
            on.coalescer, name
        )
    for field, series in FRONTEND_SERIES.items():
        assert metrics[series]["value"] == getattr(front_on, field), field
    assert front_on.offered_requests == (
        metrics["dhl_async_requests_total"]["value"]
        + metrics["dhl_async_shed_total"]["value"]
    )
    assert set(dataclasses.asdict(front_on)) == {
        "offered_requests",
        *FRONTEND_SERIES,
    }


def test_cache_hit_queries_keep_no_memory_per_call(small_service_graph):
    """A served call adds to fixed-size instruments: 20,000 cache hits
    leave no per-call record behind."""
    service = build_service(small_service_graph)
    for _ in range(100):  # warm: the pair is cached, the instruments exist
        service.distance(0, 24)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            service.distance(0, 24)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert service.stats().queries == 20_100
    assert kept < 64 * 1024, kept


def test_disabled_services_count_apart(small_service_graph):
    """The null registry keeps no instrument, so two services on the
    default stack never read each other's counts."""
    busy = build_service(small_service_graph)
    idle = build_service(small_service_graph)
    busy.distances([(0, 5), (3, 9)])
    busy.distance(1, 7)
    assert (busy.stats().queries, busy.stats().batches) == (3, 2)
    assert (idle.stats().queries, idle.stats().batches) == (0, 0)
    assert idle.stats().query_latency.calls == 0
    assert len(NULL_REGISTRY) == 0
    assert busy.metrics() == idle.metrics() == {}


def test_services_sharing_an_enabled_bundle_count_in_one_series(
    small_service_graph,
):
    obs = Observability.enabled()
    first = build_service(small_service_graph, observability=obs)
    second = build_service(small_service_graph, observability=obs)
    first.distances([(0, 5), (3, 9)])
    second.distance(1, 7)
    assert first.stats().queries == second.stats().queries == 3
    assert obs.registry.snapshot()["dhl_query_seconds"]["count"] == 2


def test_a_flush_is_timed_once_with_observability_off(small_service_graph):
    """``update_latency`` counts applied flushes on the disabled path
    too; a flush with nothing to apply is not one of them."""
    u, v, w = next(iter(small_service_graph.edges()))
    service = build_service(small_service_graph)
    service.flush()  # nothing pending
    service.submit(u, v, w)  # the weight it already has: dropped
    service.flush()
    assert service.stats().update_latency.calls == 0
    service.submit(u, v, 2.0 * w)
    service.submit(u, v, 3.0 * w)  # coalesces with the first
    service.flush()
    latency = service.stats().update_latency
    assert (latency.calls, latency.operations) == (1, 1)
    assert latency.total_seconds > 0.0
    assert latency.max_seconds == latency.total_seconds
    assert latency.p99_seconds == pytest.approx(latency.max_seconds)


class SheddingRuntime(InProcessRuntime):
    """Answers every batch in-process but sheds its first pair, the way
    a pooled runtime sheds a breaker-open shard's pairs."""

    def distances(self, pairs):
        out = self.index.distances(pairs)
        out[0] = math.nan
        raise PartialResultError(out, np.array([0]), (0,))


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_a_partial_batch_counts_only_as_shed(small_service_graph, enabled):
    """A batch that raises PartialResultError is not an answered query
    batch: it counts in ``shed_pairs`` and ``partial_batches`` alone."""
    index = DHLIndex.build(small_service_graph.copy(), DHLConfig(seed=0))
    obs = Observability.enabled() if enabled else None
    service = DistanceService(SheddingRuntime(index), observability=obs)
    with pytest.raises(PartialResultError):
        service.distances([(0, 24), (3, 9), (4, 20)])
    stats = service.stats()
    assert (stats.shed_pairs, stats.partial_batches) == (1, 1)
    assert (stats.queries, stats.batches, stats.query_latency.calls) == (0, 0, 0)
    if enabled:
        metrics = service.metrics()
        assert metrics["dhl_shed_pairs_total"]["value"] == 1
        assert metrics["dhl_queries_total"]["value"] == 0


def test_auto_compaction_counts_like_a_forced_one(small_service_graph):
    """Crossing the dead-slot threshold runs the same ``compact()`` a
    caller forces: its counts reach the stats and the registry, and the
    cache is dropped for the new epoch."""
    config = DHLConfig(seed=0, leaf_size=6, compaction_threshold=0.001)
    index = DHLIndex.build(small_service_graph.copy(), config)
    service = DistanceService(index, observability=Observability.enabled())
    service.distances([(0, 24), (3, 9)])
    for u, v, _ in list(small_service_graph.edges())[:3]:
        service.submit_delete(u, v)
    service.flush()
    stats = service.stats()
    assert stats.compactions == 1 and stats.dead_slots_reclaimed > 0
    assert index.dead_fraction < config.compaction_threshold
    assert stats.cache.size == 0
    metrics = service.metrics()
    assert metrics["dhl_compactions"]["value"] == 1
    assert metrics["dhl_dead_slots_reclaimed"]["value"] == stats.dead_slots_reclaimed
    service.compact()
    assert service.stats().compactions == 2


def test_service_query_latency_is_a_consistent_bucket_summary(
    small_service_graph,
):
    service = build_service(small_service_graph, cache_capacity=1)
    n = small_service_graph.num_vertices
    for s in range(n):
        service.distances([(s, t) for t in range(n)])
    latency = service.stats().query_latency
    assert (latency.calls, latency.operations) == (n, n * n)
    assert latency.mean_seconds == pytest.approx(latency.total_seconds / n)
    assert 0.0 < latency.p50_seconds <= latency.p95_seconds
    assert latency.p95_seconds <= latency.p99_seconds <= latency.max_seconds
    assert latency.max_seconds <= latency.total_seconds


def test_service_trace_tree_stages(small_service_graph):
    obs = Observability.enabled(trace_sample_rate=1.0)
    service = build_service(small_service_graph, observability=obs)
    service.distances([(0, 5), (3, 9)])
    trace = service.last_trace()
    assert trace.name == "distances"
    stages = [child.name for child in trace.children]
    assert "cache_scan" in stages and "runtime" in stages
    assert trace.meta == {"pairs": 2}


def test_service_stats_str_and_worker_pool_field(small_service_graph):
    service = build_service(small_service_graph)
    service.distances([(0, 5)])
    stats = service.stats()
    assert stats.worker_pool is None  # in-process backends have no pool
    assert str(stats) == stats.summary()
    assert "workers :" not in str(stats)


# ---------------------------------------------------------------------------
# the metrics export of a shard-runtime service
# ---------------------------------------------------------------------------

#: One instrument of each family the service promises to export.
REQUIRED_METRICS = (
    "dhl_queries_total",
    "dhl_query_seconds",
    "dhl_flush_seconds",
    "dhl_maintenance_phase_seconds",
    "dhl_cache_hits",
    "dhl_coalescer_submitted",
    "dhl_epoch",
)


def test_shard_runtime_metrics_dump_keeps_the_export_contract(tmp_path):
    """Replay flushes and batches through a traced shard-runtime service,
    then dump its registry: every line carries the exporter schema, every
    instrument family is there (a ``dhl_worker_*`` one too), both latency
    histograms observed values with ``+Inf == count``, the last query's
    trace holds the replica-side spans, and no fact is exported twice as
    a gauge ``X`` beside a counter ``X_total``."""
    from repro.core.sharded import ShardedDHLIndex
    from repro.service import ShardWorkerRuntime
    from repro.service.workload import commute_traffic, cross_region_pairs, replay

    sharded = ShardedDHLIndex.build(grid_network(8, 8), k=2, config=DHLConfig(seed=0))
    events = commute_traffic(
        sharded.graph,
        sharded.region_of,
        query_batches=6,
        batch_size=20,
        update_every=2,
        update_size=4,
        seed=0,
    )
    with DistanceService(
        ShardWorkerRuntime(sharded, replicas=1),
        cache_capacity=1,
        observability=Observability.enabled(trace_sample_rate=1.0),
    ) as service:
        report = replay(service, events)
        service.distances(cross_region_pairs(sharded.region_of, 8, seed=1))
        trace = service.last_trace().format()
        path = service.dump_metrics(tmp_path / "metrics.jsonl")
    assert report.update_batches >= 2

    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        assert {"name", "type", "labels"} <= record.keys(), record
    names = {record["name"] for record in records}
    assert set(REQUIRED_METRICS) <= names
    assert any(name.startswith("dhl_worker_") for name in names)
    for name in ("dhl_query_seconds", "dhl_flush_seconds"):
        (record,) = [r for r in records if r["name"] == name]
        assert record["type"] == "histogram"
        assert record["count"] > 0
        assert record["buckets"]["+Inf"] == record["count"]
    assert "worker[" in trace and "shard_compute" in trace
    gauges = {r["name"] for r in records if r["type"] == "gauge"}
    counters = {r["name"] for r in records if r["type"] == "counter"}
    assert sorted(g for g in gauges if f"{g}_total" in counters) == []
