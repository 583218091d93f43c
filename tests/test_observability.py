"""The observability layer: registry, exporters, tracing, phases, slow log.

Two contracts matter. The *format* contract: the JSON-lines and
Prometheus exporters are parsed by CI tooling and external scrapers, so
their exact shapes are pinned here. The *zero-overhead* contract: with
the default null stack every instrumented call must be a no-op — no
recorded metrics, no spans, no kernel-phase collection — because the
serving hot paths call the instruments unconditionally.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.labelling import native
from repro.observability import (
    NULL_OBSERVABILITY,
    NULL_REGISTRY,
    NULL_TRACER,
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
    # Finite buckets interpolate up to their upper edge.
    assert hist.percentile(100) == 4.0
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
    assert not NULL_REGISTRY.enabled
    counter = NULL_REGISTRY.counter("anything")
    counter.inc()
    histogram = NULL_REGISTRY.histogram("lat")
    histogram.observe(1.0)
    assert histogram is NULL_REGISTRY.gauge("other")  # shared singleton
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
    stage marks are disjoint and account for the partition lap."""
    graph = grid_network(24, 24)
    with collect_phases() as collector:
        stats = DHLIndex.build(graph, DHLConfig(seed=0)).stats()
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
    assert 0.9 * stats.partition_seconds <= sum(stages.values())
    assert sum(stages.values()) <= stats.partition_seconds


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
    assert snapshot["dhl_query_batches_total"]["value"] == 3
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
        "dhl_query_batches_total",
        "dhl_query_seconds",
        "dhl_flushes_total",
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
    "dhl_query_batches_total",
    "dhl_query_seconds",
    "dhl_flushes_total",
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

    sharded = ShardedDHLIndex.build(
        grid_network(8, 8), k=2, config=DHLConfig(seed=0), build_workers=1
    )
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
