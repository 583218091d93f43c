"""Serving-layer benchmarks: batch kernel throughput and replay streams.

The kernel group compares three ways to answer the same query set: the
per-pair Python loop, the previous generation's padded ``(n, h)`` label
matrix (kept here as a reference implementation), and the current
zero-copy kernel that gathers straight from the flat CSR label store.
The replay group runs the Zipf-hotspot stream through the full service
in its three cache configurations.

Run under pytest-benchmark for the full protocol, or standalone for the
CI perf-regression gate::

    python benchmarks/bench_service_throughput.py --quick --out BENCH_service.json

The quick mode times the three kernels plus a service replay with
best-of-N wall-clock loops (no pytest-benchmark dependency) and writes
one JSON document that ``check_service_regression.py`` compares against
the committed baseline. It also exercises the k=4 sharded backend:
interleaved monolithic-vs-sharded build timings, uniform and
cross-region query throughput (checked for exact agreement with the
monolithic index), and the update-isolation evidence that an
intra-region batch touches only its owning shard. The same sharded
index is then served through a :class:`ShardWorkerRuntime` worker pool:
batch throughput on both query sets (checked for exact agreement), the
batch-scheduler split counters, and the epoch-broadcast evidence that a
maintenance flush reaches workers as shared-memory *deltas* (no
republish) — and through a :class:`SocketShardRuntime` TCP replica
pool: cross-region throughput, per-batch replica fan-out latency, the
inline-delta sync counters, and a live replica-kill failover drill.
The async group measures the :class:`AsyncDistanceService`
micro-batching win (one concurrent burst vs the same burst awaited
serially) and its admission-control shed count.
The update group times the same double-then-restore batch
protocol through both maintenance engines (frontier-batched array
kernels vs the scalar reference) and the serving-layer flush latency;
``check_service_regression.py`` gates the array-over-reference ratio.
The observability group replays identical query batches through the
null and the enabled observability stacks and reports the overhead
ratio, which the gate holds to single-digit percent. Pass
``--shard-breakdown-out`` to dump the per-shard build-time breakdown
and ``--phase-breakdown-out`` to dump the per-kernel-phase flush-time
breakdown (both uploaded as CI artifacts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.observability import collect_phases
from repro.observability.timing import best_of


def padded_matrix(index) -> np.ndarray:
    """The labels padded into an inf-filled ``(n, h)`` float64 matrix —
    the storage scheme the flat store replaced, kept as a benchmark
    reference."""
    labels = index.labels
    n = labels.num_vertices
    h = max(1, index.hq.height)
    matrix = np.full((n, h), np.inf, dtype=np.float64)
    for v in range(n):
        row = labels.view(v)
        matrix[v, : len(row)] = row
    return matrix


def padded_kernel(index, matrix: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Reference batch kernel over the padded matrix (two row gathers,
    one add, one masked row-min over the full hierarchy height)."""
    k = index.engine.common_ancestor_counts(s, t)
    columns = np.arange(matrix.shape[1], dtype=np.int64)
    sums = matrix[s] + matrix[t]
    np.copyto(sums, np.inf, where=columns >= k[:, None])
    out = sums.min(axis=1)
    out[s == t] = 0.0
    return out


# ---------------------------------------------------------------------------
# pytest-benchmark groups
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone quick mode
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="service-batch-kernel")
    @pytest.mark.parametrize(
        "mode", ["per-pair-loop", "padded-matrix", "zero-copy"]
    )
    def test_batch_kernel_speedup(benchmark, mode, dataset, dhl_indexes, query_pairs):
        index = dhl_indexes[dataset]
        pairs = query_pairs[dataset]
        arr = np.asarray(pairs, dtype=np.int64)
        s, t = arr[:, 0].copy(), arr[:, 1].copy()
        benchmark.extra_info["queries"] = len(pairs)

        if mode == "per-pair-loop":
            distance = index.engine.distance

            def run():
                for pair in pairs:
                    distance(*pair)

        elif mode == "padded-matrix":
            matrix = padded_matrix(index)  # padded once, used per call

            def run():
                padded_kernel(index, matrix, s, t)

        else:

            def run():
                index.engine._batch_kernel(s, t, want_hubs=False)

        benchmark(run)

    MODE_KWARGS = {
        "uncached": dict(cache_capacity=1),
        "cached": dict(cache_capacity=65_536),
        "fine-grained": dict(cache_capacity=65_536, fine_grained_eviction=True),
    }

    @pytest.mark.benchmark(group="service-throughput")
    @pytest.mark.parametrize("mode", sorted(MODE_KWARGS))
    def test_replay_hotspot_stream(benchmark, mode, dataset, graphs):
        from repro.service import DistanceService, replay, zipf_hotspot_traffic

        graph = graphs[dataset]
        kwargs = MODE_KWARGS[mode]

        def setup():
            index = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
            service = DistanceService(index, **kwargs)
            events = zipf_hotspot_traffic(
                index.graph, query_batches=20, batch_size=200, seed=1
            )
            return (service, events), {}

        def run(service, events):
            report = replay(service, events)
            benchmark.extra_info.setdefault("queries", report.queries)
            benchmark.extra_info["hit_rate"] = round(
                report.service.cache.hit_rate, 4
            )

        benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)


# ---------------------------------------------------------------------------
# standalone quick mode (CI perf-regression gate)
# ---------------------------------------------------------------------------

def run_update_quick(
    graph, repeats: int, batch_size: int = 256
) -> tuple[dict, dict]:
    """Maintenance-engine measurements: batch-update throughput + flush.

    Times the same double-then-restore update protocol (one increase
    batch at 2x weight, one decrease batch back — state-invariant, so
    best-of-N loops are honest) through the frontier-batched array
    engine and the scalar reference engine, plus the serving-layer
    ``DistanceService.flush`` latency on the array engine — the number
    that bounds ``ShardWorkerRuntime`` epoch-broadcast staleness.
    """
    from repro.service import DistanceService

    edges = list(graph.edges())
    rng = np.random.default_rng(7)
    picked = rng.choice(len(edges), size=min(batch_size, len(edges)), replace=False)
    batch = [edges[i] for i in picked]
    up_batch = [(u, v, 2 * w) for u, v, w in batch]
    down_batch = [(u, v, w) for u, v, w in batch]
    changes_per_roundtrip = 2 * len(batch)

    engines = ["array", "reference"]

    throughput = {}
    indexes = {}
    for engine in engines:
        index = DHLIndex.build(graph.copy(), DHLConfig(seed=0, engine=engine))
        indexes[engine] = index

        def roundtrip(index=index):
            index.increase(up_batch)
            index.decrease(down_batch)

        roundtrip()  # warm caches / lazy views
        best = best_of(roundtrip, repeats)
        throughput[engine] = changes_per_roundtrip / best

    # Labels must agree after identical protocols on every engine.
    for engine in engines[1:]:
        if not indexes["array"].labels.equals(indexes[engine].labels):
            raise AssertionError(
                f"array engine labels diverge from {engine}"
            )

    service = DistanceService(indexes["array"])

    def flush_roundtrip():
        service.submit_many(up_batch)
        service.flush()
        service.submit_many(down_batch)
        service.flush()

    flush_roundtrip()
    flush_seconds = best_of(flush_roundtrip, repeats) / 2  # per flush

    # One more instrumented roundtrip: collect_phases() arms the kernel
    # phase marks, so the breakdown shows where a flush spends its time
    # (drain / apply / evict plus the per-kernel relaxation phases).
    with collect_phases() as collector:
        flush_roundtrip()
    service.close()
    phases = {
        "phase_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(collector.as_dict().items())
        },
        "phase_counts": dict(sorted(collector.counts.items())),
        "flushes_profiled": 2,
    }

    metrics = {
        "update_throughput_pairs_per_s": round(throughput["array"], 1),
        "update_reference_pairs_per_s": round(throughput["reference"], 1),
        "update_array_over_reference": round(
            throughput["array"] / max(throughput["reference"], 1e-9), 3
        ),
        "flush_latency_ms": round(flush_seconds * 1000, 3),
    }
    return metrics, phases


def run_sharded_quick(
    graph,
    index: DHLIndex,
    num_pairs: int,
    repeats: int,
    k: int = 4,
) -> tuple[dict, dict]:
    """Sharded backend measurements: build, queries, update isolation.

    Returns ``(metrics, breakdown)`` — flat gateable metrics plus the
    per-shard build-time breakdown uploaded as a CI artifact. The
    monolithic and sharded build timings are *interleaved* (alternating
    best-of-N samples) so a transient load spike on a shared runner
    cannot skew the speedup ratio by hitting only one side.
    """
    from repro.core.sharded import ShardedDHLIndex
    from repro.experiments.workloads import cross_region_pairs, random_query_pairs

    workers = min(k, os.cpu_count() or 1)
    build_repeats = max(3, repeats // 3)

    def build() -> ShardedDHLIndex:
        return ShardedDHLIndex.build(
            graph.copy(), k=k, config=DHLConfig(seed=0), build_workers=workers
        )

    sharded = build()
    mono_times: list[float] = []
    shard_times: list[float] = []
    for _ in range(build_repeats):
        start = time.perf_counter()
        DHLIndex.build(graph.copy(), DHLConfig(seed=0))
        mono_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        build()
        shard_times.append(time.perf_counter() - start)
    monolithic_build_seconds = min(mono_times)
    sharded_build_seconds = min(shard_times)
    stats = sharded.stats()

    uniform = random_query_pairs(graph.num_vertices, num_pairs, seed=1)
    commute = cross_region_pairs(
        sharded.region_of,
        num_pairs,
        seed=2,
        boundary=sharded.partition.boundary,
    )
    if not np.array_equal(index.distances(uniform), sharded.distances(uniform)):
        raise AssertionError("sharded backend disagrees with monolithic (uniform)")
    if not np.array_equal(index.distances(commute), sharded.distances(commute)):
        raise AssertionError("sharded backend disagrees with monolithic (commute)")

    sharded_uniform_qps = num_pairs / best_of(
        lambda: sharded.distances(uniform), repeats
    )
    sharded_cross_qps = num_pairs / best_of(
        lambda: sharded.distances(commute), repeats
    )
    mono_cross_qps = num_pairs / best_of(
        lambda: index.distances(commute), repeats
    )

    # Update isolation: one intra-region batch must touch one shard.
    from repro.experiments.sharded import intra_region_update_batch

    rid, batch = intra_region_update_batch(sharded, size=16)
    update_stats = sharded.update(batch)
    touched = update_stats.touched_shards
    restore = [(u, v, graph.weight(u, v)) for u, v, _ in batch]
    sharded.update(restore)

    worker_metrics, worker_breakdown = run_worker_pool_quick(
        sharded,
        index,
        uniform,
        commute,
        repeats,
        sharded_uniform_qps=sharded_uniform_qps,
        sharded_cross_qps=sharded_cross_qps,
    )

    socket_metrics, socket_breakdown = run_socket_quick(
        sharded, index, commute, repeats
    )

    metrics = {
        "monolithic_build_seconds": round(monolithic_build_seconds, 3),
        "sharded_build_seconds": round(sharded_build_seconds, 3),
        "sharded_build_speedup": round(
            monolithic_build_seconds / max(sharded_build_seconds, 1e-9), 3
        ),
        "sharded_uniform_qps": round(sharded_uniform_qps, 1),
        "sharded_cross_qps": round(sharded_cross_qps, 1),
        "cross_shard_slowdown": round(
            mono_cross_qps / max(sharded_cross_qps, 1e-9), 3
        ),
        "update_touched_shards": len(touched),
        **worker_metrics,
        **socket_metrics,
    }
    breakdown = {
        "k": sharded.k,
        "worker_pool": worker_breakdown,
        "socket_pool": socket_breakdown,
        "build_workers": workers,
        "parallel_build": stats.build.parallel,
        "partition_seconds": round(stats.partition_seconds, 4),
        "overlay_seconds": round(stats.overlay_seconds, 4),
        "per_shard_build_seconds": [
            round(s, 4) for s in stats.build.per_shard_seconds
        ],
        "per_shard_vertices": [len(v) for v in sharded.shard_vertices],
        "boundary_vertices": stats.boundary_vertices,
        "cut_edges": stats.cut_edges,
        "overlay_edges": stats.overlay_edges,
        "update_target_shard": rid,
        "update_touched_shards": touched,
        "update_labels_changed_per_shard": {
            str(sid): s.labels_changed
            for sid, s in update_stats.per_shard.items()
        },
    }
    return metrics, breakdown


def run_worker_pool_quick(
    sharded,
    index: DHLIndex,
    uniform,
    commute,
    repeats: int,
    *,
    sharded_uniform_qps: float,
    sharded_cross_qps: float,
) -> tuple[dict, dict]:
    """Worker-pool runtime measurements over the already-built shards.

    Returns ``(metrics, breakdown)``: batch throughput on the same pair
    sets the in-process backend answered (exact agreement enforced),
    the in-process-to-worker-pool ratio the gate checks (interpreted
    against ``meta.cpu_count`` — a single-core runner can only measure
    scheduling overhead, never a parallel win), and the scheduler-split
    plus epoch-broadcast counters. The maintenance probe asserts the
    worker sync used the delta path: one shared-memory delta broadcast,
    zero whole-buffer republishes.
    """
    from repro.service import ShardWorkerRuntime

    num_pairs = len(uniform)
    runtime = ShardWorkerRuntime(sharded)
    try:
        if not np.array_equal(index.distances(uniform), runtime.distances(uniform)):
            raise AssertionError("worker pool disagrees with monolithic (uniform)")
        if not np.array_equal(index.distances(commute), runtime.distances(commute)):
            raise AssertionError("worker pool disagrees with monolithic (commute)")

        worker_uniform_qps = num_pairs / best_of(
            lambda: runtime.distances(uniform), repeats
        )
        worker_cross_qps = num_pairs / best_of(
            lambda: runtime.distances(commute), repeats
        )

        # Maintenance through the runtime: the flush must reach workers
        # as an in-place delta plus an epoch broadcast, not a republish.
        from repro.experiments.sharded import intra_region_update_batch

        graph = sharded.graph
        rid, batch = intra_region_update_batch(sharded, size=16)
        restore = [(u, v, graph.weight(u, v)) for u, v, _ in batch]
        runtime.apply_update(batch)
        index.update(batch)
        if not np.array_equal(
            index.distances(commute), runtime.distances(commute)
        ):
            raise AssertionError("worker pool stale after epoch broadcast")
        runtime.apply_update(restore)
        index.update(restore)
        scheduler = runtime.stats.as_dict()

        metrics = {
            "worker_uniform_qps": round(worker_uniform_qps, 1),
            "worker_cross_qps": round(worker_cross_qps, 1),
            "worker_pool_over_inprocess": round(
                worker_cross_qps / max(sharded_cross_qps, 1e-9), 3
            ),
            "worker_pool_over_inprocess_uniform": round(
                worker_uniform_qps / max(sharded_uniform_qps, 1e-9), 3
            ),
            "worker_republishes": scheduler["republishes"],
            "worker_delta_syncs": scheduler["delta_syncs"],
        }
        breakdown = {
            "workers": runtime.worker_count,
            "backend": runtime.backend,
            "scheduler": scheduler,
        }
        return metrics, breakdown
    finally:
        runtime.close()


def run_socket_quick(
    sharded, index: DHLIndex, commute, repeats: int, replicas: int = 2
) -> tuple[dict, dict]:
    """Socket-replica runtime measurements over the already-built shards.

    Returns ``(metrics, breakdown)``: cross-region batch throughput
    through the TCP replica pool (exact agreement with the monolithic
    index enforced), the per-batch replica fan-out latency (one framed
    round trip to every shard's chosen replica), the delta-broadcast
    evidence that a maintenance flush reaches replicas as inline
    protocol deltas, and a live failover drill — one replica of shard 0
    is hard-killed and the very next batch must still answer exactly,
    with the failover counted.
    """
    from repro.experiments.sharded import intra_region_update_batch
    from repro.service import SocketShardRuntime

    num_pairs = len(commute)
    fan_out_pairs = commute[:256]
    # Supervision clock = wall clock + a hand-advanced offset, so the
    # respawn drill can skip past the backoff window without sleeping.
    offset = [0.0]
    runtime = SocketShardRuntime(
        sharded, replicas=replicas, clock=lambda: time.monotonic() + offset[0]
    )
    try:
        expected = index.distances(commute)
        if not np.array_equal(expected, runtime.distances(commute)):
            raise AssertionError("socket pool disagrees with monolithic")

        socket_cross_qps = num_pairs / best_of(
            lambda: runtime.distances(commute), repeats
        )
        fan_out_seconds = best_of(
            lambda: runtime.distances(fan_out_pairs), repeats
        )

        # Maintenance: the flush must reach every replica as an inline
        # EpochDelta frame, not a whole-buffer republish.
        graph = sharded.graph
        rid, batch = intra_region_update_batch(sharded, size=16)
        restore = [(u, v, graph.weight(u, v)) for u, v, _ in batch]
        runtime.apply_update(batch)
        index.update(batch)
        if not np.array_equal(index.distances(commute), runtime.distances(commute)):
            raise AssertionError("socket pool stale after delta broadcast")
        runtime.apply_update(restore)
        index.update(restore)
        expected = index.distances(commute)

        # Failover drill: kill one replica of shard 0, next batch must
        # fail over and still answer exactly. The first post-kill batch
        # pays the discovery + retry cost — that is the recovery number.
        victim = runtime._groups[0][0]
        victim.process.terminate()
        victim.process.join(10)
        started = time.perf_counter()
        first = runtime.distances(commute)
        failover_recovery_ms = (time.perf_counter() - started) * 1000
        if not np.array_equal(expected, first):
            raise AssertionError("socket pool lost requests on failover")
        for _ in range(replicas - 1):  # round-robin past the corpse
            if not np.array_equal(expected, runtime.distances(commute)):
                raise AssertionError("socket pool lost requests on failover")
        scheduler = runtime.stats.as_dict()
        if scheduler["failovers"] < 1:
            raise AssertionError("replica kill never triggered a failover")

        # Respawn drill: one forced supervision poll marks the dead
        # slot down and arms its backoff; advancing the clock offset
        # past the ceiling lets the next poll respawn it — downtime is
        # the supervisor's: first seen dead until the replacement
        # handshook, on the offset clock (so it includes the skipped
        # backoff window).
        runtime.supervisor.poll(force=True)
        offset[0] += runtime.supervisor.policy.max_delay
        summary = runtime.supervisor.poll(force=True)
        if summary.get("respawned", 0) < 1:
            raise AssertionError(
                f"supervision poll never respawned the killed replica: "
                f"{summary}"
            )
        respawn_downtime_ms = max(runtime.supervisor.recovery_ms)
        if not np.array_equal(expected, runtime.distances(commute)):
            raise AssertionError("respawned replica answered wrongly")
        scheduler = runtime.stats.as_dict()

        metrics = {
            "socket_cross_qps": round(socket_cross_qps, 1),
            "socket_fanout_ms": round(fan_out_seconds * 1000, 3),
            "socket_failovers": scheduler["failovers"],
            "socket_resyncs": scheduler["resyncs"],
            "socket_respawns": scheduler["respawns"],
            "socket_delta_syncs": scheduler["delta_syncs"],
            "socket_republishes": scheduler["republishes"],
            "failover_recovery_ms": round(failover_recovery_ms, 3),
            "respawn_downtime_ms": round(respawn_downtime_ms, 3),
        }
        breakdown = {
            "replicas": replicas,
            "backend": runtime.backend,
            "fanout_batch_pairs": len(fan_out_pairs),
            "scheduler": scheduler,
        }
        return metrics, breakdown
    finally:
        runtime.close()


def run_async_quick(index, pairs, repeats: int, burst: int = 256) -> dict:
    """Async-frontend measurements: micro-batch folding + admission.

    The acceptance number is ``async_microbatch_over_serial``: the same
    ``burst`` of single-pair awaits issued concurrently (one gather —
    the dispatcher folds everything that queues while a batch executes)
    versus awaited one by one (serial — every pair pays a full executor
    round trip). The shed probe runs the burst against a frontend with
    a tiny queue depth and reports how many requests admission control
    refused — the bounded-backlog evidence, next to the counters the
    metrics registry exports.
    """
    import asyncio

    from repro.service import AsyncDistanceService, DistanceService
    from repro.exceptions import ServiceOverloadError

    singles = [pairs[i % len(pairs)] for i in range(burst)]

    async def serial(service) -> None:
        async with AsyncDistanceService(service) as frontend:
            for s, t in singles:
                await frontend.distance(s, t)

    async def concurrent(service):
        async with AsyncDistanceService(service) as frontend:
            await asyncio.gather(
                *(frontend.distance(s, t) for s, t in singles)
            )
            return frontend.stats

    async def shed_burst(service) -> int:
        async with AsyncDistanceService(service, max_queue_depth=16) as frontend:
            results = await asyncio.gather(
                *(frontend.distance(s, t) for s, t in singles),
                return_exceptions=True,
            )
        return sum(isinstance(r, ServiceOverloadError) for r in results)

    with DistanceService(index, cache_capacity=1) as service:
        serial_seconds = best_of(
            lambda: asyncio.run(serial(service)), max(3, repeats // 3)
        )
        stats = None

        def run_concurrent():
            nonlocal stats
            stats = asyncio.run(concurrent(service))

        concurrent_seconds = best_of(run_concurrent, max(3, repeats // 3))
        shed = asyncio.run(shed_burst(service))

    return {
        "async_serial_qps": round(burst / serial_seconds, 1),
        "async_concurrent_qps": round(burst / concurrent_seconds, 1),
        "async_microbatch_over_serial": round(
            serial_seconds / max(concurrent_seconds, 1e-9), 3
        ),
        "async_merge_ratio": round(stats.merge_ratio, 3),
        "async_batches_per_burst": stats.batches,
        "async_shed_count": shed,
    }


def run_observability_quick(index, pairs, repeats: int) -> dict:
    """Observability overhead: the instrumented hot path, null vs live.

    Replays the same uncached query batches through two services over
    the same index — one with the default null observability stack, one
    with metrics enabled (tracing off: the scrape configuration) — and
    reports the wall-clock ratio. ``check_service_regression.py`` gates
    the ratio: the null-object design only holds its zero-overhead
    promise if an enabled registry stays within single-digit percent of
    the disabled path on identical work.
    """
    from repro.service import DistanceService, Observability

    chunk = 512
    batches = [pairs[i : i + chunk] for i in range(0, len(pairs), chunk)]

    def measure(observability) -> float:
        service = DistanceService(
            index, cache_capacity=1, observability=observability
        )

        def once():
            for batch in batches:
                service.distances(batch)

        once()  # warm caches / lazy views
        best = best_of(once, repeats)
        service.close()
        return best

    disabled = measure(None)
    enabled = measure(Observability.enabled())
    return {
        "obs_disabled_replay_seconds": round(disabled, 4),
        "obs_enabled_replay_seconds": round(enabled, 4),
        "observability_overhead_ratio": round(enabled / max(disabled, 1e-9), 3),
    }


def run_structural_quick(graph, repeats: int, batch_size: int = 128) -> dict:
    """Structural-batch measurements: delete/restore throughput, the
    insert fast-path speedup, and compaction latency.

    * ``structural_batch_pairs_per_s``: ops/second through a
      state-invariant delete-then-restore roundtrip (each deletion is an
      inf-weight increase, each restore a decrease back), so best-of-N
      loops are honest.
    * ``insert_fastpath_ratio``: one comparable-endpoint link insertion
      (a single construction event — the latency a serving flush pays)
      timed on a default index (frontier-kernel fast path) and on one
      built with ``insert_closure_limit=0`` (every insertion forced
      onto the fallback-rebuild tier); the ratio is fallback/fast — the
      CI gate requires the fast path to be at least 5x faster. Each
      timing runs on a freshly built index (same seed, same hierarchy)
      because insertions mutate state; a larger 4-link batch then
      cross-checks that both tiers answer identically.
    * ``compaction_ms``: one compaction pass over the dead slots the
      deletion batch left behind.
    """
    probe = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    n = graph.num_vertices
    hq = probe.hq

    # Comparable non-adjacent endpoint pairs: the fast-path eligible set.
    candidates = []
    seen = set()
    for a in range(n):
        if len(candidates) >= 4:
            break
        for b in range(a + 1, n):
            if (
                (a, b) not in seen
                and hq.comparable(a, b)
                and not graph.has_edge(a, b)
            ):
                seen.add((a, b))
                candidates.append((a, b))
                break
    if not candidates:
        raise AssertionError(
            "no comparable non-adjacent pairs on the quick dataset — "
            "cannot measure the insert fast path"
        )
    # Realistic link weights: slightly better than the existing route,
    # not a teleporter that rewrites half the labelling.
    inserts = [
        (a, b, float(max(1.0, round(probe.distance(a, b) * 0.95))))
        for a, b in candidates
    ]

    def insertion_leg(config, batch, rounds) -> tuple[float, DHLIndex]:
        best = math.inf
        index = None
        for _ in range(rounds):
            index = DHLIndex.build(graph.copy(), config)
            start = time.perf_counter()
            index.apply_batch(insertions=batch)
            best = min(best, time.perf_counter() - start)
        return best, index

    rounds = max(3, repeats)
    rebuild_cfg = DHLConfig(seed=0, insert_closure_limit=0)
    # The gated ratio is the per-event latency: one construction event.
    fast_seconds, _ = insertion_leg(DHLConfig(seed=0), inserts[:1], rounds)
    rebuild_seconds, _ = insertion_leg(rebuild_cfg, inserts[:1], rounds)
    # Tier parity on the larger batch: both must answer identically.
    _, fast_index = insertion_leg(DHLConfig(seed=0), inserts, 1)
    _, rebuild_index = insertion_leg(rebuild_cfg, inserts, 1)
    if not fast_index.structural_counters.get("fastpath_inserts"):
        raise AssertionError("fast-path leg fell back to a rebuild")
    if not rebuild_index.structural_counters.get("fallback_rebuilds"):
        raise AssertionError("rebuild leg unexpectedly took the fast path")
    # Both legs must answer identically after the same insertions.
    check_rng = np.random.default_rng(5)
    for s, t in check_rng.integers(0, n, size=(32, 2)):
        a = fast_index.distance(int(s), int(t))
        b = rebuild_index.distance(int(s), int(t))
        if not (a == b or (math.isinf(a) and math.isinf(b))):
            raise AssertionError(
                f"fast-path and rebuild legs disagree at ({s}, {t})"
            )

    # Delete/restore roundtrip throughput on the probe index.
    edges = [(u, v, w) for u, v, w in graph.edges() if math.isfinite(w)]
    rng = np.random.default_rng(11)
    picked = rng.choice(
        len(edges), size=min(batch_size, len(edges) // 2), replace=False
    )
    deletions = [(edges[i][0], edges[i][1]) for i in picked]
    restores = [edges[i] for i in picked]
    ops_per_roundtrip = 2 * len(deletions)

    def roundtrip():
        probe.apply_batch(deletions=deletions)
        probe.apply_batch(insertions=restores)

    roundtrip()  # warm caches
    structural_pairs_per_s = ops_per_roundtrip / best_of(roundtrip, repeats)

    # Compaction latency over the dead slots one deletion batch leaves.
    probe.apply_batch(deletions=deletions)
    start = time.perf_counter()
    compaction = probe.compact()
    compact_seconds = time.perf_counter() - start
    probe.apply_batch(insertions=restores)

    return {
        "structural_batch_pairs_per_s": round(structural_pairs_per_s, 1),
        "insert_fastpath_ms": round(fast_seconds * 1000, 3),
        "insert_rebuild_ms": round(rebuild_seconds * 1000, 3),
        "insert_fastpath_ratio": round(
            rebuild_seconds / max(fast_seconds, 1e-9), 3
        ),
        "compaction_ms": round(compact_seconds * 1000, 3),
        "compaction_slots_reclaimed": compaction.dead_slots_reclaimed,
    }


def run_quick(
    dataset: str = "FLA",
    num_pairs: int = 20_000,
    repeats: int = 9,
) -> dict:
    """Measure kernel and replay throughput; returns the JSON payload."""
    from repro.datasets.synthetic import load_dataset
    from repro.experiments.workloads import random_query_pairs
    from repro.service import DistanceService, replay, zipf_hotspot_traffic

    graph = load_dataset(dataset)
    index = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    pairs = random_query_pairs(graph.num_vertices, num_pairs, seed=1)
    arr = np.asarray(pairs, dtype=np.int64)
    s, t = arr[:, 0].copy(), arr[:, 1].copy()
    engine = index.engine

    # Scalar loop on a subset (it is orders of magnitude slower).
    loop_pairs = pairs[: max(1, num_pairs // 10)]
    distance = engine.distance

    def per_pair():
        for pair in loop_pairs:
            distance(*pair)

    matrix = padded_matrix(index)
    reference = padded_kernel(index, matrix, s, t)
    current = engine._batch_kernel(s, t, want_hubs=False)[0]
    if not np.array_equal(reference, current):
        raise AssertionError("zero-copy kernel disagrees with padded reference")

    per_pair_qps = len(loop_pairs) / best_of(per_pair, max(3, repeats // 3))
    padded_qps = num_pairs / best_of(
        lambda: padded_kernel(index, matrix, s, t), repeats
    )
    zero_copy_qps = num_pairs / best_of(
        lambda: engine._batch_kernel(s, t, want_hubs=False), repeats
    )

    service = DistanceService(index, cache_capacity=65_536)
    events = zipf_hotspot_traffic(
        index.graph, query_batches=20, batch_size=200, seed=1
    )
    replay_start = time.perf_counter()
    report = replay(service, events)
    replay_qps = report.queries / (time.perf_counter() - replay_start)

    update_metrics, phase_breakdown = run_update_quick(graph, max(3, repeats // 3))

    structural_metrics = run_structural_quick(graph, max(3, repeats // 3))

    obs_metrics = run_observability_quick(index, pairs, repeats)

    async_metrics = run_async_quick(index, pairs, repeats)

    sharded_metrics, sharded_breakdown = run_sharded_quick(
        graph, index, num_pairs, repeats
    )

    return {
        "meta": {
            "dataset": dataset,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "pairs": num_pairs,
            "height": index.hq.height,
            "python": platform.python_version(),
            # The worker-pool gate is interpreted against this: a
            # single-core runner cannot show a parallel win.
            "cpu_count": os.cpu_count() or 1,
            "mode": "quick",
        },
        "metrics": {
            "per_pair_qps": round(per_pair_qps, 1),
            "padded_qps": round(padded_qps, 1),
            "zero_copy_qps": round(zero_copy_qps, 1),
            "zero_copy_over_padded": round(zero_copy_qps / padded_qps, 3),
            "zero_copy_over_per_pair": round(zero_copy_qps / per_pair_qps, 3),
            "replay_qps": round(replay_qps, 1),
            "cache_hit_rate": round(report.service.cache.hit_rate, 4),
            **update_metrics,
            **structural_metrics,
            **obs_metrics,
            **async_metrics,
            **sharded_metrics,
        },
        "sharded": sharded_breakdown,
        "phases": phase_breakdown,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run the CI quick profile"
    )
    parser.add_argument("--dataset", default="FLA")
    parser.add_argument("--pairs", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_service.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--shard-breakdown-out", type=Path, default=None,
        help="also write the per-shard build-time breakdown to this path "
        "(uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--phase-breakdown-out", type=Path, default=None,
        help="also write the per-kernel-phase flush-time breakdown to "
        "this path (uploaded as a CI artifact)",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error(
            "run under pytest for the full protocol, or pass --quick "
            "for the standalone CI profile"
        )
    payload = run_quick(args.dataset, args.pairs, args.repeats)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.shard_breakdown_out is not None:
        args.shard_breakdown_out.write_text(
            json.dumps(payload["sharded"], indent=2) + "\n"
        )
    if args.phase_breakdown_out is not None:
        args.phase_breakdown_out.write_text(
            json.dumps(payload["phases"], indent=2) + "\n"
        )
    print(json.dumps(payload["metrics"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
