"""The multiprocess serving runtime: shared buffers, scheduling, hygiene.

The load-bearing checks: the worker-pool runtime must answer exactly
what the in-process runtime (and Dijkstra) answers, across interleaved
update batches synced to workers as shared-memory *deltas* — the same
long-lived processes, no re-pickle, no whole-buffer copies — and
``close()`` must leave no worker process and no ``/dev/shm`` segment
behind, even when construction fails halfway.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import ServiceRuntimeError, WorkerEpochError
from repro.graph.generators import delaunay_network, grid_network
from repro.observability import NULL_OBSERVABILITY, Observability
from repro.labelling.query import QueryEngine
from repro.service.protocol import (
    ComputeBatch,
    FanQuery,
    SpecRequest,
    StaleReply,
    SubQuery,
)
from repro.service.runtime import InProcessRuntime
from repro.service.service import DistanceService
from repro.service.workers import ShardExecutor, ShardWorkerRuntime
from repro.service.workload import commute_traffic, replay
from tests.strategies import (
    assert_stream_parity,
    connected_graphs,
    pair_matrix,
    update_sequences,
)


def build_sharded(graph, k=4):
    return ShardedDHLIndex.build(
        graph.copy(), k=k, config=DHLConfig(seed=0), build_workers=1
    )


@pytest.fixture(scope="module")
def worker_stack():
    """One road network served three ways: mono, sharded, worker pool."""
    graph = delaunay_network(240, seed=17, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph)
    runtime = ShardWorkerRuntime(sharded)
    yield graph, mono, sharded, runtime
    runtime.close()


def sample_pairs_grid(n, step_s=7, step_t=5):
    return [(s, t) for s in range(0, n, step_s) for t in range(0, n, step_t)]


# ---------------------------------------------------------------------------
# query parity
# ---------------------------------------------------------------------------

def test_worker_pool_matches_monolithic(worker_stack):
    graph, mono, _, runtime = worker_stack
    pairs = sample_pairs_grid(graph.num_vertices)
    np.testing.assert_array_equal(runtime.distances(pairs), mono.distances(pairs))
    # Single-pair path, self pairs, and the service wrapper agree too.
    assert runtime.distance(3, 3) == 0.0
    assert runtime.distance(0, graph.num_vertices - 1) == mono.distance(
        0, graph.num_vertices - 1
    )


def test_worker_pool_matches_in_process_runtime(worker_stack):
    graph, _, sharded, runtime = worker_stack
    pairs = sample_pairs_grid(graph.num_vertices, 11, 3)
    in_process = InProcessRuntime(sharded)
    np.testing.assert_array_equal(
        runtime.distances(pairs), in_process.distances(pairs)
    )


def test_single_shard_runtime_has_no_fans():
    graph = grid_network(6, 6)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph, k=1)
    with ShardWorkerRuntime(sharded) as runtime:
        pairs = sample_pairs_grid(graph.num_vertices, 3, 2)
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        assert runtime.stats.cross_pairs == 0


@pytest.mark.parametrize("k", [2, 3])
def test_wide_boundary_grid_stream_parity(k):
    """A 12-wide cut: fans and the overlay matrix are many columns wide,
    and every burst moves boundary labels under the workers."""
    graph = grid_network(12, 12, seed=4)
    pooled, local = build_sharded(graph, k=k), build_sharded(graph, k=k)
    assert len(pooled.boundary_global) >= 12 * (k - 1)
    with ShardWorkerRuntime(pooled) as pool:
        assert_stream_parity(
            [InProcessRuntime(local), pool], graph, local.region_of, seed=k
        )
        assert pool.stats.republishes == 0 and pool.stats.full_syncs == 0


def test_executor_builds_the_chain_store_at_attach(monkeypatch):
    """The ancestor-chain store every fan reads is built while the
    executor binds its buffers, not inside the first stamped batch —
    and a batch stamped with another epoch is still refused untouched."""
    sharded = build_sharded(grid_network(8, 8, seed=1), k=2)
    builds = []
    original = QueryEngine.hub_store

    def counting(self):
        if self._hub_values is None:
            builds.append(self)
        return original(self)

    monkeypatch.setattr(QueryEngine, "hub_store", counting)
    executor = ShardExecutor()
    values, offsets = sharded.shard_buffers(0)
    executor.setup(
        SpecRequest(payload=sharded.shard_worker_payload(0), epoch=3),
        values,
        offsets,
    )
    assert builds == [executor.index.engine]
    sources = np.array([5, 0, 5, 9], dtype=np.int64)
    batch = ComputeBatch(epoch=3, subs=[SubQuery(fan_src=FanQuery(sources))])
    (result,) = executor.compute(batch).results
    assert len(builds) == 1
    boundary = sharded.boundary_local[0]
    want = pair_matrix(sharded.shards[0].engine, sources, boundary)
    np.testing.assert_array_equal(result.ds[result.ds_inverse], want)
    stale = executor.compute(ComputeBatch(epoch=4, subs=batch.subs))
    assert isinstance(stale, StaleReply) and executor.served == 1


def test_runtime_rejects_monolithic_index():
    graph = grid_network(3, 3)
    index = DHLIndex.build(graph, DHLConfig(seed=0))
    with pytest.raises(TypeError):
        ShardWorkerRuntime(index)


# ---------------------------------------------------------------------------
# the shared-buffer lifecycle (acceptance satellite)
# ---------------------------------------------------------------------------

def test_buffer_lifecycle_delta_republish_parity():
    """export → attach in spawned workers → parity → maintenance +
    delta re-publish → parity, for >= 3 flush cycles on the *same*
    worker processes with no whole-buffer republish."""
    graph = delaunay_network(200, seed=3, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph)
    pairs = sample_pairs_grid(graph.num_vertices)
    edges = [
        (u, v, w)
        for u, v, w in graph.edges()
        if sharded.region_of[u] == sharded.region_of[v]
    ]
    with DistanceService(ShardWorkerRuntime(sharded)) as service:
        runtime = service.runtime
        pids = [handle.process.pid for handle in runtime._workers]
        values_bytes = sum(
            handle.values_seg.array.nbytes for handle in runtime._workers
        )
        np.testing.assert_array_equal(service.distances(pairs), mono.distances(pairs))
        for cycle in range(3):
            u, v, w = edges[cycle * 5]
            new = float(max(1, round(w * (cycle + 2))))
            service.submit(u, v, new)
            mono.update([(u, v, new)])
            np.testing.assert_array_equal(
                service.distances(pairs), mono.distances(pairs)
            )
        stats = runtime.stats
        assert stats.delta_syncs >= 3
        assert stats.republishes == 0 and stats.full_syncs == 0
        # Deltas stayed deltas: far less traffic than one full publish
        # per flush would have cost.
        assert 0 < stats.delta_bytes < values_bytes
        assert [h.process.pid for h in runtime._workers] == pids
        assert all(h.process.is_alive() for h in runtime._workers)


def test_direct_index_update_forces_full_sync(worker_stack):
    graph, mono, sharded, runtime = worker_stack
    u, v, w = next(
        (u, v, w)
        for u, v, w in graph.edges()
        if sharded.region_of[u] == sharded.region_of[v]
    )
    before = runtime.stats.full_syncs
    sharded.update([(u, v, 3.0 * w)])  # bypasses the runtime entirely
    mono.update([(u, v, 3.0 * w)])
    try:
        pairs = sample_pairs_grid(graph.num_vertices, 13, 7)
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        assert runtime.stats.full_syncs > before
    finally:
        runtime.apply_update([(u, v, w)])
        mono.update([(u, v, w)])


def test_worker_refuses_newer_epoch(worker_stack):
    graph, _, _, runtime = worker_stack
    # Fabricate a missed broadcast: the parent believes shard 0 should
    # hold a newer epoch than was ever shipped to it.
    runtime._epochs[0] += 1
    try:
        vertices = runtime.index.shard_vertices[0]
        s, t = int(vertices[0]), int(vertices[-1])
        with pytest.raises(WorkerEpochError, match="missed epoch broadcast"):
            runtime.distances([(s, t)])
    finally:
        runtime._epochs[0] -= 1


# ---------------------------------------------------------------------------
# teardown hygiene
# ---------------------------------------------------------------------------

def segment_names(runtime):
    return [
        segment.shm.name
        for handle in runtime._workers
        for segment in handle.segments
    ]


def assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_joins_workers_and_unlinks_segments():
    graph = delaunay_network(120, seed=5)
    runtime = ShardWorkerRuntime(build_sharded(graph, k=2))
    names = segment_names(runtime)
    assert len(names) == 4  # values + offsets per shard
    processes = [handle.process for handle in runtime._workers]
    runtime.close()
    runtime.close()  # idempotent
    assert all(not p.is_alive() for p in processes)
    assert_unlinked(names)
    with pytest.raises(ServiceRuntimeError):
        runtime.distances([(0, 1)])


def test_close_survives_dead_worker():
    graph = delaunay_network(120, seed=6)
    runtime = ShardWorkerRuntime(build_sharded(graph, k=2))
    names = segment_names(runtime)
    runtime._workers[0].process.terminate()
    runtime._workers[0].process.join(5)
    runtime.close()
    assert_unlinked(names)


def test_partial_startup_unlinks_created_segments(monkeypatch):
    """A failure while bringing up worker N must not leak the segments
    (or processes) of workers 0..N that already started."""
    import repro.core.sharded as sharded_mod
    import repro.service.workers as workers_mod

    created: list[str] = []
    original_publish = workers_mod._publish_array

    def tracking_publish(array, dtype):
        segment = original_publish(array, dtype)
        created.append(segment.shm.name)
        return segment

    original_payload = sharded_mod.ShardedDHLIndex.shard_worker_payload

    def failing_payload(self, sid):
        if sid == 1:
            raise RuntimeError("injected startup failure")
        return original_payload(self, sid)

    monkeypatch.setattr(workers_mod, "_publish_array", tracking_publish)
    monkeypatch.setattr(
        sharded_mod.ShardedDHLIndex, "shard_worker_payload", failing_payload
    )
    graph = delaunay_network(120, seed=7)
    with pytest.raises(RuntimeError, match="injected startup failure"):
        ShardWorkerRuntime(build_sharded(graph, k=2))
    assert created  # the tracker saw segments being published
    assert_unlinked(created)


def test_service_context_manager_closes_on_exception():
    graph = delaunay_network(120, seed=8)
    runtime = ShardWorkerRuntime(build_sharded(graph, k=2))
    names = segment_names(runtime)
    with pytest.raises(ValueError, match="boom"):
        with DistanceService(runtime) as service:
            service.distance(0, 1)
            raise ValueError("boom")
    assert_unlinked(names)


# ---------------------------------------------------------------------------
# trace stitching across worker pipes
# ---------------------------------------------------------------------------

def traced_service(runtime):
    """Full-rate tracing, cache off so every query reaches the workers."""
    return DistanceService(
        runtime,
        cache_capacity=1,
        observability=Observability.enabled(trace_sample_rate=1.0),
    )


def cross_shard_pair(runtime):
    vertices = runtime.index.shard_vertices
    return int(vertices[0][0]), int(vertices[1][0])


def test_worker_spans_stitched_into_parent_trace(worker_stack):
    graph, _, _, runtime = worker_stack
    service = traced_service(runtime)
    try:
        s, t = cross_shard_pair(runtime)
        service.distances([(s, t), (t, s)])
        trace = service.last_trace()
        assert trace.name == "distances"
        runtime_span = next(
            child for child in trace.children if child.name == "runtime"
        )
        workers = [
            child
            for child in runtime_span.children
            if child.name.startswith("worker[")
        ]
        assert workers  # cross-shard pairs fan out to shard workers
        for worker_span in workers:
            assert worker_span.seconds > 0.0
            # The subtree under worker[sid] was measured in the worker
            # *process* and shipped back over the result pipe.
            compute = next(
                child
                for child in worker_span.children
                if child.name == "shard_compute"
            )
            assert compute.children  # per-sub-batch kernel spans
        text = trace.format()
        assert "shard_compute" in text and "min_plus_combine" in text
    finally:
        runtime.observability = NULL_OBSERVABILITY


def test_trace_survives_worker_epoch_refusal(worker_stack):
    graph, _, _, runtime = worker_stack
    service = traced_service(runtime)
    try:
        s, t = cross_shard_pair(runtime)
        runtime._epochs[0] += 1
        try:
            with pytest.raises(WorkerEpochError, match="missed epoch broadcast"):
                service.distances([(s, t)])
        finally:
            runtime._epochs[0] -= 1
        # The refused request still produced a finished trace with the
        # round-trip span of the worker that refused.
        refused = service.last_trace()
        assert refused is not None and refused.name == "distances"
        assert "worker[0]" in refused.format()
        # The pool recovers and keeps stitching afterwards.
        service.distances([(s, t)])
        assert "shard_compute" in service.last_trace().format()
    finally:
        runtime.observability = NULL_OBSERVABILITY


def test_trace_stitching_survives_republish():
    """A republished label buffer (fresh segments, worker re-attach)
    must not break span shipping on the same pipe."""
    graph = delaunay_network(140, seed=11)
    runtime = ShardWorkerRuntime(build_sharded(graph, k=2))
    with traced_service(runtime) as service:
        s, t = cross_shard_pair(runtime)
        service.distances([(s, t)])
        handle = runtime._workers[0]
        labels = runtime.index.shards[0].labels
        runtime._epochs[0] += 1
        handle.republish(labels, runtime._epochs[0])
        # A fresh pair (the cache canonicalises symmetric pairs) so the
        # query crosses the re-attached segments.
        vertices = runtime.index.shard_vertices
        pair = (int(vertices[0][1]), int(vertices[1][1]))
        after = service.distances([pair])
        np.testing.assert_array_equal(after, runtime.index.distances([pair]))
        text = service.last_trace().format()
        assert "worker[0]" in text and "shard_compute" in text


def test_untraced_requests_ship_no_spans(worker_stack):
    """With the default null stack the compute message asks for no
    trace and the reply carries none (the pre-observability protocol)."""
    graph, _, _, runtime = worker_stack
    service = DistanceService(runtime, cache_capacity=1)
    s, t = cross_shard_pair(runtime)
    service.distances([(s, t)])
    assert service.last_trace() is None


# ---------------------------------------------------------------------------
# service integration + backend reporting
# ---------------------------------------------------------------------------

def test_service_replay_matches_in_process(worker_stack):
    graph, _, _, _ = worker_stack
    sharded = build_sharded(graph)
    events = commute_traffic(
        graph,
        sharded.region_of,
        boundary=sharded.partition.boundary,
        query_batches=5,
        batch_size=50,
        seed=9,
    )
    in_process_report = replay(DistanceService(sharded), list(events))
    with DistanceService(ShardWorkerRuntime(sharded)) as service:
        worker_report = replay(service, list(events))
    assert round(worker_report.distance_checksum, 6) == round(
        in_process_report.distance_checksum, 6
    )


def test_stats_report_backend_kind(worker_stack):
    graph, mono, sharded, runtime = worker_stack
    assert DistanceService(mono).stats().backend == "in-process/monolithic"
    assert DistanceService(sharded).stats().backend == "in-process/sharded"
    service = DistanceService(runtime)
    stats = service.stats()
    assert stats.backend == "worker-pool/sharded[4 workers]"
    assert "worker-pool/sharded[4 workers]" in stats.summary()
    # Worker-pool runtimes cannot certify per-pair staleness.
    downgraded = DistanceService(runtime, fine_grained_eviction=True)
    assert downgraded.fine_grained_eviction is False


# ---------------------------------------------------------------------------
# property soak: worker pool == Dijkstra under interleaved updates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=connected_graphs(min_n=6, max_n=14).flatmap(
    lambda g: update_sequences(g, max_steps=3, max_batch=3).map(lambda s: (g, s))
))
def test_worker_pool_soak_vs_dijkstra(data, k):
    graph, sequence = data
    sharded = build_sharded(graph, k=k)
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    with DistanceService(ShardWorkerRuntime(sharded), cache_capacity=256) as service:
        for batch in sequence:
            service.submit_many(batch)
            out = service.distances(pairs)
            ref = np.stack(
                [dijkstra(service.index.graph, s) for s in range(n)]
            )
            np.testing.assert_array_equal(out, ref.reshape(-1))
        assert service.runtime.stats.republishes == 0
