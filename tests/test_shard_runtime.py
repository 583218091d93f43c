"""The shard runtime on both transports: parity, sync, failover, hygiene.

Every behavioural test runs twice — ``pipe`` (:class:`ShardWorkerRuntime`:
pipe frames, labels attached from shared memory) and ``tcp``
(:class:`SocketShardRuntime`: loopback TCP, labels shipped inline) —
because there is one runtime underneath and the transport seam is the
only thing allowed to differ. The load-bearing checks: answers equal
the in-process runtime's (and Dijkstra's) across interleaved update
batches synced as label *deltas* to the same long-lived processes; a
replica killed mid-replay loses zero requests; a replica behind the
parent heals and one ahead of it is a typed error; a refused batch
leaves no reply in flight, wedged shards share one deadline and no
thread is ever started; ``close()`` leaves no process and no
``/dev/shm`` segment behind, even when construction fails halfway or a
replica was respawned in between.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import selectors
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.service.workers as workers_mod
from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import (
    PartialResultError,
    ServiceRuntimeError,
    ShardUnavailableError,
    VertexNotFound,
    WorkerEpochError,
)
from repro.graph.generators import delaunay_network, grid_network
from repro.labelling.query import QueryEngine
from repro.observability import NULL_OBSERVABILITY, Observability
from repro.service import (
    DistanceService,
    InProcessRuntime,
    ShardExecutor,
    ShardWorkerRuntime,
    commute_traffic,
    replay,
)
from repro.service.protocol import (
    ComputeBatch,
    SpecRequest,
    StaleReply,
    SubQuery,
)
from tests.conftest import (
    TRANSPORTS,
    FakeClock,
    build_sharded,
    kill,
    shard_pairs,
)
from tests.strategies import (
    assert_stream_parity,
    connected_graphs,
    pair_matrix,
    update_sequences,
)

@pytest.fixture(scope="module", params=list(TRANSPORTS))
def stack(request):
    """One road network served three ways: mono, sharded, 2 replicas per
    shard behind the transport under test."""
    graph = delaunay_network(240, seed=17, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph, k=4)
    runtime = TRANSPORTS[request.param](sharded, replicas=2)
    yield graph, mono, sharded, runtime
    runtime.close()


def sample_pairs_grid(n, step_s=7, step_t=5):
    return [(s, t) for s in range(0, n, step_s) for t in range(0, n, step_t)]


def intra_edges(graph, sharded):
    return [
        (u, v, w)
        for u, v, w in graph.edges()
        if sharded.region_of[u] == sharded.region_of[v]
    ]


# ---------------------------------------------------------------------------
# query parity
# ---------------------------------------------------------------------------

def test_matches_monolithic(stack):
    graph, mono, _, runtime = stack
    pairs = sample_pairs_grid(graph.num_vertices)
    np.testing.assert_array_equal(runtime.distances(pairs), mono.distances(pairs))
    # Single-pair path and self pairs agree too.
    assert runtime.distance(3, 3) == 0.0
    assert runtime.distance(0, graph.num_vertices - 1) == mono.distance(
        0, graph.num_vertices - 1
    )


def test_ids_outside_the_graph_raise_before_dispatch(stack):
    """A negative id must not wrap onto vertex n - 1, nor n index past
    the region table: both are typed errors and nothing is sent."""
    graph, _, _, runtime = stack
    n = graph.num_vertices
    sent = runtime.stats.sub_batches
    for bad in [(0, -1), (-2, 5), (0, n)]:
        with pytest.raises(VertexNotFound):
            runtime.distances([bad])
        with pytest.raises(VertexNotFound):
            runtime.distances(np.array([(1, 2), bad]))
        with pytest.raises(VertexNotFound):
            runtime.distance(*bad)
    assert runtime.stats.sub_batches == sent


def test_matches_in_process_runtime(stack):
    graph, _, sharded, runtime = stack
    pairs = sample_pairs_grid(graph.num_vertices, 11, 3)
    np.testing.assert_array_equal(
        runtime.distances(pairs), InProcessRuntime(sharded).distances(pairs)
    )


def test_reads_round_robin_across_replicas(stack):
    graph, mono, _, runtime = stack
    pairs = sample_pairs_grid(graph.num_vertices, 13, 11)
    for _ in range(4):  # cycles past every replica of every shard
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
    assert runtime.stats.failovers == 0


def test_single_shard_runtime_has_no_fans():
    graph = grid_network(6, 6)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    with ShardWorkerRuntime(build_sharded(graph, k=1)) as runtime:
        pairs = sample_pairs_grid(graph.num_vertices, 3, 2)
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        assert runtime.stats.cross_pairs == 0


@pytest.mark.parametrize("k", [2, 3])
def test_wide_boundary_grid_stream_parity(transport, k):
    """A 12-wide cut: fans and the overlay matrix are many columns wide,
    and every burst moves boundary labels under the replicas."""
    graph = grid_network(12, 12, seed=4)
    pooled, local = build_sharded(graph, k=k), build_sharded(graph, k=k)
    assert len(pooled.boundary_global) >= 12 * (k - 1)
    with transport(pooled) as pool:
        assert_stream_parity(
            [InProcessRuntime(local), pool], graph, local.region_of, seed=k
        )
        assert pool.stats.republishes == 0 and pool.stats.full_syncs == 0


def attached_executor(monkeypatch):
    """Shard 0 of a k = 2 grid, attached by a fresh executor at epoch 3;
    also returns the engines whose ancestor-chain store was built, in
    order."""
    sharded = ShardedDHLIndex.build(
        grid_network(8, 8, seed=1), k=2, config=DHLConfig(seed=0)
    )
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
    return sharded, executor, builds


def fan_batch_matches(sharded, executor) -> ComputeBatch:
    sources = np.array([5, 0, 5, 9], dtype=np.int64)
    batch = ComputeBatch(epoch=3, subs=[SubQuery(fan=sources)])
    (result,) = executor.compute(batch).results
    boundary = sharded.boundary_local[0]
    want = pair_matrix(sharded.shards[0].engine, sources, boundary)
    assert len(result.fan) == len(np.unique(sources))
    np.testing.assert_array_equal(result.fan[result.fan_inverse], want)
    return batch


def test_executor_warms_only_the_lca_tables(monkeypatch):
    """The C shard kernel reads the LCA tables: those are built at
    attach, not inside the first stamped batch, and the ancestor-chain
    store is never built at all — and a batch stamped with another
    epoch is refused untouched."""
    sharded, executor, builds = attached_executor(monkeypatch)
    engine = executor.index.engine
    assert engine._tables is not None
    batch = fan_batch_matches(sharded, executor)
    assert builds == [] and engine._hub_values is None
    stale = executor.compute(ComputeBatch(epoch=4, subs=batch.subs))
    assert isinstance(stale, StaleReply) and executor.served == 1


def test_runtime_rejects_monolithic_index(transport):
    index = DHLIndex.build(grid_network(3, 3), DHLConfig(seed=0))
    with pytest.raises(TypeError):
        transport(index)


def test_rejects_zero_replicas(stack):
    _, _, sharded, runtime = stack
    with pytest.raises(ValueError, match="replicas"):
        type(runtime)(sharded, replicas=0)


# ---------------------------------------------------------------------------
# update broadcast + epoch consistency
# ---------------------------------------------------------------------------

def test_update_cycles_ride_the_delta_path(transport):
    """>= 3 flush cycles on the *same* replica processes: every replica
    of every shard stays exact (reads round-robin over them, so a missed
    delta would show within a few batches) and nothing but changed label
    slots is ever published."""
    graph = delaunay_network(200, seed=3, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph, k=4)
    pairs = sample_pairs_grid(graph.num_vertices)
    edges = intra_edges(graph, sharded)
    values_bytes = sum(
        sharded.shard_buffers(sid)[0].nbytes for sid in range(sharded.k)
    )
    with DistanceService(
        transport(sharded, replicas=2), cache_capacity=1
    ) as service:
        runtime = service.runtime
        processes = [h.process for group in runtime._groups for h in group]
        np.testing.assert_array_equal(service.distances(pairs), mono.distances(pairs))
        for cycle in range(3):
            u, v, w = edges[cycle * 5]
            new = float(max(1, round(w * (cycle + 2))))
            service.submit(u, v, new)
            mono.update([(u, v, new)])
            for _ in range(2):  # hit both replicas of each shard
                np.testing.assert_array_equal(
                    service.distances(pairs), mono.distances(pairs)
                )
        stats = runtime.stats
        assert stats.delta_syncs >= 3 and stats.failovers == 0
        assert stats.republishes == 0 and stats.full_syncs == 0
        # Deltas stayed deltas: far less traffic than one full publish
        # per flush would have cost.
        assert 0 < stats.delta_bytes < values_bytes
        assert processes == [h.process for group in runtime._groups for h in group]
        assert all(process.is_alive() for process in processes)


def test_direct_index_update_forces_full_sync(stack):
    graph, mono, sharded, runtime = stack
    u, v, w = intra_edges(graph, sharded)[0]
    before = runtime.stats.full_syncs
    sharded.update([(u, v, 3.0 * w)])  # bypasses the runtime entirely
    mono.update([(u, v, 3.0 * w)])
    try:
        pairs = sample_pairs_grid(graph.num_vertices, 13, 7)
        for _ in range(2):  # both replicas of every shard were re-synced
            np.testing.assert_array_equal(
                runtime.distances(pairs), mono.distances(pairs)
            )
        assert runtime.stats.full_syncs > before
    finally:
        runtime.apply_update([(u, v, w)])
        mono.update([(u, v, w)])


def test_behind_replica_resyncs_and_recovers(stack):
    """A replica that missed an epoch broadcast refuses the batch; the
    runtime brings it to the shard's current buffers and retries — the
    query succeeds and ``resyncs`` counts the heal."""
    graph, mono, _, runtime = stack
    before = runtime.stats.resyncs
    runtime._epochs[0] += 1  # fabricate a missed broadcast for shard 0
    vertices = runtime.index.shard_vertices[0]
    pairs = [(int(vertices[0]), int(vertices[-1]))]
    for _ in range(2):  # each replica of shard 0 heals on its first read
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
    assert runtime.stats.resyncs == before + 2
    # The replicas now genuinely hold the bumped epoch; keep it.


def test_replica_ahead_of_parent_is_a_typed_error(stack):
    """Only a *behind* replica can be healed by shipping it the parent's
    state; one holding a newer epoch than the parent stamps is a
    bookkeeping bug and must surface, not be papered over."""
    _, _, _, runtime = stack
    before = runtime.stats.resyncs
    runtime._epochs[0] -= 1
    try:
        vertices = runtime.index.shard_vertices[0]
        with pytest.raises(WorkerEpochError, match="holds epoch") as info:
            runtime.distances([(int(vertices[0]), int(vertices[-1]))])
        assert "missed epoch broadcast" not in str(info.value)
        assert runtime.stats.resyncs == before
    finally:
        runtime._epochs[0] += 1


# ---------------------------------------------------------------------------
# failover (a replica kill loses zero requests) + degraded serving
# ---------------------------------------------------------------------------

def test_replica_kill_mid_replay_loses_nothing(transport):
    """Kill one replica of every shard between batches of a replay; all
    subsequent requests fail over to the sibling and every answer still
    matches Dijkstra — zero lost or wrong requests."""
    graph = delaunay_network(150, seed=27, style="city", edge_factor=1.35)
    sharded = build_sharded(graph, k=2)
    ref = np.stack([dijkstra(graph, s) for s in range(graph.num_vertices)])
    pairs = sample_pairs_grid(graph.num_vertices, 5, 9)
    expected = np.array([ref[s][t] for s, t in pairs])
    with transport(sharded, replicas=2) as runtime:
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        for sid in range(sharded.k):  # simulates host loss
            kill(runtime._groups[sid][0])
        for _ in range(3):
            np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert runtime.stats.failovers >= 1
        # The dead replicas were marked and excluded, not retried forever.
        assert all(len(runtime.alive_replicas(sid)) == 1 for sid in range(sharded.k))


def test_last_replica_loss_sheds_or_hard_fails(transport):
    graph = delaunay_network(120, seed=29)
    sharded = build_sharded(graph, k=2)
    with transport(sharded, replicas=1) as runtime:
        pairs = sample_pairs_grid(graph.num_vertices, 9, 7)
        runtime.distances(pairs)
        for sid in range(sharded.k):
            kill(runtime._groups[sid][0])
        with pytest.raises(PartialResultError, match="replica") as info:
            runtime.distances(pairs)
        assert info.value.open_shards == (0, 1)
        runtime.degraded_mode = "error"
        with pytest.raises(ShardUnavailableError, match="breaker open"):
            runtime.distances(pairs)


# ---------------------------------------------------------------------------
# the exchange: one thread, one deadline a round, no reply left in flight
# ---------------------------------------------------------------------------

def test_epoch_refusal_leaves_no_reply_in_flight(stack):
    """Shard 0 refuses its sub-batch (its replicas hold a newer epoch)
    while shard 1 still computes a large one. Shard 1's reply must not
    stay unread on a live channel, where a later batch would take it
    for its own, and no handle may keep its lock."""
    _, _, sharded, runtime = stack
    vertices = sharded.shard_vertices
    heavy = [(int(s), int(t)) for s in vertices[1] for t in vertices[1]] * 4
    pairs = [(int(vertices[0][0]), int(vertices[0][-1]))] + heavy
    # Spend a due supervision poll first: its health check would resync
    # the skewed replicas instead of letting the batch be refused.
    runtime.distances(pairs[:1])
    runtime._epochs[0] -= 1
    try:
        with pytest.raises(WorkerEpochError, match="holds epoch"):
            runtime.distances(pairs)
        assert not any(
            handle._lock.locked() for group in runtime._groups for handle in group
        )
    finally:
        runtime._epochs[0] += 1
    graph = sharded.graph
    sources = sorted({s for s, _ in pairs})
    rows = {s: dijkstra(graph, s) for s in sources}
    expected = np.array([rows[s][t] for s, t in pairs])
    for _ in range(2):  # both replicas of every shard
        np.testing.assert_array_equal(runtime.distances(pairs), expected)


def test_wedged_shards_share_one_deadline(transport):
    """Both shards' only replicas stopped (SIGSTOP: alive, silent): the
    batch's health probes wait out one deadline together, not one per
    shard, and the batch is shed within 1.5 x ``request_timeout``."""
    timeout = 0.5
    sharded = build_sharded(delaunay_network(120, seed=29), k=2)
    pairs = shard_pairs(sharded, 0, 3) + shard_pairs(sharded, 1, 3)
    with transport(
        sharded, replicas=1, request_timeout=timeout, degraded_mode="shed",
        clock=FakeClock(), supervise_interval=0.0,  # a poll every batch
    ) as runtime:
        np.testing.assert_array_equal(
            runtime.distances(pairs), sharded.distances(pairs)
        )
        pids = [group[0].process.pid for group in runtime._groups]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            start = time.perf_counter()
            with pytest.raises(PartialResultError) as info:
                runtime.distances(pairs)
            elapsed = time.perf_counter() - start
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)
        assert info.value.open_shards == (0, 1)
        assert elapsed < 1.5 * timeout, elapsed


def test_a_round_polls_once_and_reads_without_another_poll(stack, monkeypatch):
    """Every round builds one ``select.poll`` object and reads a reply
    as soon as it saw it arrive: no ``Connection.poll`` per receive and
    no selector per wait, on a batch and on a flush alike."""
    graph, mono, sharded, runtime = stack
    rounds, polls = [], []
    exchange, poll = runtime._exchange, workers_mod.select.poll

    def counted_exchange(*args, **kwargs):
        rounds.append(1)
        return exchange(*args, **kwargs)

    def counted_poll():
        polls.append(1)
        return poll()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a second poll in a round")

    pairs = sample_pairs_grid(graph.num_vertices, 9, 7)
    u, v, w = intra_edges(graph, sharded)[3]
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_exchange", counted_exchange)
        patch.setattr(workers_mod.select, "poll", counted_poll)
        patch.setattr(workers_mod.select, "select", forbidden)
        patch.setattr(multiprocessing.connection.Connection, "poll", forbidden)
        patch.setattr(selectors.PollSelector, "register", forbidden)
        answered = runtime.distances(pairs)
        runtime.apply_update([(u, v, 2 * w)])
        after = runtime.distances(pairs)
        runtime.apply_update([(u, v, w)])
    assert len(polls) == len(rounds) >= 4
    mono_after = DHLIndex.build(mono.graph.copy(), DHLConfig(seed=0))
    mono_after.update([(u, v, 2 * w)])
    np.testing.assert_array_equal(answered, mono.distances(pairs))
    np.testing.assert_array_equal(after, mono_after.distances(pairs))


def test_runtime_starts_no_thread(transport):
    """Replicas are talked to from the calling thread only: no thread
    appears at construction, a batch, a flush or close."""
    graph = delaunay_network(120, seed=5)
    sharded = build_sharded(graph, k=2)
    u, v, w = intra_edges(graph, sharded)[0]
    before = threading.active_count()
    with DistanceService(
        transport(sharded, replicas=2), cache_capacity=1
    ) as service:
        assert threading.active_count() == before
        service.distances(sample_pairs_grid(graph.num_vertices, 7, 5))
        assert threading.active_count() == before
        service.submit(u, v, 2.0 * w)
        service.flush()
        assert service.runtime.stats.delta_syncs == 1
        assert threading.active_count() == before
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# teardown hygiene
# ---------------------------------------------------------------------------

def segment_names(runtime):
    """Names of the shared-memory segments a runtime owns (none on tcp)."""
    return [
        segment.shm.name
        for buffers in runtime._buffers
        for segment in getattr(buffers, "segments", ())
    ]


def assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_reaps_replicas_and_releases_buffers(transport):
    graph = delaunay_network(120, seed=5)
    runtime = transport(build_sharded(graph, k=2), replicas=2)
    names = segment_names(runtime)
    # One values + offsets pair per *shard*, however many replicas attach.
    assert len(names) == (4 if transport is ShardWorkerRuntime else 0)
    processes = [h.process for group in runtime._groups for h in group]
    assert len(processes) == 4
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
    kill(runtime._groups[0][0])
    runtime.close()
    assert_unlinked(names)


def test_partial_startup_unlinks_created_segments(monkeypatch):
    """A failure while bringing up replica N must not leak the segments
    (or processes) of the shards and replicas that already came up."""
    created: list[str] = []

    class TrackedSegment(workers_mod._Segment):
        def __init__(self, array, dtype):
            super().__init__(array, dtype)
            created.append(self.shm.name)

    original_payload = ShardedDHLIndex.shard_worker_payload

    def failing_payload(self, sid):
        if sid == 1:
            raise RuntimeError("injected startup failure")
        return original_payload(self, sid)

    monkeypatch.setattr(workers_mod, "_Segment", TrackedSegment)
    monkeypatch.setattr(ShardedDHLIndex, "shard_worker_payload", failing_payload)
    graph = delaunay_network(120, seed=7)
    with pytest.raises(RuntimeError, match="injected startup failure"):
        ShardWorkerRuntime(build_sharded(graph, k=2))
    assert len(created) == 4  # both shards had published before the failure
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


def test_respawned_shm_replica_attaches_current_segments():
    """The respawn handshake names the shard's *current* segment pair at
    the *current* epoch: the fresh replica answers an update it never
    saw as a delta, and a later layout-changing republish (fresh
    segments for old and new incarnation alike) strands nothing."""
    graph = delaunay_network(140, seed=9, style="city", edge_factor=1.35)
    sharded = build_sharded(graph, k=2)
    pairs = sample_pairs_grid(graph.num_vertices, 3, 4)
    clock = [0.0]
    with ShardWorkerRuntime(
        sharded, replicas=2, clock=lambda: clock[0], supervise_interval=1e9
    ) as runtime:
        first = segment_names(runtime)
        u, v, w = next(
            edge
            for edge in intra_edges(graph, sharded)
            if sharded.region_of[edge[0]] == 0
        )
        kill(runtime._groups[0][0])
        runtime.apply_update([(u, v, 4.0 * w)])  # only the sibling hears it
        runtime.supervisor.poll(force=True)  # arms the dead slot's backoff
        clock[0] += runtime.supervisor.policy.max_delay
        assert runtime.supervisor.poll(force=True)["respawned"] == 1
        fresh = runtime._groups[0][0]
        assert fresh.incarnation == 1 and segment_names(runtime) == first
        for _ in range(2):  # round-robin reaches the fresh incarnation
            np.testing.assert_array_equal(
                runtime.distances(pairs), sharded.distances(pairs)
            )
        assert runtime.stats.resyncs == 0 and runtime.stats.failovers == 0

        # Move shard 0's label layout (a trailing inf entry no query
        # reads): the next flush cannot splice and must republish.
        labels = sharded.shards[0].labels
        labels.extend_label(0, int(labels.lengths[0]) + 1)
        runtime.apply_update([(u, v, w)])
        assert runtime.stats.republishes == 1
        second = segment_names(runtime)
        assert set(second[:2]).isdisjoint(first) and second[2:] == first[2:]
        assert_unlinked(first[:2])
        for _ in range(2):
            np.testing.assert_array_equal(
                runtime.distances(pairs), sharded.distances(pairs)
            )
    assert_unlinked(first + second)


# ---------------------------------------------------------------------------
# trace stitching across the replica channel
# ---------------------------------------------------------------------------

def traced_service(runtime):
    """Full-rate tracing, cache off so every query reaches the replicas."""
    return DistanceService(
        runtime,
        cache_capacity=1,
        observability=Observability.enabled(trace_sample_rate=1.0),
    )


def cross_shard_pair(runtime, offset=0):
    vertices = runtime.index.shard_vertices
    return int(vertices[0][offset]), int(vertices[1][offset])


def test_worker_spans_stitched_into_parent_trace(stack):
    _, _, _, runtime = stack
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
        assert workers  # cross-shard pairs fan out to shard replicas
        for worker_span in workers:
            assert worker_span.seconds > 0.0
            # The subtree under worker[sid] was measured in the replica
            # *process* and shipped back over the channel.
            compute = next(
                child
                for child in worker_span.children
                if child.name == "shard_compute"
            )
            assert compute.children  # the shard kernel's span
        text = trace.format()
        assert "shard_compute" in text and "min_plus_combine" in text
    finally:
        runtime.observability = NULL_OBSERVABILITY


def test_trace_survives_worker_epoch_refusal(stack):
    _, _, _, runtime = stack
    service = traced_service(runtime)
    try:
        s, t = cross_shard_pair(runtime)
        runtime._epochs[0] -= 1  # shard 0's replicas are ahead: no heal
        try:
            with pytest.raises(WorkerEpochError, match="holds epoch"):
                service.distances([(s, t)])
        finally:
            runtime._epochs[0] += 1
        # The refused request still produced a finished trace with the
        # round-trip span of the replica that refused.
        refused = service.last_trace()
        assert refused is not None and refused.name == "distances"
        assert "worker[0]" in refused.format()
        # The pool recovers and keeps stitching afterwards.
        service.distances([(s, t)])
        assert "shard_compute" in service.last_trace().format()
    finally:
        runtime.observability = NULL_OBSERVABILITY


def test_trace_stitching_survives_republish(transport):
    """A republished label buffer (re-attached segments or fresh inline
    copies, engine rebound) must not break span shipping on the same
    channel."""
    graph = delaunay_network(140, seed=11)
    runtime = transport(build_sharded(graph, k=2), replicas=1)
    with traced_service(runtime) as service:
        service.distances([cross_shard_pair(runtime)])
        runtime._epochs[0] += 1
        runtime._resync_replica(runtime._groups[0][0])
        # A fresh pair (the cache canonicalises symmetric pairs) so the
        # query crosses the rebound buffers.
        pair = cross_shard_pair(runtime, offset=1)
        after = service.distances([pair])
        np.testing.assert_array_equal(after, runtime.index.distances([pair]))
        text = service.last_trace().format()
        assert "worker[0]" in text and "shard_compute" in text


def test_untraced_requests_ship_no_spans(stack):
    """With the default null stack the compute message asks for no
    trace and the reply carries none (the pre-observability protocol)."""
    _, _, _, runtime = stack
    service = DistanceService(runtime, cache_capacity=1)
    service.distances([cross_shard_pair(runtime)])
    assert service.last_trace() is None


# ---------------------------------------------------------------------------
# service integration + backend reporting
# ---------------------------------------------------------------------------

def test_service_replay_matches_in_process(transport):
    graph = delaunay_network(240, seed=17, style="city", edge_factor=1.35)
    sharded = build_sharded(graph, k=4)
    events = commute_traffic(
        graph,
        sharded.region_of,
        boundary=sharded.partition.boundary,
        query_batches=5,
        batch_size=50,
        seed=9,
    )
    in_process_report = replay(DistanceService(sharded), list(events))
    with DistanceService(transport(sharded, replicas=1)) as service:
        pooled_report = replay(service, list(events))
    assert round(pooled_report.distance_checksum, 6) == round(
        in_process_report.distance_checksum, 6
    )


def test_stats_report_backend_kind(stack):
    graph, mono, sharded, runtime = stack
    assert DistanceService(mono).stats().backend == "in-process/monolithic"
    assert DistanceService(sharded).stats().backend == "in-process/sharded"
    service = DistanceService(runtime, cache_capacity=16)
    pairs = sample_pairs_grid(graph.num_vertices, 17, 13)
    np.testing.assert_array_equal(service.distances(pairs), mono.distances(pairs))
    stats = service.stats()
    assert stats.backend == f"{runtime.kind}/sharded[4x2 replicas]"
    assert stats.backend in stats.summary()


# ---------------------------------------------------------------------------
# property soak: replicas == Dijkstra under interleaved updates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(data=connected_graphs(min_n=6, max_n=14).flatmap(
    lambda g: update_sequences(g, max_steps=3, max_batch=3).map(lambda s: (g, s))
))
def test_soak_vs_dijkstra(transport, data, k):
    graph, sequence = data
    sharded = build_sharded(graph, k=k)
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    with DistanceService(
        transport(sharded, replicas=2), cache_capacity=256
    ) as service:
        for batch in sequence:
            service.submit_many(batch)
            out = service.distances(pairs)
            ref = np.stack(
                [dijkstra(service.index.graph, s) for s in range(n)]
            )
            np.testing.assert_array_equal(out, ref.reshape(-1))
        assert service.runtime.stats.republishes == 0
