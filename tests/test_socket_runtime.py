"""The TCP replica runtime: parity, failover, resync, hygiene.

The load-bearing checks: the socket transport must answer exactly what
the in-process runtime (and Dijkstra) answers across interleaved update
batches synced as inline protocol deltas; killing a replica mid-replay
must lose zero requests (failover re-sends the full batch to a
sibling); a replica that missed an epoch broadcast must refuse, resync
via republish, and recover; and ``close()`` must reap every replica
process.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import ServiceRuntimeError
from repro.graph.generators import delaunay_network, grid_network
from repro.service.runtime import InProcessRuntime
from repro.service.service import DistanceService
from repro.service.socket_runtime import SocketShardRuntime
from repro.service.workers import ShardWorkerRuntime
from tests.strategies import (
    assert_stream_parity,
    connected_graphs,
    update_sequences,
)


def build_sharded(graph, k=4):
    return ShardedDHLIndex.build(
        graph.copy(), k=k, config=DHLConfig(seed=0), build_workers=1
    )


@pytest.fixture(scope="module")
def socket_stack():
    """One road network served three ways: mono, sharded, socket pool."""
    graph = delaunay_network(200, seed=21, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph)
    runtime = SocketShardRuntime(sharded, replicas=2)
    yield graph, mono, sharded, runtime
    runtime.close()


def sample_pairs_grid(n, step_s=7, step_t=5):
    return [(s, t) for s in range(0, n, step_s) for t in range(0, n, step_t)]


# ---------------------------------------------------------------------------
# query parity
# ---------------------------------------------------------------------------

def test_socket_runtime_matches_monolithic(socket_stack):
    graph, mono, _, runtime = socket_stack
    pairs = sample_pairs_grid(graph.num_vertices)
    np.testing.assert_array_equal(runtime.distances(pairs), mono.distances(pairs))
    assert runtime.distance(3, 3) == 0.0
    assert runtime.distance(0, graph.num_vertices - 1) == mono.distance(
        0, graph.num_vertices - 1
    )


def test_socket_runtime_matches_in_process_runtime(socket_stack):
    graph, _, sharded, runtime = socket_stack
    pairs = sample_pairs_grid(graph.num_vertices, 11, 3)
    in_process = InProcessRuntime(sharded)
    np.testing.assert_array_equal(
        runtime.distances(pairs), in_process.distances(pairs)
    )


@pytest.mark.parametrize("k", [2, 3])
def test_wide_boundary_grid_stream_parity_across_runtimes(k):
    """In-process, pipe workers and socket replicas replay one stream
    over a 12-wide cut and must return bit-identical arrays."""
    graph = grid_network(12, 12, seed=4)
    local, pooled, remote = (build_sharded(graph, k=k) for _ in range(3))
    with (
        ShardWorkerRuntime(pooled) as pool,
        SocketShardRuntime(remote, replicas=2) as sockets,
    ):
        assert_stream_parity(
            [InProcessRuntime(local), pool, sockets], graph, local.region_of, seed=k
        )


def test_reads_round_robin_across_replicas(socket_stack):
    graph, mono, _, runtime = socket_stack
    pairs = sample_pairs_grid(graph.num_vertices, 13, 11)
    for _ in range(4):  # cycles past every replica of every shard
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
    assert runtime.stats.failovers == 0


def test_runtime_rejects_monolithic_index():
    graph = grid_network(3, 3)
    index = DHLIndex.build(graph, DHLConfig(seed=0))
    with pytest.raises(TypeError):
        SocketShardRuntime(index)


def test_rejects_zero_replicas(socket_stack):
    _, _, sharded, _ = socket_stack
    with pytest.raises(ValueError, match="replicas"):
        SocketShardRuntime(sharded, replicas=0)


# ---------------------------------------------------------------------------
# update broadcast + consistency
# ---------------------------------------------------------------------------

def test_interleaved_updates_keep_replica_parity():
    """Deltas broadcast inline to every replica; queries round-robin
    over them afterwards, so a missed splice would show up as a wrong
    distance on some replica within a few batches."""
    graph = delaunay_network(160, seed=23, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph)
    pairs = sample_pairs_grid(graph.num_vertices)
    edges = [
        (u, v, w)
        for u, v, w in graph.edges()
        if sharded.region_of[u] == sharded.region_of[v]
    ]
    with SocketShardRuntime(sharded, replicas=2) as runtime:
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        for cycle in range(3):
            u, v, w = edges[cycle * 5]
            new = float(max(1, round(w * (cycle + 2))))
            runtime.apply_update([(u, v, new)])
            mono.update([(u, v, new)])
            for _ in range(2):  # hit both replicas of each shard
                np.testing.assert_array_equal(
                    runtime.distances(pairs), mono.distances(pairs)
                )
        stats = runtime.stats
        assert stats.delta_syncs >= 3
        assert stats.failovers == 0
        assert 0 < stats.delta_bytes


def test_stale_replica_resyncs_and_recovers(socket_stack):
    """A replica that missed an epoch broadcast refuses the batch; the
    runtime republishes the authoritative buffers and retries — the
    query succeeds and ``resyncs`` counts the heal."""
    graph, mono, _, runtime = socket_stack
    before = runtime.stats.resyncs
    runtime._epochs[0] += 1  # fabricate a missed broadcast for shard 0
    try:
        vertices = runtime.index.shard_vertices[0]
        pairs = [(int(vertices[0]), int(vertices[-1]))]
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        assert runtime.stats.resyncs > before
    finally:
        # Replicas now genuinely hold the bumped epoch; keep it.
        pass


def test_direct_index_update_forces_full_sync():
    graph = delaunay_network(140, seed=25, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = build_sharded(graph, k=2)
    u, v, w = next(
        (u, v, w)
        for u, v, w in graph.edges()
        if sharded.region_of[u] == sharded.region_of[v]
    )
    with SocketShardRuntime(sharded, replicas=2) as runtime:
        before = runtime.stats.full_syncs
        sharded.update([(u, v, 3.0 * w)])  # bypasses the runtime entirely
        mono.update([(u, v, 3.0 * w)])
        pairs = sample_pairs_grid(graph.num_vertices, 13, 7)
        np.testing.assert_array_equal(
            runtime.distances(pairs), mono.distances(pairs)
        )
        assert runtime.stats.full_syncs > before


# ---------------------------------------------------------------------------
# failover (acceptance criterion: replica kill loses zero requests)
# ---------------------------------------------------------------------------

def test_replica_kill_mid_replay_loses_nothing():
    """Kill one replica of every shard between batches of a replay; all
    subsequent requests fail over to the sibling and every answer still
    matches Dijkstra — zero lost or wrong requests."""
    graph = delaunay_network(150, seed=27, style="city", edge_factor=1.35)
    sharded = build_sharded(graph)
    ref = np.stack([dijkstra(graph, s) for s in range(graph.num_vertices)])
    pairs = sample_pairs_grid(graph.num_vertices, 5, 9)
    expected = np.array([ref[s][t] for s, t in pairs])
    with SocketShardRuntime(sharded, replicas=2) as runtime:
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        # Hard-kill replica 0 of every shard (simulates host loss).
        for sid in range(sharded.k):
            victim = runtime._groups[sid][0]
            victim.process.terminate()
            victim.process.join(5)
        for _ in range(3):
            np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert runtime.stats.failovers >= 1
        # The dead replicas were marked and excluded, not retried forever.
        assert all(len(runtime.alive_replicas(sid)) == 1 for sid in range(sharded.k))


def test_last_replica_loss_is_a_hard_error():
    graph = delaunay_network(120, seed=29)
    sharded = build_sharded(graph, k=2)
    with SocketShardRuntime(sharded, replicas=1) as runtime:
        pairs = sample_pairs_grid(graph.num_vertices, 9, 7)
        runtime.distances(pairs)
        for sid in range(sharded.k):
            victim = runtime._groups[sid][0]
            victim.process.terminate()
            victim.process.join(5)
        with pytest.raises(ServiceRuntimeError, match="replica"):
            runtime.distances(pairs)


# ---------------------------------------------------------------------------
# teardown hygiene + service integration
# ---------------------------------------------------------------------------

def test_close_reaps_every_replica():
    graph = delaunay_network(120, seed=31)
    runtime = SocketShardRuntime(build_sharded(graph, k=2), replicas=2)
    processes = [h.process for group in runtime._groups for h in group]
    assert len(processes) == 4
    runtime.close()
    runtime.close()  # idempotent
    assert all(not p.is_alive() for p in processes)
    with pytest.raises(ServiceRuntimeError):
        runtime.distances([(0, 1)])


def test_service_over_socket_runtime(socket_stack):
    graph, mono, _, runtime = socket_stack
    service = DistanceService(runtime, cache_capacity=16)
    pairs = sample_pairs_grid(graph.num_vertices, 17, 13)
    np.testing.assert_array_equal(service.distances(pairs), mono.distances(pairs))
    stats = service.stats()
    assert stats.backend == "socket-pool/sharded[4x2 replicas]"
    # Socket runtimes cannot certify per-pair staleness.
    downgraded = DistanceService(runtime, fine_grained_eviction=True)
    assert downgraded.fine_grained_eviction is False


# ---------------------------------------------------------------------------
# property soak: socket pool == Dijkstra under interleaved updates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=connected_graphs(min_n=6, max_n=12).flatmap(
    lambda g: update_sequences(g, max_steps=2, max_batch=3).map(lambda s: (g, s))
))
def test_socket_pool_soak_vs_dijkstra(data, k):
    graph, sequence = data
    sharded = build_sharded(graph, k=k)
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    with DistanceService(
        SocketShardRuntime(sharded, replicas=2), cache_capacity=256
    ) as service:
        for batch in sequence:
            service.submit_many(batch)
            out = service.distances(pairs)
            ref = np.stack(
                [dijkstra(service.index.graph, s) for s in range(n)]
            )
            np.testing.assert_array_equal(out, ref.reshape(-1))
