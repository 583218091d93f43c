"""Failover edge cases the happy-path suites do not reach.

Each test stages a precise race deterministically — processes are
killed *without* telling the parent, round-robin position is burned to
a known offset, epochs are skewed by hand — so the recovery path under
test is the only one that can answer:

* a replica that dies while an ``EpochDelta`` broadcast is in flight is
  noticed by the broadcast itself, and the surviving sibling still
  syncs;
* a failover retry that lands on a *stale* sibling resolves through the
  ``StaleReply`` → republish → retry path, stacking both counters in
  one request;
* losing the last replica mid-batch, or a label sync that reaches no
  replica, opens the shard's breaker and sheds what needed it as a
  typed :class:`PartialResultError`;
* an epoch skew no resync can heal — a replica *ahead* of the parent,
  or one still refusing after the resync — is a typed
  :class:`WorkerEpochError`, never a silently stale answer.

The races that cross the transport seam run on both transports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PartialResultError, WorkerEpochError
from repro.graph.generators import delaunay_network
from repro.service import CircuitBreaker, SocketShardRuntime
from tests.conftest import FakeClock, build_sharded, kill, shard_pairs


@pytest.fixture(scope="module")
def edge_stack():
    graph = delaunay_network(130, seed=35, style="city", edge_factor=1.35)
    return graph, build_sharded(graph)


def silent_kill(handle):
    kill(handle)
    assert handle.alive  # the parent must discover it on its own


def make_runtime(sharded, transport=SocketShardRuntime, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("supervise_interval", 1000.0)
    return transport(sharded, **kwargs)


def test_failover_races_inflight_epoch_delta(transport, edge_stack):
    """The delta broadcast is the first to touch a silently-dead
    replica: the send fails, the handle is marked dead, and the
    surviving sibling still receives the sync — later queries agree
    with the authoritative parent."""
    graph, sharded = edge_stack
    pairs = shard_pairs(sharded, 0, 5)
    with make_runtime(sharded, transport, replicas=2) as runtime:
        runtime.distances(pairs)  # burns the construction-time poll
        victim = runtime._groups[0][0]
        silent_kill(victim)
        # Current weights: the stack is shared, each run must move one.
        u, v, w = next(
            (u, v, w)
            for u, v, w in sharded.graph.edges()
            if sharded.region_of[u] == 0 and sharded.region_of[v] == 0
        )
        before_syncs = runtime.stats.delta_syncs + runtime.stats.republishes
        runtime.apply_update([(u, v, float(max(1, round(2 * w))))])
        assert not victim.alive  # the broadcast noticed the death
        assert runtime.stats.delta_syncs + runtime.stats.republishes > before_syncs
        for _ in range(2):  # both round-robin positions post-update
            np.testing.assert_array_equal(
                runtime.distances(pairs), sharded.distances(pairs)
            )


def test_failover_retry_lands_on_stale_replica_and_resyncs(transport, edge_stack):
    """One request that needs *both* recovery paths: the round-robin
    pick is a dead replica (failover), and the retry sibling holds a
    stale epoch (StaleReply -> republish -> retry)."""
    graph, sharded = edge_stack
    pairs = shard_pairs(sharded, 0, 5)
    expected = sharded.distances(pairs)
    with make_runtime(sharded, transport, replicas=2) as runtime:
        # Burn the round-robin counter to an even position so the next
        # pick for shard 0 is replica slot 0 — the one we kill.
        runtime.distances(pairs)
        runtime.distances(pairs)
        victim = runtime._groups[0][0]
        silent_kill(victim)
        runtime._epochs[0] += 1  # every replica of shard 0 is now behind
        before_f = runtime.stats.failovers
        before_r = runtime.stats.resyncs
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert runtime.stats.failovers > before_f
        assert runtime.stats.resyncs > before_r


def test_mid_batch_last_replica_loss_is_shed(edge_stack):
    _, sharded = edge_stack
    pairs = shard_pairs(sharded, 0, 5)
    with make_runtime(sharded, replicas=1) as runtime:
        runtime.distances(pairs)  # burns the construction-time poll
        for sid in range(sharded.k):
            silent_kill(runtime._groups[sid][0])
        before = runtime.stats.failovers
        with pytest.raises(PartialResultError, match="breaker open") as info:
            runtime.distances(pairs)
        # The loss was discovered mid-batch: a real request failed first,
        # then the exhausted pick tripped the breaker and shed the pairs.
        assert runtime.stats.failovers > before
        assert info.value.open_shards == (0,)
        assert info.value.shed.tolist() == list(range(len(pairs)))
        assert np.isnan(info.value.distances).all()
        assert runtime._breakers[0].state == CircuitBreaker.OPEN


def test_a_sync_that_reaches_no_replica_trips_the_breaker(transport, edge_stack):
    """Shard 0's only replica died unnoticed: the label sync finds no
    replica to take it, opens the breaker instead of raising, and the
    next batch sheds the shard while shard 1 answers."""
    _, sharded = edge_stack
    lost, live = shard_pairs(sharded, 0, 3), shard_pairs(sharded, 1, 3)
    with make_runtime(sharded, transport, replicas=1) as runtime:
        runtime.distances(lost + live)  # burns the construction-time poll
        silent_kill(runtime._groups[0][0])
        u, v, w = next(
            (u, v, w)
            for u, v, w in sharded.graph.edges()
            if sharded.region_of[u] == 0 and sharded.region_of[v] == 0
        )
        runtime.apply_update([(u, v, float(max(1, round(2 * w))))])
        assert runtime._breakers[0].state == CircuitBreaker.OPEN
        with pytest.raises(PartialResultError) as info:
            runtime.distances(lost + live)
        assert info.value.shed.tolist() == list(range(len(lost)))
        np.testing.assert_array_equal(
            info.value.distances[len(lost) :], sharded.distances(live)
        )


def test_unhealable_epoch_skew_is_worker_epoch_error(
    transport, edge_stack, monkeypatch
):
    """A replica *ahead* of the parent cannot be healed by shipping it
    the parent's state, and a behind replica whose resync did not take
    refuses the retry too: both are hard, typed errors."""
    _, sharded = edge_stack
    pairs = shard_pairs(sharded, 0, 5)
    with make_runtime(sharded, transport, replicas=1) as runtime:
        np.testing.assert_array_equal(
            runtime.distances(pairs), sharded.distances(pairs)
        )
        runtime._epochs[0] -= 1  # the replica holds a newer epoch
        with pytest.raises(WorkerEpochError, match="holds epoch 0 .* stamped -1$"):
            runtime.distances(pairs)
        assert runtime.stats.resyncs == 0

        runtime._epochs[0] += 2  # now it is behind...
        monkeypatch.setattr(runtime, "_resync_replica", lambda handle: None)
        with pytest.raises(WorkerEpochError, match="missed epoch broadcast"):
            runtime.distances(pairs)  # ...and the resync changes nothing
        assert runtime.stats.failovers == 0  # an epoch bug is not an outage
