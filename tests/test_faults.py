"""Fault-tolerance primitives and the deterministic chaos harness.

Unit level: :class:`RetryPolicy` backoff determinism, the
:class:`CircuitBreaker` state machine, and :class:`FaultPlan` event
matching against a dummy handle (no processes involved).

Integration level, all through the production recovery paths with a
fake clock and a scripted :class:`FaultPlan` — no sleeps, no flaky
timing: a scripted kill fails over and the supervisor respawns the
replica; losing a shard's whole replica pool sheds that shard's pairs
as a typed :class:`PartialResultError` (or serves overlay bounds, or
hard-fails, per ``degraded_mode``) and the breaker reopens/closes
around the respawn; the service frontend re-aligns partial results
without poisoning its cache; the async frontend unfolds a degraded
merged batch so only the affected clients see the error. The drills
that cross the transport seam (kill, heartbeat death, request
deadline, channel loss, breaker shed and recovery) take the
``transport`` fixture and run on both transports; the scheduler- and
frontend-level ones run once.
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.exceptions import (
    PartialResultError,
    ProtocolTruncationError,
    ServiceRuntimeError,
    ShardUnavailableError,
)
from repro.graph.generators import delaunay_network
from repro.observability import NULL_OBSERVABILITY
from repro.service import (
    AsyncDistanceService,
    CircuitBreaker,
    DistanceService,
    FaultEvent,
    FaultPlan,
    InProcessRuntime,
    RetryPolicy,
    SocketShardRuntime,
    WorkerPoolStats,
)
from repro.service.async_frontend import _QueryItem
from repro.service.cache import pair_key
from repro.service.protocol import ComputeBatch, HealthCheck
from tests.conftest import FakeClock, build_sharded, kill, shard_pairs


@pytest.fixture(scope="module")
def small_sharded():
    graph = delaunay_network(120, seed=33, style="city", edge_factor=1.35)
    return graph, build_sharded(graph)


def cross_pairs(sharded, i, j, count=6):
    vi = [int(v) for v in sharded.shard_vertices[i]]
    vj = [int(v) for v in sharded.shard_vertices[j]]
    return [(vi[k], vj[k]) for k in range(count)]


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

def test_retry_policy_is_deterministic_and_capped():
    policy = RetryPolicy()
    delays = [policy.delay(a) for a in range(8)]
    assert delays == [policy.delay(a) for a in range(8)]  # reproducible
    for attempt, delay in enumerate(delays):
        raw = min(
            policy.base_delay * policy.multiplier**attempt, policy.max_delay
        )
        assert raw * (1.0 - policy.jitter) <= delay <= raw
    assert max(delays) <= policy.max_delay


def test_retry_policy_without_jitter_is_exact():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.4)
    assert policy.delay(10) == pytest.approx(1.0)


def test_retry_policy_seed_changes_jitter_only():
    a, b = RetryPolicy(seed=0), RetryPolicy(seed=1)
    assert a.delay(3) != b.delay(3)
    assert abs(a.delay(3) - b.delay(3)) < a.max_delay * a.jitter


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------

def test_breaker_state_machine_and_counters():
    stats = WorkerPoolStats()
    breaker = CircuitBreaker(0, stats)
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allows_requests

    breaker.trip()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allows_requests
    breaker.trip()  # idempotent: one transition counted
    assert stats.breaker_opens == 1
    assert stats.breakers_open == 1

    breaker.probation()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allows_requests

    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert stats.breaker_closes == 1
    assert stats.breakers_open == 0

    breaker.probation()  # only OPEN moves to HALF_OPEN
    assert breaker.state == CircuitBreaker.CLOSED


# ---------------------------------------------------------------------------
# FaultPlan (unit: dummy handle, no processes)
# ---------------------------------------------------------------------------

class DummyHandle:
    def __init__(self, sid=0, replica=0, incarnation=0):
        self.sid = sid
        self.replica = replica
        self.incarnation = incarnation
        self.requests = 0
        self.health_requests = 0


def test_fault_event_rejects_unknown_action():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultEvent(0, 0, 0, "explode")


def test_fault_plan_fires_once_at_the_scripted_request():
    plan = FaultPlan().drop(0, 0, at_request=2)
    handle = DummyHandle()
    batch = ComputeBatch(epoch=0, subs=[])
    plan.apply(handle, batch)  # request 0
    plan.apply(handle, batch)  # request 1
    assert not plan.fired
    with pytest.raises(ProtocolTruncationError, match="injected drop"):
        plan.apply(handle, batch)  # request 2 fires
    assert len(plan.fired) == 1 and plan.fired[0].action == "drop"
    assert plan.exhausted
    plan.apply(handle, batch)  # request 3: nothing left


def test_fault_plan_targets_one_incarnation_only():
    plan = FaultPlan().truncate(0, 0, at_request=0, incarnation=1)
    original = DummyHandle(incarnation=0)
    respawned = DummyHandle(incarnation=1)
    batch = ComputeBatch(epoch=0, subs=[])
    plan.apply(original, batch)  # wrong incarnation: passes
    with pytest.raises(ProtocolTruncationError, match="injected truncation"):
        plan.apply(respawned, batch)


def test_stall_health_counts_probes_only():
    plan = FaultPlan().stall_health(0, 0, at_request=1)
    handle = DummyHandle()
    batch = ComputeBatch(epoch=0, subs=[])
    probe = HealthCheck(nonce=7)
    plan.apply(handle, batch)  # compute traffic never matches
    plan.apply(handle, probe)  # health request 0
    plan.apply(handle, batch)
    with pytest.raises(TimeoutError, match="injected stall_health"):
        plan.apply(handle, probe)  # health request 1 fires
    assert handle.requests == 4
    assert handle.health_requests == 2


# ---------------------------------------------------------------------------
# scripted kill -> failover -> supervised respawn (fake clock, no sleeps)
# ---------------------------------------------------------------------------

def test_scripted_kill_fails_over_and_supervisor_respawns(
    transport, small_sharded
):
    graph, sharded = small_sharded
    pairs = shard_pairs(sharded, 0)
    expected = sharded.distances(pairs)
    clock = FakeClock()
    # Request 0 of (shard 0, replica 0) is its first health probe (the
    # construction-time poll); request 1 is the first compute batch.
    plan = FaultPlan().kill(0, 0, at_request=1)
    with transport(
        sharded,
        replicas=2,
        fault_plan=plan,
        clock=clock,
        supervise_interval=1000.0,
        retry_policy=RetryPolicy(base_delay=0.05, jitter=0.25, seed=0),
    ) as runtime:
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert plan.exhausted  # the scripted kill actually happened
        assert runtime.stats.failovers >= 1
        assert len(runtime.alive_replicas(0)) == 1

        # Backoff gate: a poll before the deadline does not respawn.
        summary = runtime.supervisor.poll(force=True)
        assert summary["respawned"] == 0
        clock.advance(1.0)
        summary = runtime.supervisor.poll(force=True)
        assert summary["respawned"] == 1
        assert runtime.stats.respawns == 1
        assert len(runtime.alive_replicas(0)) == 2
        fresh = runtime._groups[0][0]
        assert fresh.incarnation == 1
        assert len(runtime.supervisor.recovery_ms) == 1

        # The respawned incarnation serves correct answers.
        for _ in range(2):
            np.testing.assert_array_equal(runtime.distances(pairs), expected)


def test_supervisor_poll_is_rate_limited(small_sharded):
    _, sharded = small_sharded
    clock = FakeClock()
    with SocketShardRuntime(
        sharded, replicas=1, clock=clock, supervise_interval=5.0
    ) as runtime:
        assert "skipped" not in runtime.supervisor.poll()  # first is due
        assert runtime.supervisor.poll() == {"skipped": True}
        clock.advance(5.0)
        assert "skipped" not in runtime.supervisor.poll()
        assert "skipped" not in runtime.supervisor.poll(force=True)


def test_heartbeat_detects_silently_dead_replica(transport, small_sharded):
    """A replica whose process died without a request in flight is
    caught by the health probe, not by a client request — and its
    recorded downtime runs from that probe to the replacement's
    handshake on the supervision clock, not just the spawn."""
    _, sharded = small_sharded
    clock = FakeClock()
    with transport(
        sharded, replicas=2, clock=clock, supervise_interval=1000.0
    ) as runtime:
        victim = runtime._groups[0][1]
        kill(victim)
        assert victim.alive  # the parent has not noticed yet
        before = runtime.stats.heartbeat_timeouts
        summary = runtime.supervisor.poll(force=True)
        assert summary["timeouts"] == 1
        assert runtime.stats.heartbeat_timeouts == before + 1
        assert not victim.alive
        # And the slot comes back once the backoff elapses.
        clock.advance(3.0)
        assert runtime.supervisor.poll(force=True)["respawned"] == 1
        assert runtime.supervisor.recovery_ms == [3000.0]


def test_request_deadline_fails_over_then_sheds(transport, small_sharded):
    """A request that outlives ``request_timeout`` never blocks the
    caller: the scripted timeout fails over to the sibling, and when
    the sibling then really stalls (SIGSTOP — alive, silent) the
    deadline expires and the shard's pairs are shed."""
    _, sharded = small_sharded
    pairs = shard_pairs(sharded, 0)
    plan = FaultPlan().timeout(0, 0, at_request=1)
    with transport(
        sharded, replicas=2, request_timeout=0.5, fault_plan=plan,
        clock=FakeClock(), supervise_interval=1000.0,
    ) as runtime:
        np.testing.assert_array_equal(
            runtime.distances(pairs), sharded.distances(pairs)
        )
        assert plan.exhausted and runtime.stats.failovers == 1
        (survivor,) = runtime.alive_replicas(0)
        os.kill(survivor.process.pid, signal.SIGSTOP)
        try:
            with pytest.raises(PartialResultError) as info:
                runtime.distances(pairs)
        finally:
            os.kill(survivor.process.pid, signal.SIGCONT)
        assert info.value.open_shards == (0,) and not survivor.alive


def test_dead_replica_is_retired_by_its_channel_not_the_deadline(
    transport, small_sharded
):
    """A hard-killed replica's channel reports the loss (EOF / reset)
    at once, so failing over never waits out ``request_timeout``: the
    error that retired it is a channel error, never a timeout."""
    _, sharded = small_sharded
    pairs = shard_pairs(sharded, 0)
    expected = sharded.distances(pairs)
    with transport(
        sharded, replicas=2, request_timeout=2.0,
        clock=FakeClock(), supervise_interval=1000.0,
    ) as runtime:
        victim = runtime._groups[0][0]
        causes = []
        request = victim.request

        def spy(message):
            try:
                return request(message)
            except ServiceRuntimeError as exc:
                causes.append(exc.__cause__)
                raise

        victim.request = spy
        # The first batch spends the due supervision poll (a health
        # probe would otherwise find the corpse before a request does).
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        kill(victim)
        for _ in range(2):  # round-robin reaches the dead replica
            np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert runtime.stats.failovers == 1 and not victim.alive
        assert len(causes) == 1 and causes[0] is not None
        assert not isinstance(causes[0], TimeoutError), causes[0]


def test_respawn_gives_up_after_policy_attempts(small_sharded):
    _, sharded = small_sharded
    clock = FakeClock()
    policy = RetryPolicy(attempts=2, base_delay=0.01, jitter=0.0)
    with SocketShardRuntime(
        sharded, replicas=2, clock=clock, supervise_interval=1000.0,
        retry_policy=policy,
    ) as runtime:
        supervisor = runtime.supervisor
        victim = runtime._groups[1][0]
        victim.alive = False
        supervisor._attempts[(1, 0)] = policy.attempts  # exhausted already
        clock.advance(1.0)
        summary = supervisor.poll(force=True)
        assert summary["gave_up"] == 1
        assert summary["respawned"] == 0


# ---------------------------------------------------------------------------
# degraded serving: shed / overlay / error
# ---------------------------------------------------------------------------

def _kill_shard(runtime, sid):
    for handle in runtime._groups[sid]:
        kill(handle)


def test_breaker_open_sheds_with_partial_result(transport, small_sharded):
    graph, sharded = small_sharded
    dead = shard_pairs(sharded, 0, 4)
    live = shard_pairs(sharded, 1, 4)
    pairs = dead + live + [(dead[0][0], dead[0][0])]  # self-pair rides along
    expected_live = sharded.distances(live)
    with transport(
        sharded, replicas=1, clock=FakeClock(), supervise_interval=1000.0
    ) as runtime:
        _kill_shard(runtime, 0)
        with pytest.raises(PartialResultError) as info:
            runtime.distances(pairs)
        err = info.value
        assert err.open_shards == (0,)
        # Shed positions are exactly the dead shard's non-self pairs.
        assert sorted(int(i) for i in err.shed) == list(range(len(dead)))
        assert np.isnan(err.distances[: len(dead)]).all()
        np.testing.assert_array_equal(
            err.distances[len(dead) : len(dead) + len(live)], expected_live
        )
        assert err.distances[-1] == 0.0  # self-pair never shed
        assert runtime._breakers[0].state == CircuitBreaker.OPEN
        assert runtime._breakers[1].state == CircuitBreaker.CLOSED
        assert runtime.stats.shed_pairs == len(dead)
        assert runtime.stats.breaker_opens >= 1

        # While the breaker is open the shard is shed again without
        # touching the transport — and live traffic still answers.
        with pytest.raises(PartialResultError):
            runtime.distances(dead)
        np.testing.assert_array_equal(runtime.distances(live), expected_live)


def test_breaker_closes_after_respawn_and_first_success(
    transport, small_sharded
):
    graph, sharded = small_sharded
    pairs = shard_pairs(sharded, 0, 4)
    expected = sharded.distances(pairs)
    clock = FakeClock()
    with transport(
        sharded, replicas=1, clock=clock, supervise_interval=1000.0
    ) as runtime:
        _kill_shard(runtime, 0)
        with pytest.raises(PartialResultError):
            runtime.distances(pairs)
        assert runtime._breakers[0].state == CircuitBreaker.OPEN
        clock.advance(1.0)
        assert runtime.supervisor.poll(force=True)["respawned"] == 1
        assert runtime._breakers[0].state == CircuitBreaker.HALF_OPEN
        np.testing.assert_array_equal(runtime.distances(pairs), expected)
        assert runtime._breakers[0].state == CircuitBreaker.CLOSED
        assert runtime.stats.breaker_closes == 1
        assert runtime.stats.breakers_open == 0


def test_overlay_mode_serves_bounds_for_lost_shard(small_sharded):
    graph, sharded = small_sharded
    intra = shard_pairs(sharded, 0, 4)
    cross = cross_pairs(sharded, 0, 1, 4)
    exact_intra = sharded.distances(intra)
    exact_cross = sharded.distances(cross)
    with SocketShardRuntime(
        sharded, replicas=1, degraded_mode="overlay",
        clock=FakeClock(), supervise_interval=1000.0,
    ) as runtime:
        _kill_shard(runtime, 0)
        got_cross = runtime.distances(cross)
        # Cross-region routes all cross the boundary: overlay is exact.
        np.testing.assert_allclose(got_cross, exact_cross, rtol=1e-9)
        got_intra = runtime.distances(intra)
        # Intra answers are valid upper bounds (direct path missed).
        assert np.all(got_intra >= exact_intra - 1e-9)
        assert np.all(np.isfinite(got_intra))
        assert runtime.stats.degraded_pairs >= len(cross) + len(intra)
        assert runtime.stats.shed_pairs == 0


def test_error_mode_restores_hard_failure(small_sharded):
    _, sharded = small_sharded
    with SocketShardRuntime(
        sharded, replicas=1, degraded_mode="error"
    ) as runtime:
        _kill_shard(runtime, 0)
        with pytest.raises(ShardUnavailableError, match="shard 0"):
            runtime.distances(shard_pairs(sharded, 0, 2))


def test_unknown_degraded_mode_rejected(small_sharded):
    _, sharded = small_sharded
    with pytest.raises(ValueError, match="degraded_mode"):
        SocketShardRuntime(sharded, degraded_mode="panic")


# ---------------------------------------------------------------------------
# frontends: partial results re-align, never poison the cache
# ---------------------------------------------------------------------------

def test_service_realigns_partial_results_and_keeps_cache_clean(small_sharded):
    graph, sharded = small_sharded
    dead = shard_pairs(sharded, 0, 3)
    live = shard_pairs(sharded, 1, 3)
    expected_dead = sharded.distances(dead)
    expected_live = sharded.distances(live)
    clock = FakeClock()
    runtime = SocketShardRuntime(
        sharded, replicas=1, clock=clock, supervise_interval=1000.0
    )
    with DistanceService(runtime, cache_capacity=64) as service:
        _kill_shard(runtime, 0)
        mixed = [live[0], dead[0], live[1], dead[1]]
        with pytest.raises(PartialResultError) as info:
            service.distances(mixed)
        err = info.value
        assert [int(i) for i in err.shed] == [1, 3]  # caller positions
        assert err.open_shards == (0,)
        np.testing.assert_array_equal(
            err.distances[[0, 2]], [expected_live[0], expected_live[1]]
        )
        assert np.isnan(err.distances[[1, 3]]).all()
        stats = service.stats()
        assert stats.partial_batches == 1
        assert stats.shed_pairs == 2
        assert "partial batches" in stats.summary()

        # Served keys were cached; shed keys were not.
        np.testing.assert_array_equal(
            service.distances([live[0], live[1]]),
            [expected_live[0], expected_live[1]],
        )
        clock.advance(1.0)
        assert runtime.supervisor.poll(force=True)["respawned"] == 1
        # A nan cached during degradation would surface here.
        np.testing.assert_array_equal(service.distances(dead), expected_dead)


class SheddingRuntime(InProcessRuntime):
    """In-process answers, except that pairs touching a dead vertex are
    shed the way a pooled runtime sheds a breaker-open shard's pairs."""

    def __init__(self, index, dead):
        super().__init__(index)
        self.dead = set(dead)
        self.batches: list[np.ndarray] = []

    def _answer(self, pairs: np.ndarray) -> np.ndarray:
        out = self.index.distances(pairs)
        shed = np.flatnonzero(np.isin(pairs, list(self.dead)).any(axis=1))
        if len(shed):
            out[shed] = np.nan
            raise PartialResultError(out, shed, (7,))
        return out

    def distances(self, pairs):
        self.batches.append(pairs)
        return self._answer(pairs)

    def distance(self, s, t):
        return float(self._answer(np.array([[s, t]]))[0])


def test_array_path_realigns_shed_pairs_and_never_caches_them(small_sharded):
    _, sharded = small_sharded
    runtime = SheddingRuntime(sharded, dead={17})
    with DistanceService(runtime) as service:
        batch = np.array(
            [(3, 40), (17, 8), (40, 3), (5, 5), (8, 17), (3, 40), (21, 2)],
            dtype=np.int32,
        )
        with pytest.raises(PartialResultError) as info:
            service.distances(batch)
        err = info.value
        # Both orientations of the shed pair, at the caller's positions.
        assert err.shed.tolist() == [1, 4] and err.open_shards == (7,)
        assert np.isnan(err.distances[[1, 4]]).all() and err.distances[3] == 0.0
        served = [0, 2, 5, 6]
        np.testing.assert_array_equal(
            err.distances[served], sharded.distances(batch[served])
        )
        # One runtime call on the distinct, normalised misses — an array.
        (sent,) = runtime.batches
        assert isinstance(sent, np.ndarray) and sent.dtype == np.int64
        assert sent.tolist() == [[2, 21], [3, 40], [8, 17]]
        assert pair_key(3, 40) in service.cache and pair_key(2, 21) in service.cache
        assert pair_key(8, 17) not in service.cache
        stats = service.stats()
        assert (stats.partial_batches, stats.shed_pairs) == (1, 2)
        assert stats.cache.size == 2 and stats.cache.misses == 6

        # A one-pair batch takes the scalar probe: same error, same books.
        with pytest.raises(PartialResultError) as info:
            service.distances([(17, 30)])
        assert info.value.shed.tolist() == [0]
        assert pair_key(17, 30) not in service.cache
        stats = service.stats()
        assert (stats.partial_batches, stats.shed_pairs) == (2, 3)

        # Back up: only what was shed goes to the runtime again.
        runtime.dead.clear()
        np.testing.assert_array_equal(
            service.distances(batch), sharded.distances(batch)
        )
        assert runtime.batches[-1].tolist() == [[8, 17]]
        assert service.stats().cache.size == 3


def test_async_frontend_unfolds_partial_batches():
    class FakeBackendService:
        observability = NULL_OBSERVABILITY

        def distances(self, pairs):
            out = np.arange(len(pairs), dtype=np.float64)
            out[1] = np.nan
            raise PartialResultError(out, np.array([1]), {3})

    async def drive():
        frontend = AsyncDistanceService(FakeBackendService())
        loop = asyncio.get_running_loop()
        clean = _QueryItem(pairs=[(0, 1)], future=loop.create_future())
        degraded = _QueryItem(pairs=[(2, 3)], future=loop.create_future())
        frontend._pending_pairs = 2
        await frontend._execute_run(loop, [clean, degraded])
        assert list(await clean.future) == [0.0]
        with pytest.raises(PartialResultError) as info:
            await degraded.future
        err = info.value
        assert [int(i) for i in err.shed] == [0]  # re-based to the item
        assert np.isnan(err.distances[0])
        assert err.open_shards == (3,)
        assert frontend.stats.partial_requests == 1
        assert frontend.stats.answered_requests == 1
        frontend._executor.shutdown(wait=True)

    asyncio.run(drive())
