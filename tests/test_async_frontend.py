"""The asyncio micro-batching frontend: folding, shedding, ordering.

The frontend's contract: concurrent ``await``-style calls fold into
few scheduler batches (the whole point — per-call dispatch would pay a
full runtime round trip per pair), every admitted request is answered
with exactly what the synchronous service would say, requests past the
queue-depth limit are shed with
:class:`~repro.exceptions.ServiceOverloadError` rather than queued, and
updates stay strictly ordered with the queries around them. A bad
vertex id fails only its own call, and a dead dispatcher fails every
outstanding call instead of hanging it.

Every scenario runs through :func:`run`, which bounds it at
``SCENARIO_TIMEOUT`` seconds and fails it on an exception that a task
or future dropped unretrieved.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import time

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import MaintenanceError, ServiceOverloadError, VertexNotFound
from repro.graph.generators import grid_network
from repro.observability import Observability
from repro.service.async_frontend import AsyncDistanceService
from repro.service.service import DistanceService


SCENARIO_TIMEOUT = 30.0


def run(scenario):
    """Run the coroutine function *scenario* on a fresh loop; its result.

    A hung dispatcher fails the test after ``SCENARIO_TIMEOUT`` seconds
    rather than hanging the suite, and an exception no one retrieved
    (the loop reports it when the task or future is collected) fails it
    too.
    """
    dropped = []

    async def bounded():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: dropped.append(context["message"])
        )
        try:
            return await asyncio.wait_for(scenario(), SCENARIO_TIMEOUT)
        finally:
            gc.collect()  # report dropped exceptions while we listen

    result = asyncio.run(bounded())
    assert not [m for m in dropped if "never retrieved" in m], dropped
    return result


@pytest.fixture(scope="module")
def small_graph():
    return grid_network(6, 6)


@pytest.fixture()
def service(small_graph):
    with DistanceService(
        DHLIndex.build(small_graph.copy(), DHLConfig(seed=0))
    ) as svc:
        yield svc


class SlowService:
    """Delegating wrapper whose query path takes a fixed beat, like a
    backend doing real work: each batch holds the loop that long, so a
    test passes only if its outcome does not hinge on a fast service."""

    def __init__(self, inner, delay: float = 0.03):
        self._inner = inner
        self.delay = delay
        self.observability = inner.observability
        self.index = inner.index

    def distances(self, pairs):
        time.sleep(self.delay)
        return self._inner.distances(pairs)

    def submit_many(self, changes):
        self._inner.submit_many(changes)

    def flush(self):
        return self._inner.flush()


# ---------------------------------------------------------------------------
# correctness: async answers == sync answers
# ---------------------------------------------------------------------------

def test_results_match_sync_service(service, small_graph):
    n = small_graph.num_vertices
    pairs = [(s, t) for s in range(0, n, 3) for t in range(0, n, 4)]
    expected = service.distances(pairs)

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            singles = await asyncio.gather(
                *(frontend.distance(s, t) for s, t in pairs)
            )
            batched = await frontend.distances(pairs)
            return singles, batched

    singles, batched = run(scenario)
    np.testing.assert_array_equal(np.array(singles), expected)
    np.testing.assert_array_equal(batched, expected)


def test_bad_id_fails_only_its_own_call(service):
    """Ids are checked on admission: the bad call is never queued, so
    the calls folded around it are answered."""

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            results = await asyncio.gather(
                frontend.distance(0, 5),
                frontend.distance(0, 999),
                frontend.distance(1, 7),
                return_exceptions=True,
            )
            with pytest.raises(VertexNotFound):
                await frontend.distances([(0, 1), (-1, 2)])
            return results, frontend.stats

    (first, bad, last), stats = run(scenario)
    assert isinstance(bad, VertexNotFound) and bad.vertex == 999
    assert first == service.distance(0, 5)
    assert last == service.distance(1, 7)
    assert stats.offered_requests == stats.answered_requests == 2
    assert stats.batches == 1


def test_closed_loop_callers_fold_into_full_runs(service, small_graph):
    """32 callers x 10 sequential awaits, nothing slowed down: each
    round of calls is answered by one run, and the answers are the
    synchronous service's, one Python float per call."""
    requests = np.random.default_rng(3).integers(
        0, small_graph.num_vertices, size=(32, 10, 2)
    )
    expected = service.distances(requests.reshape(-1, 2)).reshape(32, 10)

    async def scenario():
        async with AsyncDistanceService(service) as frontend:

            async def caller(row):
                return [await frontend.distance(s, t) for s, t in row.tolist()]

            answers = await asyncio.gather(*(caller(row) for row in requests))
            batches = frontend.stats.batches
            arrays = await asyncio.gather(
                frontend.distances(requests[0]),
                frontend.distances(requests[1].astype(np.int32)),
            )
            return answers, frontend.stats, frontend.stats.batches - batches, arrays

    answers, stats, array_batches, (a, b) = run(scenario)
    assert all(type(x) is float for row in answers for x in row)
    np.testing.assert_array_equal(np.array(answers), expected)
    assert stats.merge_ratio >= 16
    # Two array calls fold into one run, yet each caller owns its answer.
    assert array_batches == 1
    np.testing.assert_array_equal(a, expected[0])
    np.testing.assert_array_equal(b, expected[1])
    assert a.shape == b.shape == (10,) and not np.shares_memory(a, b)


def test_cancelled_awaiter_leaves_its_batch_mates_answered(service):
    async def scenario():
        async with AsyncDistanceService(service, max_queue_depth=3) as f:
            calls = [
                asyncio.ensure_future(f.distance(s, s + 5)) for s in range(3)
            ]
            await asyncio.sleep(0)  # all three are queued in one run
            calls[1].cancel()
            answered = await asyncio.gather(calls[0], calls[2])
            # The whole depth is free again: three pairs are admitted.
            again = await f.distances([(0, 1), (1, 2), (2, 3)])
            return calls[1], answered, again, f.stats

    cancelled, answered, again, stats = run(scenario)
    assert cancelled.cancelled()
    assert answered == [service.distance(0, 5), service.distance(2, 7)]
    np.testing.assert_array_equal(
        again, service.distances([(0, 1), (1, 2), (2, 3)])
    )
    assert stats.batches == 2 and stats.shed_requests == 0


def test_empty_batch_short_circuits(service):
    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            out = await frontend.distances([])
            assert out.size == 0
            assert frontend.stats.offered_requests == 0

    run(scenario)


# ---------------------------------------------------------------------------
# micro-batching
# ---------------------------------------------------------------------------

def test_concurrent_calls_fold_into_few_batches(service):
    """64 concurrent single-pair awaits must not cost 64 scheduler
    batches: whatever queues while a batch executes folds into one."""
    slow = SlowService(service)

    async def scenario():
        async with AsyncDistanceService(slow) as frontend:
            await asyncio.gather(
                *(frontend.distance(s % 30, s % 30 + 1) for s in range(64))
            )
            return frontend.stats

    stats = run(scenario)
    assert stats.answered_requests == 64
    assert stats.batches <= 32  # acceptance: >= 2x folding vs serial
    assert stats.merge_ratio >= 2.0
    assert stats.max_merged >= 2
    assert stats.batched_pairs == 64


def test_serial_awaits_do_not_batch(service):
    """A serial caller gets merge_ratio 1.0 — batching needs concurrency."""

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            for s in range(8):
                await frontend.distance(s, s + 2)
            return frontend.stats

    stats = run(scenario)
    assert stats.batches == 8
    assert stats.merge_ratio == 1.0


def test_max_batch_caps_a_single_fold(service):
    async def scenario():
        async with AsyncDistanceService(SlowService(service), max_batch=8) as f:
            await asyncio.gather(*(f.distance(s, s + 1) for s in range(32)))
            return f.stats

    stats = run(scenario)
    assert stats.answered_requests == 32
    # No drain may fold more pairs than max_batch plus the one item
    # that opened the run (the opener is never split).
    assert stats.batches >= 32 // 9


def test_max_merged_is_a_high_water_mark(service):
    """A smaller fold after a larger one leaves ``max_merged`` where the
    larger one put it."""

    async def scenario():
        async with AsyncDistanceService(SlowService(service)) as frontend:
            await asyncio.gather(*(frontend.distance(s, s + 1) for s in range(16)))
            widest = frontend.stats.max_merged
            await frontend.distance(2, 9)
            return widest, frontend.stats

    widest, stats = run(scenario)
    assert widest >= 2
    assert stats.max_merged == widest
    assert stats.batched_pairs == 17


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def test_overload_sheds_instead_of_queueing(service):
    """With depth 4 and a slow backend, a 20-task burst sheds the rest —
    and the books balance: every offer is answered or shed."""
    slow = SlowService(service, delay=0.05)

    async def scenario():
        async with AsyncDistanceService(slow, max_queue_depth=4) as frontend:
            results = await asyncio.gather(
                *(frontend.distance(s, s + 1) for s in range(20)),
                return_exceptions=True,
            )
            return frontend.stats, results

    stats, results = run(scenario)
    shed = [r for r in results if isinstance(r, ServiceOverloadError)]
    answered = [r for r in results if isinstance(r, float)]
    assert len(shed) == stats.shed_requests > 0
    assert len(answered) == stats.answered_requests > 0
    assert stats.offered_requests == stats.answered_requests + stats.shed_requests
    expected = service.distances([(0, 1)])[0]
    assert all(r == expected or r >= 0 for r in answered)


def test_shed_counter_reaches_metrics_registry(small_graph):
    obs = Observability.enabled()
    with DistanceService(
        DHLIndex.build(small_graph.copy(), DHLConfig(seed=0)),
        observability=obs,
    ) as svc:
        slow = SlowService(svc, delay=0.05)

        async def scenario():
            async with AsyncDistanceService(slow, max_queue_depth=2) as f:
                await asyncio.gather(
                    *(f.distance(s, s + 1) for s in range(12)),
                    return_exceptions=True,
                )

        run(scenario)
    snap = obs.registry.snapshot()
    assert snap["dhl_async_shed_total"]["value"] > 0
    assert snap["dhl_async_batches_total"]["value"] >= 1
    assert (
        snap["dhl_async_requests_total"]["value"]
        + snap["dhl_async_shed_total"]["value"]
        == 12
    )


def test_frontend_stats_are_frozen_snapshots(service):
    """``stats`` and ``frontend_stats()`` read the same counters; a
    snapshot taken earlier does not move and cannot be written."""

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            await frontend.distance(0, 5)
            before = frontend.stats
            await frontend.distances([(1, 2), (3, 4)])
            return before, frontend.stats, frontend.frontend_stats()

    before, after, again = run(scenario)
    assert (before.answered_requests, before.batches) == (1, 1)
    assert (after.answered_requests, after.batches) == (2, 2)
    assert after == again
    with pytest.raises(dataclasses.FrozenInstanceError):
        after.batches = 0


def test_frontends_on_a_disabled_service_count_apart(service):
    """On the default stack each frontend's instruments are its own, so
    a second frontend on the same service starts from zero."""

    async def serve(count):
        async with AsyncDistanceService(service) as frontend:
            for s in range(count):
                await frontend.distance(s, s + 3)
            return frontend.stats

    first = run(lambda: serve(5))
    second = run(lambda: serve(2))
    assert (first.offered_requests, first.batches) == (5, 5)
    assert (second.offered_requests, second.batches) == (2, 2)


# ---------------------------------------------------------------------------
# updates: ordered with surrounding queries
# ---------------------------------------------------------------------------

def test_update_is_ordered_with_queries(small_graph):
    graph = small_graph.copy()
    u, v, w = next(iter(graph.edges()))
    with DistanceService(
        DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    ) as svc:
        sync_before = svc.distance(u, v)

        async def scenario():
            async with AsyncDistanceService(SlowService(svc)) as frontend:
                # Enqueue query → update → query in one tick: the
                # dispatcher must answer the first with the old weight
                # and the last with the new one.
                first = asyncio.ensure_future(frontend.distance(u, v))
                bump = asyncio.ensure_future(
                    frontend.update([(u, v, w * 3.0)])
                )
                second = asyncio.ensure_future(frontend.distance(u, v))
                return await asyncio.gather(first, bump, second), frontend.stats

        (before, _, after), stats = run(scenario)
        assert before == sync_before
        assert after == svc.distance(u, v)
        assert after <= w * 3.0
        assert stats.updates == 1
        assert svc.index.epoch > 0  # the update really flushed


@pytest.mark.parametrize(
    "bad, error",
    [((1.7, 2), TypeError), ((0, 99), VertexNotFound), ((-1, 2), VertexNotFound)],
    ids=["float", "past-n", "negative"],
)
def test_update_refuses_a_bad_id_before_queueing(service, bad, error):
    """A float id used to be truncated (``int(1.7) == 1``) and rewrite
    another road; now the whole batch is refused at the service's door
    (``submit_many``) when the dispatcher reaches it: the caller gets
    the error, nothing is buffered or applied, and the next call
    answers."""
    graph = service.index.graph
    u, v, w = next(iter(graph.edges()))
    before, epoch = sorted(graph.edges()), service.index.epoch

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            with pytest.raises(error):
                await frontend.update([(u, v, 2.0 * w), (*bad, 99.0)])
            return await frontend.distance(u, v), frontend.stats

    got, stats = run(scenario)
    assert sorted(graph.edges()) == before
    assert (service.pending_updates, service.index.epoch) == (0, epoch)
    assert stats.updates == 1 and stats.offered_requests == 2
    assert got == service.distance(u, v)


@pytest.mark.parametrize("weight", [float("nan"), -1.0], ids=["nan", "negative"])
def test_update_with_a_bad_weight_fails_its_caller_and_leaves_the_buffer(
    service, weight
):
    """The service used to buffer a bad weight and raise on it at the
    flush, after draining the change a caller had submitted before; now
    the awaiting caller gets ``MaintenanceError`` and the buffer is
    untouched, so that change applies at the next query."""
    graph = service.index.graph
    (a, b, w), (u, v, x) = list(graph.edges())[:2]
    service.submit(a, b, 3.0 * w)

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            with pytest.raises(MaintenanceError):
                await frontend.update([(u, v, 2.0 * x), (u, v, weight)])
            assert service.pending_updates == 1
            return await frontend.distance(a, b)

    got = run(scenario)
    assert service.pending_updates == 0
    assert (graph.weight(a, b), graph.weight(u, v)) == (3.0 * w, x)
    assert got == service.distance(a, b)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_calls_require_a_running_dispatcher(service):
    async def scenario():
        frontend = AsyncDistanceService(service)
        with pytest.raises(ServiceOverloadError, match="not running"):
            await frontend.distances([(0, 1)])

    run(scenario)


def test_dead_dispatcher_fails_every_outstanding_call(service):
    """A fault in the dispatcher itself (here: the service answers with
    something that is not an array) must fail the run it was answering
    and everything queued behind it, then refuse new calls — an
    awaiter left to hang would never learn the frontend is gone."""

    class BrokenService(SlowService):
        def distances(self, pairs):
            return None

    async def scenario():
        frontend = await AsyncDistanceService(BrokenService(service)).start()
        outstanding = await asyncio.gather(
            frontend.distance(0, 1),
            frontend.update([(0, 1, 2.0)]),
            frontend.distances([(1, 2), (2, 3)]),
            return_exceptions=True,
        )
        with pytest.raises(ServiceOverloadError, match="dispatcher died"):
            await frontend.distance(0, 1)
        with pytest.raises(ServiceOverloadError, match="closed"):
            await frontend.start()
        await frontend.close()
        return outstanding

    for err in run(scenario):
        assert isinstance(err, ServiceOverloadError)
        assert "AttributeError" in str(err)
        assert isinstance(err.__cause__, AttributeError)
    assert service.distance(0, 1) >= 0


def test_close_is_idempotent_and_leaves_service_usable(service):
    async def scenario():
        frontend = await AsyncDistanceService(service).start()
        await frontend.distances([(0, 1)])
        await frontend.close()
        await frontend.close()
        with pytest.raises(ServiceOverloadError):
            await frontend.distances([(0, 2)])
        with pytest.raises(ServiceOverloadError, match="closed"):
            await frontend.start()

    run(scenario)
    # The frontend only borrows the service: it must still answer.
    assert service.distance(0, 1) >= 0


def test_constructor_validation(service):
    with pytest.raises(ValueError, match="max_batch"):
        AsyncDistanceService(service, max_batch=0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        AsyncDistanceService(service, max_queue_depth=0)
