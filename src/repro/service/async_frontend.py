"""Asyncio frontend: micro-batching + admission control for the service.

:class:`AsyncDistanceService` puts an asyncio event loop in front of a
:class:`~repro.service.service.DistanceService`. Individual
``await``-style client calls — the natural shape of an RPC handler —
are terrible for the batch-oriented runtimes underneath (every pair
pays a full scheduler round trip); the frontend fixes this by
**micro-batching**: back-to-back queries append to the open tail *run*,
and a dispatcher coroutine answers each run with *one*
``service.distances`` call. Concurrency alone creates the batching — no
latency timer is involved: what callers ask while a run executes
becomes the next run. An update is its own run, strictly ordered with
the queries around it.

The dispatcher calls the service **inline on the loop**, then yields
once so the awaiters it just answered run before the next batch. It
uses no executor thread: under the interpreter lock one buys no
parallelism, and handing the lock to and fro with the loop on every
batch costs more than half of a served request. The trade-off: the loop
is held while a query run executes, and while an update's
``submit_many`` + ``flush`` does (a shard runtime broadcasts it to every
replica). With a shard runtime a wedged replica holds the loop for one
``request_timeout`` per failover round — a failed shard is retried on
each untried sibling, every round under a fresh deadline — plus a
respawn's start-up whenever the supervisor polls. Callers have no
deadline of their own.

**Admission control.** Vertex ids are range-checked on admission, so a
bad id fails only its own call. A request that would push the
queued-but-unanswered pair count past ``max_queue_depth`` is *shed*
with :class:`~repro.exceptions.ServiceOverloadError` instead of queued,
and counted as ``dhl_async_shed_total``. Every frontend count is one
``dhl_async_*`` instrument of the service's metrics registry, and
:class:`AsyncFrontendStats` is read off them. Should the dispatcher
itself die, every outstanding call fails with
:class:`ServiceOverloadError` naming the cause and the frontend closes,
so no awaiter hangs.

Use as an async context manager::

    async with AsyncDistanceService(service, max_queue_depth=4096) as svc:
        dists = await asyncio.gather(
            *(svc.distance(s, t) for s, t in pairs)
        )
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import PartialResultError, ServiceOverloadError
from repro.utils.pairs import as_ids, as_pair_array, check_ids, vertex_pair

__all__ = ["AsyncDistanceService", "AsyncFrontendStats"]


@dataclass(frozen=True)
class AsyncFrontendStats:
    """Snapshot of the micro-batching and admission-control counters.

    ``merge_ratio`` is the effectiveness of the frontend: client
    requests answered per scheduler batch (1.0 means no batching
    happened — a serial caller; >> 1 means concurrent callers were
    folded together).
    """

    offered_requests: int = 0
    answered_requests: int = 0
    shed_requests: int = 0
    batches: int = 0
    batched_pairs: int = 0
    updates: int = 0
    #: Most client requests folded into one batch.
    max_merged: int = 0
    #: Requests answered partially (their slice of a degraded batch
    #: contained breaker-shed pairs, resolved with PartialResultError).
    partial_requests: int = 0

    @property
    def merge_ratio(self) -> float:
        return self.answered_requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, float]:
        out = dict(self.__dict__)
        out["merge_ratio"] = round(self.merge_ratio, 3)
        return out


class _Run:
    """Queries answered by one ``service.distances`` call: flat ``pairs``
    (``s0, t0, s1, …``) and one ``(future, offset, count)`` per call,
    ``count`` 0 marking a ``distance()`` call (answered with a float)."""

    __slots__ = ("pairs", "calls")

    def __init__(self) -> None:
        self.pairs: list[int] = []
        self.calls: list[tuple[asyncio.Future, int, int]] = []


class AsyncDistanceService:
    """Micro-batching asyncio facade over a :class:`DistanceService`.

    Parameters
    ----------
    service:
        The synchronous service to front. The frontend *borrows* it:
        :meth:`close` stops the dispatcher but leaves the service (and
        its runtime) to its owner, so one service can be re-fronted or
        shared with synchronous callers.
    max_batch:
        Pair-count ceiling per folded scheduler batch: once the open
        run holds this many pairs the next call opens a new run (a
        call itself is never split).
    max_queue_depth:
        Admission limit in *pairs* queued but not yet answered. The
        request that would exceed it is refused with
        :class:`ServiceOverloadError` and counted, not queued.
    """

    def __init__(
        self,
        service,
        *,
        max_batch: int = 4096,
        max_queue_depth: int = 65_536,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.service = service
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        #: Query runs and ``(changes, future)`` updates, oldest first.
        self._runs: deque = deque()
        self._wake = asyncio.Event()
        self._pending_pairs = 0
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        #: Why the dispatcher died, once it has.
        self._failure: BaseException | None = None
        # The counts live in the service's registry: frontends that
        # front one enabled service in turn count in the same series.
        registry = service.observability.registry
        counter = registry.counter
        self._m_requests = counter(
            "dhl_async_requests_total", "Client requests admitted"
        )
        self._m_shed = counter(
            "dhl_async_shed_total", "Requests shed by admission control"
        )
        self._m_answered = counter(
            "dhl_async_answered_total", "Client requests answered in full"
        )
        self._m_partial = counter(
            "dhl_async_partial_requests_total",
            "Client requests answered with a PartialResultError",
        )
        self._m_batches = counter(
            "dhl_async_batches_total", "Scheduler batches dispatched"
        )
        self._m_batched_pairs = counter(
            "dhl_async_batched_pairs_total", "Pairs in dispatched batches"
        )
        self._m_updates = counter("dhl_async_updates_total", "Update runs executed")
        self._m_max_merged = registry.gauge(
            "dhl_async_max_merged", "Most client requests folded into one batch"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncDistanceService":
        """Start the dispatcher loop (idempotent)."""
        if self._closed:
            raise ServiceOverloadError("frontend is closed")
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        return self

    async def close(self) -> None:
        """Answer queued work, stop the dispatcher; idempotent.

        The fronted service is *not* closed — it belongs to the caller
        (and may be shared with synchronous code paths).
        """
        self._closed = True
        if self._dispatcher is not None:
            self._wake.set()
            await self._dispatcher
            self._dispatcher = None

    async def __aenter__(self) -> "AsyncDistanceService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    async def distances(self, pairs) -> np.ndarray:
        """Batch distances; may be folded with concurrent calls.

        *pairs* is an ``(m, 2)`` integer array or any iterable of
        ``(s, t)`` pairs; the answer is the caller's own array.
        """
        pairs = as_pair_array(pairs)
        if not len(pairs):
            return np.empty(0, dtype=np.float64)
        check_ids(self.service.index.graph.num_vertices, pairs)
        return await self._enqueue(pairs.ravel().tolist(), len(pairs))

    async def distance(self, s: int, t: int) -> float:
        """Single-pair distance (the micro-batcher's bread and butter).

        *s* and *t* are integers (``operator.index``): a float or a
        string raises ``TypeError`` before anything is queued.
        """
        return await self._enqueue(
            vertex_pair(self.service.index.graph.num_vertices, s, t), 0
        )

    async def update(self, changes) -> None:
        """Apply a weight-change batch, ordered with surrounding queries.

        The service checks the batch when the dispatcher reaches it
        (``submit_many``), before anything is buffered: one bad change
        refuses the whole batch, and the error reaches this caller."""
        changes = list(changes)
        future = self._admit(1)
        self._runs.append((changes, future))
        self._wake.set()
        await future

    def frontend_stats(self) -> AsyncFrontendStats:
        """The counters as they stand; ``offered_requests`` is the
        admitted plus the shed."""
        admitted, shed = self._m_requests.value, self._m_shed.value
        return AsyncFrontendStats(
            offered_requests=admitted + shed,
            answered_requests=self._m_answered.value,
            shed_requests=shed,
            batches=self._m_batches.value,
            batched_pairs=self._m_batched_pairs.value,
            updates=self._m_updates.value,
            max_merged=int(self._m_max_merged.value),
            partial_requests=self._m_partial.value,
        )

    stats = property(frontend_stats)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, weight: int) -> asyncio.Future:
        """Admission check; returns the future a queued item resolves."""
        if self._closed or self._dispatcher is None:
            raise ServiceOverloadError(
                f"frontend dispatcher died: {self._failure!r}"
                if self._failure is not None
                else "frontend is not running (use `async with` or await start())"
            ) from self._failure
        if self._pending_pairs + weight > self.max_queue_depth:
            self._m_shed.inc()
            raise ServiceOverloadError(
                f"queue depth {self._pending_pairs} + {weight} exceeds "
                f"{self.max_queue_depth}; request shed"
            )
        self._pending_pairs += weight
        self._m_requests.inc()
        return asyncio.get_running_loop().create_future()

    def _enqueue(self, flat, count: int) -> asyncio.Future:
        """Append a query to the open tail run (``count`` 0: one pair)."""
        future = self._admit(count or 1)
        runs = self._runs
        run = runs[-1] if runs else None
        if type(run) is not _Run or len(run.pairs) >= 2 * self.max_batch:
            run = _Run()
            runs.append(run)
        run.calls.append((future, len(run.pairs) >> 1, count))
        run.pairs += flat
        self._wake.set()
        return future

    async def _dispatch_loop(self) -> None:
        """Answer runs oldest first until closed and drained.

        A run leaves the deque once answered. Anything escaping one (a
        fault here; service errors go to the run's callers) fails every
        outstanding call rather than leave it to hang.
        """
        runs = self._runs
        try:
            while runs or not self._closed:
                if not runs:
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                if type(runs[0]) is _Run:
                    self._execute_queries(runs[0])
                else:
                    self._execute_update(*runs[0])
                runs.popleft()
                await asyncio.sleep(0)
        except BaseException as exc:
            self._fail_outstanding(exc)
            if not isinstance(exc, Exception):
                raise

    def _execute_queries(self, run: _Run) -> None:
        calls = run.calls
        pairs = as_ids(run.pairs).reshape(-1, 2)
        self._m_batches.inc()
        self._m_batched_pairs.inc(len(pairs))
        if len(calls) > self._m_max_merged.value:
            self._m_max_merged.set(len(calls))
        self._pending_pairs -= len(pairs)
        partial = 0
        try:
            out = self.service.distances(pairs)
        except PartialResultError as exc:
            # Only the callers whose slice holds shed pairs see the
            # error, re-based to it; everyone else gets their answers.
            shed = np.sort(np.asarray(exc.shed, dtype=np.int64))
            for future, offset, count in calls:
                end = offset + max(count, 1)
                view = np.array(exc.distances[offset:end])
                lo, hi = np.searchsorted(shed, (offset, end))
                if hi > lo:
                    partial += 1
                    shed_here = shed[lo:hi] - offset
                    outcome = PartialResultError(view, shed_here, exc.open_shards)
                else:
                    outcome = view if count else float(view[0])
                self._resolve(future, outcome)
        except Exception as exc:
            for future, _, _ in calls:
                self._resolve(future, exc)
            return
        else:
            values = out.tolist()
            for future, offset, count in calls:
                if not future.done():  # a cancelled caller
                    future.set_result(
                        out[offset : offset + count].copy() if count else values[offset]
                    )
        self._m_partial.inc(partial)
        self._m_answered.inc(len(calls) - partial)

    def _execute_update(self, changes, future: asyncio.Future) -> None:
        self._m_updates.inc()
        self._pending_pairs -= 1
        try:
            self.service.submit_many(changes)
            self.service.flush()
        except Exception as exc:
            self._resolve(future, exc)
        else:
            self._resolve(future, None)

    def _fail_outstanding(self, cause: BaseException) -> None:
        """Close, failing every call still in the deque with *cause*."""
        self._closed = True
        self._failure = cause
        self._pending_pairs = 0
        error = ServiceOverloadError(f"frontend dispatcher died: {cause!r}")
        error.__cause__ = cause
        for run in self._runs:
            if type(run) is _Run:
                futures = [future for future, _, _ in run.calls]
            else:
                futures = [run[1]]
            for future in futures:
                self._resolve(future, error)
        self._runs.clear()

    @staticmethod
    def _resolve(future: asyncio.Future, outcome) -> None:
        """Settle *future* with *outcome* unless its caller cancelled it."""
        if future.done():
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        state = "closed" if self._closed else "running"
        return (
            f"AsyncDistanceService({state}, pending={self._pending_pairs}, "
            f"batches={self._m_batches.value})"
        )
