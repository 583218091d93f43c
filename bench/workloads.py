"""Set-up, closed-loop replay and spot-checks for the five workloads.

The program is driven only through public entry points constructed with
their default arguments — ``DHLIndex.build(graph)``,
``ShardedDHLIndex.build(graph, k=2)``, ``DistanceService(backend)``,
``AsyncDistanceService(service)`` — so a changed default shows up as a
measured change. k = 2 keeps worker processes within the sandbox's two
cores.
"""

from __future__ import annotations

import asyncio
import math
import sys
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from bench.spec import CALLERS, GRAPH_SEED, PROFILES, Workload
from bench.speed import probe
from bench.streams import Round, Stream
from bench.trace import SpanRecorder, TimedBackend, TimedRuntime, TimedService
from repro.baselines.dijkstra import dijkstra
from repro.core import DHLIndex, ShardedDHLIndex
from repro.graph.generators import delaunay_network, grid_network
from repro.service import (
    AsyncDistanceService,
    DistanceService,
    InProcessRuntime,
    ShardWorkerRuntime,
    SocketShardRuntime,
)

__all__ = [
    "Replay",
    "Target",
    "close_traced",
    "make_graph",
    "replay",
    "set_up",
    "traced_target",
]

SHARDS = 2


def make_graph(kind: str, profile: str):
    size = PROFILES[profile][kind]
    if kind == "grid":
        return grid_network(size, size, seed=GRAPH_SEED)
    return delaunay_network(size, style="uniform", edge_factor=1.35, seed=GRAPH_SEED)


# ---------------------------------------------------------------------------
# targets: what a replay drives
# ---------------------------------------------------------------------------

@dataclass
class Target:
    """One set-up program stack, from index to the outermost front."""

    path: str
    #: The built index (monolithic or sharded): spot-check graph, sizes.
    backend: object
    #: Pooled runtime on the shard paths; it outlives the services
    #: fronting it and is closed by :meth:`close`.
    runtime: object = None
    service: object = None
    #: ``AsyncDistanceService`` and the loop it runs on (async path).
    frontend: object = None
    loop: asyncio.AbstractEventLoop | None = None
    #: Seconds set-up spent starting the pooled runtime's processes.
    spawn_s: float = 0.0

    def query(self, pairs) -> np.ndarray:
        if self.frontend is not None:
            return self.loop.run_until_complete(self.frontend.distances(pairs))
        return (self.service or self.backend).distances(pairs)

    def update(self, changes) -> None:
        if self.service is None:
            self.backend.update(changes)
        else:
            self.service.submit_many(changes)
            self.service.flush()

    def close(self) -> None:
        if self.frontend is not None:
            self.loop.run_until_complete(self.frontend.close())
            self.frontend = None
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None
        elif self.service is not None:
            self.service.close()
        if self.loop is not None:
            self.loop.close()
            self.loop = None


def _front(target: Target, service) -> Target:
    """Put *service* (and, on the async path, a frontend) in front."""
    target.service = service
    if target.path == "async":
        if target.loop is None:
            target.loop = asyncio.new_event_loop()
        target.frontend = AsyncDistanceService(service)
        target.loop.run_until_complete(target.frontend.start())
    return target


def set_up(workload: Workload, graph) -> tuple[Target, float]:
    """Build the workload's stack over *graph*; returns it and ``setup_s``.

    The clock runs from the first build call to the first answered
    query. The graph is owned by the index afterwards.
    """
    probe = [(0, graph.num_vertices - 1)]
    start = perf_counter()
    target = Target(workload.path, None)
    try:
        if workload.path in ("core", "async"):
            target.backend = DHLIndex.build(graph)
            if workload.path == "async":
                _front(target, DistanceService(target.backend))
        else:
            target.backend = ShardedDHLIndex.build(graph, k=SHARDS)
            built = perf_counter()
            if workload.path == "workers":
                target.runtime = ShardWorkerRuntime(target.backend)
            else:
                target.runtime = SocketShardRuntime(target.backend, replicas=1)
            target.spawn_s = perf_counter() - built
            _front(target, DistanceService(target.runtime))
        target.query(probe)
    except BaseException:
        target.close()
        raise
    return target, perf_counter() - start


def traced_target(target: Target, recorder: SpanRecorder) -> Target:
    """The same index and runtime behind timed proxies and a fresh cache.

    The returned target borrows *target*'s runtime and loop; close only
    the original.
    """
    traced = Target(target.path, target.backend, loop=target.loop)
    if target.path == "core":
        traced.backend = TimedBackend(target.backend, recorder)
        return traced
    if target.runtime is not None:
        inner = target.runtime
    else:  # what DistanceService(backend) builds by default
        inner = InProcessRuntime(TimedBackend(target.backend, recorder))
    service = DistanceService(TimedRuntime(inner, recorder))
    return _front(traced, TimedService(service, recorder))


def close_traced(traced: Target) -> None:
    """Stop what :func:`traced_target` started (the borrowed parts stay)."""
    if traced.frontend is not None:
        traced.loop.run_until_complete(traced.frontend.close())


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@dataclass
class Replay:
    """Raw measurements of one replay; warm-up rounds are in none of the lists."""

    #: One row per timed round, one column per position, raw seconds:
    #: the position's wall time, the time inside its query calls (its
    #: wall time on the async path, where calls overlap), the median of
    #: its query calls, and its update burst from submit to visible.
    wall_s: list[list[float]] = field(default_factory=list)
    query_s: list[list[float]] = field(default_factory=list)
    call_p50_s: list[list[float]] = field(default_factory=list)
    burst_s: list[list[float]] = field(default_factory=list)
    #: Same shape: the machine's slowness over the position, the mean of
    #: the probes on either side of it.
    slowness: list[list[float]] = field(default_factory=list)
    #: every query call of the timed rounds, seconds (the tails)
    call_s: list[np.ndarray] = field(default_factory=list)
    #: async path, traced: request latency minus the answering call
    queue_wait_s: list[np.ndarray] = field(default_factory=list)
    #: work of one round (every round does the same)
    pairs: int = 0
    changes: int = 0
    #: CRC32 over every finite answer of every round, in stream order
    checksum: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def replay_s(self) -> float:
        """Raw wall time of the timed positions."""
        return float(np.sum(self.wall_s))


def _report(exc: BaseException) -> None:
    print(f"bench: operation failed: {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _absorb(rep: Replay, out: np.ndarray) -> None:
    finite = np.isfinite(out)
    rep.failed += int(len(out) - finite.sum())
    rep.checksum = zlib.crc32(out[finite].tobytes(), rep.checksum)


def _mismatches(graph, pairs, answers) -> int:
    """Spot-check *answers* against Dijkstra on the current weights.

    Pairs arrive grouped by source, so one multi-target run of the
    module's ``dijkstra`` answers a group — the same search
    ``dijkstra_distance`` makes, without restarting it per target.
    """
    bad = 0
    by_source: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(pairs):
        by_source.setdefault(s, []).append(i)
    for s, positions in by_source.items():
        dist = dijkstra(graph, s, [pairs[i][1] for i in positions])
        for i in positions:
            expected, got = dist[pairs[i][1]], answers[i]
            if not (expected == got or (math.isinf(expected) and math.isinf(got))):
                bad += 1
    return bad


def _timed_call(rec, name, fn, arg, request):
    """Run ``fn(arg)``; returns ``(ok, result, seconds)``.

    A raised error is reported and counted by the caller as failed
    operations; it never aborts the replay.
    """
    with rec.span(name, request) if rec is not None else nullcontext():
        ok, out = True, None
        t0 = perf_counter()
        try:
            out = fn(arg)
        except Exception as exc:
            ok = False
            _report(exc)
        seconds = perf_counter() - t0
    return ok, out, seconds


def _untimed(rec, name):
    """A span that keeps what runs under it off the timed timeline."""
    return rec.span(name) if rec is not None else nullcontext()


def _spot_check(rep: Replay, target: Target, pairs, rec) -> None:
    """Mid-stream answers through the workload's own path vs Dijkstra."""
    with _untimed(rec, "check") as span:
        if rec is not None:
            # Calls the frontend's executor thread makes belong under
            # the check too, so they stay off the timed timeline.
            outer, rec.root = rec.root, span
        ok, answers, _ = _timed_call(None, "check", target.query, pairs, None)
        rep.attempted += len(pairs)
        if ok:
            rep.failed += _mismatches(target.backend.graph, pairs, answers)
        else:
            rep.failed += len(pairs)
        if rec is not None:
            rec.root = outer


def _position(target: Target, burst, queries, rep: Replay, rec, slot: int):
    """One position on a synchronous path: the burst, then its calls."""
    call_s = np.zeros(len(queries))
    start = perf_counter()
    ok, _, burst_s = _timed_call(rec, "op.update", target.update, burst, slot)
    rep.attempted += len(burst)
    if not ok:
        rep.failed += len(burst)
    for i, pairs in enumerate(queries):
        ok, out, call_s[i] = _timed_call(rec, "op.query", target.query, pairs, i)
        rep.attempted += len(pairs)
        if ok:
            _absorb(rep, out)
        else:
            rep.failed += len(pairs)
    wall_s = perf_counter() - start
    return wall_s, float(call_s.sum()), burst_s, call_s, None


async def _closed_loop(target, burst, requests, results, call_s, started, waits, rec, rep):
    """CALLERS callers share *requests* while a feed awaits the burst.

    Returns the seconds the awaited update took.
    """
    frontend = target.frontend
    service = target.service
    todo = iter(enumerate(requests))

    async def caller():
        for i, (s, t) in todo:
            t0 = perf_counter()
            try:
                results[i] = await frontend.distance(s, t)
            except Exception as exc:
                _report(exc)
            t1 = perf_counter()
            call_s[i] = t1 - t0
            if rec is not None:
                started[i] = t0
                waits[i] = (t1 - t0) - service.last_query.seconds

    async def feed():
        t0 = perf_counter()
        rep.attempted += len(burst)
        try:
            await frontend.update(burst)
        except Exception as exc:
            _report(exc)
            rep.failed += len(burst)
        t1 = perf_counter()
        if rec is not None:
            rec.add("async.update", t0, t1)
        return t1 - t0

    done = await asyncio.gather(feed(), *(caller() for _ in range(CALLERS)))
    return done[0]


def _position_async(target: Target, burst, requests, rep: Replay, rec, slot: int):
    """One position on the async path: the burst and its requests overlap."""
    results = np.full(len(requests), np.nan)
    call_s = np.zeros(len(requests))
    started = np.zeros(len(requests))
    waits = np.zeros(len(requests))
    start = perf_counter()
    burst_s = target.loop.run_until_complete(
        _closed_loop(target, burst, requests, results, call_s, started, waits, rec, rep)
    )
    wall_s = perf_counter() - start
    rep.attempted += len(requests)
    _absorb(rep, results)
    if rec is not None:
        rec.add_many("async.request", started, started + call_s, 0)
    # calls overlap: the position's wall time is the query denominator
    return wall_s, wall_s, burst_s, call_s, waits


def _replay_round(target: Target, rnd: Round, queries, rep: Replay, rec, timed) -> None:
    run = _position_async if target.path == "async" else _position
    rows = []
    with _untimed(rec, "probe"):
        before = probe()
    for slot, position in enumerate(rnd.positions):
        wall_s, query_s, burst_s, call_s, waits = run(
            target, position.burst, queries[slot], rep, rec, slot
        )
        with _untimed(rec, "probe"):
            after = probe()
        slow = (before + after) / 2
        rows.append((wall_s, query_s, float(np.median(call_s)), burst_s, slow))
        before = after
        if timed:
            rep.call_s.append(call_s)
            if rec is not None and waits is not None:
                rep.queue_wait_s.append(waits)
    _spot_check(rep, target, rnd.check_pairs, rec)
    if timed:
        wall, query, p50, burst, slow = zip(*rows)
        rep.wall_s.append(list(wall))
        rep.query_s.append(list(query))
        rep.call_p50_s.append(list(p50))
        rep.burst_s.append(list(burst))
        rep.slowness.append(list(slow))


def replay(target: Target, stream: Stream, rec: SpanRecorder | None = None) -> Replay:
    """The warm-up rounds, then the timed ones; *rec* turns on op spans."""
    rep = Replay(pairs=stream.pairs, changes=stream.changes)
    for n, rnd in enumerate(stream.rounds):
        timed = n >= stream.warmup
        queries = [position.calls() for position in rnd.positions]
        if rec is None:
            _replay_round(target, rnd, queries, rep, None, timed)
            continue
        with rec.span("round" if timed else "warmup", request=n) as span:
            rec.root = span
            _replay_round(target, rnd, queries, rep, rec, timed)
        rec.root = None
    # Untimed: put the last perturbed group back, through the same path.
    with _untimed(rec, "epilogue"):
        ok, _, _ = _timed_call(None, "epilogue", target.update, stream.epilogue, None)
    rep.attempted += len(stream.epilogue)
    if not ok:
        rep.failed += len(stream.epilogue)
    return rep
