"""Shared-memory shard workers: the multiprocess execution runtime.

:class:`ShardWorkerRuntime` hosts each region shard of a
:class:`~repro.core.sharded.ShardedDHLIndex` in a long-lived worker
process. At startup the parent *publishes* every shard's packed flat
label buffers (``label_values`` float64 + ``label_offsets`` int64 — the
same two-array layout the v3 snapshots write to disk) into
``multiprocessing.shared_memory`` segments; each worker attaches them
and re-binds a :class:`~repro.labelling.labels.HierarchicalLabelling`
onto the shared buffers, so the big label payload crosses the process
boundary exactly once and queries gather from it zero-copy.

**Protocol.** Parent and worker speak the typed runtime protocol of
:mod:`repro.service.protocol`: every request/reply is a versioned
dataclass serialised by the length-framed binary codec and carried as
one ``send_bytes``/``recv_bytes`` frame per message (the pipe already
preserves frame boundaries, so no extra length prefix). The only pickle
left is inside the startup :class:`~repro.service.protocol.SpecRequest`
— compute, delta and republish traffic is struct + JSON header + raw
numpy buffers. The worker-side state machine is
:class:`ShardExecutor`, shared verbatim with the TCP transport in
:mod:`repro.service.socket_runtime` — the two runtimes differ only in
how frames travel and how label buffers sync.

**Batch scheduling** lives in the shared
:class:`~repro.service.runtime.RegionPairScheduler` base: pair batches
split by ``(source region, target region)`` exactly like the in-process
sharded engine; each group becomes typed
:class:`~repro.service.protocol.SubQuery` messages dispatched
concurrently (one I/O thread per worker, workers truly parallel across
cores). The parent runs the overlay min-plus combine over returned
fans — the overlay index itself never leaves the parent.

**Epoch broadcast.** ``apply_update`` runs maintenance in the parent
(where the authoritative shards live), then re-publishes only what
moved: for each touched shard the parent copies the *changed label
slots* — driven by ``MaintenanceStats.affected_labels`` — into the
shared segment in place and broadcasts the shard's new epoch. Workers
stamp-check every batch and refuse one carrying a newer epoch than they
hold (a missed broadcast), so a stale worker can never serve silently
wrong distances. Only a label-layout change (an extended label slot, a
store rebuild) falls back to publishing fresh segments.

Worker processes are started with the ``spawn`` method — no fork-only
assumptions — and every segment is unlinked by :meth:`close` (or the
runtime's context manager), including on construction failure.
"""

from __future__ import annotations

import pickle
import threading
from multiprocessing import get_context, shared_memory
from typing import Iterable

import numpy as np

from repro.exceptions import ServiceRuntimeError, WorkerEpochError
from repro.observability import Span, maybe_child
from repro.service.protocol import (
    AckReply,
    ByeReply,
    ComputeBatch,
    ComputeReply,
    EpochDelta,
    ErrorReply,
    HealthCheck,
    HealthReply,
    Message,
    ReadyReply,
    Republish,
    Shutdown,
    SpecRequest,
    StaleReply,
    SubQuery,
    SubResult,
    TraceEnvelope,
    decode_frame,
    encode_frame,
)
from repro.service.runtime import RegionPairScheduler, WorkerPoolStats
from repro.sharding.engine import boundary_fan, boundary_fans, min_plus_compact

__all__ = ["ShardExecutor", "ShardWorkerRuntime", "WorkerPoolStats"]

_STARTUP_TIMEOUT = 120.0
_SHUTDOWN_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# shared-memory helpers
# ---------------------------------------------------------------------------

def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    The parent owns every segment (it created them and unlinks them in
    ``close``); an attaching worker must not register the segment with
    the resource tracker — spawned children share the *parent's*
    tracker process, so a worker-side registration (or unregistration)
    corrupts the parent's bookkeeping and can unlink live segments.
    Python 3.13 has ``track=False`` for exactly this; older
    interpreters suppress the registration call instead. The patch
    window is safe: workers are single-threaded when attaching.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # py<3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def skip_shared_memory(rname, rtype):
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original(rname, rtype)

        resource_tracker.register = skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class _Segment:
    """A parent-owned shared-memory segment and its numpy view."""

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray):
        self.shm = shm
        self.array = array

    @property
    def meta(self) -> tuple[str, int]:
        return self.shm.name, len(self.array)

    def destroy(self) -> None:
        self.array = None
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _publish_array(array: np.ndarray, dtype) -> _Segment:
    """Create a segment sized for *array* and copy the data in."""
    array = np.ascontiguousarray(array, dtype=dtype)
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=dtype, buffer=shm.buf)
    view[...] = array
    return _Segment(shm, view)


# ---------------------------------------------------------------------------
# the worker-side state machine (transport independent)
# ---------------------------------------------------------------------------

class ShardExecutor:
    """One shard's protocol state machine, independent of transport.

    Both worker mains — the pipe worker below and the TCP worker in
    :mod:`repro.service.socket_runtime` — decode frames and hand the
    messages here. The executor owns the shard structure, the bound
    label buffers, the held epoch and the cached overlay block; it
    answers every message with the matching reply dataclass and never
    touches a byte stream, which is what makes the compute path
    testable in-process and reusable across transports.
    """

    def __init__(self):
        self.index = None
        self.boundary_local = None
        self.epoch = 0
        self.served = 0
        self.values: np.ndarray | None = None
        self.offsets: np.ndarray | None = None
        self._block: np.ndarray | None = None
        self._block_epoch = -1

    # -- lifecycle ------------------------------------------------------
    def setup(self, spec: SpecRequest, values, offsets) -> ReadyReply:
        """Unpickle the shard structure, bind the label buffers."""
        payload = pickle.loads(spec.payload)
        self.index = payload["index"]
        self.boundary_local = payload["boundary_local"]
        self.epoch = spec.epoch
        self.bind(values, offsets)
        return ReadyReply(
            num_vertices=self.index.graph.num_vertices, epoch=self.epoch
        )

    def bind(self, values: np.ndarray, offsets: np.ndarray) -> None:
        """Rebind the labelling + query engine onto fresh buffers."""
        from repro.labelling.labels import HierarchicalLabelling
        from repro.labelling.query import QueryEngine

        self.values = values
        self.offsets = offsets
        labels = HierarchicalLabelling.from_shared_buffers(
            values, offsets, self.index.hq.tau
        )
        self.index.labels = labels
        # Resolve the engine in the worker process: the compiled package
        # probes (and warms) locally, so a numba-less worker downgrades
        # cleanly even if the parent compiled.
        self.index._engine = QueryEngine(
            self.index.hq, labels, engine=self.index.config.resolve_engine()
        )
        # Every fan reads the ancestor-chain store; build it while
        # attaching, not inside the first epoch-stamped batch.
        self.index._engine.hub_store()

    # -- maintenance ----------------------------------------------------
    def apply_delta(self, delta: EpochDelta) -> AckReply:
        """Adopt the epoch; splice inline label deltas first if present.

        The shared-memory transport ships ``vertices=None`` (the parent
        already wrote the values into the segment in place); the socket
        transport ships the changed label arrays inline and the
        executor splices them into its private writable buffers using
        its own offsets.
        """
        if delta.vertices is not None:
            values, offsets = self.values, self.offsets
            payload = delta.payload
            pos = 0
            for v in delta.vertices:
                start = int(offsets[v])
                length = int(offsets[v + 1]) - start
                values[start : start + length] = payload[pos : pos + length]
                pos += length
        self.epoch = delta.epoch
        return AckReply()

    # -- compute --------------------------------------------------------
    def compute(self, batch: ComputeBatch) -> ComputeReply | StaleReply:
        """Answer one batch's worth of shard-local work at its epoch.

        A batch stamped with a different epoch than held is refused
        without touching the buffers — the consistency contract that
        keeps a worker that missed a broadcast from serving silently
        wrong distances.
        """
        if batch.epoch != self.epoch:
            return StaleReply(held=self.epoch, stamped=batch.epoch)
        self.served += 1
        worker_span = Span("shard_compute") if batch.want_trace else None
        engine = self.index.engine
        results: list[SubResult] = []
        for sub_index, sub in enumerate(batch.subs):
            sub_span = (
                worker_span.child(f"sub[{sub_index}]")
                if worker_span is not None
                else None
            )
            block = self._resolve_block(sub)
            intra = ds = dt = None
            if sub.s is not None:
                with maybe_child(sub_span, "intra_kernel"):
                    intra = engine.distances_arrays(sub.s, sub.t)
            if sub.fan_src is not None and sub.fan_dst is not None:
                with maybe_child(sub_span, "fans"):
                    ds, dt = boundary_fans(
                        engine,
                        sub.fan_src.vertices,
                        sub.fan_dst.vertices,
                        self.boundary_local,
                    )
            elif sub.fan_src is not None:
                with maybe_child(sub_span, "fan_src"):
                    ds = boundary_fan(
                        engine, sub.fan_src.vertices, self.boundary_local
                    )
            elif sub.fan_dst is not None:
                with maybe_child(sub_span, "fan_dst"):
                    dt = boundary_fan(
                        engine, sub.fan_dst.vertices, self.boundary_local
                    )
            if block is not None:
                # Intra-shard sub: fold the boundary route here, return
                # the final array instead of two fan matrices.
                with maybe_child(sub_span, "min_plus"):
                    best = min_plus_compact(ds[0], ds[1], block, dt[0], dt[1])
                    if intra is not None:
                        best = np.minimum(intra, best)
                results.append(SubResult(final=best))
            elif intra is not None:
                results.append(SubResult(final=intra))
            else:
                results.append(
                    SubResult(
                        ds=ds[0] if ds is not None else None,
                        ds_inverse=ds[1] if ds is not None else None,
                        dt=dt[0] if dt is not None else None,
                        dt_inverse=dt[1] if dt is not None else None,
                    )
                )
            if sub_span is not None:
                sub_span.finish()
        trace = (
            TraceEnvelope(spans=worker_span.finish().to_dict())
            if worker_span is not None
            else None
        )
        return ComputeReply(results=results, trace=trace)

    def _resolve_block(self, sub: SubQuery) -> np.ndarray | None:
        """The sub's overlay block: shipped inline, or held from before.

        The scheduler elides a block only when it believes this target
        holds the stamped overlay epoch; a mismatch here means the
        parent's bookkeeping diverged, which must surface, not silently
        use stale overlay distances.
        """
        if sub.block is not None:
            self._block = sub.block
            self._block_epoch = sub.block_epoch
            return sub.block
        if sub.block_cached:
            if self._block is None or self._block_epoch != sub.block_epoch:
                raise RuntimeError("no cached overlay block held")
            return self._block
        return None

    # -- health ---------------------------------------------------------
    def health(self, probe: HealthCheck) -> HealthReply:
        """Answer a liveness probe without touching the label buffers."""
        return HealthReply(
            nonce=probe.nonce, epoch=self.epoch, served=self.served
        )


# ---------------------------------------------------------------------------
# the worker process (pipe transport)
# ---------------------------------------------------------------------------

def _attach_views(message) -> tuple[list, np.ndarray, np.ndarray]:
    """Attach the segments a :class:`SpecRequest`/:class:`Republish`
    names; returns read-only numpy views over them.

    The parent is the only writer; a worker-side write would silently
    diverge from the authoritative store, so it raises instead.
    """
    values_shm = _attach_shm(message.shm_values)
    offsets_shm = _attach_shm(message.shm_offsets)
    values = np.ndarray(
        (message.values_len,), dtype=np.float64, buffer=values_shm.buf
    )
    offsets = np.ndarray(
        (message.offsets_len,), dtype=np.int64, buffer=offsets_shm.buf
    )
    values.flags.writeable = False
    offsets.flags.writeable = False
    return [values_shm, offsets_shm], values, offsets


def _worker_main(conn) -> None:
    """One shard worker: attach buffers, answer frames until shutdown.

    Runs as the target of a spawned process (module-level, so it is
    importable under any start method). Each pipe message is one
    protocol frame; the :class:`ShardExecutor` holds all state. Worker
    exceptions become :class:`~repro.service.protocol.ErrorReply`
    frames instead of hanging the parent.
    """
    executor = ShardExecutor()
    shms: list = []
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                message = decode_frame(frame)
                if isinstance(message, SpecRequest):
                    shms, values, offsets = _attach_views(message)
                    reply: Message = executor.setup(message, values, offsets)
                elif isinstance(message, ComputeBatch):
                    reply = executor.compute(message)
                elif isinstance(message, EpochDelta):
                    reply = executor.apply_delta(message)
                elif isinstance(message, HealthCheck):
                    reply = executor.health(message)
                elif isinstance(message, Republish):
                    old = shms
                    shms, values, offsets = _attach_views(message)
                    executor.bind(values, offsets)
                    executor.epoch = message.epoch
                    # Ack *before* the parent unlinks the old segments;
                    # detach our old mappings now that the swap is done.
                    for shm in old:
                        shm.close()
                    reply = AckReply()
                elif isinstance(message, Shutdown):
                    conn.send_bytes(encode_frame(ByeReply()))
                    break
                else:  # pragma: no cover - future message types
                    reply = ErrorReply(
                        message=f"unhandled {type(message).__name__}"
                    )
            except Exception as exc:  # surface instead of hanging the parent
                reply = ErrorReply(message=f"{type(exc).__name__}: {exc}")
            conn.send_bytes(encode_frame(reply))
    finally:
        for shm in shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        conn.close()


# ---------------------------------------------------------------------------
# parent-side worker handle
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """Parent-side endpoint of one shard worker.

    Owns the shard's shared segments and the duplex pipe. All traffic
    goes through :meth:`request`, serialised by a lock — within one
    batch the scheduler already funnels a worker's requests through a
    single I/O thread, the lock guards cross-batch races.
    """

    def __init__(self, ctx, sid: int, index):
        self.sid = sid
        self.process = None
        self.conn = None
        self.segments: list[_Segment] = []
        self._lock = threading.Lock()
        try:
            values, offsets = index.shard_buffers(sid)
            self.values_seg = _publish_array(values, np.float64)
            self.segments.append(self.values_seg)
            self.offsets_seg = _publish_array(offsets, np.int64)
            self.segments.append(self.offsets_seg)
            self.conn, child_conn = ctx.Pipe()
            self.process = ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                name=f"dhl-shard-worker-{sid}",
                daemon=True,
            )
            self.process.start()
            child_conn.close()
            self.conn.send_bytes(
                encode_frame(
                    SpecRequest(
                        payload=index.shard_worker_payload(sid),
                        shm_values=self.values_seg.meta[0],
                        shm_offsets=self.offsets_seg.meta[0],
                        values_len=self.values_seg.meta[1],
                        offsets_len=self.offsets_seg.meta[1],
                    )
                )
            )
            reply = self.request_reply(timeout=_STARTUP_TIMEOUT)
            if not isinstance(reply, ReadyReply):
                raise ServiceRuntimeError(
                    f"shard worker {sid} failed to start: {reply!r}"
                )
        except BaseException:
            self.destroy()
            raise

    def request_reply(self, timeout: float | None = None) -> Message:
        if timeout is not None and not self.conn.poll(timeout):
            raise ServiceRuntimeError(
                f"shard worker {self.sid} did not answer within {timeout}s"
            )
        return decode_frame(self.conn.recv_bytes())

    def request(self, message: Message, timeout: float | None = None) -> Message:
        """Send one request frame and decode the worker's reply."""
        with self._lock:
            try:
                self.conn.send_bytes(encode_frame(message))
                reply = self.request_reply(timeout)
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise ServiceRuntimeError(
                    f"shard worker {self.sid} is gone ({exc!r}); "
                    "the runtime must be closed"
                ) from exc
        if isinstance(reply, ErrorReply):
            raise ServiceRuntimeError(f"shard worker {self.sid}: {reply.message}")
        if isinstance(reply, StaleReply):
            raise WorkerEpochError(
                f"shard worker {self.sid} holds epoch {reply.held} but the "
                f"batch is stamped {reply.stamped}"
                + (
                    " (missed epoch broadcast)"
                    if reply.stamped > reply.held
                    else ""
                )
            )
        return reply

    # -- delta publication ----------------------------------------------
    def delta_applicable(self, labels) -> bool:
        """True when the live store still fits the published layout."""
        return bool(
            np.array_equal(np.diff(self.offsets_seg.array), labels.lengths)
        )

    def write_full(self, labels) -> int:
        """Copy the whole value buffer into the segment, in place.

        Used when the parent index moved without telling the runtime
        which labels changed (a direct ``index.update`` bypassing
        ``apply_update``); requires :meth:`delta_applicable`.
        """
        values, _ = labels.export_buffers()
        self.values_seg.array[...] = values
        return int(values.nbytes)

    def write_deltas(self, labels, affected: Iterable[int]) -> int:
        """Copy changed label slots into the shared segment, in place.

        Returns bytes written. Only valid when :meth:`delta_applicable`;
        the worker sees the new values immediately (same pages), the
        epoch broadcast afterwards makes the cut-over explicit.
        """
        offsets = self.offsets_seg.array
        values = self.values_seg.array
        shipped = 0
        for v in affected:
            start = int(offsets[v])
            length = int(offsets[v + 1]) - start
            values[start : start + length] = labels.view(v)
            shipped += 8 * length
        return shipped

    def republish(self, labels, new_epoch: int) -> int:
        """Publish fresh segments (layout changed) and swap the worker over."""
        values, offsets = labels.export_buffers()
        old = self.segments
        self.values_seg = _publish_array(values, np.float64)
        self.offsets_seg = _publish_array(offsets, np.int64)
        self.segments = [self.values_seg, self.offsets_seg]
        try:
            self.request(
                Republish(
                    epoch=new_epoch,
                    shm_values=self.values_seg.meta[0],
                    shm_offsets=self.offsets_seg.meta[0],
                    values_len=self.values_seg.meta[1],
                    offsets_len=self.offsets_seg.meta[1],
                )
            )
        finally:
            # Unlink the old pair whether the worker acked re-attachment
            # or died mid-swap — a failed request must not strand the
            # (large) previous label segments in /dev/shm.
            for segment in old:
                segment.destroy()
        return int(self.values_seg.array.nbytes + self.offsets_seg.array.nbytes)

    # -- teardown --------------------------------------------------------
    def destroy(self) -> None:
        """Join the worker and unlink every owned segment; idempotent."""
        if self.process is not None and self.process.is_alive():
            try:
                with self._lock:
                    self.conn.send_bytes(encode_frame(Shutdown()))
                    self.request_reply(timeout=_SHUTDOWN_TIMEOUT)
            except Exception:
                pass
            self.process.join(_SHUTDOWN_TIMEOUT)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.terminate()
                self.process.join(_SHUTDOWN_TIMEOUT)
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.process = None
        for segment in self.segments:
            segment.destroy()
        self.segments = []


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------

class ShardWorkerRuntime(RegionPairScheduler):
    """Serve a sharded index from one worker process per region shard.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.sharded.ShardedDHLIndex`. The
        parent keeps the authoritative copy (updates apply here); the
        workers hold attached label buffers for query execution.
    start_method:
        ``multiprocessing`` start method; ``spawn`` by default and the
        only method the runtime is tested with (fork would work on
        Linux but inherits arbitrary parent state).
    """

    kind = "worker-pool"

    def __init__(self, index, *, start_method: str = "spawn"):
        super().__init__(index)
        # Overlay epoch at which each worker last received its intra
        # boundary block (-1: never shipped).
        self._block_epochs = [-1] * index.k
        self._workers: list[_WorkerHandle] = []
        ctx = get_context(start_method)
        try:
            # Spawn + handshake concurrently: interpreter boot dominates
            # worker startup, so k workers come up in ~one boot.
            futures = [
                self._pool.submit(_WorkerHandle, ctx, sid, index)
                for sid in range(index.k)
            ]
            errors = []
            for future in futures:
                try:
                    self._workers.append(future.result())
                except BaseException as exc:
                    errors.append(exc)
            if errors:
                raise errors[0]
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # ExecutionRuntime surface
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return f"worker-pool/sharded[{len(self._workers)} workers]"

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        requests: dict[int, list[tuple[tuple[int, int], SubQuery]]],
        request_span: Span | None = None,
    ) -> dict[tuple[int, int], SubResult]:
        """Ship each worker its sub-queries in one frame, concurrently.

        One pipe round trip per worker per batch (the I/O threads only
        wait on their worker, so the k shard processes compute in
        parallel). Overlay blocks the worker already holds are elided
        per target. With *request_span*, each round trip gets a
        ``worker[sid]`` child span and the worker is asked to ship its
        own subtree back, which is grafted under that child — the spans
        are finished even when the worker refuses the batch as stale,
        so an aborted trace still shows the round trip that failed.
        """

        def run(sid: int, items):
            handle = self._workers[sid]
            held = self._block_epochs[sid]
            shipped = -1
            subs = []
            for _, sub in items:
                if sub.block is not None:
                    if sub.block_epoch == held:
                        sub = sub.without_block()
                    else:
                        shipped = sub.block_epoch
                subs.append(sub)
            worker_span = None
            if request_span is not None:
                worker_span = request_span.child(f"worker[{sid}]")
                worker_span.annotate(subs=len(subs))
            try:
                reply = handle.request(
                    ComputeBatch(
                        epoch=self._epochs[sid],
                        subs=subs,
                        want_trace=worker_span is not None,
                    )
                )
            finally:
                if worker_span is not None:
                    worker_span.finish()
            if worker_span is not None and reply.trace is not None:
                worker_span.graft(reply.trace.spans)
            if shipped >= 0:
                # Only a delivered block counts as held worker-side; a
                # failed dispatch re-ships next batch.
                self._block_epochs[sid] = shipped
            return [
                (slot, result)
                for (slot, _), result in zip(items, reply.results)
            ]

        futures = [
            self._pool.submit(run, sid, items) for sid, items in requests.items()
        ]
        replies: dict[tuple[int, int], SubResult] = {}
        for future in futures:
            for slot, result in future.result():
                replies[slot] = result
        return replies

    def _sync_shard(self, sid: int, affected: Iterable[int]) -> None:
        handle = self._workers[sid]
        labels = self.index.shards[sid].labels
        if handle.delta_applicable(labels):
            self.stats.delta_bytes += handle.write_deltas(labels, affected)
            handle.request(EpochDelta(epoch=self._epochs[sid]))
            self.stats.delta_syncs += 1
        else:  # label layout moved: publish fresh buffers
            self.stats.republish_bytes += handle.republish(
                labels, self._epochs[sid]
            )
            self.stats.republishes += 1

    def _full_sync(self, sid: int) -> None:
        handle = self._workers[sid]
        labels = self.index.shards[sid].labels
        if handle.delta_applicable(labels):
            handle.write_full(labels)
            handle.request(EpochDelta(epoch=self._epochs[sid]))
        else:
            self.stats.republish_bytes += handle.republish(
                labels, self._epochs[sid]
            )
            self.stats.republishes += 1

    def _close_transport(self) -> None:
        for handle in self._workers:
            try:
                handle.destroy()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._workers = []

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        state = "closed" if self._closed else f"{len(self._workers)} workers"
        return f"ShardWorkerRuntime(k={self.index.k}, {state})"
