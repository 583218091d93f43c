"""The shard runtime: replica processes behind a small transport seam.

:class:`ShardRuntime` serves each region shard of a
:class:`~repro.core.sharded.ShardedDHLIndex` from ``replicas`` long-lived
processes. *What* to compute is the
:class:`~repro.service.runtime.RegionPairScheduler` base; keeping
replicas alive and current lives here, once: the replica loop
(:func:`_replica_main` feeding the transport-blind
:class:`ShardExecutor`), the parent-side :class:`_ReplicaHandle`
(deadline, :class:`~repro.service.faults.FaultPlan` hook), dispatch
with failover and shedding, label sync, and the
:class:`ReplicaSupervisor`.

**The transport seam** is a channel class plus a per-shard buffer class
— nothing else in this module may branch on the transport:

* :class:`_PipeChannel` + :class:`_ShmBuffers` — frames over a duplex
  ``multiprocessing`` pipe; a shard's packed label buffers
  (``label_values`` float64 + ``label_offsets`` int64, the v3 snapshot
  layout) are published once into a shared-memory segment pair that
  every replica of the shard attaches read-only. Deltas are written in
  place and announced with a bare ``EpochDelta``.
* :class:`_TcpChannel` + :class:`_InlineBuffers` — each replica binds a
  loopback port (reported over a one-shot bootstrap pipe) and speaks
  the same frames length-prefixed over TCP; label buffers travel
  inline and every replica keeps a private writable copy that
  ``EpochDelta(vertices, payload)`` frames splice into. A faithful
  local stand-in for a multi-host deployment.

Replica-side the choice is read off the message itself (``shm_values``
set ⇒ attach read-only views, else private copies), so
:class:`ShardExecutor` and the wire protocol know no transport.

**Consistency.** Every compute batch is stamped with the shard's epoch;
a replica holding another epoch refuses it untouched
(:class:`~repro.service.protocol.StaleReply`). A replica *behind* the
parent missed a broadcast: it is resynced (``resyncs``) and the batch
retried once. A refusal that persists, or a replica *ahead* of the
parent, is a :class:`~repro.exceptions.WorkerEpochError` — never a
silently stale distance.

Replicas are started with the ``spawn`` method; every process, channel
and shared-memory segment is released by :meth:`ShardRuntime.close`,
including on construction failure.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading
import time
from multiprocessing import get_context, shared_memory
from typing import Callable, Iterable

import numpy as np

from repro.exceptions import (
    ServiceRuntimeError,
    ShardUnavailableError,
    WorkerEpochError,
)
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
    recv_message,
    send_message,
)
from repro.service.runtime import CircuitBreaker, RegionPairScheduler, RetryPolicy
from repro.sharding.engine import boundary_fan, boundary_fans, min_plus_compact

__all__ = [
    "ShardExecutor",
    "ShardRuntime",
    "ShardWorkerRuntime",
    "SocketShardRuntime",
    "ReplicaSupervisor",
]

_STARTUP_TIMEOUT = 120.0
_SHUTDOWN_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# the worker-side state machine (transport independent)
# ---------------------------------------------------------------------------

class ShardExecutor:
    """One shard's protocol state machine, independent of transport.

    The replica loop decodes frames and hands the messages here. The
    executor owns the shard structure, the bound label buffers, the
    held epoch and the cached overlay block; it answers every message
    with the matching reply dataclass and never touches a byte stream,
    which is what makes the compute path testable in-process.
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

        self.values = values
        self.offsets = offsets
        index = self.index
        labels = HierarchicalLabelling.from_shared_buffers(
            values, offsets, index.hq.tau
        )
        # Adoption resolves the engine in this process: a replica opens
        # the cached native library itself, or downgrades on its own.
        index._adopt(index.hq, index.hu, (labels,))
        # Build the H_Q tables the kernels read while attaching, not
        # inside the first epoch-stamped batch: the LCA tables for the
        # pair kernel (and the compiled fans), the ancestor-chain store
        # for the numpy fans.
        engine = index.engine
        if not engine.supports_batch_kernel() or engine.engine != "compiled":
            engine.hub_store()

    # -- maintenance ----------------------------------------------------
    def apply_delta(self, delta: EpochDelta) -> AckReply:
        """Adopt the epoch; splice inline label deltas first if present.

        ``vertices=None`` means the parent already wrote the values into
        the attached segment in place; otherwise the changed label
        arrays arrive inline and are spliced into the private writable
        buffers using the executor's own offsets.
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
                    best = min_plus_compact(
                        ds[0], ds[1], block, dt[0], dt[1], engine.engine
                    )
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
# the transport seam, local side: duplex pipe + shared-memory label buffers
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

    def __init__(self, array: np.ndarray, dtype):
        array = np.ascontiguousarray(array, dtype=dtype)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        self.array = np.ndarray(array.shape, dtype=dtype, buffer=self.shm.buf)
        self.array[...] = array

    def destroy(self) -> None:
        self.array = None
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _ShmBuffers:
    """One shard's label buffers in a parent-owned segment pair.

    Published once per shard, attached read-only by every replica of
    it. The parent is the only writer: deltas land in place (replicas
    see the same pages) and the epoch announcement afterwards makes the
    cut-over explicit.
    """

    def __init__(self, labels):
        self.segments: list[_Segment] = []
        try:
            self.publish(labels)
        except BaseException:
            self.destroy()
            raise

    @property
    def offsets(self) -> np.ndarray:
        return self.segments[1].array

    def announce(self, labels=None) -> dict:
        """Message fields naming the current segment pair."""
        values, offsets = self.segments
        return {
            "shm_values": values.shm.name,
            "shm_offsets": offsets.shm.name,
            "values_len": len(values.array),
            "offsets_len": len(offsets.array),
        }

    def publish(self, labels) -> dict:
        """Copy the live buffers into a fresh segment pair; announce it."""
        values, offsets = labels.export_buffers()
        old, self.segments = self.segments, []
        try:
            self.segments.append(_Segment(values, np.float64))
            self.segments.append(_Segment(offsets, np.int64))
        finally:
            # The superseded pair goes whether or not the fresh one came
            # up: unlinking only removes the name, a replica's mapping
            # stays valid until it rebinds (or exits), and a failed
            # publish must not strand the large old segments.
            for segment in old:
                segment.destroy()
        return self.announce()

    def delta(self, labels, vertices: np.ndarray) -> dict:
        """Copy changed label slots into the segment, in place."""
        offsets, values = self.offsets, self.segments[0].array
        for v in vertices.tolist():
            values[offsets[v] : offsets[v + 1]] = labels.view(v)
        return {}

    def destroy(self) -> None:
        for segment in self.segments:
            segment.destroy()
        self.segments = []


class _PipeChannel:
    """Framed messages over a duplex pipe (it preserves frame
    boundaries, so no length prefix); labels ride :class:`_ShmBuffers`."""

    buffers = _ShmBuffers

    def __init__(self, conn):
        self.conn = conn

    @classmethod
    def dial(cls, endpoint) -> "_PipeChannel":
        return cls(endpoint)

    @classmethod
    def accept(cls, endpoint) -> "_PipeChannel":
        return cls(endpoint)

    def send(self, message: Message) -> None:
        self.conn.send_bytes(encode_frame(message))

    def recv(self, timeout: float | None) -> Message:
        if timeout is not None and not self.conn.poll(timeout):
            raise TimeoutError(f"no reply within {timeout}s")
        return decode_frame(self.conn.recv_bytes())

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# the transport seam, remote side: loopback TCP + inline label buffers
# ---------------------------------------------------------------------------

class _InlineBuffers:
    """One shard's label layout as last shipped to its replicas.

    Replicas hold private writable copies; the parent keeps only the
    published offsets, which gate the delta path.
    """

    def __init__(self, labels):
        self.publish(labels)

    def announce(self, labels) -> dict:
        """Message fields carrying the live buffers inline."""
        values, offsets = labels.export_buffers()
        return {"values": values, "offsets": offsets}

    def publish(self, labels) -> dict:
        fields = self.announce(labels)
        self.offsets = np.array(fields["offsets"], dtype=np.int64)
        return fields

    def delta(self, labels, vertices: np.ndarray) -> dict:
        """The changed label arrays, concatenated in vertex order (each
        replica splices them apart by its own offsets)."""
        if len(vertices):
            payload = np.concatenate([labels.view(v) for v in vertices.tolist()])
        else:
            payload = np.empty(0, dtype=np.float64)
        return {"vertices": vertices, "payload": payload}

    def destroy(self) -> None:
        pass


class _TcpChannel:
    """Length-prefixed frames over one loopback TCP connection; labels
    ride :class:`_InlineBuffers`. The replica binds port 0 and reports
    the port over the one-shot bootstrap pipe it was spawned with."""

    buffers = _InlineBuffers

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock

    @classmethod
    def dial(cls, bootstrap) -> "_TcpChannel":
        try:
            if not bootstrap.poll(_STARTUP_TIMEOUT):
                raise ServiceRuntimeError("replica never reported its port")
            port = bootstrap.recv()
        finally:
            bootstrap.close()
        return cls(
            socket.create_connection(("127.0.0.1", port), _STARTUP_TIMEOUT)
        )

    @classmethod
    def accept(cls, bootstrap) -> "_TcpChannel":
        # Exactly one connection — the parent runtime — is ever served.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            bootstrap.send(server.getsockname()[1])
            bootstrap.close()
            server.settimeout(_STARTUP_TIMEOUT)
            conn, _ = server.accept()
        return cls(conn)

    def send(self, message: Message) -> None:
        send_message(self.sock, message)

    def recv(self, timeout: float | None) -> Message:
        self.sock.settimeout(timeout)
        return recv_message(self.sock)

    def close(self) -> None:
        self.sock.close()


# ---------------------------------------------------------------------------
# the replica process
# ---------------------------------------------------------------------------

def _label_buffers(message) -> tuple[list, np.ndarray, np.ndarray]:
    """The label buffers a :class:`SpecRequest`/:class:`Republish` brings.

    Named segments are attached as read-only views (the parent is the
    only writer; a replica-side write would silently diverge from the
    authoritative store, so it raises instead); inline buffers become
    private writable copies that later deltas splice into. Returns the
    attached segments (to close on rebind/exit) and the two arrays.
    """
    if message.shm_values is None:
        values = np.array(message.values, dtype=np.float64)
        return [], values, np.array(message.offsets, dtype=np.int64)
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


def _replica_main(channel_type, endpoint) -> None:
    """One shard replica: open the channel, answer frames until told to
    stop or disconnected.

    Runs as the target of a spawned process (module-level, so it is
    importable under any start method). A vanished parent, or a parent
    that abandoned this replica after a failover, must not leave an
    orphan behind: any receive failure ends the loop. All state lives
    in the :class:`ShardExecutor`; its exceptions become
    :class:`~repro.service.protocol.ErrorReply` frames instead of
    hanging the parent.
    """
    executor = ShardExecutor()
    channel = channel_type.accept(endpoint)
    attached: list = []
    try:
        while True:
            try:
                message = channel.recv(None)
            except Exception:
                break
            try:
                if isinstance(message, (SpecRequest, Republish)):
                    stale = attached
                    attached, values, offsets = _label_buffers(message)
                    if isinstance(message, SpecRequest):
                        reply: Message = executor.setup(message, values, offsets)
                    else:
                        executor.bind(values, offsets)
                        executor.epoch = message.epoch
                        reply = AckReply()
                    for shm in stale:
                        shm.close()
                elif isinstance(message, ComputeBatch):
                    reply = executor.compute(message)
                elif isinstance(message, EpochDelta):
                    reply = executor.apply_delta(message)
                elif isinstance(message, HealthCheck):
                    reply = executor.health(message)
                elif isinstance(message, Shutdown):
                    channel.send(ByeReply())
                    break
                else:  # pragma: no cover - future message types
                    reply = ErrorReply(
                        message=f"unhandled {type(message).__name__}"
                    )
            except Exception as exc:  # surface instead of hanging the parent
                reply = ErrorReply(message=f"{type(exc).__name__}: {exc}")
            try:
                channel.send(reply)
            except OSError:  # pragma: no cover - parent went away mid-reply
                break
    finally:
        for shm in attached:
            shm.close()
        channel.close()


# ---------------------------------------------------------------------------
# parent-side replica handle
# ---------------------------------------------------------------------------

class _ReplicaHandle:
    """Parent-side endpoint of one shard replica.

    Owns the process and the channel. :meth:`request` applies the
    per-request deadline; any timeout or channel error marks the handle
    dead (the failover unit is the whole replica — no reconnects to a
    broken channel, matching how a remote host would be drained). A
    dead handle is *replaced*, not revived: the supervisor spawns a
    fresh process with ``incarnation + 1``. A lock serialises
    cross-batch races — within one batch the scheduler already funnels
    a shard's requests through a single I/O thread.
    """

    def __init__(self, runtime: "ShardRuntime", sid: int, replica: int,
                 incarnation: int = 0):
        self.sid = sid
        self.replica = replica
        self.incarnation = incarnation
        self.timeout = runtime.request_timeout
        self.faults = runtime.fault_plan
        #: Requests issued through this handle (the fault-plan clock).
        self.requests = 0
        #: Health probes issued through this handle.
        self.health_requests = 0
        #: Overlay epoch of the intra block this replica holds (-1: none).
        self.block_epoch = -1
        self.alive = False
        self.process = None
        self.channel = None
        self._lock = threading.Lock()
        endpoint, child_endpoint = runtime._ctx.Pipe()
        try:
            self.process = runtime._ctx.Process(
                target=_replica_main,
                args=(runtime.channel_type, child_endpoint),
                name=f"dhl-shard-{sid}-r{replica}-i{incarnation}",
                daemon=True,
            )
            self.process.start()
            child_endpoint.close()
            self.channel = runtime.channel_type.dial(endpoint)
            # The shard's *current* buffers at its *current* epoch: a
            # respawn is a full resync by construction.
            self.channel.send(
                SpecRequest(
                    payload=runtime.index.shard_worker_payload(sid),
                    epoch=runtime._epochs[sid],
                    **runtime._buffers[sid].announce(
                        runtime.index.shards[sid].labels
                    ),
                )
            )
            reply = self.channel.recv(_STARTUP_TIMEOUT)
            if not isinstance(reply, ReadyReply):
                raise ServiceRuntimeError(
                    f"shard {sid} replica {replica} failed to start: {reply!r}"
                )
            self.alive = True
        except BaseException:
            endpoint.close()
            self.destroy()
            raise

    def request(self, message: Message) -> Message:
        """One framed round trip under the request deadline; a timeout
        or channel failure kills the handle."""
        with self._lock:
            if not self.alive:
                raise ServiceRuntimeError(
                    f"shard {self.sid} replica {self.replica} is dead"
                )
            try:
                if self.faults is not None:
                    self.faults.apply(self, message)
                self.channel.send(message)
                reply = self.channel.recv(self.timeout)
            except Exception as exc:
                # Timeout, reset, or a torn frame: this replica is done.
                self.alive = False
                raise ServiceRuntimeError(
                    f"shard {self.sid} replica {self.replica} failed "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        if isinstance(reply, ErrorReply):
            raise ServiceRuntimeError(
                f"shard {self.sid} replica {self.replica}: {reply.message}"
            )
        return reply

    def destroy(self) -> None:
        """Close the channel and reap the process; idempotent."""
        if self.channel is not None:
            if self.alive:
                try:
                    with self._lock:
                        self.channel.send(Shutdown())
                        self.channel.recv(_SHUTDOWN_TIMEOUT)
                except Exception:
                    pass
            self.alive = False
            try:
                self.channel.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.channel = None
        if self.process is not None:
            self.process.join(_SHUTDOWN_TIMEOUT)
            if self.process.is_alive():  # pragma: no cover - stuck replica
                self.process.terminate()
                self.process.join(_SHUTDOWN_TIMEOUT)
            self.process = None


# ---------------------------------------------------------------------------
# the replica supervisor
# ---------------------------------------------------------------------------

class ReplicaSupervisor:
    """Detects dead replicas and brings them back.

    The supervisor is deliberately *pull-based and deterministic*: it
    owns no thread. :meth:`poll` is driven opportunistically at batch
    dispatch (rate-limited by ``interval`` against the injectable
    *clock*) or explicitly by tests/operators with ``force=True`` — so
    recovery behavior is reproducible without sleeps.

    One poll does two things per shard:

    * **Health checks.** Every live replica gets a
      :class:`~repro.service.protocol.HealthCheck` with a fresh nonce;
      a timeout, error, or wrong echo marks it dead
      (``heartbeat_timeouts``). A healthy replica reporting a stale
      epoch is resynced (``resyncs``).
    * **Respawns.** Every dead slot past its backoff deadline
      (``policy.delay(attempt)``, deterministic jitter) is replaced by
      a fresh process with ``incarnation + 1``, handshaking with the
      shard's current buffers at the current epoch. Success counts a
      ``respawn``, records the slot's downtime — first seen dead until
      the replacement handshook, on the supervision clock — in
      ``recovery_ms`` (and the ``dhl_recovery_ms`` histogram), and
      moves the shard's breaker to half-open; failure counts a
      ``respawn_failure`` and backs off further, giving up after
      ``policy.attempts`` tries.
    """

    def __init__(
        self,
        runtime: "ShardRuntime",
        *,
        policy: RetryPolicy,
        interval: float,
        clock: Callable[[], float],
    ):
        self.runtime = runtime
        self.policy = policy
        self.interval = interval
        self.clock = clock
        self._next_poll = clock()
        #: Respawn attempt counter per (sid, replica) slot.
        self._attempts: dict[tuple[int, int], int] = {}
        #: Earliest clock reading the next respawn of a slot may run.
        self._not_before: dict[tuple[int, int], float] = {}
        #: When each slot was first seen dead (downtime measurement).
        self._down_since: dict[tuple[int, int], float] = {}
        self._nonce = itertools.count(1)
        #: Downtime of every successful respawn, milliseconds.
        self.recovery_ms: list[float] = []

    # ------------------------------------------------------------------
    def poll(self, force: bool = False) -> dict:
        """One supervision cycle; returns what it did.

        Rate-limited: a call before ``interval`` elapsed is a no-op
        unless *force* is set. The summary maps ``checked`` /
        ``timeouts`` / ``respawned`` / ``failed`` / ``gave_up`` to
        counts (plus ``skipped=True`` for the rate-limited no-op).
        """
        now = self.clock()
        if not force and now < self._next_poll:
            return {"skipped": True}
        self._next_poll = now + self.interval
        runtime = self.runtime
        summary = {
            "checked": 0,
            "timeouts": 0,
            "respawned": 0,
            "failed": 0,
            "gave_up": 0,
        }
        for sid, group in enumerate(runtime._groups):
            for slot, handle in enumerate(group):
                key = (sid, slot)
                if handle.alive:
                    summary["checked"] += 1
                    if self._health_check(handle):
                        continue
                    summary["timeouts"] += 1
                if key not in self._down_since:
                    # First sighting arms the backoff, so a slot that
                    # just failed its probe comes back on a later cycle.
                    self._down_since[key] = now
                    self._not_before[key] = now + self.policy.delay(0)
                if self._attempts.get(key, 0) >= self.policy.attempts:
                    summary["gave_up"] += 1
                elif now >= self._not_before[key]:
                    respawned = self._respawn(key, handle, now)
                    summary["respawned" if respawned else "failed"] += 1
        return summary

    # ------------------------------------------------------------------
    def _health_check(self, handle: _ReplicaHandle) -> bool:
        """Probe one live replica; marks it dead on any failure."""
        runtime = self.runtime
        nonce = next(self._nonce)
        try:
            reply = handle.request(HealthCheck(nonce=nonce))
        except ServiceRuntimeError:
            reply = None
        if not isinstance(reply, HealthReply) or reply.nonce != nonce:
            handle.alive = False
            runtime.stats.heartbeat_timeouts += 1
            return False
        if reply.epoch != runtime._epochs[handle.sid]:
            # Alive but behind (a delta send it missed): heal it rather
            # than killing it.
            try:
                runtime._resync_replica(handle)
            except ServiceRuntimeError:
                return False
        return True

    def _respawn(
        self, key: tuple[int, int], dead: _ReplicaHandle, now: float
    ) -> bool:
        """Replace one dead handle with a fresh process; True on success."""
        runtime = self.runtime
        sid, slot = key
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        try:
            dead.destroy()
        except Exception:  # pragma: no cover - reaping best effort
            pass
        try:
            fresh = _ReplicaHandle(
                runtime, sid, dead.replica, dead.incarnation + 1
            )
        except (ServiceRuntimeError, OSError, EOFError):
            runtime.stats.respawn_failures += 1
            self._not_before[key] = now + self.policy.delay(attempt + 1)
            return False
        runtime._groups[sid][slot] = fresh
        runtime.stats.respawns += 1
        self._attempts[key] = 0
        self._not_before.pop(key, None)
        downtime_ms = (self.clock() - self._down_since.pop(key)) * 1000.0
        self.recovery_ms.append(downtime_ms)
        runtime.observability.registry.histogram(
            "dhl_recovery_ms",
            "Downtime of a supervised replica respawn, milliseconds",
            bounds=(1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0),
        ).observe(downtime_ms)
        runtime._breakers[sid].probation()
        return True


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------

class ShardRuntime(RegionPairScheduler):
    """Serve a sharded index from N replica processes per shard.

    Subclasses name the transport (:attr:`channel_type`) — that choice
    is the only thing :class:`ShardWorkerRuntime` and
    :class:`SocketShardRuntime` differ in.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.sharded.ShardedDHLIndex`. The
        parent keeps the authoritative copy (updates apply here); the
        replicas hold label buffers for query execution.
    replicas:
        Replica processes per shard; two or more add read capacity and
        failover.
    request_timeout:
        Per-request deadline in seconds; an expired request marks the
        replica dead and fails over to a sibling.
    start_method:
        ``multiprocessing`` start method; ``spawn`` by default and the
        only method the runtime is tested with.
    degraded_mode:
        What a batch does when a shard's every replica is down:
        ``"shed"`` (default) answers the rest and raises a typed
        :class:`~repro.exceptions.PartialResultError`, ``"overlay"``
        fills the holes with parent-side boundary-route answers, and
        ``"error"`` hard-fails with
        :class:`~repro.exceptions.ShardUnavailableError`.
    retry_policy:
        Backoff schedule for supervised respawns
        (:class:`~repro.service.runtime.RetryPolicy`; a sensible
        default when ``None``).
    supervise_interval:
        Seconds between opportunistic supervisor polls at batch
        dispatch; ``0.0`` polls every batch. Explicit
        ``runtime.supervisor.poll(force=True)`` always runs.
    clock:
        Injectable monotonic clock for the supervisor (tests drive
        recovery deterministically by advancing a fake clock).
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` applied to
        every parent-side request — the deterministic chaos harness.
    """

    #: The transport seam: a channel class naming its ``buffers`` class.
    channel_type: type

    def __init__(
        self,
        index,
        *,
        replicas: int,
        request_timeout: float = 30.0,
        start_method: str = "spawn",
        degraded_mode: str = "shed",
        retry_policy: RetryPolicy | None = None,
        supervise_interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        fault_plan=None,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        super().__init__(index, degraded_mode=degraded_mode)
        self.replicas = replicas
        self.request_timeout = request_timeout
        self.fault_plan = fault_plan
        self._groups: list[list[_ReplicaHandle]] = [[] for _ in range(index.k)]
        self._buffers: list = []
        self._rr = [itertools.count() for _ in range(index.k)]
        self._breakers = [
            CircuitBreaker(sid, self.stats) for sid in range(index.k)
        ]
        self._ctx = get_context(start_method)
        self.supervisor = ReplicaSupervisor(
            self,
            policy=retry_policy or RetryPolicy(),
            interval=supervise_interval,
            clock=clock,
        )
        try:
            for shard in index.shards:
                self._buffers.append(self.channel_type.buffers(shard.labels))
            # Spawn + handshake concurrently: interpreter boot dominates
            # replica startup, so all of them come up in ~one boot.
            futures = [
                self._pool.submit(_ReplicaHandle, self, sid, replica)
                for sid in range(index.k)
                for replica in range(replicas)
            ]
            errors = []
            for future in futures:
                try:
                    handle = future.result()
                    self._groups[handle.sid].append(handle)
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
        return f"{self.kind}/sharded[{self.index.k}x{self.replicas} replicas]"

    @property
    def worker_count(self) -> int:
        return sum(len(group) for group in self._groups)

    def alive_replicas(self, sid: int) -> list[_ReplicaHandle]:
        return [handle for handle in self._groups[sid] if handle.alive]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        requests: dict[int, list[tuple[tuple[int, int], SubQuery]]],
        request_span: Span | None = None,
    ) -> dict[tuple[int, int], SubResult]:
        """One framed round trip per shard, concurrently (the I/O threads
        only wait, so the k shards compute in parallel).

        With *request_span*, each shard gets a ``worker[sid]`` child
        span the replica's own subtree is grafted under — finished even
        when the batch is refused or shed, so an aborted trace still
        shows the round trip that failed.
        """

        def run(sid: int, items):
            span = None
            if request_span is not None:
                span = request_span.child(f"worker[{sid}]")
                span.annotate(subs=len(items))
            try:
                reply = self._serve_shard(sid, items, span)
            finally:
                if span is not None:
                    span.finish()
            if reply is None:
                return []
            self._breakers[sid].record_success()
            if span is not None and reply.trace is not None:
                span.graft(reply.trace.spans)
            return [
                (slot, result)
                for (slot, _), result in zip(items, reply.results)
            ]

        # Opportunistic supervision: dead replicas come back (and
        # wedged ones are detected) as part of serving traffic, without
        # a background thread. Rate-limited by the supervisor interval.
        self.supervisor.poll()
        futures = [
            self._pool.submit(run, sid, items) for sid, items in requests.items()
        ]
        replies: dict[tuple[int, int], SubResult] = {}
        for future in futures:
            for slot, result in future.result():
                replies[slot] = result
        return replies

    def _serve_shard(self, sid: int, items, span: Span | None):
        """Answer one shard's sub-queries on the next live replica in
        rotation, failing over until one does.

        The request set is immutable, so a replica killed mid-batch
        loses nothing: the identical work goes to a sibling not yet
        tried. With no replica left alive the shard's breaker trips and
        the batch goes unanswered (``None``) for the scheduler to shed
        or overlay-answer — or hard-fails under ``"error"``.
        """
        tried: list[_ReplicaHandle] = []
        while True:
            live = [h for h in self.alive_replicas(sid) if h not in tried]
            if not live:
                if self.alive_replicas(sid):
                    # They all answered — with errors: a bug, not an outage.
                    raise ServiceRuntimeError(
                        f"every live replica of shard {sid} already failed "
                        "this batch"
                    )
                self._breakers[sid].trip()
                if self.degraded_mode == "error":
                    raise ShardUnavailableError(
                        sid,
                        f"no live replica left for shard {sid}; breaker open "
                        "until the supervisor respawns one",
                    )
                if span is not None:
                    span.annotate(shed=True)
                return None
            handle = live[next(self._rr[sid]) % len(live)]
            tried.append(handle)
            try:
                return self._round_trip(handle, items, span is not None)
            except WorkerEpochError:
                raise  # an epoch bug is not an availability event
            except ServiceRuntimeError:
                # Timed out, dropped or errored: on to a sibling.
                self.stats.failovers += 1
                if span is not None:
                    span.annotate(failover=True)

    def _round_trip(self, handle: _ReplicaHandle, items, want_trace: bool):
        """One :class:`ComputeBatch` to one replica, overlay blocks it
        already holds elided; a *behind* replica is healed and asked
        once more."""
        shipped = -1
        subs = []
        for _, sub in items:
            if sub.block is not None:
                if sub.block_epoch == handle.block_epoch:
                    sub = sub.without_block()
                else:
                    shipped = sub.block_epoch
            subs.append(sub)
        batch = ComputeBatch(
            epoch=self._epochs[handle.sid], subs=subs, want_trace=want_trace
        )
        reply = handle.request(batch)
        if isinstance(reply, StaleReply) and reply.stamped > reply.held:
            self._resync_replica(handle)
            reply = handle.request(batch)
        if isinstance(reply, StaleReply):
            behind = reply.stamped > reply.held
            raise WorkerEpochError(
                f"shard {handle.sid} replica {handle.replica} holds epoch "
                f"{reply.held} but the batch is stamped {reply.stamped}"
                + (" (missed epoch broadcast)" if behind else "")
            )
        if shipped >= 0:
            # Only a delivered block counts as held replica-side; a
            # failed dispatch re-ships next batch.
            handle.block_epoch = shipped
        return reply

    # ------------------------------------------------------------------
    # label sync
    # ------------------------------------------------------------------
    def _resync_replica(self, handle: _ReplicaHandle) -> None:
        """Bring one behind replica to the shard's current buffers and
        epoch (the stale-reply path and the supervisor's skewed
        heartbeat both land here)."""
        sid = handle.sid
        fields = self._buffers[sid].announce(self.index.shards[sid].labels)
        handle.request(Republish(epoch=self._epochs[sid], **fields))
        self.stats.resyncs += 1

    def _broadcast(self, sid: int, message: Message) -> bool:
        """Send one sync frame to every live replica; True if any acked.

        A replica whose send fails is marked dead by its handle — the
        next read fails over past it. With every replica down *during
        maintenance* the epoch already advanced in the parent, so the
        breaker trips and serving moves on (``"error"`` mode raises): a
        respawned replica handshakes with the current buffers at the
        current epoch and needs no delta.
        """
        acked = False
        for handle in self.alive_replicas(sid):
            try:
                handle.request(message)
                acked = True
            except ServiceRuntimeError:
                continue
        if not acked:
            self._breakers[sid].trip()
            if self.degraded_mode == "error":
                raise ShardUnavailableError(
                    sid,
                    f"no live replica left for shard {sid} to sync; "
                    "breaker open until the supervisor respawns one",
                )
        return acked

    def _sync_shard(self, sid: int, affected: Iterable[int]) -> None:
        labels = self.index.shards[sid].labels
        buffers = self._buffers[sid]
        if not np.array_equal(np.diff(buffers.offsets), labels.lengths):
            # The live store no longer fits the published layout: a
            # delta against it would corrupt the replicas.
            self._full_sync(sid)
            return
        vertices = np.unique(np.fromiter(affected, dtype=np.int64))
        fields = buffers.delta(labels, vertices)
        if self._broadcast(sid, EpochDelta(epoch=self._epochs[sid], **fields)):
            self.stats.delta_syncs += 1
            self.stats.delta_bytes += 8 * int(labels.lengths[vertices].sum())

    def _full_sync(self, sid: int) -> None:
        buffers = self._buffers[sid]
        fields = buffers.publish(self.index.shards[sid].labels)
        if self._broadcast(sid, Republish(epoch=self._epochs[sid], **fields)):
            self.stats.republishes += 1
            self.stats.republish_bytes += 8 * (
                int(buffers.offsets[-1]) + len(buffers.offsets)
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _close_transport(self) -> None:
        for handle in itertools.chain.from_iterable(self._groups):
            try:
                handle.destroy()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._groups = [[] for _ in range(self.index.k)]
        for buffers in self._buffers:
            buffers.destroy()
        self._buffers = []


class ShardWorkerRuntime(ShardRuntime):
    """Same-host replicas: pipe frames, labels attached from shared
    memory (published once per shard, deltas written in place)."""

    kind = "worker-pool"
    channel_type = _PipeChannel

    def __init__(self, index, *, replicas: int = 1, **options):
        super().__init__(index, replicas=replicas, **options)


class SocketShardRuntime(ShardRuntime):
    """TCP replicas: length-prefixed frames, labels shipped inline into
    private per-replica copies — no shared memory assumed."""

    kind = "socket-pool"
    channel_type = _TcpChannel

    def __init__(self, index, *, replicas: int = 2, **options):
        super().__init__(index, replicas=replicas, **options)
