"""The shard runtime: replica processes behind a small transport seam.

:class:`ShardRuntime` serves each region shard of a
:class:`~repro.core.sharded.ShardedDHLIndex` from ``replicas`` long-lived
processes: it cuts a pair batch into one typed
:class:`~repro.service.protocol.SubQuery` per shard
(:class:`~repro.sharding.engine.BatchSplit`), combines the cross region
pairs from the replies, ships label deltas after maintenance and keeps replicas
alive (:class:`_ReplicaHandle`, :class:`ReplicaSupervisor`). Replica
side, :func:`_replica_main` feeds the transport-blind
:class:`ShardExecutor`.

**One thread talks to the replicas.** Every frame goes through
:meth:`ShardRuntime._exchange` on the calling thread: a round sends one
message per replica, waits on all their channels at once (one
``select.poll`` object per round, pipes and sockets alike) and has one
deadline. Dispatch and
each failover retry, label broadcasts, the start-up handshake, health
checks and shutdown are rounds; the runtime starts no thread.

**The transport seam** is a channel class plus a per-shard buffer class
— nothing else in this module may branch on the transport:

* :class:`_PipeChannel` + :class:`_ShmBuffers` — frames over a duplex
  ``multiprocessing`` pipe; a shard's packed label buffers
  (``label_values`` float64 + ``label_offsets`` int64, the v3 snapshot
  layout) are published once into a shared-memory segment pair that
  every replica of the shard attaches read-only. A delta writes the
  label entries the maintenance sweep wrote into the segment in place
  (one scatter) and is announced with a bare ``EpochDelta``.
* :class:`_TcpChannel` + :class:`_InlineBuffers` — each replica binds a
  loopback port (reported over a one-shot bootstrap pipe) and speaks
  the same frames length-prefixed over TCP; label buffers travel
  inline and every replica keeps a private writable copy that
  ``EpochDelta(positions, payload)`` frames scatter into: the written
  entries' positions in the published layout and their new values. A
  faithful local stand-in for a multi-host deployment.

Both transports share one delta contract: the positions the label sweep
wrote (``MaintenanceStats.label_positions``) are mapped into the packed
layout the replicas hold (:meth:`_LabelBuffers.place`) in O(written
entries), and anything that mapping cannot place exactly is a whole
republish.

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

**What a replica imports.** A spawned replica boots a fresh interpreter
and unpickles :func:`_replica_main`, which imports this module, then
the shard payload of its :class:`SpecRequest`: numpy, the protocol, the
runtime base classes, the sharding engine and the index packages —
never scipy (only the Delaunay generator and the Lanczos branch of
spectral bisection need it, and both import it lazily) and never
asyncio (:mod:`repro.service` re-exports lazily, so the async frontend
is not loaded). Interpreter boot is most of a runtime's start-up cost;
``tests/test_replica_boot.py`` pins that import set.
"""

from __future__ import annotations

import itertools
import pickle
import select
import socket
import threading
import time
from multiprocessing import get_context, shared_memory
from typing import Callable, Iterable

import numpy as np

from repro.core.backend import WeightChange
from repro.exceptions import (
    PartialResultError,
    ServiceRuntimeError,
    ShardUnavailableError,
    WorkerEpochError,
)
from repro.labelling.native import engine as native_engine
from repro.observability import Span, maybe_child, phase
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
from repro.service.runtime import (
    CircuitBreaker,
    ExecutionRuntime,
    RetryPolicy,
    WorkerPoolStats,
)
from repro.sharding.engine import BatchSplit, sub_query
from repro.utils.pairs import as_pair_array, check_ids

__all__ = [
    "ShardExecutor",
    "ShardRuntime",
    "ShardWorkerRuntime",
    "SocketShardRuntime",
    "ReplicaSupervisor",
]

_STARTUP_TIMEOUT = 120.0
_SHUTDOWN_TIMEOUT = 5.0
_DEGRADED_MODES = ("shed", "overlay", "error")


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
        #: The shard's boundary and held overlay block, as the shard
        #: kernel reads them through one bound record.
        self.shard: native_engine.ShardRoute | None = None
        self._block: np.ndarray | None = None
        self._block_epoch = -1

    # -- lifecycle ------------------------------------------------------
    def setup(self, spec: SpecRequest, values, offsets) -> ReadyReply:
        """Unpickle the shard structure, bind the label buffers."""
        payload = pickle.loads(spec.payload)
        self.index = payload["index"]
        self.boundary_local = np.ascontiguousarray(
            payload["boundary_local"], dtype=np.int64
        )
        self.shard = native_engine.ShardRoute(self.boundary_local, self._block)
        self.epoch = spec.epoch
        self.bind(values, offsets)
        return ReadyReply(num_vertices=self.index.graph.num_vertices, epoch=self.epoch)

    def bind(self, values: np.ndarray, offsets: np.ndarray) -> None:
        """Rebind the labelling + query engine onto fresh buffers."""
        from repro.labelling.labels import HierarchicalLabelling

        self.values = values
        self.offsets = offsets
        index = self.index
        labels = HierarchicalLabelling.from_shared_buffers(
            values, offsets, index.hq.tau
        )
        # A replica opens the cached native library itself, on its
        # first kernel call.
        index._adopt(index.hq, index.hu, (labels,))
        # Build the LCA tables the C shard kernel reads while attaching,
        # not inside the first epoch-stamped batch.
        index.engine.kernel_tables()

    # -- maintenance ----------------------------------------------------
    def apply_delta(self, delta: EpochDelta) -> AckReply | ErrorReply:
        """Adopt the epoch; scatter inline label entries first if present.

        ``positions=None`` means the parent already wrote the values into
        the attached segment in place; otherwise the written entries
        arrive inline, ``payload[i]`` for flat position ``positions[i]``
        of the packed layout, and land in the private writable buffer
        with one scatter. A position outside ``[0, len(values))`` (numpy
        would wrap a negative one onto another entry) or a payload that
        is not one value per position is an :class:`ErrorReply`, with
        the values and the epoch untouched.
        """
        positions = delta.positions
        if positions is not None:
            payload = delta.payload
            if positions.ndim != 1 or np.shape(payload) != positions.shape:
                return ErrorReply(
                    message=f"ValueError: delta payload of shape "
                    f"{np.shape(payload)} for positions of shape "
                    f"{positions.shape}"
                )
            size = len(self.values)
            if len(positions) and not (0 <= positions.min() <= positions.max() < size):
                return ErrorReply(
                    message=f"ValueError: delta position outside [0, {size})"
                )
            self.values[positions] = payload
        self.epoch = delta.epoch
        return AckReply()

    # -- compute --------------------------------------------------------
    def compute(self, batch: ComputeBatch) -> ComputeReply | StaleReply | ErrorReply:
        """Answer one batch's worth of shard-local work at its epoch.

        A batch stamped with a different epoch than held is refused
        without touching the buffers — the consistency contract that
        keeps a worker that missed a broadcast from serving silently
        wrong distances. Each sub-query is one
        :func:`~repro.sharding.engine.sub_query` call on the executor's
        bound :class:`~repro.labelling.native.engine.ShardRoute`; one
        that fails its checks (an id outside the shard, a
        block of the wrong shape, a block it does not hold) turns the
        batch into an :class:`ErrorReply` naming the error.
        """
        if batch.epoch != self.epoch:
            return StaleReply(held=self.epoch, stamped=batch.epoch)
        self.served += 1
        worker_span = Span("shard_compute") if batch.want_trace else None
        engine = self.index.engine
        results: list[SubResult] = []
        try:
            for sub in batch.subs:
                with maybe_child(worker_span, "shard_batch"):
                    final, fan, inverse = sub_query(
                        engine,
                        self.shard,
                        sub.s,
                        sub.t,
                        sub.fan,
                        self._resolve_block(sub),
                    )
                results.append(SubResult(final=final, fan=fan, fan_inverse=inverse))
        except (KeyError, ValueError, RuntimeError) as exc:
            return ErrorReply(message=f"{type(exc).__name__}: {exc}")
        trace = (
            TraceEnvelope(spans=worker_span.finish().to_dict())
            if worker_span is not None
            else None
        )
        return ComputeReply(results=results, trace=trace)

    def _resolve_block(self, sub: SubQuery) -> bool:
        """Whether the sub's intra pairs take the boundary route, through
        the block shipped inline (held from now on) or held from before.

        The scheduler elides a block only when it believes this target
        holds the stamped overlay epoch; a mismatch here means the
        parent's bookkeeping diverged, which must surface, not silently
        use stale overlay distances.
        """
        if sub.block is not None:
            block = np.asarray(sub.block)
            width = len(self.boundary_local)
            if block.shape != (width, width):
                raise ValueError(
                    f"overlay block is {block.shape}, the boundary has "
                    f"{width} vertices"
                )
            self._block = self.shard.block = native_engine.operand(block, np.float64)
            self._block_epoch = sub.block_epoch
            return True
        if sub.block_cached:
            if self._block is None or self._block_epoch != sub.block_epoch:
                raise RuntimeError("no cached overlay block held")
            return True
        return False

    # -- health ---------------------------------------------------------
    def health(self, probe: HealthCheck) -> HealthReply:
        """Answer a liveness probe without touching the label buffers."""
        return HealthReply(nonce=probe.nonce, epoch=self.epoch, served=self.served)


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
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self.array = np.ndarray(array.shape, dtype=dtype, buffer=self.shm.buf)
        self.array[...] = array

    def destroy(self) -> None:
        self.array = None
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _LabelBuffers:
    """The packed label layout a shard's replicas hold, as last published.

    ``offsets`` are the published offsets; ``_source`` is the live
    store's own offsets array when that store was packed at the publish
    (then the two layouts are one and a written position needs no
    mapping). The transports' classes add how values reach replicas.
    """

    offsets: np.ndarray
    _source: np.ndarray | None = None

    def _published(self, labels, offsets: np.ndarray) -> None:
        """Remember the live layout *offsets* were exported from."""
        self._source = offsets if offsets is labels.offsets else None

    def place(self, labels, positions: np.ndarray) -> np.ndarray | None:
        """*positions* of the live store (the entries a sweep wrote) in
        the published layout, in O(len(positions)); ``None`` when only a
        republish is safe.

        The identity while the live store is the published layout. A
        store with slack maps each position through its owner vertex
        (``searchsorted`` over the live offsets) by the difference of
        the vertex's published and live offsets. Another vertex count,
        or a written vertex whose live label length differs from its
        published one, cannot be placed.
        """
        live = labels.offsets
        if live is self._source:
            return positions
        published = self.offsets
        if len(live) != len(published):
            return None
        owners = np.searchsorted(live, positions, side="right") - 1
        starts = published[owners]
        if not np.array_equal(labels.lengths[owners], published[owners + 1] - starts):
            return None
        return positions + (starts - live[owners])


class _ShmBuffers(_LabelBuffers):
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
        self._published(labels, offsets)
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

    def delta(self, labels, positions: np.ndarray) -> dict | None:
        """Write the entries at live *positions* into the segment in
        place (one scatter); no message fields. ``None``: republish."""
        published = self.place(labels, positions)
        if published is None:
            return None
        self.segments[0].array[published] = labels.values[positions]
        return {}

    def destroy(self) -> None:
        for segment in self.segments:
            segment.destroy()
        self.segments = []


class _PipeChannel:
    """Framed messages over a duplex pipe (it preserves frame
    boundaries, so no length prefix); labels ride :class:`_ShmBuffers`.
    ``fd`` is what a round polls for the reply; :meth:`recv` reads a
    frame the round saw arrive (or blocks, in the replica loop), so it
    polls nothing itself and a pipe frame, once begun, is read whole."""

    buffers = _ShmBuffers

    def __init__(self, conn):
        self.conn = conn
        self.fd = conn.fileno()

    @classmethod
    def dial(cls, endpoint) -> "_PipeChannel":
        return cls(endpoint)

    @classmethod
    def accept(cls, endpoint) -> "_PipeChannel":
        return cls(endpoint)

    def send(self, message: Message) -> None:
        self.conn.send_bytes(encode_frame(message))

    def recv(self, timeout: float | None) -> Message:
        return decode_frame(self.conn.recv_bytes())

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# the transport seam, remote side: loopback TCP + inline label buffers
# ---------------------------------------------------------------------------

class _InlineBuffers(_LabelBuffers):
    """One shard's label layout as last shipped to its replicas.

    Replicas hold private writable copies; the parent keeps only the
    published offsets, which place the delta's positions.
    """

    def __init__(self, labels):
        self.publish(labels)

    def announce(self, labels) -> dict:
        """Message fields carrying the live buffers inline."""
        values, offsets = labels.export_buffers()
        return {"values": values, "offsets": offsets}

    def publish(self, labels) -> dict:
        fields = self.announce(labels)
        self._published(labels, fields["offsets"])
        self.offsets = np.array(fields["offsets"], dtype=np.int64)
        return fields

    def delta(self, labels, positions: np.ndarray) -> dict | None:
        """The entries at live *positions*: their published positions
        and values, which each replica scatters into its copy.
        ``None``: republish."""
        published = self.place(labels, positions)
        if published is None:
            return None
        return {"positions": published, "payload": labels.values[positions]}

    def destroy(self) -> None:
        pass


class _TcpChannel:
    """Length-prefixed frames over one loopback TCP connection; labels
    ride :class:`_InlineBuffers`. The replica binds port 0 and reports
    the port over the one-shot bootstrap pipe it was spawned with.
    ``fd`` is what a round polls for the reply; *timeout* bounds each
    socket read of the rest of the frame."""

    buffers = _InlineBuffers

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.fd = sock.fileno()

    @classmethod
    def dial(cls, bootstrap) -> "_TcpChannel":
        try:
            if not bootstrap.poll(_STARTUP_TIMEOUT):
                raise ServiceRuntimeError("replica never reported its port")
            port = bootstrap.recv()
        finally:
            bootstrap.close()
        return cls(socket.create_connection(("127.0.0.1", port), _STARTUP_TIMEOUT))

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
    private writable copies that later deltas scatter into. Returns the
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
                    reply = ErrorReply(message=f"unhandled {type(message).__name__}")
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

#: Start-up and goodbye frames: outside the fault plan's request clock.
_LIFECYCLE = (SpecRequest, Shutdown)


class _ReplicaHandle:
    """Parent-side endpoint of one shard replica.

    Owns the process and the channel. A request is a :meth:`send` and,
    later in the same :meth:`ShardRuntime._exchange` round, a
    :meth:`receive`; the lock is held from one to the other, so another
    calling thread waits for the reply in flight instead of reading it.
    A failure, or the round's deadline, retires the handle through
    :meth:`fail` (the failover unit is the whole replica — no reconnects
    to a broken channel, matching how a remote host would be drained).
    A dead handle is *replaced*, not revived: the supervisor spawns a
    fresh process with ``incarnation + 1``.
    """

    def __init__(self, runtime: "ShardRuntime", sid: int, replica: int,
                 incarnation: int = 0):
        self.sid = sid
        self.replica = replica
        self.incarnation = incarnation
        self.faults = runtime.fault_plan
        #: Requests issued through this handle (the fault-plan clock).
        self.requests = 0
        #: Health probes issued through this handle.
        self.health_requests = 0
        #: Overlay epoch of the intra block this replica holds (-1: none).
        self.block_epoch = -1
        #: Set once the replica answered its :class:`SpecRequest`.
        self.alive = False
        self.channel = None
        self._lock = threading.Lock()
        # Dialled and handshaken by ShardRuntime._spawn.
        self.endpoint, child_endpoint = runtime._ctx.Pipe()
        self.process = runtime._ctx.Process(
            target=_replica_main,
            args=(runtime.channel_type, child_endpoint),
            name=f"dhl-shard-{sid}-r{replica}-i{incarnation}",
            daemon=True,
        )
        try:
            self.process.start()
        except OSError as exc:
            self.endpoint.close()
            raise ServiceRuntimeError(
                f"shard {sid} replica {replica} failed to start ({exc!r})"
            ) from exc
        finally:
            child_endpoint.close()

    def send(self, message: Message) -> None:
        """Send half: take the lock, advance the fault clock (the plan
        fires here), write the frame. A failure kills the handle. Only
        the handshake goes to a replica not (or no longer) alive: a dead
        one's channel may still hold a late reply."""
        if not (self.alive or isinstance(message, SpecRequest)):
            raise ServiceRuntimeError(
                f"shard {self.sid} replica {self.replica} is dead"
            )
        self._lock.acquire()
        try:
            if self.faults is not None and not isinstance(message, _LIFECYCLE):
                self.faults.apply(self, message)
            self.channel.send(message)
        except Exception as exc:
            raise self.fail(exc)

    def receive(self, timeout: float) -> Message:
        """Receive half: read the reply to :meth:`send`, release the
        lock. A failure kills the handle; an :class:`ErrorReply` is
        raised but leaves it alive."""
        try:
            reply = self.channel.recv(timeout)
        except Exception as exc:
            raise self.fail(exc)
        self._lock.release()
        if isinstance(reply, ErrorReply):
            raise ServiceRuntimeError(
                f"shard {self.sid} replica {self.replica}: {reply.message}"
            )
        return reply

    def fail(self, cause: BaseException) -> ServiceRuntimeError:
        """Retire the handle mid-request (timeout, reset, a torn frame):
        mark it dead, release the lock; returns the error to report."""
        self.alive = False
        self._lock.release()
        error = ServiceRuntimeError(
            f"shard {self.sid} replica {self.replica} failed "
            f"({type(cause).__name__}: {cause})"
        )
        error.__cause__ = cause
        return error

    def start_failure(self, cause) -> ServiceRuntimeError:
        """The one error a failed dial or handshake raises (*cause*: the
        exception or the unexpected reply). Reaps the handle first, so
        the exit code it names is final."""
        process = self.process
        self.destroy()
        error = ServiceRuntimeError(
            f"shard {self.sid} replica {self.replica} failed to start "
            f"(process exit code {process.exitcode}): {cause!r}"
        )
        if isinstance(cause, BaseException):
            error.__cause__ = cause
        return error

    def destroy(self) -> None:
        """Close the channel and reap the process; idempotent."""
        self.alive = False
        if self.channel is not None:
            try:
                self.channel.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.channel = None
        self.endpoint.close()  # still ours if the replica was never dialled
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

    One poll does two things:

    * **Health checks.** Every live replica gets a
      :class:`~repro.service.protocol.HealthCheck` with a fresh nonce,
      all in one round; a timeout, error, or wrong echo marks it dead
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
        # Every live replica is probed in one round.
        probes = {
            handle: HealthCheck(nonce=next(self._nonce))
            for group in runtime._groups
            for handle in group
            if handle.alive
        }
        replies = runtime._exchange(probes.items())
        for sid, group in enumerate(runtime._groups):
            for slot, handle in enumerate(group):
                key = (sid, slot)
                if handle in probes:
                    summary["checked"] += 1
                    if self._healthy(handle, probes[handle], replies[handle]):
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
    def _healthy(self, handle: _ReplicaHandle, probe, reply) -> bool:
        """Judge one probe's reply; marks a failed replica dead."""
        runtime = self.runtime
        if not isinstance(reply, HealthReply) or reply.nonce != probe.nonce:
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

    def _respawn(self, key: tuple[int, int], dead: _ReplicaHandle, now: float) -> bool:
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
            (fresh,) = runtime._spawn([(sid, dead.replica, dead.incarnation + 1)])
        except ServiceRuntimeError:
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

_NOTHING_WRITTEN = np.empty(0, dtype=np.int64)


def _written(label_positions) -> np.ndarray | None:
    """A one-plane shard's written label positions from its
    ``MaintenanceStats.label_positions``; ``None`` when unknown."""
    if label_positions is None:
        return None
    return label_positions[0] if label_positions else _NOTHING_WRITTEN


class ShardRuntime(ExecutionRuntime):
    """Serve a sharded index from N replica processes per shard.

    Subclasses name the transport (:attr:`channel_type`) — that choice
    is the only thing :class:`ShardWorkerRuntime` and
    :class:`SocketShardRuntime` differ in. Sub-queries always carry
    their overlay block plus its epoch stamp (block materialisation is
    an engine-cache hit for the parent); a batch elides the block per
    replica once it holds that epoch — so a failover retry to a sibling
    that holds nothing re-ships it from the same :class:`SubQuery`.

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
        Deadline in seconds of one round of requests; a replica still
        silent when it expires is marked dead and the shard fails over
        to a sibling.
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

    kind: str  # the backend tag's prefix
    #: The transport seam: a channel class naming its ``buffers`` class.
    channel_type: type

    def __init__(
        self,
        index,
        *,
        replicas: int,
        request_timeout: float = 30.0,
        degraded_mode: str = "shed",
        retry_policy: RetryPolicy | None = None,
        supervise_interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        fault_plan=None,
    ):
        from repro.core.sharded import ShardedDHLIndex

        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if not isinstance(index, ShardedDHLIndex):
            raise TypeError(
                f"{type(self).__name__} requires a ShardedDHLIndex; got "
                f"{type(index).__name__} (use InProcessRuntime instead)"
            )
        if degraded_mode not in _DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {_DEGRADED_MODES}, "
                f"got {degraded_mode!r}"
            )
        self.index = index
        self.degraded_mode = degraded_mode
        self.replicas = replicas
        self.request_timeout = request_timeout
        self.fault_plan = fault_plan
        self.stats = WorkerPoolStats()
        self._epochs = [0] * index.k
        self._index_epoch = index.epoch
        self._closed = False
        self._groups: list[list[_ReplicaHandle]] = [[] for _ in range(index.k)]
        self._buffers: list = []
        self._rr = [itertools.count() for _ in range(index.k)]
        self._breakers = [CircuitBreaker(sid, self.stats) for sid in range(index.k)]
        self._ctx = get_context("spawn")
        self.supervisor = ReplicaSupervisor(
            self,
            policy=retry_policy or RetryPolicy(),
            interval=supervise_interval,
            clock=clock,
        )
        try:
            for shard in index.shards:
                self._buffers.append(self.channel_type.buffers(shard.labels))
            slots = [(sid, r, 0) for sid in range(index.k) for r in range(replicas)]
            for handle in self._spawn(slots):
                self._groups[handle.sid].append(handle)
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

    def pool_stats(self) -> WorkerPoolStats:
        return self.stats

    # ------------------------------------------------------------------
    # the one way to talk to replicas
    # ------------------------------------------------------------------
    def _exchange(self, messages, timeout: float | None = None) -> dict:
        """One round on the calling thread: send every ``(handle,
        message)``, then read the replies in arrival order under one
        deadline, *timeout* (``request_timeout``) from the sends.

        The round polls its channels through one ``select.poll`` object
        and reads a channel only once the poll saw it ready (a reply, or
        the hang-up of a dead replica). Maps each handle to its reply or
        to the ``ServiceRuntimeError`` it ended with. No request
        outlives the round: a handle still unanswered at the deadline,
        or when something raises, is marked dead — its live channel
        would hand the late reply to the next request.
        """
        timeout = self.request_timeout if timeout is None else timeout
        outcomes, pending = {}, {}  # pending: channel fd -> handle
        poller = select.poll()
        try:
            for handle, message in messages:
                try:
                    handle.send(message)
                    pending[handle.channel.fd] = handle
                    poller.register(handle.channel.fd, select.POLLIN)
                except ServiceRuntimeError as exc:
                    outcomes[handle] = exc
            deadline = time.monotonic() + timeout
            while pending and (
                ready := poller.poll(1000.0 * max(0.0, deadline - time.monotonic()))
            ):
                for fd, _ in ready:
                    handle = pending[fd]
                    try:
                        left = max(0.0, deadline - time.monotonic())
                        outcomes[handle] = handle.receive(left)
                    except ServiceRuntimeError as exc:
                        outcomes[handle] = exc
                    del pending[fd]  # only once read
                    poller.unregister(fd)
        finally:
            for handle in pending.values():
                outcomes[handle] = handle.fail(
                    TimeoutError(f"no reply within {timeout}s")
                )
        return outcomes

    def _spawn(self, slots) -> list[_ReplicaHandle]:
        """Start one replica per ``(sid, replica, incarnation)`` slot,
        then handshake them all in one round — every process boots while
        the others do, so all come up in about one interpreter boot.
        Each gets the shard's *current* buffers at its *current* epoch:
        a respawn is a full resync by construction. A replica that fails
        to start, to dial or to handshake raises one
        :class:`~repro.exceptions.ServiceRuntimeError` naming its slot
        (and, once its process ran, the exit code)."""
        handles: list[_ReplicaHandle] = []
        try:
            for sid, replica, incarnation in slots:
                handles.append(_ReplicaHandle(self, sid, replica, incarnation))
            specs = []
            for handle in handles:
                try:
                    handle.channel = self.channel_type.dial(handle.endpoint)
                except (ServiceRuntimeError, OSError, EOFError) as exc:
                    raise handle.start_failure(exc)
                payload = self.index.shard_worker_payload(handle.sid)
                spec = SpecRequest(
                    payload=payload, epoch=self._epochs[handle.sid],
                    **self._announce(handle.sid),
                )
                specs.append((handle, spec))
            replies = self._exchange(specs, _STARTUP_TIMEOUT)
            for handle, reply in replies.items():
                if not isinstance(reply, ReadyReply):
                    raise handle.start_failure(reply)
                handle.alive = True
        except BaseException:
            for handle in handles:
                handle.destroy()
            raise
        return handles

    def _announce(self, sid: int) -> dict:
        """Message fields naming shard *sid*'s published label buffers."""
        return self._buffers[sid].announce(self.index.shards[sid].labels)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distances(self, pairs) -> np.ndarray:
        """Batch distances, one sub-query per shard; an id outside
        ``[0, n)`` raises :class:`~repro.exceptions.VertexNotFound`
        before any dispatch."""
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        # Attach scheduler/worker spans under the caller's open request
        # span (None when the request was not sampled or tracing is off).
        request_span = self.observability.tracer.current
        owner = self.index
        pairs = as_pair_array(pairs)
        check_ids(owner.graph.num_vertices, pairs)
        s, t = pairs[:, 0], pairs[:, 1]
        if not len(s):
            return np.empty(0, dtype=np.float64)
        overlay_epoch = owner.overlay.epoch if owner.overlay is not None else 0
        # The shard's own (tiny, epoch-cached) overlay block travels with
        # its sub-query, so the replica folds its intra pairs' boundary
        # route itself; the batch elides the block once the replica
        # holds this overlay epoch.
        with maybe_child(request_span, "scheduler"):
            split = BatchSplit(owner, s, t)
            requests = {
                sid: SubQuery(
                    s=s_local,
                    t=t_local,
                    fan=fan,
                    block=block,
                    block_epoch=-1 if block is None else overlay_epoch,
                )
                for sid, (s_local, t_local, fan, block) in split.subs.items()
            }
        self.stats.intra_pairs += split.intra_pairs
        self.stats.cross_pairs += split.cross_pairs
        self.stats.sub_batches += len(requests)

        replies, shed = self._dispatch(requests, request_span)

        # A shed shard (breaker open) is either answered from the
        # parent's own shard engines by the boundary route alone
        # (degraded opt-in: exact for cross pairs, an upper bound for
        # intra pairs) or what needed it is shed with a typed error.
        degrade = self.degraded_mode == "overlay"
        shed_mask = np.zeros(len(s), dtype=bool)
        with maybe_child(request_span, "min_plus_combine") as combine_span:
            results = {
                sid: (reply.final, reply.fan, reply.fan_inverse)
                for sid, reply in replies.items()
            }
            for sid in shed:
                if degrade and split.routed[sid]:
                    results[sid] = split.route_only(sid)
                    self.stats.degraded_pairs += len(split.intra[sid])
                else:
                    shed_mask[split.intra[sid]] = True
            for i, j, positions, _, _ in split.routes:
                if i in shed or j in shed:
                    if degrade:
                        self.stats.degraded_pairs += len(positions)
                    else:
                        shed_mask[positions] = True
            out = split.answer(results)
            if combine_span is not None:
                combine_span.annotate(routes=len(split.routes))
        self.stats.batches += 1
        self.stats.pairs += len(s)
        # A self-pair is zero even inside a shed shard: no shard was
        # needed for it.
        shed_positions = np.flatnonzero(shed_mask & ~split.self_pairs)
        if len(shed_positions):
            out[shed_positions] = np.nan
            self.stats.shed_pairs += len(shed_positions)
            raise PartialResultError(out, shed_positions, shed)
        return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        requests: dict[int, SubQuery],
        request_span: Span | None = None,
    ) -> tuple[dict[int, SubResult], set[int]]:
        """Each shard's sub-query as one :class:`ComputeBatch` to its
        next live replica in rotation, all shards in one round; a shard
        whose replica failed goes to an untried sibling in the next
        round. The request set is immutable, so a replica killed
        mid-batch loses nothing; a *behind* replica is healed and asked
        once more. A shard with no replica left trips its breaker and
        is shed — returned with the replies by shard, for
        :meth:`distances` to shed or overlay-answer what needed it — or
        the batch hard-fails under ``"error"``.

        With *request_span*, each shard gets a ``worker[sid]`` child
        span the replica's own subtree is grafted under — finished even
        when the batch is refused or shed, so an aborted trace still
        shows the round trip that failed.
        """
        # Opportunistic supervision: dead replicas come back (and
        # wedged ones are detected) as part of serving traffic, without
        # a background thread. Rate-limited by the supervisor interval.
        self.supervisor.poll()
        spans: dict[int, Span] = {
            sid: request_span.child(f"worker[{sid}]").annotate(
                intra=len(sub.s), fan=len(sub.fan)
            )
            for sid, sub in requests.items()
            if request_span is not None
        }
        tried: dict[int, list[_ReplicaHandle]] = {sid: [] for sid in requests}
        replies: dict[int, SubResult] = {}
        shed: set[int] = set()
        waiting = list(requests)
        try:
            while waiting:
                batches = {}
                for sid in waiting:
                    handle = self._next_replica(sid, tried[sid])
                    if handle is None:
                        shed.add(sid)
                    else:
                        batches[handle] = self._compute_batch(
                            handle, requests[sid], request_span is not None
                        )
                outcomes = self._exchange(
                    (handle, batch) for handle, (batch, _) in batches.items()
                )
                waiting = []
                for handle, (batch, shipped) in batches.items():
                    sid, reply = handle.sid, outcomes[handle]
                    if isinstance(reply, StaleReply) and reply.stamped > reply.held:
                        try:
                            self._resync_replica(handle)
                            reply = self._exchange([(handle, batch)])[handle]
                        except ServiceRuntimeError as exc:
                            reply = exc
                    if isinstance(reply, StaleReply):
                        behind = reply.stamped > reply.held
                        raise WorkerEpochError(
                            f"shard {sid} replica {handle.replica} holds epoch "
                            f"{reply.held} but the batch is stamped "
                            f"{reply.stamped}"
                            + (" (missed epoch broadcast)" if behind else "")
                        )
                    if isinstance(reply, ServiceRuntimeError):
                        # Timed out, dropped or errored: on to a sibling.
                        self.stats.failovers += 1
                        if sid in spans:
                            spans[sid].annotate(failover=True)
                        waiting.append(sid)
                        continue
                    if shipped >= 0:
                        # Only a delivered block counts as held
                        # replica-side; a failed dispatch re-ships.
                        handle.block_epoch = shipped
                    self._breakers[sid].record_success()
                    if reply.trace is not None:  # asked for iff traced
                        spans[sid].finish().graft(reply.trace.spans)
                    (replies[sid],) = reply.results
        finally:
            for sid, span in spans.items():
                if sid in shed:
                    span.annotate(shed=True)
                span.finish()
        return replies, shed

    def _next_replica(self, sid: int, tried: list) -> _ReplicaHandle | None:
        """The next live replica of *sid* in rotation not yet tried this
        batch; ``None`` once none is left alive (the breaker trips)."""
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
            return None
        handle = live[next(self._rr[sid]) % len(live)]
        tried.append(handle)
        return handle

    def _compute_batch(self, handle: _ReplicaHandle, sub: SubQuery, want_trace: bool):
        """A shard's sub-query as one batch for *handle*, its overlay
        block elided when the replica already holds it; also the block
        epoch it ships (-1: none)."""
        shipped = -1
        if sub.block is not None:
            if sub.block_epoch == handle.block_epoch:
                sub = sub.without_block()
            else:
                shipped = sub.block_epoch
        batch = ComputeBatch(
            epoch=self._epochs[handle.sid], subs=[sub], want_trace=want_trace
        )
        return batch, shipped

    # ------------------------------------------------------------------
    # maintenance + label sync
    # ------------------------------------------------------------------
    def apply_update(self, changes: Iterable[WeightChange], workers=None):
        """Apply the batch in the parent, then broadcast shard deltas.

        Overlay maintenance needs no broadcast (the overlay index lives
        only in the parent); a touched shard gets the label entries its
        sweep wrote (``label_positions``) shipped plus an epoch bump —
        or a full republish where the published layout cannot place
        them.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        stats = self.index.update(changes)
        self._index_epoch = self.index.epoch
        with phase("flush.delta_sync"):
            self._sync(
                {
                    sid: _written(stats.per_shard[sid].label_positions)
                    for sid in stats.touched_shards
                }
            )
        return stats

    def apply_structural(self, insertions=(), deletions=(), weight_changes=()):
        """Structural batch in the parent, then whole-buffer republish.

        Label layouts may move arbitrarily under structural maintenance,
        so every shard rides the full-sync/republish path rather than
        the per-slot delta. Workers pin the shard *query structure*
        (H_Q, boundary lists) at startup; batches the parent absorbed
        with fast paths or same-H_Q rebuilds keep both invariant, but a
        repartition splice or a boundary-set change (a brand-new cut
        edge) leaves pooled workers unrecoverably stale — the batch is
        still applied to the index, and a
        :class:`~repro.exceptions.ServiceRuntimeError` tells the caller
        to rebuild the runtime over it.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        self._reconcile_index_epoch()
        owner = self.index
        hq_before = [id(shard.hq) for shard in owner.shards]
        boundary_before = owner.boundary_global.copy()
        stats = owner.apply_batch(
            insertions=insertions,
            deletions=deletions,
            weight_changes=weight_changes,
        )
        with phase("flush.structural_sync"):
            self._reconcile_index_epoch()
        if [id(shard.hq) for shard in owner.shards] != hq_before or not (
            np.array_equal(owner.boundary_global, boundary_before)
        ):
            raise ServiceRuntimeError(
                "structural batch changed shard query topology (hierarchy "
                "repartition or boundary-set change); the index is updated "
                "but pooled workers pin structure at startup — rebuild the "
                "runtime over the updated index, or serve structural-heavy "
                "traffic with InProcessRuntime"
            )
        return stats

    def compact(self):
        """Compact in the parent; republish every shard's buffers.

        Sharded compaction only rebuilds boundary structures when it
        physically removes a cut edge — the same topology-staleness
        rule as :meth:`apply_structural` applies.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        owner = self.index
        boundary_before = owner.boundary_global.copy()
        stats = owner.compact()
        with phase("flush.structural_sync"):
            self._reconcile_index_epoch()
        if not np.array_equal(owner.boundary_global, boundary_before):
            raise ServiceRuntimeError(
                "compaction removed a cut edge and changed the boundary "
                "set; rebuild the pooled runtime over the updated index"
            )
        return stats

    def _reconcile_index_epoch(self) -> None:
        """Re-sync workers after maintenance that bypassed this runtime.

        A direct ``index.update(...)`` (structural op, another caller)
        advances the index epoch without telling us which labels moved;
        the only safe answer is a whole-buffer publish per shard.
        """
        if self.index.epoch == self._index_epoch:
            return
        self.stats.full_syncs += self.index.k
        self._sync(dict.fromkeys(range(self.index.k)))
        self._index_epoch = self.index.epoch

    def _resync_replica(self, handle: _ReplicaHandle) -> None:
        """Bring one behind replica to the shard's current buffers and
        epoch (the stale-reply path and the supervisor's skewed
        heartbeat both land here)."""
        message = Republish(
            epoch=self._epochs[handle.sid], **self._announce(handle.sid)
        )
        reply = self._exchange([(handle, message)])[handle]
        if isinstance(reply, ServiceRuntimeError):
            raise reply
        self.stats.resyncs += 1

    def _sync(self, shards: dict[int, np.ndarray | None]) -> None:
        """Bump each shard's epoch and ship it to all its live replicas,
        all shards in one round: the label entries at the positions its
        sweep wrote (mapped into the published layout), or — for
        ``None`` or positions the published layout cannot place, where a
        delta would tear the replicas' labels — its whole buffers,
        republished. A delta counts 8 bytes per entry.

        Counts the shards at least one replica acked. A replica whose
        request fails is marked dead by its handle — the next read
        fails over past it. A shard with no replica left *during
        maintenance* already advanced its epoch in the parent, so its
        breaker trips and serving moves on (``"error"`` mode raises): a
        respawned replica handshakes with the current buffers at the
        current epoch and needs no delta.
        """
        messages = {}
        for sid, written in shards.items():
            self._epochs[sid] += 1
            self.stats.epoch_broadcasts += 1
            labels, buffers = self.index.shards[sid].labels, self._buffers[sid]
            fields = None if written is None else buffers.delta(labels, written)
            if fields is not None:
                message = EpochDelta(epoch=self._epochs[sid], **fields)
                messages[sid] = message, 8 * len(written)
            else:
                fields = buffers.publish(labels)
                message = Republish(epoch=self._epochs[sid], **fields)
                offsets = buffers.offsets
                messages[sid] = message, 8 * (int(offsets[-1]) + len(offsets))
        targets = [
            (handle, message)
            for sid, (message, _) in messages.items()
            for handle in self.alive_replicas(sid)
        ]
        acked = {
            handle.sid
            for handle, reply in self._exchange(targets).items()
            if not isinstance(reply, ServiceRuntimeError)
        }
        for sid, (message, nbytes) in messages.items():
            if isinstance(message, EpochDelta) and sid in acked:
                self.stats.delta_syncs += 1
                self.stats.delta_bytes += nbytes
            elif sid in acked:
                self.stats.republishes += 1
                self.stats.republish_bytes += nbytes
            else:
                self._breakers[sid].trip()
                if self.degraded_mode == "error":
                    raise ShardUnavailableError(
                        sid,
                        f"no live replica left for shard {sid} to sync; "
                        "breaker open until the supervisor respawns one",
                    )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say goodbye to every live replica in one round, reap them all
        and release the label buffers; idempotent."""
        if self._closed:
            return
        self._closed = True
        handles = list(itertools.chain.from_iterable(self._groups))
        try:
            self._exchange(
                [(handle, Shutdown()) for handle in handles if handle.alive],
                _SHUTDOWN_TIMEOUT,
            )
        finally:
            for handle in handles:
                try:
                    handle.destroy()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
            self._groups = [[] for _ in range(self.index.k)]
            for buffers in self._buffers:
                buffers.destroy()
            self._buffers = []

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


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
