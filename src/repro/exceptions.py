"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything library-specific with a single ``except`` clause while
still distinguishing the common failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "VertexNotFound",
    "EdgeNotFound",
    "GraphFormatError",
    "PartitionError",
    "HierarchyError",
    "IndexBuildError",
    "NativeUnavailableError",
    "MaintenanceError",
    "StructuralFallbackRequired",
    "SerializationError",
    "SnapshotCorruptionError",
    "ServiceRuntimeError",
    "ProtocolError",
    "ProtocolTruncationError",
    "ProtocolCorruptionError",
    "ServiceOverloadError",
    "WorkerEpochError",
    "ShardUnavailableError",
    "PartialResultError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Problem with a graph's structure or an invalid graph operation."""


class VertexNotFound(GraphError, KeyError):
    """A vertex id referenced by the caller does not exist in the graph."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex!r} not in graph")
        self.vertex = vertex


class EdgeNotFound(GraphError, KeyError):
    """An edge referenced by the caller does not exist in the graph."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u!r}, {v!r}) not in graph")
        self.u = u
        self.v = v


class GraphFormatError(GraphError, ValueError):
    """Malformed external graph data (DIMACS, edge list, JSON...)."""


class PartitionError(ReproError):
    """A partitioning routine could not produce a valid result."""


class HierarchyError(ReproError):
    """Inconsistent query/update hierarchy state."""


class IndexBuildError(ReproError):
    """Index construction failed (bad configuration or degenerate input)."""


class NativeUnavailableError(IndexBuildError):
    """The C kernel library cannot be built or loaded on this host.

    Every algorithm runs in ``dhl_kernels.c``, which the package compiles
    with the host's C compiler at first use; the message names the
    reason and the fix.
    """


class MaintenanceError(ReproError):
    """A dynamic update could not be applied to an index."""


class StructuralFallbackRequired(MaintenanceError):
    """A structural fast path hit a case only a rebuild can absorb.

    Raised from inside a maintenance sweep when a finite shortcut
    candidate targets a pair that compaction removed from the store —
    the store has no slot to hold the result, so the caller must fall
    back to rebuilding the shortcut hierarchy (on the same H_Q). Pure
    weight maintenance can never trigger this; only insertion-seeded
    sweeps over a previously compacted store can.
    """


class SerializationError(ReproError):
    """Saving or loading an index failed."""


class SnapshotCorruptionError(SerializationError):
    """A snapshot directory failed its checksum manifest verification.

    Raised by :func:`repro.core.serialization.verify_snapshot` (and the
    ``load`` entry points that call it) when a file listed in a
    snapshot's ``checksums.json`` is missing or its CRC32 does not match
    what was recorded at save time — a torn copy, a partial write that
    somehow survived the atomic-rename protocol, or bit rot. The message
    names the offending file so operators know what to restore.
    """


class ServiceRuntimeError(ReproError):
    """A serving execution runtime (worker pool, shared memory) failed."""


class ProtocolError(ServiceRuntimeError):
    """A runtime protocol frame was malformed, truncated, or incompatible.

    Raised by the wire codec (:mod:`repro.service.protocol`) when a frame
    fails structural validation: bad magic, a protocol version this build
    does not speak, a length prefix that outruns the received bytes, or an
    unknown message type.
    """


class ProtocolTruncationError(ProtocolError):
    """A frame stopped early: the peer closed (or the bytes ran out)
    mid-frame. The header/buffer table that *did* arrive was coherent —
    this is "replica died mid-send", not "replica is sending garbage",
    and the supervisor treats it as a crash worth a respawn."""


class ProtocolCorruptionError(ProtocolError):
    """A complete frame failed validation: bad magic, an unparseable
    meta, a bad buffer table or reference, trailing bytes, an implausible
    length prefix, or a body CRC mismatch. The byte stream can no longer
    be trusted — the connection must be dropped, not retried."""


class ServiceOverloadError(ServiceRuntimeError):
    """The async frontend shed a request because its queue was full.

    Admission control, not failure: the caller should back off and retry.
    The shed is counted in ``dhl_async_shed_total``.
    """


class WorkerEpochError(ServiceRuntimeError):
    """A shard worker refused a batch stamped with an epoch it does not hold."""


class ShardUnavailableError(ServiceRuntimeError):
    """Every replica of a shard is down and its circuit breaker is open.

    Raised on the dispatch path when ``degraded_mode="error"`` (or when
    a sync cannot reach any replica); under the default ``"shed"`` mode
    the scheduler converts it into a :class:`PartialResultError` so the
    rest of the batch still answers.
    """

    def __init__(self, sid: int, message: str | None = None):
        super().__init__(
            message
            or f"no live replica left for shard {sid}; breaker is open"
        )
        self.sid = sid


class PartialResultError(ServiceRuntimeError):
    """A batch answered partially: some pairs were shed by open breakers.

    Graceful degradation, not total failure. ``distances`` holds the
    full result array with ``nan`` at every shed position, ``shed`` is
    the sorted array of shed positions, and ``open_shards`` names the
    shards whose replica pools were down. Callers that can tolerate
    holes should catch this and keep the served positions.
    """

    def __init__(self, distances, shed, open_shards):
        shards = sorted(int(s) for s in open_shards)
        super().__init__(
            f"{len(shed)} of {len(distances)} pairs shed: every replica "
            f"of shard(s) {shards} is down (breaker open)"
        )
        self.distances = distances
        self.shed = shed
        self.open_shards = tuple(shards)
