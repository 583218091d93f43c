"""The transport-agnostic runtime protocol: typed messages + wire codec.

Every conversation between a scheduler and a shard worker — over a
``multiprocessing`` pipe today, a TCP socket to another host tomorrow —
is a sequence of the dataclasses defined here, serialised by one
length-framed binary codec. The protocol is what lets a new transport
(or a new labelling backend behind :class:`~repro.core.backend
.DistanceBackend`) plug into the shard scheduler without touching
it: the scheduler emits :class:`ComputeBatch` objects and consumes
:class:`ComputeReply` objects, full stop.

**Message catalogue.** Requests: :class:`SpecRequest` (startup
handshake; the only message allowed to carry a pickle, because it ships
arbitrary index structure exactly once), :class:`ComputeBatch` (one
batch's worth of one shard's work, stamped with its epoch: a
:class:`SubQuery` of the shard's intra pairs, its ``fan`` of cross-pair
endpoints and, when the intra pairs have a boundary route, its own
overlay block or a note that the replica holds it),
:class:`EpochDelta` (label maintenance: either "values already in your
shared segment, adopt this epoch" or the changed label slots inline),
:class:`Republish` (label layout changed: fresh buffers, by shared
memory name or inline), :class:`Shutdown`. Replies: :class:`ReadyReply`,
:class:`ComputeReply` (a :class:`SubResult` per sub-query — the intra
finals, the deduplicated fan matrix and its inverse — plus an optional
:class:`TraceEnvelope` of worker-side spans), :class:`AckReply`,
:class:`StaleReply` (epoch refusal — the consistency contract),
:class:`ErrorReply`, :class:`ByeReply`.

**Wire format.** One frame per message::

    u32 length | b"DHLP" | u16 version | u16 type | u32 meta_len |
    u32 body_crc32 | meta (UTF-8 JSON) | buffer bytes...

``meta`` holds scalars and the buffer table (dtype + shape per array);
array payloads follow as raw little-endian bytes in table order, sliced
zero-copy with ``np.frombuffer`` on receipt. ``body_crc32`` covers
everything after the header (meta + buffers), so a frame that arrives
complete but damaged is rejected instead of decoded into garbage
labels. **No pickle on the hot path**: a compute round trip is struct +
JSON header parsing plus raw buffer views. Frames are validated
structurally — wrong magic, an unknown version
(:data:`PROTOCOL_VERSION` is bumped on any incompatible change), a
truncated payload, or an unknown message type raise
:class:`~repro.exceptions.ProtocolError` instead of yielding garbage.
Failures are classified for the supervisor:
:class:`~repro.exceptions.ProtocolTruncationError` means the bytes
stopped early (peer died mid-send — safe to respawn and retry), while
:class:`~repro.exceptions.ProtocolCorruptionError` means a complete
frame failed validation (bad magic, unparseable meta, trailing bytes,
CRC mismatch — the stream itself can no longer be trusted).

Helpers at the bottom adapt the codec to the two byte streams used
today: ``send_message``/``recv_message`` for sockets (length-prefixed
frames over ``sendall``/``recv``) and ``encode_frame``/``decode_frame``
for ``multiprocessing`` pipes (``send_bytes``/``recv_bytes`` already
preserve frame boundaries, so the length prefix is omitted).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.exceptions import (
    ProtocolCorruptionError,
    ProtocolError,
    ProtocolTruncationError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Message",
    "SpecRequest",
    "SubQuery",
    "ComputeBatch",
    "EpochDelta",
    "Republish",
    "Shutdown",
    "HealthCheck",
    "ReadyReply",
    "SubResult",
    "TraceEnvelope",
    "ComputeReply",
    "AckReply",
    "StaleReply",
    "ErrorReply",
    "ByeReply",
    "HealthReply",
    "encode_frame",
    "decode_frame",
    "send_message",
    "recv_frame",
    "recv_message",
]

#: Speak-this-or-nothing protocol revision. Bump on any change that an
#: older peer could misparse (field reorder, dtype change, new required
#: field); purely additive optional meta keys do not need a bump.
#: v2 appended a body CRC32 to the header and added the
#: :class:`HealthCheck`/:class:`HealthReply` pair.
#: v3 made a :class:`SubQuery` one shard's whole share of a batch (intra
#: pairs plus one ``fan`` list) and a :class:`SubResult` its finals plus
#: one deduplicated fan matrix and its inverse.
PROTOCOL_VERSION = 3

_MAGIC = b"DHLP"
_HEAD = struct.Struct("<4sHHII")  # magic, version, msg_type, meta_len, crc32
_LEN = struct.Struct("<I")
#: Frames larger than this are rejected before allocation — a corrupted
#: length prefix must not trigger a multi-gigabyte read.
MAX_FRAME_BYTES = 1 << 31


# ---------------------------------------------------------------------------
# codec core
# ---------------------------------------------------------------------------

def _put(buffers: list[np.ndarray], array, dtype) -> int | None:
    """Append *array* to the frame's buffer table; returns its index."""
    if array is None:
        return None
    arr = np.ascontiguousarray(array, dtype=dtype)
    buffers.append(arr)
    return len(buffers) - 1


def _take(buffers: list[np.ndarray], index) -> np.ndarray | None:
    if index is None:
        return None
    try:
        return buffers[index]
    except (IndexError, TypeError) as exc:
        raise ProtocolError(f"bad buffer reference {index!r}") from exc


_MESSAGE_TYPES: dict[int, type] = {}


def _register(msg_type: int):
    def install(cls):
        if msg_type in _MESSAGE_TYPES:  # pragma: no cover - author error
            raise ValueError(f"duplicate message type {msg_type}")
        cls.TYPE = msg_type
        _MESSAGE_TYPES[msg_type] = cls
        return cls

    return install


class Message:
    """Base of every top-level protocol message.

    Subclasses implement ``_pack`` (meta dict + appended buffers) and
    ``_unpack`` (the inverse); :func:`encode_frame` / :func:`decode_frame`
    handle framing, versioning, and validation around them.
    """

    TYPE: ClassVar[int]

    def _pack(self, buffers: list[np.ndarray]) -> dict:
        raise NotImplementedError

    @classmethod
    def _unpack(cls, meta: dict, buffers: list[np.ndarray]) -> "Message":
        raise NotImplementedError


def encode_frame(message: Message) -> bytes:
    """Serialise one message to a self-describing binary frame."""
    buffers: list[np.ndarray] = []
    meta = message._pack(buffers)
    meta["__buffers__"] = [
        [arr.dtype.str, list(arr.shape)] for arr in buffers
    ]
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(meta_bytes)
    raw = [arr.tobytes() for arr in buffers]
    for chunk in raw:
        crc = zlib.crc32(chunk, crc)
    head = _HEAD.pack(
        _MAGIC, PROTOCOL_VERSION, message.TYPE, len(meta_bytes), crc
    )
    return b"".join([head, meta_bytes, *raw])


def decode_frame(data: bytes) -> Message:
    """Parse one frame back into its message; validates structurally.

    Bounds failures (the bytes stop before the header, meta, or a
    declared buffer ends) raise :class:`ProtocolTruncationError`; a
    structurally complete frame that fails validation (bad magic,
    unparseable meta, trailing bytes, CRC mismatch) raises
    :class:`ProtocolCorruptionError`. Version and unknown-type
    mismatches stay plain :class:`ProtocolError` — the frame is fine,
    the peers just disagree on the dialect.
    """
    if len(data) < _HEAD.size:
        raise ProtocolTruncationError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{_HEAD.size}-byte header"
        )
    magic, version, msg_type, meta_len, crc = _HEAD.unpack_from(data)
    if magic != _MAGIC:
        raise ProtocolCorruptionError(
            f"bad frame magic {magic!r} (expected {_MAGIC!r})"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    offset = _HEAD.size
    if offset + meta_len > len(data):
        raise ProtocolTruncationError(
            f"truncated frame: meta wants {meta_len} bytes, "
            f"{len(data) - offset} remain"
        )
    try:
        meta = json.loads(data[offset : offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolCorruptionError(f"unparseable frame meta: {exc}") from exc
    offset += meta_len
    buffers: list[np.ndarray] = []
    for dtype_str, shape in meta.get("__buffers__", ()):
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(data):
            raise ProtocolTruncationError(
                f"truncated frame: buffer wants {nbytes} bytes, "
                f"{len(data) - offset} remain"
            )
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        buffers.append(arr.reshape(shape))
        offset += nbytes
    if offset != len(data):
        raise ProtocolCorruptionError(
            f"oversized frame: {len(data) - offset} trailing bytes"
        )
    # CRC after the structural walk: a frame that stopped early is
    # reported as truncation above, so a CRC failure here means every
    # byte arrived and some of them are wrong.
    actual = zlib.crc32(data[_HEAD.size :])
    if actual != crc:
        raise ProtocolCorruptionError(
            f"frame body CRC mismatch: header says {crc:#010x}, "
            f"body hashes to {actual:#010x}"
        )
    try:
        return cls._unpack(meta, buffers)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"malformed {cls.__name__} frame: {type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# nested wire records (not top-level frames)
# ---------------------------------------------------------------------------

@dataclass
class SubQuery:
    """One shard's share of a batch, in shard-local ids.

    ``s``/``t`` are the shard's intra pairs (parallel arrays); ``fan``
    lists every cross-pair endpoint the shard owns, sources and targets
    together, whose rows against its boundary the parent combines.
    ``block`` is the shard's own (tiny, overlay-epoch-stable)
    boundary-to-boundary overlay block: with it the replica lowers the
    intra answers by the boundary route itself. ``block_cached`` elides
    the matrix when the target replica already holds the
    ``block_epoch`` revision — re-shipping is always safe (failover
    targets a sibling that may hold nothing), eliding just saves bytes.
    """

    s: np.ndarray | None = None
    t: np.ndarray | None = None
    fan: np.ndarray | None = None
    block: np.ndarray | None = None
    block_cached: bool = False
    block_epoch: int = -1

    def _pack(self, buffers) -> dict:
        return {
            "s": _put(buffers, self.s, np.int64),
            "t": _put(buffers, self.t, np.int64),
            "f": _put(buffers, self.fan, np.int64),
            "b": _put(buffers, self.block, np.float64),
            "bc": bool(self.block_cached),
            "be": int(self.block_epoch),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "SubQuery":
        return cls(
            s=_take(buffers, meta["s"]),
            t=_take(buffers, meta["t"]),
            fan=_take(buffers, meta["f"]),
            block=_take(buffers, meta["b"]),
            block_cached=bool(meta["bc"]),
            block_epoch=int(meta["be"]),
        )

    def without_block(self) -> "SubQuery":
        """The byte-thrifty form: same work, block elided as held."""
        return SubQuery(
            s=self.s,
            t=self.t,
            fan=self.fan,
            block_cached=True,
            block_epoch=self.block_epoch,
        )


@dataclass
class SubResult:
    """One :class:`SubQuery`'s answer.

    ``final`` answers the intra pairs (boundary route folded in);
    ``fan`` holds the fan's distinct rows against the shard's boundary
    and ``fan_inverse`` each fan entry's row, so pipe/socket bytes
    scale with distinct endpoints, not raw pair count.
    """

    final: np.ndarray | None = None
    fan: np.ndarray | None = None
    fan_inverse: np.ndarray | None = None

    def _pack(self, buffers) -> dict:
        return {
            "f": _put(buffers, self.final, np.float64),
            "fm": _put(buffers, self.fan, np.float64),
            "fi": _put(buffers, self.fan_inverse, np.int64),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "SubResult":
        return cls(
            final=_take(buffers, meta["f"]),
            fan=_take(buffers, meta["fm"]),
            fan_inverse=_take(buffers, meta["fi"]),
        )


@dataclass
class TraceEnvelope:
    """A worker-side span subtree in plain-dict form, ready to graft
    under the parent's round-trip span (JSON-safe by construction —
    :meth:`repro.observability.tracing.Span.to_dict`)."""

    spans: dict

    def _pack(self, buffers) -> dict:
        return {"spans": self.spans}

    @classmethod
    def _unpack(cls, meta, buffers) -> "TraceEnvelope":
        return cls(spans=meta["spans"])


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@_register(1)
@dataclass
class SpecRequest(Message):
    """Startup handshake: the shard's structure and its label buffers.

    ``payload`` is the pickled shard structure (graph + hierarchies,
    labels elided) — the one permitted pickle, shipped exactly once per
    worker at startup. Label buffers arrive either by shared-memory
    segment name (``shm_values``/``shm_offsets`` + lengths, the local
    transport) or inline (``values``/``offsets``, the socket transport,
    where the worker keeps a private writable copy that later
    :class:`EpochDelta` messages splice into).
    """

    payload: bytes
    epoch: int = 0
    shm_values: str | None = None
    shm_offsets: str | None = None
    values_len: int = 0
    offsets_len: int = 0
    values: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def _pack(self, buffers) -> dict:
        return {
            "p": _put(buffers, np.frombuffer(self.payload, dtype=np.uint8), np.uint8),
            "e": int(self.epoch),
            "sv": self.shm_values,
            "so": self.shm_offsets,
            "vl": int(self.values_len),
            "ol": int(self.offsets_len),
            "v": _put(buffers, self.values, np.float64),
            "o": _put(buffers, self.offsets, np.int64),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "SpecRequest":
        return cls(
            payload=_take(buffers, meta["p"]).tobytes(),
            epoch=int(meta["e"]),
            shm_values=meta["sv"],
            shm_offsets=meta["so"],
            values_len=int(meta["vl"]),
            offsets_len=int(meta["ol"]),
            values=_take(buffers, meta["v"]),
            offsets=_take(buffers, meta["o"]),
        )


@_register(2)
@dataclass
class ComputeBatch(Message):
    """One batch's worth of shard-local work at a stamped epoch.

    The scheduler sends one sub-query per shard, so a batch costs one
    round trip per shard however its pairs spread over region pairs. A
    worker holding a different epoch must answer
    :class:`StaleReply` without touching its buffers.
    """

    epoch: int
    subs: list[SubQuery] = field(default_factory=list)
    want_trace: bool = False

    def _pack(self, buffers) -> dict:
        return {
            "e": int(self.epoch),
            "subs": [sub._pack(buffers) for sub in self.subs],
            "wt": bool(self.want_trace),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "ComputeBatch":
        return cls(
            epoch=int(meta["e"]),
            subs=[SubQuery._unpack(m, buffers) for m in meta["subs"]],
            want_trace=bool(meta["wt"]),
        )


@_register(3)
@dataclass
class EpochDelta(Message):
    """Adopt *epoch*; optionally splice the changed label slots first.

    With ``vertices is None`` the values already reached the worker out
    of band (the parent wrote them into the shared-memory segment in
    place) and only the epoch cut-over is explicit. With ``vertices``
    set, ``payload`` concatenates the new label arrays of those vertices
    in order; the worker slices it apart with its own offsets — the
    socket transport's delta sync, same consistency contract.
    """

    epoch: int
    vertices: np.ndarray | None = None
    payload: np.ndarray | None = None

    def _pack(self, buffers) -> dict:
        return {
            "e": int(self.epoch),
            "v": _put(buffers, self.vertices, np.int64),
            "p": _put(buffers, self.payload, np.float64),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "EpochDelta":
        return cls(
            epoch=int(meta["e"]),
            vertices=_take(buffers, meta["v"]),
            payload=_take(buffers, meta["p"]),
        )


@_register(4)
@dataclass
class Republish(Message):
    """The label layout changed: rebind onto fresh buffers, adopt *epoch*.

    Shared-memory transport names fresh segments; socket transport ships
    the packed buffers inline.
    """

    epoch: int
    shm_values: str | None = None
    shm_offsets: str | None = None
    values_len: int = 0
    offsets_len: int = 0
    values: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def _pack(self, buffers) -> dict:
        return {
            "e": int(self.epoch),
            "sv": self.shm_values,
            "so": self.shm_offsets,
            "vl": int(self.values_len),
            "ol": int(self.offsets_len),
            "v": _put(buffers, self.values, np.float64),
            "o": _put(buffers, self.offsets, np.int64),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "Republish":
        return cls(
            epoch=int(meta["e"]),
            shm_values=meta["sv"],
            shm_offsets=meta["so"],
            values_len=int(meta["vl"]),
            offsets_len=int(meta["ol"]),
            values=_take(buffers, meta["v"]),
            offsets=_take(buffers, meta["o"]),
        )


@_register(5)
@dataclass
class Shutdown(Message):
    """Orderly teardown; the worker answers :class:`ByeReply` and exits."""

    def _pack(self, buffers) -> dict:
        return {}

    @classmethod
    def _unpack(cls, meta, buffers) -> "Shutdown":
        return cls()


@_register(6)
@dataclass
class HealthCheck(Message):
    """Liveness probe: the worker must echo ``nonce`` in a
    :class:`HealthReply` without touching its label buffers. The nonce
    lets the supervisor pair probes with answers across reconnects."""

    nonce: int = 0

    def _pack(self, buffers) -> dict:
        return {"n": int(self.nonce)}

    @classmethod
    def _unpack(cls, meta, buffers) -> "HealthCheck":
        return cls(nonce=int(meta["n"]))


# ---------------------------------------------------------------------------
# replies
# ---------------------------------------------------------------------------

@_register(16)
@dataclass
class ReadyReply(Message):
    """Handshake complete: the worker serves ``num_vertices`` at *epoch*."""

    num_vertices: int
    epoch: int = 0

    def _pack(self, buffers) -> dict:
        return {"n": int(self.num_vertices), "e": int(self.epoch)}

    @classmethod
    def _unpack(cls, meta, buffers) -> "ReadyReply":
        return cls(num_vertices=int(meta["n"]), epoch=int(meta["e"]))


@_register(17)
@dataclass
class ComputeReply(Message):
    """Per-sub answers, in :class:`ComputeBatch` order, plus optional
    worker-side spans when the batch asked for a trace."""

    results: list[SubResult] = field(default_factory=list)
    trace: TraceEnvelope | None = None

    def _pack(self, buffers) -> dict:
        return {
            "r": [result._pack(buffers) for result in self.results],
            "t": self.trace._pack(buffers) if self.trace else None,
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "ComputeReply":
        return cls(
            results=[SubResult._unpack(m, buffers) for m in meta["r"]],
            trace=TraceEnvelope._unpack(meta["t"], buffers) if meta["t"] else None,
        )


@_register(18)
@dataclass
class AckReply(Message):
    """Generic success acknowledgement (epoch adopt, republish rebind)."""

    def _pack(self, buffers) -> dict:
        return {}

    @classmethod
    def _unpack(cls, meta, buffers) -> "AckReply":
        return cls()


@_register(19)
@dataclass
class StaleReply(Message):
    """Epoch refusal: the worker holds ``held``, the batch was stamped
    ``stamped``. The buffers were not touched — the consistency contract
    that makes replica failover and rolling label updates safe."""

    held: int
    stamped: int

    def _pack(self, buffers) -> dict:
        return {"h": int(self.held), "s": int(self.stamped)}

    @classmethod
    def _unpack(cls, meta, buffers) -> "StaleReply":
        return cls(held=int(meta["h"]), stamped=int(meta["s"]))


@_register(20)
@dataclass
class ErrorReply(Message):
    """The worker hit an exception; ``message`` is its rendered form."""

    message: str

    def _pack(self, buffers) -> dict:
        return {"m": str(self.message)}

    @classmethod
    def _unpack(cls, meta, buffers) -> "ErrorReply":
        return cls(message=str(meta["m"]))


@_register(21)
@dataclass
class ByeReply(Message):
    """Shutdown acknowledged; the worker exits after sending this."""

    def _pack(self, buffers) -> dict:
        return {}

    @classmethod
    def _unpack(cls, meta, buffers) -> "ByeReply":
        return cls()


@_register(22)
@dataclass
class HealthReply(Message):
    """Answer to :class:`HealthCheck`: the echoed ``nonce``, the label
    epoch the worker currently holds, and how many compute batches it
    has served since startup (a cheap liveness-progress signal)."""

    nonce: int = 0
    epoch: int = 0
    served: int = 0

    def _pack(self, buffers) -> dict:
        return {
            "n": int(self.nonce),
            "e": int(self.epoch),
            "s": int(self.served),
        }

    @classmethod
    def _unpack(cls, meta, buffers) -> "HealthReply":
        return cls(
            nonce=int(meta["n"]),
            epoch=int(meta["e"]),
            served=int(meta["s"]),
        )


# ---------------------------------------------------------------------------
# stream adapters
# ---------------------------------------------------------------------------

def send_message(sock, message: Message) -> int:
    """Write one length-prefixed frame to a socket; returns bytes sent."""
    frame = encode_frame(message)
    data = _LEN.pack(len(frame)) + frame
    sock.sendall(data)
    return len(data)


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolTruncationError(
                f"truncated frame: peer closed with {remaining} of {n} "
                "bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> bytes:
    """Read one length-prefixed raw frame from a socket (undecoded)."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolCorruptionError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES}"
        )
    return _recv_exact(sock, length)


def recv_message(sock) -> Message:
    """Read one length-prefixed frame from a socket and decode it."""
    return decode_frame(recv_frame(sock))
