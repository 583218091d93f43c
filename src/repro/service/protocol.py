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

``meta`` is a JSON object keyed by field name, plus the buffer table
(dtype + shape per array); array payloads follow as raw little-endian
bytes in table order, sliced zero-copy with ``np.frombuffer`` on
receipt. One codec serves every type through the field plan each
dataclass gets from its type hints: an array field declares its dtype
as :data:`I64` or :data:`F64`, ``bytes`` ride as a uint8 buffer, the
rest lives in the meta. ``body_crc32`` covers everything after the
header (meta + buffers), so a frame that arrives complete but damaged
is rejected instead of decoded into garbage labels. **No pickle on the
hot path**: a compute round trip is struct + JSON header parsing plus
raw buffer views. Frames are validated structurally — wrong magic, an
unknown version (:data:`PROTOCOL_VERSION` is bumped on any
incompatible change), a truncated payload, an unknown message type, or
a field of the wrong type or dtype raise
:class:`~repro.exceptions.ProtocolError` instead of yielding garbage.
Failures are classified for the supervisor:
:class:`~repro.exceptions.ProtocolTruncationError` means the bytes
stopped early (peer died mid-send — safe to respawn and retry), while
:class:`~repro.exceptions.ProtocolCorruptionError` means a complete
frame failed validation (bad magic, unparseable meta, a bad buffer
table or reference, trailing bytes, CRC mismatch — the stream itself
can no longer be trusted).

Helpers at the bottom adapt the codec to the two byte streams used
today: ``send_message``/``recv_message`` for sockets (length-prefixed
frames over ``sendall``/``recv``) and ``encode_frame``/``decode_frame``
for ``multiprocessing`` pipes (``send_bytes``/``recv_bytes`` already
preserve frame boundaries, so the length prefix is omitted).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field, fields
from typing import Annotated, ClassVar, get_args, get_origin, get_type_hints

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
#: v4 keys the meta by field name (one field-driven codec for every
#: type) and checks each array against its field's declared dtype.
PROTOCOL_VERSION = 4

_MAGIC = b"DHLP"
_HEAD = struct.Struct("<4sHHII")  # magic, version, msg_type, meta_len, crc32
_LEN = struct.Struct("<I")
#: Frames larger than this are rejected before allocation — a corrupted
#: length prefix must not trigger a multi-gigabyte read.
MAX_FRAME_BYTES = 1 << 31

#: Array field types: the annotation carries the dtype the wire holds.
I64 = Annotated[np.ndarray | None, np.int64]
F64 = Annotated[np.ndarray | None, np.float64]
#: Every dtype a buffer table may name: the two above and ``bytes``.
_WIRE_DTYPES = {np.dtype(t).str: np.dtype(t) for t in (np.int64, np.float64, np.uint8)}
_MESSAGE_TYPES: dict[int, type] = {}


# ---------------------------------------------------------------------------
# codec core: one field plan per wire type
# ---------------------------------------------------------------------------

def _typed(where: str, kind: type, value):
    """*value* if it is exactly a *kind* (a bool is no int here)."""
    if type(value) is not kind:
        raise ProtocolError(f"{where}: {type(value).__name__} is no {kind.__name__}")
    return value


def _array_codec(where: str, dtype: np.dtype):
    def encode(value, buffers):
        if value is None:
            return None
        buffers.append(np.ascontiguousarray(value, dtype=dtype))
        return len(buffers) - 1

    def decode(ref, buffers):
        if ref is None:
            return None
        if type(ref) is not int or not 0 <= ref < len(buffers):
            raise ProtocolCorruptionError(f"{where}: bad buffer reference {ref!r}")
        if buffers[ref].dtype != dtype:
            raise ProtocolError(f"{where}: {buffers[ref].dtype} buffer, not {dtype}")
        return buffers[ref]

    return encode, decode


def _field_codec(where: str, hint):
    """``(encode, decode)`` for the field *where*, by its type hint: field
    value to meta value (arrays appended to the buffer table), and back."""
    if get_origin(hint) is Annotated:
        return _array_codec(where, np.dtype(get_args(hint)[1]))
    if hint is bytes:
        encode, decode = _array_codec(where, np.dtype(np.uint8))
        return (
            lambda v, b: encode(np.frombuffer(v, np.uint8), b),
            lambda m, b: decode(m, b).tobytes(),
        )
    kinds = [a for a in get_args(hint) if a is not type(None)]
    optional = len(kinds) < len(get_args(hint))
    kind = kinds[0] if optional else hint
    if get_origin(kind) is list:
        (record,) = get_args(kind)
        return (
            lambda v, b: [_encode(item, b) for item in v],
            lambda m, b: [_decode(record, x, b) for x in _typed(where, list, m)],
        )
    if kind in (int, bool, str, dict):
        return (
            lambda v, b: v if optional and v is None else kind(v),
            lambda m, b: m if optional and m is None else _typed(where, kind, m),
        )
    return (
        lambda v, b: None if v is None else _encode(v, b),
        lambda m, b: None if m is None else _decode(kind, m, b),
    )


def _encode(obj, buffers: list[np.ndarray]) -> dict:
    """*obj*'s meta: one entry per field, its arrays appended to *buffers*."""
    return {name: encode(getattr(obj, name), buffers) for name, encode, _ in obj._plan}


def _decode(cls, meta, buffers: list[np.ndarray]):
    """The inverse of :func:`_encode`: one *cls* from its meta."""
    meta = _typed(cls.__name__, dict, meta)
    return cls(**{name: decode(meta[name], buffers) for name, _, decode in cls._plan})


def _wire(msg_type: int | None = None):
    """Give a wire dataclass its field plan; with *msg_type*, also
    register it as a top-level message of that type."""

    def install(cls):
        hints = get_type_hints(cls, include_extras=True)
        cls._plan = tuple(
            (f.name, *_field_codec(f"{cls.__name__}.{f.name}", hints[f.name]))
            for f in fields(cls)
        )
        if msg_type is not None:
            if msg_type in _MESSAGE_TYPES:  # pragma: no cover - author error
                raise ValueError(f"duplicate message type {msg_type}")
            cls.TYPE = msg_type
            _MESSAGE_TYPES[msg_type] = cls
        return cls

    return install


class Message:
    """Base of every top-level protocol message; :func:`encode_frame` /
    :func:`decode_frame` frame any subclass through its field plan."""

    TYPE: ClassVar[int]
    _plan: ClassVar[tuple]


def encode_frame(message: Message) -> bytes:
    """Serialise one message to a self-describing binary frame."""
    buffers: list[np.ndarray] = []
    meta = _encode(message, buffers)
    meta["__buffers__"] = [[arr.dtype.str, list(arr.shape)] for arr in buffers]
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(meta_bytes)
    raw = [arr.tobytes() for arr in buffers]
    for chunk in raw:
        crc = zlib.crc32(chunk, crc)
    head = _HEAD.pack(_MAGIC, PROTOCOL_VERSION, message.TYPE, len(meta_bytes), crc)
    return b"".join([head, meta_bytes, *raw])


def _buffer_spec(entry) -> tuple[np.dtype, list[int]]:
    """One buffer-table row, checked: a wire dtype and non-negative dims."""
    if type(entry) is not list or len(entry) != 2:
        raise ProtocolCorruptionError(f"bad buffer table entry {entry!r}")
    dtype_str, shape = entry
    if type(dtype_str) is not str or dtype_str not in _WIRE_DTYPES:
        raise ProtocolCorruptionError(f"unreadable buffer dtype {dtype_str!r}")
    if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
        raise ProtocolCorruptionError(f"bad buffer shape {shape!r}")
    return _WIRE_DTYPES[dtype_str], shape


def decode_frame(data: bytes) -> Message:
    """Parse one frame back into its message; validates structurally.

    Bounds failures (the bytes stop before the header, meta, or a
    declared buffer ends) raise :class:`ProtocolTruncationError`; a
    structurally complete frame that fails validation (bad magic,
    unparseable meta, a bad buffer table or reference, trailing bytes,
    CRC mismatch) raises :class:`ProtocolCorruptionError`. Version and
    unknown-type mismatches, and fields of the wrong type or dtype, stay
    plain :class:`ProtocolError` — the frame is fine, the peers just
    disagree on the dialect.
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
    table = meta.get("__buffers__", []) if type(meta) is dict else None
    if type(table) is not list:
        raise ProtocolCorruptionError("frame meta is no object with a buffer list")
    offset += meta_len
    buffers: list[np.ndarray] = []
    for entry in table:
        dtype, shape = _buffer_spec(entry)
        count = math.prod(shape)
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(data):
            raise ProtocolTruncationError(
                f"truncated frame: buffer wants {nbytes} bytes, "
                f"{len(data) - offset} remain"
            )
        try:
            buffers.append(np.frombuffer(data, dtype, count, offset).reshape(shape))
        except ValueError as exc:  # over 64 dims, or a size numpy cannot hold
            raise ProtocolCorruptionError(f"bad buffer shape: {exc}") from exc
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
        return _decode(cls, meta, buffers)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"malformed {cls.__name__} frame: {type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# nested wire records (not top-level frames)
# ---------------------------------------------------------------------------

@_wire()
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

    s: I64 = None
    t: I64 = None
    fan: I64 = None
    block: F64 = None
    block_cached: bool = False
    block_epoch: int = -1

    def without_block(self) -> "SubQuery":
        """The byte-thrifty form: same work, block elided as held."""
        return SubQuery(
            s=self.s,
            t=self.t,
            fan=self.fan,
            block_cached=True,
            block_epoch=self.block_epoch,
        )


@_wire()
@dataclass
class SubResult:
    """One :class:`SubQuery`'s answer.

    ``final`` answers the intra pairs (boundary route folded in);
    ``fan`` holds the fan's distinct rows against the shard's boundary
    and ``fan_inverse`` each fan entry's row, so pipe/socket bytes
    scale with distinct endpoints, not raw pair count.
    """

    final: F64 = None
    fan: F64 = None
    fan_inverse: I64 = None


@_wire()
@dataclass
class TraceEnvelope:
    """A worker-side span subtree in plain-dict form, ready to graft
    under the parent's round-trip span (JSON-safe by construction —
    :meth:`repro.observability.tracing.Span.to_dict`)."""

    spans: dict


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@_wire(1)
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
    values: F64 = None
    offsets: I64 = None


@_wire(2)
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


@_wire(3)
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
    vertices: I64 = None
    payload: F64 = None


@_wire(4)
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
    values: F64 = None
    offsets: I64 = None


@_wire(5)
@dataclass
class Shutdown(Message):
    """Orderly teardown; the worker answers :class:`ByeReply` and exits."""


@_wire(6)
@dataclass
class HealthCheck(Message):
    """Liveness probe: the worker must echo ``nonce`` in a
    :class:`HealthReply` without touching its label buffers. The nonce
    lets the supervisor pair probes with answers across reconnects."""

    nonce: int = 0


# ---------------------------------------------------------------------------
# replies
# ---------------------------------------------------------------------------

@_wire(16)
@dataclass
class ReadyReply(Message):
    """Handshake complete: the worker serves ``num_vertices`` at *epoch*."""

    num_vertices: int
    epoch: int = 0


@_wire(17)
@dataclass
class ComputeReply(Message):
    """Per-sub answers, in :class:`ComputeBatch` order, plus optional
    worker-side spans when the batch asked for a trace."""

    results: list[SubResult] = field(default_factory=list)
    trace: TraceEnvelope | None = None


@_wire(18)
@dataclass
class AckReply(Message):
    """Generic success acknowledgement (epoch adopt, republish rebind)."""


@_wire(19)
@dataclass
class StaleReply(Message):
    """Epoch refusal: the worker holds ``held``, the batch was stamped
    ``stamped``. The buffers were not touched — the consistency contract
    that makes replica failover and rolling label updates safe."""

    held: int
    stamped: int


@_wire(20)
@dataclass
class ErrorReply(Message):
    """The worker hit an exception; ``message`` is its rendered form."""

    message: str


@_wire(21)
@dataclass
class ByeReply(Message):
    """Shutdown acknowledged; the worker exits after sending this."""


@_wire(22)
@dataclass
class HealthReply(Message):
    """Answer to :class:`HealthCheck`: the echoed ``nonce``, the label
    epoch the worker currently holds, and how many compute batches it
    has served since startup (a cheap liveness-progress signal)."""

    nonce: int = 0
    epoch: int = 0
    served: int = 0


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
