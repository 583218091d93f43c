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
shared segment, adopt this epoch" or the written label entries inline:
flat positions and their values),
:class:`Republish` (label layout changed: fresh buffers, by shared
memory name or inline), :class:`Shutdown`. Replies: :class:`ReadyReply`,
:class:`ComputeReply` (a :class:`SubResult` per sub-query — the intra
finals, the deduplicated fan matrix and its inverse — plus an optional
:class:`TraceEnvelope` of worker-side spans), :class:`AckReply`,
:class:`StaleReply` (epoch refusal — the consistency contract),
:class:`ErrorReply`, :class:`ByeReply`.

**Wire format.** One frame per message::

    u32 length | b"DHLP" | u16 version | u16 type | u32 meta_len |
    u32 body_crc32 | meta | zero pad to a multiple of 8 | buffers...

``meta`` opens with the buffer table — a u32 count, then per array a
u8 dtype code, a u8 ndim and ``ndim`` u64 dims — and goes on with the
message in the binary layout its dataclass compiles once, from its type
hints, when it is defined. A record is one :class:`struct.Struct`
head — an i64 per int field, a u32 per list count and per ``str`` /
``bytes`` / ``dict`` length, then a u32 mask with a bit per bool field
and per optional field's presence — followed, in field order, by those
length-prefixed bodies (UTF-8, raw, and JSON: a ``dict`` field is the
one thing still written as JSON) and its nested records, a list's one
after another. An array field declares its dtype as :data:`I64` or
:data:`F64` and takes the next row of the table; the array payloads
follow the meta as raw little-endian bytes in table order; every wire
dtype is 8 bytes wide, so with the padding each starts at a frame
offset that is a multiple of 8 and the decoder hands the kernels
aligned zero-copy views of the received bytes. ``body_crc32`` covers
everything after the header (meta, padding and buffers), so a frame
that arrives complete but damaged is rejected instead of decoded into
garbage labels. **No pickle on the hot path**: a compute round trip is
struct packing plus raw buffer views. Frames are validated
structurally — wrong magic, an unknown version
(:data:`PROTOCOL_VERSION` is bumped on any incompatible change), a
truncated payload, an unknown message type, or a field of the wrong
dtype or kind raise :class:`~repro.exceptions.ProtocolError` instead
of yielding garbage. Failures are classified for the supervisor:
:class:`~repro.exceptions.ProtocolTruncationError` means the bytes
stopped early (peer died mid-send — safe to respawn and retry), while
:class:`~repro.exceptions.ProtocolCorruptionError` means a complete
frame failed validation (bad magic, a bad buffer table, a meta that
ends early or runs on, unreadable text or JSON, a flag mask with bits
past its record's, buffers the array fields do not take, trailing
bytes, CRC mismatch — the stream itself can no longer be trusted).

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
from collections.abc import Callable
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
#: older peer could misparse (field reorder, dtype change, new field).
#: v2 appended a body CRC32 to the header and added the
#: :class:`HealthCheck`/:class:`HealthReply` pair.
#: v3 made a :class:`SubQuery` one shard's whole share of a batch (intra
#: pairs plus one ``fan`` list) and a :class:`SubResult` its finals plus
#: one deduplicated fan matrix and its inverse.
#: v4 keys the meta by field name (one field-driven codec for every
#: type) and checks each array against its field's declared dtype.
#: v5 replaces the JSON meta with a binary layout compiled from the same
#: field plan (a binary buffer table, length-prefixed ``str`` / ``bytes``,
#: JSON only inside ``dict`` fields) and starts every buffer at a frame
#: offset that is a multiple of 8.
#: v6 renames :class:`EpochDelta`'s ``vertices`` to ``positions``: an
#: inline delta carries the label entries the maintenance sweep wrote
#: (flat positions into the packed layout, one value each), not whole
#: labels.
PROTOCOL_VERSION = 6

_MAGIC = b"DHLP"
_HEAD = struct.Struct("<4sHHII")  # magic, version, msg_type, meta_len, crc32
_LEN = struct.Struct("<I")
_COUNT = struct.Struct("<I")  # buffer-table rows
#: A buffer-table row by its ndim byte: dtype code, ndim, the dims
#: (``None`` past the 64 dims numpy holds).
_ROWS = tuple(struct.Struct(f"<BB{n}Q") if n <= 64 else None for n in range(256))
#: The buffers start at a frame offset that is a multiple of this.
_ALIGN = 8
_PAD = bytes(_ALIGN)
#: Frames larger than this are rejected before allocation — a corrupted
#: length prefix must not trigger a multi-gigabyte read.
MAX_FRAME_BYTES = 1 << 31

#: Array field types: the annotation carries the dtype the wire holds.
I64 = Annotated[np.ndarray | None, np.int64]
F64 = Annotated[np.ndarray | None, np.float64]
#: Buffer-table dtype codes: every dtype an array field may declare.
#: Each is 8 bytes wide, so buffers that follow one another stay aligned.
_DTYPES = {1: np.dtype(np.int64), 2: np.dtype(np.float64)}
_CODES = {dtype: code for code, dtype in _DTYPES.items()}
_MESSAGE_TYPES: dict[int, type] = {}


# ---------------------------------------------------------------------------
# codec core: one compiled layout per wire type
# ---------------------------------------------------------------------------

# Field kinds. Scalars live in a record's head; the rest follow it.
_INT, _BOOL, _STR, _BYTES, _DICT, _ARRAY, _RECORD, _LIST = range(8)
#: Kinds with an i64 value or a u32 length / count in the head.
_WIDE = {_INT: "q", _STR: "I", _BYTES: "I", _DICT: "I", _LIST: "I"}
_SCALARS = {int: _INT, bool: _BOOL, str: _STR, bytes: _BYTES, dict: _DICT}


def _kind(where: str, hint) -> tuple[int, bool, object]:
    """``(kind, optional, arg)`` of the field *where*, by its type hint:
    *arg* is the dtype of an array, the record class of a record or of
    a list of records."""
    if get_origin(hint) is Annotated:
        return _ARRAY, True, np.dtype(get_args(hint)[1])
    kinds = [a for a in get_args(hint) if a is not type(None)]
    optional = len(kinds) < len(get_args(hint))
    kind = kinds[0] if optional else hint
    if get_origin(kind) is list:
        (record,) = get_args(kind)
        if optional or not record._head.size:  # pragma: no cover - author error
            raise TypeError(f"{where}: a list is never optional nor of empty records")
        return _LIST, False, record
    if kind in _SCALARS:
        if optional and kind in (int, bool):  # pragma: no cover - author error
            raise TypeError(f"{where}: an int or bool field cannot be optional")
        return _SCALARS[kind], optional, None
    return _RECORD, optional, kind


def _compile(cls) -> None:
    """Compile *cls*'s layout into ``cls._head`` and two functions.

    ``_head`` packs the record's scalars: an ``i64`` per int field, a
    ``u32`` per list count and per ``str`` / ``bytes`` / ``dict``
    length, then one ``u32`` mask holding a bit per bool field and per
    optional field's presence. ``cls._encode(obj, out, buffers)`` and
    ``cls._decode(data, pos, end, arrays)`` are generated from the same
    plan, one stanza per field in field order (:func:`_source`), so a
    record costs one straight-line call each way, not a loop over
    per-field steps.
    """
    hints = get_type_hints(cls, include_extras=True)
    plan, wide, bits, scope = [], "", 0, {}
    for i, f in enumerate(fields(cls)):
        if not f.init or f.kw_only:  # pragma: no cover - author error
            raise TypeError(f"{cls.__name__}.{f.name}: fields are positional")
        where = f"{cls.__name__}.{f.name}"
        kind, optional, arg = _kind(where, hints[f.name])
        bit = slot = 0
        if optional:
            bit, bits = 1 << bits, bits + 1
        if kind is _BOOL:
            slot, bits = 1 << bits, bits + 1
        elif kind in _WIDE:
            slot, wide = len(wide), wide + _WIDE[kind]
        plan.append((f.name, kind, bit, slot, arg))
        scope[f"where{i}"], scope[f"arg{i}"] = where, arg
    if bits > 32:  # pragma: no cover - author error
        raise TypeError(f"{cls.__name__}: over 32 bools and optional fields")
    cls._head = struct.Struct("<" + wide + ("I" if bits else ""))
    scope.update(_HELPERS, cls=cls, head=cls._head, bits=bits)
    source = _source(plan, len(wide), bits)
    exec(compile(source, f"<wire {cls.__name__}>", "exec"), scope)
    cls._encode = staticmethod(scope["encode"])
    cls._decode = staticmethod(scope["decode"])


#: A length-prefixed body's bytes, from the field value ``v``.
_RAW = {
    _STR: "str(v).encode('utf-8')",
    _DICT: "dumps(v, separators=(',', ':')).encode('utf-8')",
    _BYTES: "bytes(v)",
}


def _indent(lines: list[str]) -> list[str]:
    return [f"    {line}" for line in lines]


def _source(plan: list, wide: int, bits: int) -> str:
    """Python source of one record's ``encode`` and ``decode``.

    ``encode(obj, out, buffers)`` reserves the record's slot in ``out``,
    appends its bodies and nested records after it and its arrays, as
    ``(code, array)``, to ``buffers``, and packs the head into the slot
    last. ``decode(data, pos, end, arrays)`` unpacks the head at
    ``pos`` into ``w0 ..`` and ``mask``, reads field ``i`` into ``f<i>``
    (an array is the next ``(code, array)`` of ``arrays``) and returns
    ``(record, pos after it)``. Field ``i``'s name for errors and its
    :func:`_kind` *arg* are ``where<i>`` / ``arg<i>`` in the scope.
    """
    head = [f"w{k}" for k in range(wide)] + (["mask"] if bits else [])
    packed = head.copy()  # what encode packs into each head slot
    enc = ["at = len(out)", "out.append(b'')", "mask = 0"]
    dec = [
        "if pos + head.size > end:",
        "    past_meta(cls.__name__, head.size, 'head bytes')",
    ]
    if head:
        dec.append(f"{', '.join(head)}, = head.unpack_from(data, pos)")
    dec.append("pos += head.size")
    if bits:
        dec += ["if mask >> bits:", "    bad_mask(cls.__name__, mask, bits)"]
    for i, (name, kind, bit, slot, arg) in enumerate(plan):
        f, w = f"f{i}", f"w{slot}"
        if kind is _INT:
            packed[slot] = f"obj.{name}"
            dec.append(f"{f} = {w}")
            continue
        if kind is _BOOL:
            enc += [f"if obj.{name}:", f"    mask |= {slot}"]
            dec.append(f"{f} = mask & {slot} != 0")
            continue
        if kind is _ARRAY:
            code = _CODES[arg]
            put = [f"buffers.append(({code}, asarray(v, dtype=arg{i})))"]
            get = [
                f"code, {f} = next(arrays, END)",
                f"if code != {code}:",
                f"    bad_array(where{i}, arg{i}, {f})",
            ]
        elif kind is _LIST:
            packed[slot] = f"len(obj.{name})"
            put = ["for item in v:", f"    arg{i}._encode(item, out, buffers)"]
            get = [
                f"if {w} * arg{i}._head.size > end - pos:",
                f"    past_meta(where{i}, {w}, 'records')",
                f"{f} = []",
                f"for _ in range({w}):",
                f"    item, pos = arg{i}._decode(data, pos, end, arrays)",
                f"    {f}.append(item)",
            ]
        elif kind is _RECORD:
            put = [f"arg{i}._encode(v, out, buffers)"]
            get = [f"{f}, pos = arg{i}._decode(data, pos, end, arrays)"]
        else:  # a length-prefixed body
            packed[slot] = f"len(raw{i})"
            if bit:
                enc.append(f"raw{i} = b''")
            put = [f"raw{i} = {_RAW[kind]}", f"out.append(raw{i})"]
            get = [
                f"if pos + {w} > end:",
                f"    past_meta(where{i}, {w}, 'bytes')",
                f"{f} = body(where{i}, {kind}, data[pos : pos + {w}])",
                f"pos += {w}",
            ]
        enc.append(f"v = obj.{name}")
        if bit:  # optional: its presence bit guards it both ways
            enc += ["if v is not None:", f"    mask |= {bit}", *_indent(put)]
            dec += [f"if mask & {bit}:", *_indent(get), "else:", f"    {f} = None"]
        else:
            enc += put
            dec += get
    enc.append(f"out[at] = head.pack({', '.join(packed)})")
    dec.append(f"return cls({', '.join(f'f{i}' for i in range(len(plan)))}), pos")
    return "\n".join(
        [
            "def encode(obj, out, buffers):",
            *_indent(enc),
            "def decode(data, pos, end, arrays):",
            *_indent(dec),
        ]
    )


def _body(where: str, kind: int, raw: bytes):
    """A length-prefixed body back as its field's ``str``, ``bytes`` or
    ``dict``: unreadable text or JSON is corruption, JSON that is no
    object a field of the wrong kind."""
    if kind == _BYTES:
        return bytes(raw)
    try:
        text = str(raw, "utf-8")
        if kind == _STR:
            return text
        value = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolCorruptionError(f"{where}: unreadable body: {exc}") from exc
    if type(value) is not dict:
        raise ProtocolError(f"{where}: {type(value).__name__} is no dict")
    return value


def _past_meta(where: str, count: int, unit: str) -> None:
    raise ProtocolCorruptionError(f"{where}: {count} {unit} run past the meta")


def _bad_mask(name: str, mask: int, bits: int) -> None:
    raise ProtocolCorruptionError(
        f"{name}: flag mask {mask:#x} sets bits past its {bits}"
    )


def _bad_array(where: str, dtype: np.dtype, array) -> None:
    """Raise for an array field the buffer table failed: no row left
    (corruption) or a row of another dtype (a field of the wrong dtype)."""
    if array is None:
        raise ProtocolCorruptionError(f"{where}: the buffer table ran out")
    raise ProtocolError(f"{where}: {array.dtype} buffer, not {dtype}")


#: What the generated codecs call besides their own layout.
_HELPERS = {
    "END": (None, None),
    "asarray": np.ascontiguousarray,
    "dumps": json.dumps,
    "body": _body,
    "past_meta": _past_meta,
    "bad_mask": _bad_mask,
    "bad_array": _bad_array,
}


def _wire(msg_type: int | None = None):
    """Compile a wire dataclass's layout; with *msg_type*, also register
    it as a top-level message of that type."""

    def install(cls):
        _compile(cls)
        if msg_type is not None:
            if msg_type in _MESSAGE_TYPES:  # pragma: no cover - author error
                raise ValueError(f"duplicate message type {msg_type}")
            cls.TYPE = msg_type
            _MESSAGE_TYPES[msg_type] = cls
        return cls

    return install


class Message:
    """Base of every top-level protocol message; :func:`encode_frame` /
    :func:`decode_frame` frame any subclass through its layout."""

    TYPE: ClassVar[int]
    _head: ClassVar[struct.Struct]
    _encode: ClassVar[Callable]
    _decode: ClassVar[Callable]


def encode_frame(message: Message) -> bytes:
    """Serialise one message to a self-describing binary frame."""
    buffers: list[tuple[int, np.ndarray]] = []
    meta = [b""]  # the buffer table, once the fields are out
    message._encode(message, meta, buffers)
    table = [_COUNT.pack(len(buffers))]
    for code, array in buffers:
        shape = array.shape
        table.append(_ROWS[len(shape)].pack(code, len(shape), *shape))
    meta[0] = b"".join(table)
    meta = b"".join(meta)
    body = [meta, _PAD[: -(_HEAD.size + len(meta)) % _ALIGN]]
    body += [array for _, array in buffers]
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    head = _HEAD.pack(_MAGIC, PROTOCOL_VERSION, message.TYPE, len(meta), crc)
    return b"".join([head, *body])


def _buffers(data: bytes, end: int) -> tuple[list[tuple[int, np.ndarray]], int]:
    """The frame's arrays as ``(code, array)``, the arrays zero-copy
    views of *data*, read through the buffer table that opens the meta
    (which ends at *end*), and where the table ends."""
    if _HEAD.size + _COUNT.size > end:
        raise ProtocolCorruptionError("the meta has no buffer table")
    (count,) = _COUNT.unpack_from(data, _HEAD.size)
    pos = _HEAD.size + _COUNT.size
    offset = end + -end % _ALIGN  # zero padding up to the buffers
    size = len(data)
    buffers: list[tuple[int, np.ndarray]] = []
    for _ in range(count):
        row = _ROWS[data[pos + 1]] if pos + 2 <= end else None
        if row is None or pos + row.size > end:
            raise ProtocolCorruptionError("bad buffer table row")
        code, ndim, *shape = row.unpack_from(data, pos)
        pos += row.size
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise ProtocolCorruptionError(f"unreadable buffer dtype code {code}")
        items = shape[0] if ndim == 1 else math.prod(shape)
        nbytes = dtype.itemsize * items
        if offset + nbytes > size:
            raise ProtocolTruncationError(
                f"truncated frame: buffer wants {nbytes} bytes at {offset}, "
                f"{size - offset} remain"
            )
        if ndim == 1:
            array = np.frombuffer(data, dtype, items, offset)
        else:
            try:
                array = np.ndarray(shape, dtype, data, offset)
            except ValueError as exc:  # a size numpy cannot hold
                raise ProtocolCorruptionError(f"bad buffer shape: {exc}") from exc
        buffers.append((code, array))
        offset += nbytes
    if offset > size:  # cut in the padding before the buffers
        raise ProtocolTruncationError(
            f"truncated frame: {offset - size} padding bytes missing"
        )
    if offset < size:
        raise ProtocolCorruptionError(
            f"oversized frame: {size - offset} trailing bytes"
        )
    return buffers, pos


def decode_frame(data: bytes) -> Message:
    """Parse one frame back into its message; validates structurally.

    Bounds failures (the bytes stop before the header, meta, or a
    declared buffer ends) raise :class:`ProtocolTruncationError`; a
    structurally complete frame that fails validation (bad magic, a bad
    buffer table, a meta that ends early or runs on, unreadable text or
    JSON, a flag mask with bits past the record's, trailing bytes, CRC
    mismatch) raises :class:`ProtocolCorruptionError`. Version and
    unknown-type mismatches, and fields of the wrong dtype or kind, stay
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
    end = _HEAD.size + meta_len
    if end > len(data):
        raise ProtocolTruncationError(
            f"truncated frame: meta wants {meta_len} bytes, "
            f"{len(data) - _HEAD.size} remain"
        )
    buffers, pos = _buffers(data, end)
    # CRC after the structural walk: a frame that stopped early is
    # reported as truncation above, so a CRC failure here means every
    # byte arrived and some of them are wrong.
    actual = zlib.crc32(memoryview(data)[_HEAD.size :])
    if actual != crc:
        raise ProtocolCorruptionError(
            f"frame body CRC mismatch: header says {crc:#010x}, "
            f"body hashes to {actual:#010x}"
        )
    arrays = iter(buffers)
    message, pos = cls._decode(data, pos, end, arrays)
    if pos != end:
        raise ProtocolCorruptionError(
            f"{cls.__name__} meta runs {end - pos} bytes past its fields"
        )
    if next(arrays, None) is not None:
        raise ProtocolCorruptionError(
            f"the buffer table lists more buffers than {cls.__name__} holds"
        )
    return message


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
    :class:`EpochDelta` messages scatter into).
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
    """Adopt *epoch*; optionally scatter the written label entries first.

    With ``positions is None`` the values already reached the worker out
    of band (the parent wrote them into the shared-memory segment in
    place) and only the epoch cut-over is explicit. With ``positions``
    set — flat positions into the packed label layout the worker holds,
    the entries the parent's maintenance sweep wrote — ``payload[i]`` is
    the new value at ``positions[i]``; the worker writes them with one
    scatter — the socket transport's delta sync, same consistency
    contract.
    """

    epoch: int
    positions: I64 = None
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
