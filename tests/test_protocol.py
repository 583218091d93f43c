"""The runtime wire protocol: roundtrips, framing, and rejection.

The codec is the contract between the scheduler and every transport
(pipes today, TCP replicas, future remote hosts), so the load-bearing
properties are: any message survives encode→decode bit-exactly
(hypothesis-generated batches, deltas, traces included), and a frame
that is truncated, version-skewed, or otherwise malformed raises
:class:`ProtocolError` instead of yielding garbage distances.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import threading
import zlib
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ProtocolCorruptionError,
    ProtocolError,
    ProtocolTruncationError,
)
from repro.labelling.native import engine as native_engine
from repro.service.protocol import (
    _HEAD,
    _MESSAGE_TYPES,
    PROTOCOL_VERSION,
    AckReply,
    ByeReply,
    ComputeBatch,
    ComputeReply,
    EpochDelta,
    ErrorReply,
    HealthCheck,
    HealthReply,
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

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

i64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**31), min_size=0, max_size=8
).map(lambda xs: np.array(xs, dtype=np.int64))

f64_arrays = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.just(float("inf")),
    ),
    min_size=0,
    max_size=8,
).map(lambda xs: np.array(xs, dtype=np.float64))


def f64_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    flat = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


@st.composite
def sub_queries(draw):
    has_pairs = draw(st.booleans())
    has_fan = draw(st.booleans())
    has_block = has_pairs and draw(st.booleans())
    return SubQuery(
        s=draw(i64_arrays) if has_pairs else None,
        t=draw(i64_arrays) if has_pairs else None,
        fan=draw(i64_arrays) if has_fan else None,
        block=f64_matrix(draw) if has_block else None,
        block_cached=draw(st.booleans()) if not has_block else False,
        block_epoch=draw(st.integers(min_value=-1, max_value=50)),
    )


@st.composite
def compute_batches(draw):
    return ComputeBatch(
        epoch=draw(st.integers(min_value=0, max_value=1000)),
        subs=draw(st.lists(sub_queries(), min_size=0, max_size=4)),
        want_trace=draw(st.booleans()),
    )


@st.composite
def epoch_deltas(draw):
    inline = draw(st.booleans())
    return EpochDelta(
        epoch=draw(st.integers(min_value=0, max_value=1000)),
        positions=draw(i64_arrays) if inline else None,
        payload=draw(f64_arrays) if inline else None,
    )


@st.composite
def trace_envelopes(draw):
    # The span dict shape produced by Span.to_dict(): JSON-safe nesting.
    leaf = st.fixed_dictionaries(
        {
            "name": st.text(min_size=1, max_size=12),
            "seconds": st.floats(min_value=0, max_value=10, allow_nan=False),
        }
    )
    return TraceEnvelope(
        spans=draw(
            st.fixed_dictionaries(
                {
                    "name": st.text(min_size=1, max_size=12),
                    "seconds": st.floats(
                        min_value=0, max_value=10, allow_nan=False
                    ),
                    "children": st.lists(leaf, max_size=3),
                }
            )
        )
    )


@st.composite
def compute_replies(draw):
    results = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        has_fan = draw(st.booleans())
        results.append(
            SubResult(
                final=draw(f64_arrays) if draw(st.booleans()) else None,
                fan=f64_matrix(draw) if has_fan else None,
                fan_inverse=draw(i64_arrays) if has_fan else None,
            )
        )
    return ComputeReply(
        results=results,
        trace=draw(trace_envelopes()) if draw(st.booleans()) else None,
    )


# ---------------------------------------------------------------------------
# equality helpers (dataclass == chokes on numpy fields)
# ---------------------------------------------------------------------------

def assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        return
    if hasattr(a, "__dataclass_fields__"):
        for name in a.__dataclass_fields__:
            assert_same(getattr(a, name), getattr(b, name))
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
        return
    assert a == b


# ---------------------------------------------------------------------------
# roundtrip properties
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(batch=compute_batches())
def test_compute_batch_roundtrip(batch):
    assert_same(decode_frame(encode_frame(batch)), batch)


@settings(max_examples=50, deadline=None)
@given(delta=epoch_deltas())
def test_epoch_delta_roundtrip(delta):
    assert_same(decode_frame(encode_frame(delta)), delta)


@settings(max_examples=50, deadline=None)
@given(reply=compute_replies())
def test_compute_reply_roundtrip(reply):
    assert_same(decode_frame(encode_frame(reply)), reply)


@settings(max_examples=25, deadline=None)
@given(envelope=trace_envelopes())
def test_trace_envelope_rides_compute_reply(envelope):
    reply = ComputeReply(results=[], trace=envelope)
    assert decode_frame(encode_frame(reply)).trace.spans == envelope.spans


#: One message of every registered type, each field off its default.
EXAMPLES = [
    SpecRequest(
        payload=b"\x00pickled\xff",
        epoch=3,
        shm_values="psm_v",
        shm_offsets="psm_o",
        values_len=2,
        offsets_len=3,
        values=np.array([1.5, np.inf]),
        offsets=np.array([0, 1, 2], dtype=np.int64),
    ),
    ComputeBatch(
        epoch=4,
        subs=[
            SubQuery(
                s=np.array([0, 1], dtype=np.int64),
                t=np.array([2, 3], dtype=np.int64),
                fan=np.array([5], dtype=np.int64),
                block=np.arange(6, dtype=np.float64).reshape(2, 3),
                block_cached=True,
                block_epoch=6,
            )
        ],
        want_trace=True,
    ),
    EpochDelta(
        epoch=5,
        positions=np.array([2, 5], dtype=np.int64),
        payload=np.array([0.5, 1.0]),
    ),
    Republish(
        epoch=9,
        shm_values="psm_abc",
        shm_offsets="psm_def",
        values_len=10,
        offsets_len=11,
        values=np.array([1.0, np.inf]),
        offsets=np.array([0, 2], dtype=np.int64),
    ),
    Shutdown(),
    HealthCheck(nonce=41),
    ReadyReply(num_vertices=42, epoch=7),
    ComputeReply(
        results=[
            SubResult(
                final=np.array([1.5]),
                fan=np.ones((2, 2)),
                fan_inverse=np.array([1, 0, 1], dtype=np.int64),
            )
        ],
        trace=TraceEnvelope(spans={"name": "shard_compute", "seconds": 0.5}),
    ),
    AckReply(),
    StaleReply(held=3, stamped=5),
    ErrorReply(message="KeyError: 'boom'"),
    ByeReply(),
    HealthReply(nonce=41, epoch=7, served=99),
]


def assert_off_default(record):
    """Every defaulted field of *record*, nested records included, holds
    something other than its default."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.default is not MISSING:
            assert value is not f.default, f"{type(record).__name__}.{f.name}"
            assert isinstance(value, np.ndarray) or value != f.default
        elif f.default_factory is not MISSING:
            assert value != f.default_factory(), f"{type(record).__name__}.{f.name}"
        for item in value if isinstance(value, list) else [value]:
            if is_dataclass(item):
                assert_off_default(item)


def test_scalar_messages_roundtrip():
    missing = {c.__name__ for c in _MESSAGE_TYPES.values()}
    missing -= {type(m).__name__ for m in EXAMPLES}
    assert not missing, f"no round-trip example for {sorted(missing)}"
    for message in EXAMPLES:
        assert_off_default(message)
        assert_same(decode_frame(encode_frame(message)), message)
    for message in (
        ReadyReply(num_vertices=42, epoch=7),
        StaleReply(held=3, stamped=5),
        ErrorReply(message="KeyError: 'boom'"),
        AckReply(),
        ByeReply(),
        Shutdown(),
        Republish(
            epoch=9,
            shm_values="psm_abc",
            shm_offsets="psm_def",
            values_len=10,
            offsets_len=11,
        ),
        Republish(
            epoch=9,
            values=np.array([1.0, np.inf]),
            offsets=np.array([0, 2], dtype=np.int64),
        ),
    ):
        assert_same(decode_frame(encode_frame(message)), message)


def test_spec_request_roundtrip_preserves_payload_bytes():
    spec = SpecRequest(
        payload=b"\x00\x01pickled-structure\xff",
        epoch=3,
        values=np.array([1.5, 2.5]),
        offsets=np.array([0, 1, 2], dtype=np.int64),
    )
    out = decode_frame(encode_frame(spec))
    assert out.payload == spec.payload
    assert out.epoch == 3
    np.testing.assert_array_equal(out.values, spec.values)


def test_decoded_arrays_preserve_dtype_and_2d_shape():
    sub = SubQuery(
        fan=np.array([3, 1, 2], dtype=np.int64),
        block=np.arange(6, dtype=np.float64).reshape(2, 3),
    )
    out = decode_frame(encode_frame(ComputeBatch(epoch=0, subs=[sub])))
    decoded = out.subs[0]
    assert decoded.block.shape == (2, 3)
    assert decoded.block.dtype == np.float64
    assert decoded.fan.dtype == np.int64
    reply = ComputeReply(
        results=[
            SubResult(
                final=np.array([1.5]),
                fan=np.arange(6, dtype=np.float64).reshape(3, 2),
                fan_inverse=np.array([2, 0, 1, 0], dtype=np.int64),
            )
        ]
    )
    (result,) = decode_frame(encode_frame(reply)).results
    assert result.fan.shape == (3, 2) and result.fan.dtype == np.float64
    assert result.fan_inverse.dtype == np.int64


def test_frame_has_no_pickle_on_compute_path():
    """Compute frames must be parseable without the pickle module: the
    byte stream contains the magic + binary meta + raw buffers only."""
    batch = ComputeBatch(
        epoch=1,
        subs=[
            SubQuery(s=np.array([1], dtype=np.int64), t=np.array([2], dtype=np.int64))
        ],
    )
    frame = encode_frame(batch)
    assert frame.startswith(b"DHLP")
    # Pickle streams start with b"\x80"; no pickle opcode framing here.
    assert b"\x80\x04" not in frame and b"\x80\x05" not in frame


def arrays_of(record):
    """Every array a decoded record holds, nested records included."""
    for f in fields(record):
        value = getattr(record, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                yield item
            elif is_dataclass(item):
                yield from arrays_of(item)


def test_decoded_arrays_are_aligned_operands():
    """Each buffer starts at a frame offset that is a multiple of 8, so
    the kernels take every decoded array as it is: ``operand`` returns
    it, no copy."""
    count = 0
    for message in EXAMPLES:
        frame = encode_frame(message)
        base = np.frombuffer(frame, np.uint8).ctypes.data
        for array in arrays_of(decode_frame(frame)):
            assert (array.ctypes.data - base) % 8 == 0
            assert array.flags.aligned and array.flags.c_contiguous
            assert native_engine.operand(array, array.dtype) is array
            count += 1
    assert count == 13


#: Shaped like the benchmark's codec probe: intra pairs only, finals only.
PROBE_SHAPED = [
    ComputeBatch(
        epoch=1,
        subs=[
            SubQuery(
                s=np.arange(pairs, dtype=np.int64) * 7 % 1000,
                t=np.arange(pairs, dtype=np.int64)[::-1].copy(),
            )
        ],
    )
    for pairs in (0, 1, 512)
] + [
    ComputeReply(results=[SubResult(final=np.linspace(0.0, 1.0, pairs))])
    for pairs in (0, 1, 512)
]


def assert_aligned_roundtrip(received, message):
    assert_same(received, message)
    for array in arrays_of(received):
        assert native_engine.operand(array, array.dtype) is array


def test_probe_shaped_frames_roundtrip_over_a_pipe():
    reader, writer = multiprocessing.Pipe(duplex=False)
    try:
        for message in PROBE_SHAPED:
            writer.send_bytes(encode_frame(message))
            assert_aligned_roundtrip(decode_frame(reader.recv_bytes()), message)
    finally:
        reader.close()
        writer.close()


def test_probe_shaped_frames_roundtrip_over_tcp():
    with socket.create_server(("127.0.0.1", 0)) as server:
        with socket.create_connection(server.getsockname()) as client:
            peer, _ = server.accept()
            with peer:
                for message in PROBE_SHAPED:
                    send_message(client, message)
                    assert_aligned_roundtrip(recv_message(peer), message)


# ---------------------------------------------------------------------------
# rejection: truncation, version skew, malformed frames
# ---------------------------------------------------------------------------

def reference_frame() -> bytes:
    return encode_frame(
        ComputeBatch(
            epoch=5,
            subs=[
                SubQuery(
                    s=np.array([0, 1], dtype=np.int64),
                    t=np.array([2, 3], dtype=np.int64),
                    block=np.ones((2, 2)),
                )
            ],
        )
    )


@pytest.mark.parametrize("cut", [0, 3, 7, 11, 20, -1])
def test_truncated_frames_rejected(cut):
    frame = reference_frame()
    with pytest.raises(ProtocolError, match="truncated|header"):
        decode_frame(frame[: cut if cut >= 0 else len(frame) - 1])


def test_every_truncation_point_rejected_or_never_silent():
    """No prefix of a valid frame may decode silently — each length
    either raises ProtocolError or (full length) decodes correctly."""
    frame = reference_frame()
    for n in range(len(frame)):
        with pytest.raises(ProtocolError):
            decode_frame(frame[:n])
    decode_frame(frame)  # the untruncated frame still parses


def test_version_mismatch_rejected():
    """A v5 peer (whole-label inline deltas) and a v7 one are both
    refused outright."""
    assert PROTOCOL_VERSION == 6
    frame = bytearray(reference_frame())
    offset = 4  # after magic
    (version,) = struct.unpack_from("<H", frame, offset)
    assert version == PROTOCOL_VERSION
    for skew in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
        struct.pack_into("<H", frame, offset, skew)
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(bytes(frame))


def test_bad_magic_rejected():
    frame = b"NOPE" + reference_frame()[4:]
    with pytest.raises(ProtocolError, match="magic"):
        decode_frame(frame)


def test_unknown_message_type_rejected():
    frame = bytearray(reference_frame())
    struct.pack_into("<H", frame, 6, 999)  # after magic + version
    with pytest.raises(ProtocolError, match="unknown message type"):
        decode_frame(bytes(frame))


def test_trailing_garbage_rejected():
    with pytest.raises(ProtocolError, match="oversized"):
        decode_frame(reference_frame() + b"xx")


def split(frame: bytes) -> tuple[int, bytes, bytes]:
    """A frame's message type, its binary meta and its buffer bytes
    (the padding after the meta dropped)."""
    _, _, msg_type, meta_len, _ = _HEAD.unpack_from(frame)
    start = _HEAD.size + meta_len
    return msg_type, frame[_HEAD.size : start], frame[start + -start % 8 :]


def craft(msg_type: int, meta: bytes, buffers: bytes) -> bytes:
    """A frame around *meta* and *buffers*, padded so the buffers start
    at a multiple of 8 and with its CRC recomputed: it passes the
    framing checks, so only the decoder's own checks can refuse it."""
    pad = bytes(-(_HEAD.size + len(meta)) % 8)
    crc = zlib.crc32(buffers, zlib.crc32(pad, zlib.crc32(meta)))
    head = _HEAD.pack(b"DHLP", PROTOCOL_VERSION, msg_type, len(meta), crc)
    return head + meta + pad + buffers


def replaced(meta: bytes, edits) -> bytes:
    """*meta* with each ``(offset, fmt, value)`` of *edits* packed over
    its bytes at *offset* (``fmt`` a little-endian :mod:`struct`
    format); ``fmt`` ``"+"`` appends *value*'s bytes instead."""
    meta = bytearray(meta)
    for offset, fmt, value in edits:
        if fmt == "+":
            meta += value
        else:
            struct.pack_into("<" + fmt, meta, offset, *value)
    return bytes(meta)


# reference_frame()'s meta: the buffer table (u32 count 3; rows s and t
# of 10 bytes from 4 and 14, the 2-D block of 18 from 24), then the
# ComputeBatch head (i64 epoch at 42, u32 list count at 50, u32 mask at
# 54) and the SubQuery head (i64 block_epoch at 58, u32 mask at 66: s,
# t, fan, block, block_cached from bit 0).
@pytest.mark.parametrize(
    "edits, error, match",
    [
        ([(0, "I", (2,))], ProtocolCorruptionError, "trailing"),
        ([(0, "I", (4,))], ProtocolCorruptionError, "buffer"),
        ([(66, "I", (0b0011,))], ProtocolCorruptionError, "more buffers"),
        ([(66, "I", (0b1111,)), (24, "B", (1,))], ProtocolCorruptionError, "ran out"),
        ([(4, "B", (0,))], ProtocolCorruptionError, "dtype"),
        ([(4, "B", (3,))], ProtocolCorruptionError, "dtype"),
        ([(5, "B", (65,))], ProtocolCorruptionError, "table row"),
        ([(26, "QQ", (0, 2**63 - 1))], ProtocolCorruptionError, "shape"),
        ([(6, "Q", (2**40,))], ProtocolTruncationError, "truncated"),
        ([(66, "I", (0b1001011,))], ProtocolCorruptionError, "flag mask"),
        ([(54, "I", (0b10,))], ProtocolCorruptionError, "flag mask"),
        ([(50, "I", (1000,))], ProtocolCorruptionError, "past the meta"),
        ([(0, "+", b"\0")], ProtocolCorruptionError, "past its fields"),
        ([(4, "B", (2,))], ProtocolError, r"SubQuery\.s"),
    ],
    ids=[
        "table-count-short",
        "table-count-long",
        "array-field-dropped",
        "array-field-added",
        "dtype-code-zero",
        "dtype-code-unknown",
        "ndim-past-numpy",
        "dimension-overflow",
        "dimension-past-frame",
        "mask-bit-past-record",
        "bool-bit-past-record",
        "list-count-past-meta",
        "meta-runs-on",
        "dtype-not-declared",
    ],
)
def test_crc_valid_malformed_frames_rejected(edits, error, match):
    msg_type, meta, buffers = split(reference_frame())
    assert len(meta) == 70  # the offsets above
    frame = craft(msg_type, replaced(meta, edits), buffers)
    with pytest.raises(error, match=match):
        decode_frame(frame)


def edited_error_reply(edit) -> bytes:
    """``ErrorReply(message="ab")`` with *edit* applied to its meta (a
    u32 length at 4, the text at 8)."""
    msg_type, meta, buffers = split(encode_frame(ErrorReply(message="ab")))
    return craft(msg_type, edit(meta), buffers)


@pytest.mark.parametrize(
    "frame, error, match",
    [
        (
            encode_frame(ComputeReply(trace=TraceEnvelope(spans=[1, 2]))),
            ProtocolError,
            "is no dict",
        ),
        (
            encode_frame(ComputeReply(trace=TraceEnvelope(spans="x"))),
            ProtocolError,
            "is no dict",
        ),
        (
            edited_error_reply(lambda meta: meta[:-2] + b"\xff\xfe"),
            ProtocolCorruptionError,
            "unreadable",
        ),
        (
            edited_error_reply(lambda meta: replaced(meta, [(4, "I", (3,))])),
            ProtocolCorruptionError,
            "past the meta",
        ),
    ],
    ids=["dict-holds-list", "dict-holds-string", "str-not-utf8", "str-past-meta"],
)
def test_bodies_of_the_wrong_kind_rejected(frame, error, match):
    """A ``dict`` field whose JSON is no object, text that is no UTF-8
    and a body longer than the meta are refused (the encoder writes any
    dict field's value as JSON and only valid UTF-8)."""
    with pytest.raises(error, match=match):
        decode_frame(frame)


def test_nested_json_past_the_recursion_limit_is_corruption():
    """JSON is parsed only inside ``dict`` fields; nesting past the
    interpreter's recursion limit there is a corrupt frame, not a
    :class:`RecursionError`. The same bytes as a whole meta, as a v4
    frame could carry them, are no valid binary layout."""
    deep = b"[" * 100_000 + b"]" * 100_000
    reply = ComputeReply(trace=TraceEnvelope(spans={}))
    msg_type, meta, buffers = split(encode_frame(reply))
    assert meta.endswith(struct.pack("<I", 2) + b"{}") and not buffers
    frame = craft(msg_type, meta[:-6] + struct.pack("<I", len(deep)) + deep, buffers)
    with pytest.raises(ProtocolCorruptionError, match="unreadable"):
        decode_frame(frame)
    with pytest.raises(ProtocolCorruptionError):
        decode_frame(craft(HealthCheck.TYPE, deep, b""))


def header_and_meta_positions(frame: bytes) -> list[int]:
    """Every byte a one-byte edit may change: the header before its CRC
    (which :func:`craft` recomputes) and the meta."""
    _, _, _, meta_len, _ = _HEAD.unpack_from(frame)
    return [*range(_HEAD.size - 4), *range(_HEAD.size, _HEAD.size + meta_len)]


@settings(max_examples=400, deadline=None)
@given(message=st.sampled_from(EXAMPLES), data=st.data())
def test_any_header_or_meta_byte_decodes_or_raises_protocol_error(message, data):
    """Change any one byte of a valid frame's header or meta and
    recompute the CRC: the frame decodes or raises ProtocolError, never
    another exception type."""
    frame = bytearray(encode_frame(message))
    at = data.draw(st.sampled_from(header_and_meta_positions(frame)))
    frame[at] = data.draw(st.integers(0, 255).filter(lambda b: b != frame[at]))
    body = bytes(frame[_HEAD.size :])
    struct.pack_into("<I", frame, _HEAD.size - 4, zlib.crc32(body))
    try:
        decode_frame(bytes(frame))
    except ProtocolError:
        pass


def test_corrupt_meta_rejected():
    frame = bytearray(encode_frame(AckReply()))
    frame[-2] = 0xFF  # stomp inside the meta
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


# ---------------------------------------------------------------------------
# socket framing helpers
# ---------------------------------------------------------------------------

def test_send_recv_roundtrip_over_real_socket():
    server, client = socket.socketpair()
    batch = ComputeBatch(
        epoch=2,
        subs=[
            SubQuery(s=np.array([5], dtype=np.int64), t=np.array([6], dtype=np.int64))
        ],
    )
    received = []

    def serve():
        received.append(recv_message(server))
        send_message(server, AckReply())

    thread = threading.Thread(target=serve)
    thread.start()
    send_message(client, batch)
    reply = recv_message(client)
    thread.join(5)
    server.close()
    client.close()
    assert isinstance(reply, AckReply)
    assert_same(received[0], batch)


def test_recv_message_rejects_peer_disconnect_mid_frame():
    server, client = socket.socketpair()
    frame = encode_frame(AckReply())
    client.sendall(struct.pack("<I", len(frame)) + frame[: len(frame) // 2])
    client.close()
    with pytest.raises(ProtocolError, match="truncated"):
        recv_message(server)
    server.close()


# ---------------------------------------------------------------------------
# CRC hardening: truncation vs corruption classification
# ---------------------------------------------------------------------------

def test_flipped_body_byte_is_classified_as_corruption():
    """A complete frame with a damaged payload byte fails the CRC and
    raises the *corruption* subclass — the 'peer is sending garbage'
    signal, distinct from a died-mid-frame truncation."""
    frame = bytearray(
        encode_frame(
            Republish(
                epoch=3,
                values=np.linspace(0.0, 1.0, 16),
                offsets=np.arange(17, dtype=np.int64),
            )
        )
    )
    frame[-1] ^= 0xFF  # stomp one byte inside the value buffer
    with pytest.raises(ProtocolCorruptionError, match="CRC mismatch"):
        decode_frame(bytes(frame))


def test_flipped_meta_byte_fails_loud():
    """Damage inside the meta raises a ProtocolError subclass — either
    the structural walk or the CRC catches it, never silence."""
    frame = bytearray(encode_frame(StaleReply(held=1, stamped=2)))
    for i in range(16, len(frame)):
        damaged = bytearray(frame)
        damaged[i] ^= 0x5A
        with pytest.raises(ProtocolError):
            decode_frame(bytes(damaged))


def test_cut_frame_is_classified_as_truncation():
    """Every strict prefix raises the *truncation* subclass (the
    'replica died mid-frame' signal), never the corruption one — the
    CRC check must not run before the structural walk completes."""
    frame = encode_frame(
        ComputeBatch(
            epoch=1,
            subs=[
                SubQuery(
                    s=np.array([0, 1], dtype=np.int64),
                    t=np.array([2, 3], dtype=np.int64),
                )
            ],
        )
    )
    for n in range(len(frame)):
        with pytest.raises(ProtocolTruncationError):
            decode_frame(frame[:n])


def test_health_messages_roundtrip():
    probe = decode_frame(encode_frame(HealthCheck(nonce=41)))
    assert isinstance(probe, HealthCheck) and probe.nonce == 41
    reply = decode_frame(encode_frame(HealthReply(nonce=41, epoch=7, served=99)))
    assert isinstance(reply, HealthReply)
    assert (reply.nonce, reply.epoch, reply.served) == (41, 7, 99)


def test_recv_frame_rejects_oversized_length_prefix():
    server, client = socket.socketpair()
    try:
        client.sendall(struct.pack("<I", (1 << 31) + 5))
        with pytest.raises(ProtocolCorruptionError, match="exceeds"):
            recv_message(server)
    finally:
        server.close()
        client.close()
