"""The runtime wire protocol: roundtrips, framing, and rejection.

The codec is the contract between the scheduler and every transport
(pipes today, TCP replicas, future remote hosts), so the load-bearing
properties are: any message survives encode→decode bit-exactly
(hypothesis-generated batches, deltas, traces included), and a frame
that is truncated, version-skewed, or otherwise malformed raises
:class:`ProtocolError` instead of yielding garbage distances.
"""

from __future__ import annotations

import json
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
        vertices=draw(i64_arrays) if inline else None,
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
        vertices=np.array([2], dtype=np.int64),
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
    byte stream contains the magic + JSON meta + raw buffers only."""
    batch = ComputeBatch(
        epoch=1,
        subs=[SubQuery(s=np.array([1], dtype=np.int64), t=np.array([2], dtype=np.int64))],
    )
    frame = encode_frame(batch)
    assert frame.startswith(b"DHLP")
    # Pickle streams start with b"\x80"; no pickle opcode framing here.
    assert b"\x80\x04" not in frame and b"\x80\x05" not in frame


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
    """A v3 peer (two-letter meta keys) and a newer one are both
    refused outright."""
    assert PROTOCOL_VERSION == 4
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


def split(frame: bytes) -> tuple[int, object, bytes]:
    """A frame's message type, parsed meta and raw buffer bytes."""
    _, _, msg_type, meta_len, _ = _HEAD.unpack_from(frame)
    body = frame[_HEAD.size :]
    return msg_type, json.loads(body[:meta_len]), body[meta_len:]


def craft(msg_type: int, meta, raw: bytes) -> bytes:
    """A frame around *meta* and *raw* with its CRC recomputed: it passes
    the framing checks, so only the decoder's own checks can refuse it."""
    meta_bytes = json.dumps(meta).encode("utf-8")
    crc = zlib.crc32(raw, zlib.crc32(meta_bytes))
    head = _HEAD.pack(b"DHLP", PROTOCOL_VERSION, msg_type, len(meta_bytes), crc)
    return head + meta_bytes + raw


def replaced(meta, path: tuple, value):
    """*meta* with the value at *path* (dict keys / list indices; the
    root for an empty path) replaced by *value*."""
    if not path:
        return value
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return meta


# reference_frame() holds buffers s = 0, t = 1, block = 2.
@pytest.mark.parametrize(
    "path, value, error, match",
    [
        (("subs", 0, "s"), -1, ProtocolCorruptionError, "buffer reference"),
        (("subs", 0, "t"), True, ProtocolCorruptionError, "buffer reference"),
        (("subs", 0, "s"), 3, ProtocolCorruptionError, "buffer reference"),
        (("__buffers__", 0, 0), "zz", ProtocolCorruptionError, "dtype"),
        (("__buffers__", 0, 0), "|O", ProtocolCorruptionError, "dtype"),
        (("__buffers__", 0, 1), [-2], ProtocolCorruptionError, "shape"),
        ((), [], ProtocolCorruptionError, "object"),
        ((), "meta", ProtocolCorruptionError, "object"),
        (("__buffers__", 0, 0), "<f8", ProtocolError, r"SubQuery\.s"),
    ],
    ids=[
        "reference-negative",
        "reference-bool",
        "reference-past-table",
        "dtype-unknown",
        "dtype-object",
        "dimension-negative",
        "meta-list",
        "meta-string",
        "dtype-not-declared",
    ],
)
def test_crc_valid_malformed_frames_rejected(path, value, error, match):
    msg_type, meta, raw = split(reference_frame())
    frame = craft(msg_type, replaced(meta, path, value), raw)
    with pytest.raises(error, match=match):
        decode_frame(frame)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def meta_paths(node, path: tuple = ()):
    """Every position in a meta tree, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from meta_paths(child, (*path, key))


@settings(max_examples=300, deadline=None)
@given(message=st.sampled_from(EXAMPLES), data=st.data())
def test_any_meta_value_decodes_or_raises_protocol_error(message, data):
    """Swap any one meta value of a valid frame for arbitrary JSON and
    recompute the CRC: the frame decodes or raises ProtocolError, never
    another exception type."""
    msg_type, meta, raw = split(encode_frame(message))
    path = data.draw(st.sampled_from(list(meta_paths(meta))))
    frame = craft(msg_type, replaced(meta, path, data.draw(json_values)), raw)
    try:
        decode_frame(frame)
    except ProtocolError:
        pass


def test_corrupt_meta_rejected():
    frame = bytearray(encode_frame(AckReply()))
    frame[-2] = 0xFF  # stomp inside the JSON meta
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


# ---------------------------------------------------------------------------
# socket framing helpers
# ---------------------------------------------------------------------------

def test_send_recv_roundtrip_over_real_socket():
    server, client = socket.socketpair()
    batch = ComputeBatch(
        epoch=2, subs=[SubQuery(s=np.array([5], dtype=np.int64), t=np.array([6], dtype=np.int64))]
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
    """Damage inside the JSON meta raises a ProtocolError subclass —
    either the parse or the CRC catches it, never silence."""
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
