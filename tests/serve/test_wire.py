"""The binary wire protocol: frame encode/decode and transports."""

from __future__ import annotations

import dataclasses
import socket
import threading
import zlib

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.serve import wire
from repro.serve.colpath import RowBlock
from repro.serve.events import EventBatch, pack_events, unpack_events
from repro.serve.shard import BankShard, ShardApplyResult

#: Small thresholds, so a short run leaves rows in every FSM state with
#: pending deployments.
_TINY = ControllerConfig(
    monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
    misspec_increment=50, correct_decrement=1, revisit_period=6,
    oscillation_limit=3, optimization_latency=20)


def _assert_same_result(got, want):
    """Results hold arrays, so compare them field by field (values and
    dtypes)."""
    for f in dataclasses.fields(ShardApplyResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def _shard_state(tenant=9, n_keys=6, index=2):
    """A real shard state: ``n_keys`` of ``tenant``'s branches after a
    short random run."""
    rng = np.random.default_rng(5)
    shard = BankShard(index, _TINY)
    keys = (tenant << 32) | rng.integers(0, n_keys, 200)
    shard.apply(keys, rng.uniform(size=200) < 0.7,
                np.arange(1, 201, dtype=np.int64) * 8)
    return shard.export_state()


#: Every frame whose body is a row block: (name, its encoder over one
#: shard state, its decoder to that state's row block).
_ROW_FRAMES = (
    ("LOAD", wire.encode_load, lambda p: wire.decode_load(p).rows),
    ("STATE", lambda st: wire.encode_state(5, st),
     lambda p: wire.decode_state(p)[1].rows),
    ("TSPILL_RESULT", lambda st: wire.encode_tspill_result(6, st.rows),
     lambda p: wire.decode_tspill_result(p)[1]),
    ("TRESTORE", lambda st: wire.encode_trestore(7, st.rows),
     lambda p: wire.decode_trestore(p)[1]),
)


def _with_body(frame: bytes, rows: RowBlock, body: bytes) -> bytes:
    """``frame`` (whose header ends in its uint32 ``zlen``) with its
    packed ``rows`` swapped for ``body``."""
    head = frame[:len(frame) - len(rows.to_bytes()) - 4]
    return head + len(body).to_bytes(4, "little") + body


def _arrays(n=100, seed=3):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 500, n).astype(np.int32)
    taken = rng.uniform(size=n) < 0.5
    instrs = np.cumsum(rng.integers(1, 20, n)).astype(np.int64)
    return pcs, taken, instrs


def test_pack_unpack_events_roundtrip():
    pcs, taken, instrs = _arrays()
    buf = b"prefix!" + pack_events(pcs, taken, instrs)
    out_pcs, out_taken, out_instrs = unpack_events(buf, 7, len(pcs))
    np.testing.assert_array_equal(out_pcs, pcs)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_pack_events_accepts_noncontiguous_views():
    pcs, taken, instrs = _arrays(200)
    view = slice(10, 150)
    buf = pack_events(pcs[view], taken[view], instrs[view])
    out = unpack_events(buf, 0, 140)
    np.testing.assert_array_equal(out[0], pcs[view])


def test_unpack_events_rejects_truncation():
    pcs, taken, instrs = _arrays(8)
    buf = pack_events(pcs, taken, instrs)
    with pytest.raises(ValueError, match="truncated"):
        unpack_events(buf[:-1], 0, 8)


def test_event_batch_wire_roundtrip():
    pcs, taken, instrs = _arrays(64)
    batch = EventBatch(seq=17, pcs=pcs, taken=taken, instrs=instrs)
    clone = EventBatch.from_bytes(batch.to_bytes())
    assert clone.seq == 17
    np.testing.assert_array_equal(clone.pcs, batch.pcs)
    np.testing.assert_array_equal(clone.taken, batch.taken)
    np.testing.assert_array_equal(clone.instrs, batch.instrs)
    with pytest.raises(ValueError, match="length mismatch"):
        EventBatch.from_bytes(batch.to_bytes()[:-3])


def test_apply_frame_roundtrip():
    """APPLY carries int64 keys: bare int32 PCs widen to tenant 0's
    keys."""
    pcs, taken, instrs = _arrays(50)
    frame = wire.encode_apply(42, pcs, taken, instrs)
    assert len(frame) == 16 + 17 * len(pcs)
    ticket, out_keys, out_taken, out_instrs = wire.decode_apply(frame)
    assert ticket == 42
    assert out_keys.dtype == np.int64
    np.testing.assert_array_equal(out_keys, pcs)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_apply_frame_views_are_aligned():
    """The worker applies straight from APPLY's views, and the parent's
    detector reads APPLY_RESULT's: their int64 columns are 8-byte
    aligned, as sent and as a socket delivers them."""
    pcs, taken, instrs = _arrays(37)
    pcs %= 4  # few branches, so the tiny config's arcs fire
    shard = BankShard(0, _TINY)
    shard.capture = shard.detect = True
    result = shard.apply(pcs, taken, instrs)
    assert result.summary.shape[1] and result.selects.shape[1]
    frames = (wire.encode_apply(1, pcs, taken, instrs),
              wire.encode_apply_result(2, result, 0.0, 0.0))
    left, right = socket.socketpair()
    sender, receiver = wire.SocketTransport(left), wire.SocketTransport(right)
    try:
        for frame in frames:
            sender.send(frame)
            for payload in (frame, receiver.recv()):
                assert all(view.flags.aligned
                           for view in _int64_views(payload))
    finally:
        sender.close()
        receiver.close()


def _int64_views(payload):
    """The int64 views an APPLY or APPLY_RESULT frame decodes to."""
    if payload[0] == wire.APPLY:
        _, keys, _taken, instrs = wire.decode_apply(payload)
        return keys, instrs
    out = wire.decode_apply_result(payload, 0)[1]
    return out.changed, out.transitions, out.summary, out.selects


def test_tapply_frame_roundtrip_with_packed_keys():
    """Packed (tenant << 32) | pc keys travel through APPLY unchanged."""
    pcs, taken, instrs = _arrays(50)
    keys = pcs.astype(np.int64) | (np.int64(9) << 32)
    frame = wire.encode_apply(42, keys, taken, instrs)
    assert len(frame) == 16 + 17 * len(keys)
    ticket, out_keys, out_taken, out_instrs = wire.decode_apply(frame)
    assert ticket == 42
    assert out_keys.dtype == np.int64
    np.testing.assert_array_equal(out_keys, keys)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_apply_result_frame_roundtrip():
    result = ShardApplyResult(
        shard=3, events=1000, correct=800, incorrect=3,
        changed=np.array([5, 9, (7 << 32) | 1000]),
        changed_deployed=np.array([True, False, True]), last_instr=123456,
        col_fast=900, col_fallback=36, col_single=64)
    frame = wire.encode_apply_result(7, result, 0.0, 0.0)
    ticket, out = wire.decode_apply_result(frame, 3)
    assert ticket == 7
    _assert_same_result(out, result)
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1], 3)


def test_apply_result_frame_carries_transitions_and_latency():
    transitions = np.array([(5, 0, 100, 12345), (9, 2, 2048, 99999),
                            (1000, 3, 7, -1)]).T
    summary = np.array([(5, 99, 40, 39, 0, 7), (9, 2047, 24, 0, -1, 0)]).T
    selects = np.array([(5, 1, 107)]).T
    result = ShardApplyResult(
        shard=0, events=64, correct=50, incorrect=2, changed=np.array([5]),
        changed_deployed=np.array([True]), last_instr=777,
        transitions=transitions, summary=summary, selects=selects,
        apply_seconds=0.0125)
    frame = wire.encode_apply_result(8, result, 100.5, 100.75)
    ticket, out = wire.decode_apply_result(frame, 0)
    assert ticket == 8
    np.testing.assert_array_equal(out.transitions, transitions)
    np.testing.assert_array_equal(out.summary, summary)
    np.testing.assert_array_equal(out.selects, selects)
    assert out.apply_seconds == pytest.approx(0.0125)
    # The worker-side monotonic stamps ride along so the parent can
    # attribute wire_out / wire_back span stages.
    assert out.t_recv == pytest.approx(100.5)
    assert out.t_done == pytest.approx(100.75)
    _assert_same_result(out, dataclasses.replace(result, t_recv=100.5,
                                                 t_done=100.75))
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1], 0)


#: One APPLY and one APPLY_RESULT frame as committed bytes: five events
#: (one of them a packed tenant key) and a result with two flipped keys,
#: a three-arc transition block, a four-key summary and the one SELECT's
#: column.  The worker link is never persisted, but its frame bodies must
#: not drift by accident.
_PINNED_APPLY = bytes.fromhex(
    "032a000000000000000500000000000005000000000000000500000000000000"
    "09000000000000000700000003000000e8030000000000000a00000000000000"
    "19000000000000001a0000000000000028000000000000002900000000000000"
    "0100010100")
_PINNED_APPLY_RESULT = bytes.fromhex(
    "042b000000000000000500000003000000000000000100000000000000290000"
    "0000000000020000000300000004000000010000000200000000000000010000"
    "00000000000200000000000000000000000000d03f0000000000205940000000"
    "0000305940000000050000000000000007000000030000000500000000000000"
    "0700000003000000e80300000000000000000000000000000200000000000000"
    "0300000000000000090000000000000078000000000000000700000000000000"
    "1900000000000000280000000000000029000000000000000500000000000000"
    "0900000000000000e80300000000000007000000030000000800000000000000"
    "0000000000000000060000000000000077000000000000000200000000000000"
    "0100000000000000010000000000000001000000000000000100000000000000"
    "0100000000000000000000000000000001000000000000000000000000000000"
    "0000000000000000ffffffffffffffff00000000000000000100000000000000"
    "ffffffffffffffff0000000000000000ffffffffffffffff0500000000000000"
    "0100000000000000ffffffffffffffff0100")


def test_pinned_frame_bytes():
    """APPLY and APPLY_RESULT encode to the committed bytes and decode
    back to what was encoded."""
    tenant_key = (3 << 32) | 7
    keys = np.array([5, 5, 9, tenant_key, 1000], dtype=np.int64)
    taken = np.array([True, False, True, True, False])
    instrs = np.array([10, 25, 26, 40, 41], dtype=np.int64)
    assert wire.encode_apply(42, keys, taken, instrs) == _PINNED_APPLY
    ticket, out_keys, out_taken, out_instrs = wire.decode_apply(
        _PINNED_APPLY)
    assert ticket == 42
    np.testing.assert_array_equal(out_keys, keys)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)

    result = ShardApplyResult(
        shard=1, events=5, correct=3, incorrect=1,
        changed=np.array([5, tenant_key], dtype=np.int64),
        changed_deployed=np.array([True, False]), last_instr=41,
        transitions=np.array([(5, 0, 9, 25), (tenant_key, 2, 120, 40),
                              (1000, 3, 7, 41)], dtype=np.int64).T,
        summary=np.array([(5, 8, 2, 1, 0, 1), (9, 0, 1, 1, 0, -1),
                          (1000, 6, 1, 0, -1, 0),
                          (tenant_key, 119, 1, 1, 0, -1)],
                         dtype=np.int64).T,
        selects=np.array([[5], [1], [-1]], dtype=np.int64),
        apply_seconds=0.25, col_fast=2, col_fallback=1, col_single=2)
    frame = wire.encode_apply_result(43, result, 100.5, 100.75)
    assert frame == _PINNED_APPLY_RESULT
    ticket, out = wire.decode_apply_result(_PINNED_APPLY_RESULT, 1)
    assert ticket == 43
    _assert_same_result(out, dataclasses.replace(result, t_recv=100.5,
                                                 t_done=100.75))


def test_tenant_control_frames_roundtrip():
    assert wire.decode_tspill(wire.encode_tspill(7, 12345)) == (7, 12345)
    rows = _shard_state().rows
    assert len(rows) == 6
    for decode, encode in ((wire.decode_tspill_result,
                            wire.encode_tspill_result),
                           (wire.decode_trestore, wire.encode_trestore)):
        ticket, got = decode(encode(8, rows))
        assert ticket == 8 and got == rows
        assert got.ints.dtype == np.int64 and got.flags.dtype == bool
    assert wire.decode_trestore_ack(wire.encode_trestore_ack(10)) == 10


def test_row_block_decoders_reject_partial_rows():
    """A body that decompresses to a length that is not a whole number
    of rows is refused, naming the frame."""
    state = _shard_state()
    ragged = zlib.compress(
        state.rows.ints.tobytes() + state.rows.flags.tobytes()[:-1], 1)
    for name, encode, decode in _ROW_FRAMES:
        frame = _with_body(encode(state), state.rows, ragged)
        with pytest.raises(wire.ProtocolError,
                           match=f"{name} frame body.*whole number"):
            decode(frame)


def test_load_and_state_frames_roundtrip():
    state = _shard_state()
    assert wire.decode_load(wire.encode_load(state)) == state
    assert wire.decode_state(wire.encode_state(5, state)) == (5, state)
    empty = dataclasses.replace(state, rows=RowBlock.empty())
    assert wire.decode_state(wire.encode_state(6, empty)) == (6, empty)


def test_control_frames():
    assert wire.decode_hello(wire.encode_hello(3, 4242)) == (3, 4242)
    assert wire.decode_barrier(wire.encode_barrier(9)) == 9
    ack = wire.encode_barrier(9, ack=True)
    assert wire.frame_type(ack) == wire.BARRIER_ACK
    assert wire.decode_barrier(ack) == 9
    assert wire.decode_state_req(wire.encode_state_req(11)) == 11
    assert wire.frame_type(wire.encode_shutdown()) == wire.SHUTDOWN
    assert wire.decode_error(wire.encode_error("boom")) == "boom"


def test_frame_type_mismatch_raises():
    with pytest.raises(wire.ProtocolError, match="expected HELLO"):
        wire.decode_hello(wire.encode_shutdown())
    with pytest.raises(wire.ProtocolError, match="empty"):
        wire.frame_type(b"")


def test_socket_transport_length_prefixed_frames():
    """Frames survive a real socket, including ones larger than any
    single recv and back-to-back small ones."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    left, right = wire.SocketTransport(a), wire.SocketTransport(b)
    big = bytes([wire.APPLY]) + bytes(3_000_000)
    frames = [wire.encode_hello(1, 2), big, wire.encode_shutdown()]

    received = []

    def reader():
        for _ in frames:
            received.append(right.recv())

    thread = threading.Thread(target=reader)
    thread.start()
    for frame in frames:
        left.send(frame)
    thread.join(timeout=10)
    assert received == frames
    left.close()
    with pytest.raises((EOFError, OSError)):
        right.recv()
    right.close()


def test_every_decoder_rejects_malformed_frames():
    """Socket bytes are attacker-adjacent: every decoder must fail
    with ProtocolError — never a bare struct.error or IndexError —
    on empty, truncated, oversized, or mistyped payloads."""
    pcs, taken, instrs = _arrays(16)
    state = _shard_state(n_keys=2)
    result = ShardApplyResult(
        shard=1, events=16, correct=9, incorrect=1, changed=np.array([5]),
        changed_deployed=np.array([True]), last_instr=64,
        transitions=np.array([[5], [0], [3], [60]]),
        summary=np.array([[5], [40], [16], [9], [0], [2]]))
    # (decoder, valid frame, name, every-truncation-fails,
    #  trailing-bytes-fail) — ERROR carries a free-form message, so a
    # bare type byte or extra bytes are legitimate for it.
    cases = [
        (wire.decode_load, wire.encode_load(state), "LOAD", True, True),
        (wire.decode_hello, wire.encode_hello(1, 99), "HELLO",
         True, True),
        (wire.decode_apply, wire.encode_apply(3, pcs, taken, instrs),
         "APPLY", True, True),
        (lambda payload: wire.decode_apply_result(payload, 1),
         wire.encode_apply_result(1, result, 0.0, 0.0),
         "APPLY_RESULT", True, True),
        (wire.decode_barrier, wire.encode_barrier(4), "BARRIER",
         True, True),
        (wire.decode_barrier, wire.encode_barrier(4, ack=True), "BARRIER",
         True, True),
        (wire.decode_state_req, wire.encode_state_req(8), "STATE_REQ",
         True, True),
        (wire.decode_state, wire.encode_state(9, state), "STATE",
         True, True),
        (wire.decode_error, wire.encode_error("x"), "ERROR",
         False, False),
        (wire.decode_tspill, wire.encode_tspill(4, 77), "TSPILL",
         True, True),
        (wire.decode_tspill_result,
         wire.encode_tspill_result(5, state.rows),
         "TSPILL_RESULT", True, True),
        (wire.decode_trestore,
         wire.encode_trestore(6, state.rows),
         "TRESTORE", True, True),
        (wire.decode_trestore_ack, wire.encode_trestore_ack(7),
         "TRESTORE_ACK", True, True),
    ]
    for decode, frame, name, cuts_fail, trailing_fails in cases:
        with pytest.raises(wire.ProtocolError):
            decode(b"")
        with pytest.raises(wire.ProtocolError):
            decode(bytes([0x7F]) + frame[1:])  # foreign type byte
        if cuts_fail:
            for cut in range(1, len(frame)):
                with pytest.raises(wire.ProtocolError, match=name):
                    decode(frame[:cut])
        if trailing_fails:
            with pytest.raises(wire.ProtocolError, match=name):
                decode(frame + b"\x00")


def test_zlib_body_decoders_reject_garbage():
    """A row block body that is not zlib data is refused, naming the
    frame."""
    state = _shard_state()
    for name, encode, decode in _ROW_FRAMES:
        frame = _with_body(encode(state), state.rows, b"\xde\xad\xbe\xef")
        with pytest.raises(wire.ProtocolError,
                           match=f"{name} frame body.*not zlib data"):
            decode(frame)


class _ScriptedSocket:
    """A socket stand-in that returns recv() chunks from a script.

    Lets the transport tests pin down exact short-read and mid-frame
    EOF behaviour without racing a real peer.
    """

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, n, flags=0):
        if not self._chunks:
            return b""
        if flags & socket.MSG_WAITALL:
            # Kernel semantics: block until n bytes or EOF, whichever
            # comes first.
            out = b""
            while len(out) < n and self._chunks:
                out += self._chunks.pop(0)
            if len(out) > n:
                self._chunks.insert(0, out[n:])
            return out[:n]
        chunk = self._chunks.pop(0)
        if len(chunk) > n:
            self._chunks.insert(0, chunk[n:])
        return chunk[:n]

    def settimeout(self, value):
        pass


def _framed(payload: bytes) -> bytes:
    import struct

    return struct.pack("<I", len(payload)) + payload


def test_recv_exact_reassembles_short_reads():
    """recv() returning one byte at a time must still yield the whole
    frame — TCP guarantees nothing about read boundaries."""
    frame = wire.encode_hello(7, 4242)
    stream = _framed(frame)
    transport = wire.SocketTransport(
        _ScriptedSocket([stream[i:i + 1] for i in range(len(stream))]))
    assert transport.recv() == frame


def test_recv_eof_before_any_frame():
    transport = wire.SocketTransport(_ScriptedSocket([]))
    with pytest.raises(EOFError, match="socket closed"):
        transport.recv()


def test_recv_eof_mid_header():
    # Two of the four length-prefix bytes arrive, then the peer dies.
    transport = wire.SocketTransport(_ScriptedSocket([b"\x10\x00"]))
    with pytest.raises(EOFError, match="socket closed"):
        transport.recv()


def test_recv_eof_mid_payload():
    frame = wire.encode_hello(7, 4242)
    stream = _framed(frame)[:-3]  # header + partial payload, then EOF
    transport = wire.SocketTransport(
        _ScriptedSocket([stream[:4], stream[4:]]))
    with pytest.raises(EOFError, match="mid-frame"):
        transport.recv()
