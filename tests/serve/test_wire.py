"""The binary wire protocol: frame encode/decode and transports."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.serve import wire
from repro.serve.events import EventBatch, pack_events, unpack_events
from repro.serve.shard import ShardApplyResult


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
    assert len(frame) == 13 + 17 * len(pcs)
    ticket, out_keys, out_taken, out_instrs = wire.decode_apply(frame)
    assert ticket == 42
    assert out_keys.dtype == np.int64
    np.testing.assert_array_equal(out_keys, pcs)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_tapply_frame_roundtrip_with_packed_keys():
    """Packed (tenant << 32) | pc keys travel through APPLY unchanged."""
    pcs, taken, instrs = _arrays(50)
    keys = pcs.astype(np.int64) | (np.int64(9) << 32)
    frame = wire.encode_apply(42, keys, taken, instrs)
    assert len(frame) == 13 + 17 * len(keys)
    ticket, out_keys, out_taken, out_instrs = wire.decode_apply(frame)
    assert ticket == 42
    assert out_keys.dtype == np.int64
    np.testing.assert_array_equal(out_keys, keys)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_apply_result_frame_roundtrip():
    result = ShardApplyResult(
        shard=3, events=1000, correct=800, incorrect=3,
        changed=(5, 9, (7 << 32) | 1000),
        changed_deployed=(True, False, True), last_instr=123456,
        col_fast=900, col_fallback=36, col_single=64)
    frame = wire.encode_apply_result(7, result, 0.0, 0.0)
    assert wire.decode_apply_result(frame, 3) == (7, result)
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1], 3)


def test_apply_result_frame_carries_transitions_and_latency():
    transitions = ((5, 0, 100, 12345), (9, 2, 2048, 99999),
                   (1000, 3, 7, -1))
    result = ShardApplyResult(
        shard=0, events=64, correct=50, incorrect=2, changed=(5,),
        changed_deployed=(True,), last_instr=777,
        transitions=transitions, apply_seconds=0.0125)
    frame = wire.encode_apply_result(8, result, 100.5, 100.75)
    ticket, out = wire.decode_apply_result(frame, 0)
    assert ticket == 8
    assert out.transitions == transitions
    assert out.apply_seconds == pytest.approx(0.0125)
    # The worker-side monotonic stamps ride along so the parent can
    # attribute wire_out / wire_back span stages.
    assert out.t_recv == pytest.approx(100.5)
    assert out.t_done == pytest.approx(100.75)
    assert out == ShardApplyResult(**{**result.__dict__, "t_recv": 100.5,
                                      "t_done": 100.75})
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1], 0)


def test_tenant_control_frames_roundtrip():
    assert wire.decode_tspill(wire.encode_tspill(7, 12345)) == (7, 12345)
    states = [{"branch": (9 << 32) | 5, "deployed": True},
              {"branch": (9 << 32) | 6, "deployed": False}]
    assert wire.decode_tspill_result(
        wire.encode_tspill_result(8, states)) == (8, states)
    assert wire.decode_trestore(
        wire.encode_trestore(9, states)) == (9, states)
    assert wire.decode_trestore_ack(wire.encode_trestore_ack(10)) == 10


def test_tenant_blob_decoders_reject_non_list_bodies():
    import json
    import zlib

    blob = zlib.compress(json.dumps({"not": "a list"}).encode())
    frame = (bytes([wire.TRESTORE])
             + wire.encode_trestore(1, [])[1:9]
             + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(wire.ProtocolError, match="not a state list"):
        wire.decode_trestore(frame)


def test_load_and_state_frames_roundtrip():
    state = {"index": 2, "bank": [{"branch": 7, "state": "biased"}],
             "events_applied": 99}
    assert wire.decode_load(wire.encode_load(state)) == state
    assert wire.decode_load(wire.encode_load(None)) is None
    assert wire.decode_state(wire.encode_state(5, state)) == (5, state)


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
    state = {"index": 1, "bank": []}
    result = ShardApplyResult(
        shard=1, events=16, correct=9, incorrect=1, changed=(5,),
        changed_deployed=(True,), last_instr=64,
        transitions=((5, 0, 3, 60),))
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
         wire.encode_tspill_result(5, [{"branch": 1}]),
         "TSPILL_RESULT", True, True),
        (wire.decode_trestore,
         wire.encode_trestore(6, [{"branch": 1}]),
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
    garbage = b"\xde\xad\xbe\xef"
    blob = wire.encode_state(1, {})[:9] + len(garbage).to_bytes(
        4, "little") + garbage
    with pytest.raises(wire.ProtocolError, match="not zlib JSON"):
        wire.decode_state(blob)
    listed = wire.encode_tspill_result(1, [])
    with pytest.raises(wire.ProtocolError, match="not a state dict"):
        wire.decode_state(bytes([wire.STATE]) + listed[1:])
    bad_load = wire.encode_load({"k": 1})
    bad_load = bad_load[:6] + b"\xff" * (len(bad_load) - 6)
    with pytest.raises(wire.ProtocolError, match="not zlib JSON"):
        wire.decode_load(bad_load)


def test_decode_load_none_roundtrip():
    assert wire.decode_load(wire.encode_load(None)) is None


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
