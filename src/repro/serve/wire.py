"""Binary wire protocol between the service and shard worker processes.

Frames are the unit of exchange: a one-byte frame type followed by a
struct-packed, little-endian body.  Event payloads travel as raw
columnar array bytes (int64 keys / int64 instrs / uint8 taken), so
encoding a micro-batch is three ``tobytes`` calls and decoding is three
zero-copy ``frombuffer`` views.  The APPLY and APPLY_RESULT headers
are padded to a multiple of 8 bytes and their int64 columns come
first, so those views are aligned.  Controller state travels as a packed
row block (:meth:`RowBlock.to_bytes
<repro.serve.colpath.RowBlock.to_bytes>`: the rows' column bytes
through zlib), and a shard's counters ride in the frame's struct
header beside it.

On a stream, every frame is delimited by a :data:`FRAME_HEADER`
(``<uint32 length>``) prefix.  :class:`SocketTransport` adds and
strips it on a blocking socket (a worker process's end of its link,
the replication follower, its read-only endpoint), :func:`read_frame`
and :func:`write_frame` on the event loop's streams (the service's
end of every worker link and of every replication follower link).

Frame catalogue (body layouts, all little-endian)::

    LOAD         uint64 ticket (0) | uint32 shard
                 | uint64 events_applied | int64 last_instr
                 | uint64 correct | uint64 incorrect
                 | uint32 zlen | row block              parent → worker
    HELLO        uint16 shard | uint32 pid              worker → parent
    APPLY        uint64 ticket | uint32 n | pad[3]
                 | int64 key[n] | int64 instr[n]
                 | uint8 taken[n]                       parent → worker
    APPLY_RESULT uint64 ticket | uint32 events
                 | uint64 correct | uint64 incorrect
                 | int64 last_instr | uint32 n_changed
                 | uint32 n_trans | uint32 n_keys
                 | uint32 n_selects | uint64 col_fast
                 | uint64 col_fallback | uint64 col_single
                 | float64 apply_seconds
                 | float64 t_recv | float64 t_done | pad[3]
                 | int64 key[n_changed]
                 | int64 transitions[4][n_trans]
                 | int64 summary[6][n_keys]
                 | int64 selects[3][n_selects]
                 | uint8 deployed[n_changed]            worker → parent
    BARRIER      uint64 ticket                          parent → worker
    BARRIER_ACK  uint64 ticket                          worker → parent
    STATE_REQ    uint64 ticket                          parent → worker
    STATE        (the LOAD layout)                      worker → parent
    SHUTDOWN     (empty)                                parent → worker
    ERROR        utf-8 message                          worker → parent
    TSPILL       uint64 ticket | uint32 tenant          parent → worker
    TSPILL_RESULT uint64 ticket | uint32 zlen
                 | row block                            worker → parent
    TRESTORE     uint64 ticket | uint32 zlen
                 | row block                            parent → worker
    TRESTORE_ACK uint64 ticket                          worker → parent

``APPLY`` keys are packed int64 ``(tenant << 32) | pc`` keys (see
:mod:`repro.tenant.keys`); a bare PC is tenant 0's key, so tenant-less
traffic rides the same frame.  The transition block's four rows are
key, arc code, exec index and instruction stamp, one column per arc
firing; the summary's six rows are :data:`~repro.serve.colpath.SUMMARY_ROWS`,
one column per distinct key of the batch, and the SELECT block's three
rows are :data:`~repro.serve.colpath.SELECT_ROWS`, one column per
SELECT arc of the transition block (both empty unless the worker
feeds a detector).  Every parent → worker request but ``SHUTDOWN`` carries a
ticket that its reply echoes, which is how the supervisor pairs
replies with awaiting requests (``LOAD`` has no reply and always
carries ticket 0).  A row block's ``zlen`` bytes hold whole rows
(the row count comes from their length); a body that does not
decompress or holds a partial row raises :class:`ProtocolError`
naming the frame.  These frames pass only between a parent and its
workers and are never persisted; the WAL and replication byte form of
a batch is :meth:`EventBatch.to_bytes
<repro.serve.events.EventBatch.to_bytes>`.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import numpy as np

from repro.serve.colpath import SELECT_ROWS, SUMMARY_ROWS, RowBlock
from repro.serve.shard import ShardApplyResult, ShardState

__all__ = [
    "LOAD", "HELLO", "APPLY", "APPLY_RESULT", "BARRIER", "BARRIER_ACK",
    "STATE_REQ", "STATE", "SHUTDOWN", "ERROR", "TSPILL",
    "TSPILL_RESULT", "TRESTORE", "TRESTORE_ACK", "ProtocolError",
    "encode_load", "decode_load", "encode_hello", "decode_hello",
    "encode_apply", "decode_apply",
    "encode_apply_result", "decode_apply_result",
    "encode_tspill", "decode_tspill", "encode_tspill_result",
    "decode_tspill_result", "encode_trestore", "decode_trestore",
    "encode_trestore_ack", "decode_trestore_ack",
    "encode_barrier", "decode_barrier",
    "encode_state_req", "decode_state_req", "encode_state", "decode_state",
    "encode_shutdown", "encode_error", "decode_error", "frame_type",
    "expect_frame", "FRAME_HEADER", "SocketTransport", "read_frame",
    "write_frame",
]

LOAD = 0x01
HELLO = 0x02
APPLY = 0x03
APPLY_RESULT = 0x04
BARRIER = 0x05
BARRIER_ACK = 0x06
STATE_REQ = 0x07
STATE = 0x08
SHUTDOWN = 0x09
ERROR = 0x0A
TSPILL = 0x0C
TSPILL_RESULT = 0x0D
TRESTORE = 0x0E
TRESTORE_ACK = 0x0F

_HELLO = struct.Struct("<BHI")
_APPLY = struct.Struct("<BQI3x")
_RESULT = struct.Struct("<BQIQQqIIIIQQQddd3x")
_TICKET = struct.Struct("<BQ")
_TSPILL = struct.Struct("<BQI")
_TBLOB = struct.Struct("<BQI")
_SHARD = struct.Struct("<BQIQqQQI")
#: The ``<uint32 length>`` prefix that delimits frames on a stream.
FRAME_HEADER = struct.Struct("<I")

#: Bytes per event in an APPLY frame: int64 key + int64 instr + uint8 taken.
_EVENT_BYTES = 8 + 8 + 1
#: Rows of an APPLY_RESULT's transition block, key summary and SELECT
#: block.
_ARC_ROWS = 4
_SUMMARY_ROWS = len(SUMMARY_ROWS)
_SELECT_ROWS = len(SELECT_ROWS)


class ProtocolError(Exception):
    """A frame failed to decode (truncated, wrong type, bad length)."""


def frame_type(payload: bytes) -> int:
    if not payload:
        raise ProtocolError("empty frame")
    return payload[0]


def expect_frame(payload: bytes, ftype: int, name: str,
                 min_len: int = 1, exact_len: int | None = None) -> None:
    """Validate frame type and length before any ``struct`` unpack.

    Every decoder funnels through here so a truncated or oversized
    frame surfaces as :class:`ProtocolError` naming the frame type —
    never as a bare ``struct.error`` leaking from the codec.
    """
    if not payload or payload[0] != ftype:
        got = payload[0] if payload else None
        raise ProtocolError(f"expected {name} frame, got type {got!r}")
    if exact_len is not None:
        if len(payload) != exact_len:
            raise ProtocolError(
                f"{name} frame is {len(payload)} bytes, expected "
                f"{exact_len}")
    elif len(payload) < min_len:
        raise ProtocolError(
            f"{name} frame truncated: {len(payload)} bytes, need at "
            f"least {min_len}")


def encode_load(state: ShardState) -> bytes:
    """Parent → worker: the shard's full state, to start from."""
    return _encode_shard(LOAD, 0, state)


def decode_load(payload: bytes) -> ShardState:
    return _decode_shard(payload, LOAD, "LOAD")[1]


def encode_hello(shard: int, pid: int) -> bytes:
    return _HELLO.pack(HELLO, shard, pid)


def decode_hello(payload: bytes) -> tuple[int, int]:
    expect_frame(payload, HELLO, "HELLO", exact_len=_HELLO.size)
    _, shard, pid = _HELLO.unpack(payload)
    return shard, pid


# -- event application ------------------------------------------------------
def encode_apply(ticket: int, keys: np.ndarray, taken: np.ndarray,
                 instrs: np.ndarray) -> bytes:
    """Parent → worker: one micro-batch; int32 PCs widen to int64 keys."""
    return (_APPLY.pack(APPLY, ticket, len(keys))
            + np.ascontiguousarray(keys, dtype=np.int64).tobytes()
            + np.ascontiguousarray(instrs, dtype=np.int64).tobytes()
            + np.ascontiguousarray(taken, dtype=np.uint8).tobytes())


def decode_apply(payload: bytes,
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(ticket, keys, taken, instrs)`` — arrays are zero-copy
    read-only views into ``payload``, the int64 ones 8-byte aligned
    when ``payload`` is."""
    expect_frame(payload, APPLY, "APPLY", min_len=_APPLY.size)
    _, ticket, n = _APPLY.unpack_from(payload)
    off = _APPLY.size
    if len(payload) != off + n * _EVENT_BYTES:
        raise ProtocolError("APPLY frame length mismatch")
    keys = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    instrs = np.frombuffer(payload, dtype=np.int64, count=n,
                           offset=off + 8 * n)
    taken = np.frombuffer(payload, dtype=np.uint8, count=n,
                          offset=off + 16 * n).view(np.bool_)
    return ticket, keys, taken, instrs


def encode_apply_result(ticket: int, result: ShardApplyResult,
                        t_recv: float, t_done: float) -> bytes:
    """Worker → parent: the outcome of one APPLY.

    ``t_recv``/``t_done`` are the worker's CLOCK_MONOTONIC stamps at
    frame receipt and apply completion (system-wide on Linux, so they
    compare against parent-side stamps); 0.0 when capture is off.
    """
    head = _RESULT.pack(
        APPLY_RESULT, ticket, result.events, result.correct,
        result.incorrect, result.last_instr, len(result.changed),
        result.transitions.shape[1], result.summary.shape[1],
        result.selects.shape[1], result.col_fast, result.col_fallback, result.col_single,
        result.apply_seconds, t_recv, t_done)
    return (head
            + np.ascontiguousarray(result.changed, dtype=np.int64).tobytes()
            + np.ascontiguousarray(result.transitions,
                                   dtype=np.int64).tobytes()
            + np.ascontiguousarray(result.summary, dtype=np.int64).tobytes()
            + np.ascontiguousarray(result.selects, dtype=np.int64).tobytes()
            + np.ascontiguousarray(result.changed_deployed,
                                   dtype=np.uint8).tobytes())


def decode_apply_result(payload: bytes, shard: int,
                        ) -> tuple[int, ShardApplyResult]:
    """Returns ``(ticket, result)``, ``result`` attributed to ``shard``;
    its arrays are zero-copy read-only views into ``payload``."""
    expect_frame(payload, APPLY_RESULT, "APPLY_RESULT", min_len=_RESULT.size)
    (_, ticket, events, correct, incorrect, last_instr, n_changed,
     n_trans, n_keys, n_selects, col_fast, col_fallback, col_single,
     apply_seconds, t_recv, t_done) = _RESULT.unpack_from(payload)
    off = _RESULT.size
    words = (n_changed + _ARC_ROWS * n_trans + _SUMMARY_ROWS * n_keys
             + _SELECT_ROWS * n_selects)
    if len(payload) != off + 8 * words + n_changed:
        raise ProtocolError("APPLY_RESULT frame length mismatch")
    columns = np.frombuffer(payload, dtype=np.int64, count=words,
                            offset=off)
    trans_at = n_changed + _ARC_ROWS * n_trans
    select_at = trans_at + _SUMMARY_ROWS * n_keys
    deployed = np.frombuffer(payload, dtype=np.uint8, count=n_changed,
                             offset=off + 8 * words).view(np.bool_)
    return ticket, ShardApplyResult(
        shard=shard, events=events, correct=correct, incorrect=incorrect,
        changed=columns[:n_changed], changed_deployed=deployed,
        last_instr=last_instr,
        transitions=columns[n_changed:trans_at].reshape(_ARC_ROWS, n_trans),
        summary=columns[trans_at:select_at].reshape(_SUMMARY_ROWS, n_keys),
        selects=columns[select_at:].reshape(_SELECT_ROWS, n_selects),
        apply_seconds=apply_seconds, t_recv=t_recv,
        t_done=t_done,
        col_fast=col_fast, col_fallback=col_fallback,
        col_single=col_single)


# -- row blocks -------------------------------------------------------------
def _pack_rows(head: struct.Struct, fields: tuple, rows: RowBlock) -> bytes:
    """``fields`` packed by ``head``, which ends in the body's
    ``zlen``, then the packed ``rows``."""
    body = rows.to_bytes()
    return head.pack(*fields, len(body)) + body


def _unpack_rows(payload: bytes, head: struct.Struct, ftype: int,
                 name: str) -> tuple[list, RowBlock]:
    """The header fields between the type byte and ``zlen`` of a
    :func:`_pack_rows` frame, and its row block."""
    expect_frame(payload, ftype, name, min_len=head.size)
    _, *fields, zlen = head.unpack_from(payload)
    if len(payload) != head.size + zlen:
        raise ProtocolError(f"{name} frame length mismatch")
    try:
        rows = RowBlock.from_bytes(memoryview(payload)[head.size:])
    except ValueError as err:
        raise ProtocolError(f"{name} frame body: {err}") from err
    return fields, rows


def _encode_shard(ftype: int, ticket: int, state: ShardState) -> bytes:
    return _pack_rows(_SHARD, (
        ftype, ticket, state.index, state.events_applied, state.last_instr,
        state.correct, state.incorrect), state.rows)


def _decode_shard(payload: bytes, ftype: int,
                  name: str) -> tuple[int, ShardState]:
    (ticket, *counters), rows = _unpack_rows(payload, _SHARD, ftype, name)
    return ticket, ShardState(*counters, rows)


def _decode_ticket(payload: bytes, ftype: int, name: str) -> int:
    expect_frame(payload, ftype, name, exact_len=_TICKET.size)
    return _TICKET.unpack(payload)[1]


# -- tenant frames ----------------------------------------------------------
def encode_tspill(ticket: int, tenant: int) -> bytes:
    return _TSPILL.pack(TSPILL, ticket, tenant)


def decode_tspill(payload: bytes) -> tuple[int, int]:
    """Returns ``(ticket, tenant)``."""
    expect_frame(payload, TSPILL, "TSPILL", exact_len=_TSPILL.size)
    _, ticket, tenant = _TSPILL.unpack(payload)
    return ticket, tenant


def encode_tspill_result(ticket: int, rows: RowBlock) -> bytes:
    """Worker → parent: the controller rows a TSPILL evicted."""
    return _pack_rows(_TBLOB, (TSPILL_RESULT, ticket), rows)


def decode_tspill_result(payload: bytes) -> tuple[int, RowBlock]:
    (ticket,), rows = _unpack_rows(payload, _TBLOB, TSPILL_RESULT,
                                   "TSPILL_RESULT")
    return ticket, rows


def encode_trestore(ticket: int, rows: RowBlock) -> bytes:
    """Parent → worker: controller rows to re-intern into the shard."""
    return _pack_rows(_TBLOB, (TRESTORE, ticket), rows)


def decode_trestore(payload: bytes) -> tuple[int, RowBlock]:
    (ticket,), rows = _unpack_rows(payload, _TBLOB, TRESTORE, "TRESTORE")
    return ticket, rows


def encode_trestore_ack(ticket: int) -> bytes:
    return _TICKET.pack(TRESTORE_ACK, ticket)


def decode_trestore_ack(payload: bytes) -> int:
    return _decode_ticket(payload, TRESTORE_ACK, "TRESTORE_ACK")


# -- control frames ---------------------------------------------------------
def encode_barrier(ticket: int, ack: bool = False) -> bytes:
    return _TICKET.pack(BARRIER_ACK if ack else BARRIER, ticket)


def decode_barrier(payload: bytes) -> int:
    """Ticket of a BARRIER or BARRIER_ACK frame."""
    ack = bool(payload) and payload[0] == BARRIER_ACK
    return _decode_ticket(payload, BARRIER_ACK if ack else BARRIER,
                          "BARRIER")


def encode_state_req(ticket: int) -> bytes:
    return _TICKET.pack(STATE_REQ, ticket)


def decode_state_req(payload: bytes) -> int:
    return _decode_ticket(payload, STATE_REQ, "STATE_REQ")


def encode_state(ticket: int, state: ShardState) -> bytes:
    """Worker → parent: the shard's full state."""
    return _encode_shard(STATE, ticket, state)


def decode_state(payload: bytes) -> tuple[int, ShardState]:
    return _decode_shard(payload, STATE, "STATE")


def encode_shutdown() -> bytes:
    return bytes([SHUTDOWN])


def encode_error(message: str) -> bytes:
    return bytes([ERROR]) + message.encode("utf-8", errors="replace")


def decode_error(payload: bytes) -> str:
    expect_frame(payload, ERROR, "ERROR")
    return payload[1:].decode("utf-8", errors="replace")


# -- transports -------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """The next frame on an asyncio stream, its prefix stripped."""
    header = await reader.readexactly(FRAME_HEADER.size)
    return await reader.readexactly(FRAME_HEADER.unpack(header)[0])


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one frame on an asyncio stream."""
    writer.write(FRAME_HEADER.pack(len(payload)) + payload)


class SocketTransport:
    """Frames behind a :data:`FRAME_HEADER` prefix over a blocking
    stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        sock.settimeout(None)

    def send(self, payload: bytes) -> None:
        self._sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(min(n, 1 << 20))
            if not chunk:
                raise EOFError("socket closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> bytes:
        header = self._sock.recv(FRAME_HEADER.size, socket.MSG_WAITALL)
        if len(header) < FRAME_HEADER.size:
            raise EOFError("socket closed")
        (length,) = FRAME_HEADER.unpack(header)
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
