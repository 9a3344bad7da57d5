"""Binary wire protocol between the service and shard worker processes.

Frames are the unit of exchange: a one-byte frame type followed by a
struct-packed, little-endian body.  Event payloads travel as raw
columnar array bytes (int64 keys / uint8 taken / int64 instrs), so
encoding a micro-batch is three ``tobytes`` calls and decoding is three
zero-copy ``frombuffer`` views; shard and controller state travels as
zlib-compressed JSON.

Transports carry opaque frame payloads and differ only in framing:

* :class:`PipeTransport` wraps a ``multiprocessing.Pipe`` connection,
  whose ``send_bytes``/``recv_bytes`` already delimit messages;
* :class:`SocketTransport` wraps a stream socket and adds the
  explicit ``<uint32 length><payload>`` prefix itself.

Both are blocking and thread-compatible: the supervisor sends from an
executor thread and receives on a dedicated reader thread per worker
(:mod:`repro.serve.workers`), while the worker process just loops
``recv → dispatch → send``.

Frame catalogue (body layouts, all little-endian)::

    LOAD         uint32 zlen | zlib(JSON shard state)   parent → worker
    HELLO        uint16 shard | uint32 pid              worker → parent
    APPLY        uint64 ticket | uint32 n
                 | int64 key[n] | uint8 taken[n]
                 | int64 instr[n]                       parent → worker
    APPLY_RESULT uint64 ticket | uint32 events
                 | uint64 correct | uint64 incorrect
                 | int64 last_instr | uint32 n_changed
                 | uint32 n_trans | uint64 col_fast
                 | uint64 col_fallback | uint64 col_single
                 | float64 apply_seconds
                 | float64 t_recv | float64 t_done
                 | int64 key[n_changed] | uint8 deployed[n_changed]
                 | int64 transitions[4][n_trans]        worker → parent
    BARRIER      uint64 ticket                          parent → worker
    BARRIER_ACK  uint64 ticket                          worker → parent
    STATE_REQ    uint64 ticket                          parent → worker
    STATE        uint64 ticket | uint32 zlen
                 | zlib(JSON shard state)               worker → parent
    SHUTDOWN     (empty)                                parent → worker
    ERROR        utf-8 message                          worker → parent
    TSPILL       uint64 ticket | uint32 tenant          parent → worker
    TSPILL_RESULT uint64 ticket | uint32 zlen
                 | zlib(JSON state list)                worker → parent
    TRESTORE     uint64 ticket | uint32 zlen
                 | zlib(JSON state list)                parent → worker
    TRESTORE_ACK uint64 ticket                          worker → parent

``APPLY`` keys are packed int64 ``(tenant << 32) | pc`` keys (see
:mod:`repro.tenant.keys`); a bare PC is tenant 0's key, so tenant-less
traffic rides the same frame.  The transition block's four rows are
key, arc code, exec index and instruction stamp, one column per arc
firing.  Every parent → worker request but ``LOAD`` and ``SHUTDOWN``
carries a ticket that its reply echoes, which is how the supervisor
pairs replies with awaiting requests.  These frames pass only between
a parent and its workers and are never persisted; the WAL and
replication byte form of a batch is :meth:`EventBatch.to_bytes
<repro.serve.events.EventBatch.to_bytes>`.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

import numpy as np

from repro.serve.shard import ShardApplyResult

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
    "PipeTransport", "SocketTransport",
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
_APPLY = struct.Struct("<BQI")
_RESULT = struct.Struct("<BQIQQqIIQQQddd")
_TICKET = struct.Struct("<BQ")
_LOAD = struct.Struct("<BI")
_TSPILL = struct.Struct("<BQI")
_TBLOB = struct.Struct("<BQI")
_LEN = struct.Struct("<I")

#: Bytes per event in an APPLY frame: int64 key + uint8 taken + int64 instr.
_EVENT_BYTES = 8 + 1 + 8


class ProtocolError(Exception):
    """A frame failed to decode (truncated, wrong type, bad length)."""


def frame_type(payload: bytes) -> int:
    if not payload:
        raise ProtocolError("empty frame")
    return payload[0]


def _expect(payload: bytes, ftype: int, name: str,
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


# -- shard state (zlib JSON) ------------------------------------------------
def encode_load(state: dict | None) -> bytes:
    """Parent → worker: initial shard state (None = start fresh)."""
    if state is None:
        return _LOAD.pack(LOAD, 0)
    blob = zlib.compress(json.dumps(state, separators=(",", ":"))
                         .encode("utf-8"))
    return _LOAD.pack(LOAD, len(blob)) + blob


def decode_load(payload: bytes) -> dict | None:
    _expect(payload, LOAD, "LOAD", min_len=_LOAD.size)
    _, zlen = _LOAD.unpack_from(payload)
    if len(payload) != _LOAD.size + zlen:
        raise ProtocolError("LOAD frame length mismatch")
    if zlen == 0:
        return None
    try:
        return json.loads(zlib.decompress(payload[_LOAD.size:])
                          .decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(f"LOAD frame body is not zlib JSON: {err}") \
            from err


def encode_hello(shard: int, pid: int) -> bytes:
    return _HELLO.pack(HELLO, shard, pid)


def decode_hello(payload: bytes) -> tuple[int, int]:
    _expect(payload, HELLO, "HELLO", exact_len=_HELLO.size)
    _, shard, pid = _HELLO.unpack(payload)
    return shard, pid


# -- event application ------------------------------------------------------
def encode_apply(ticket: int, keys: np.ndarray, taken: np.ndarray,
                 instrs: np.ndarray) -> bytes:
    """Parent → worker: one micro-batch; int32 PCs widen to int64 keys."""
    return (_APPLY.pack(APPLY, ticket, len(keys))
            + np.ascontiguousarray(keys, dtype=np.int64).tobytes()
            + np.ascontiguousarray(taken, dtype=np.uint8).tobytes()
            + np.ascontiguousarray(instrs, dtype=np.int64).tobytes())


def decode_apply(payload: bytes,
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(ticket, keys, taken, instrs)`` — arrays are zero-copy
    read-only views into ``payload``."""
    _expect(payload, APPLY, "APPLY", min_len=_APPLY.size)
    _, ticket, n = _APPLY.unpack_from(payload)
    off = _APPLY.size
    if len(payload) != off + n * _EVENT_BYTES:
        raise ProtocolError("APPLY frame length mismatch")
    keys = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    taken = np.frombuffer(payload, dtype=np.uint8, count=n,
                          offset=off + 8 * n).view(np.bool_)
    instrs = np.frombuffer(payload, dtype=np.int64, count=n,
                           offset=off + 9 * n)
    return ticket, keys, taken, instrs


def encode_apply_result(ticket: int, result: ShardApplyResult,
                        t_recv: float, t_done: float) -> bytes:
    """Worker → parent: the outcome of one APPLY.

    ``t_recv``/``t_done`` are the worker's CLOCK_MONOTONIC stamps at
    frame receipt and apply completion (system-wide on Linux, so they
    compare against parent-side stamps); 0.0 when capture is off.
    """
    keys = np.asarray(result.changed, dtype=np.int64)
    deployed = np.asarray(result.changed_deployed, dtype=np.uint8)
    trans = np.asarray(result.transitions, dtype=np.int64).reshape(-1, 4)
    head = _RESULT.pack(
        APPLY_RESULT, ticket, result.events, result.correct,
        result.incorrect, result.last_instr, len(keys), len(trans),
        result.col_fast, result.col_fallback, result.col_single,
        result.apply_seconds, t_recv, t_done)
    return head + keys.tobytes() + deployed.tobytes() + trans.T.tobytes()


def decode_apply_result(payload: bytes, shard: int,
                        ) -> tuple[int, ShardApplyResult]:
    """Returns ``(ticket, result)``, ``result`` attributed to ``shard``."""
    _expect(payload, APPLY_RESULT, "APPLY_RESULT", min_len=_RESULT.size)
    (_, ticket, events, correct, incorrect, last_instr, n_changed,
     n_trans, col_fast, col_fallback, col_single, apply_seconds,
     t_recv, t_done) = _RESULT.unpack_from(payload)
    off = _RESULT.size
    if len(payload) != off + 9 * n_changed + 32 * n_trans:
        raise ProtocolError("APPLY_RESULT frame length mismatch")
    keys = np.frombuffer(payload, dtype=np.int64, count=n_changed,
                         offset=off)
    deployed = np.frombuffer(payload, dtype=np.uint8, count=n_changed,
                             offset=off + 8 * n_changed).view(np.bool_)
    trans = np.frombuffer(payload, dtype=np.int64, count=4 * n_trans,
                          offset=off + 9 * n_changed).reshape(4, n_trans)
    return ticket, ShardApplyResult(
        shard=shard, events=events, correct=correct, incorrect=incorrect,
        changed=tuple(keys.tolist()),
        changed_deployed=tuple(deployed.tolist()),
        last_instr=last_instr, transitions=tuple(zip(*trans.tolist())),
        apply_seconds=apply_seconds, t_recv=t_recv, t_done=t_done,
        col_fast=col_fast, col_fallback=col_fallback,
        col_single=col_single)


# -- state blobs (zlib JSON) ------------------------------------------------
def _encode_blob(ftype: int, ticket: int, value) -> bytes:
    blob = zlib.compress(json.dumps(value, separators=(",", ":"))
                         .encode("utf-8"))
    return _TBLOB.pack(ftype, ticket, len(blob)) + blob


def _decode_blob(payload: bytes, ftype: int, name: str, kind: type,
                 ) -> tuple[int, list | dict]:
    _expect(payload, ftype, name, min_len=_TBLOB.size)
    _, ticket, zlen = _TBLOB.unpack_from(payload)
    if len(payload) != _TBLOB.size + zlen:
        raise ProtocolError(f"{name} frame length mismatch")
    try:
        value = json.loads(zlib.decompress(payload[_TBLOB.size:])
                           .decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(f"{name} frame body is not zlib JSON: {err}") \
            from err
    if not isinstance(value, kind):
        raise ProtocolError(f"{name} frame body is not a state "
                            f"{kind.__name__}")
    return ticket, value


def _decode_ticket(payload: bytes, ftype: int, name: str) -> int:
    _expect(payload, ftype, name, exact_len=_TICKET.size)
    return _TICKET.unpack(payload)[1]


# -- tenant frames ----------------------------------------------------------
def encode_tspill(ticket: int, tenant: int) -> bytes:
    return _TSPILL.pack(TSPILL, ticket, tenant)


def decode_tspill(payload: bytes) -> tuple[int, int]:
    """Returns ``(ticket, tenant)``."""
    _expect(payload, TSPILL, "TSPILL", exact_len=_TSPILL.size)
    _, ticket, tenant = _TSPILL.unpack(payload)
    return ticket, tenant


def encode_tspill_result(ticket: int, states: list) -> bytes:
    """Worker → parent: controller states evicted by a TSPILL."""
    return _encode_blob(TSPILL_RESULT, ticket, states)


def decode_tspill_result(payload: bytes) -> tuple[int, list]:
    return _decode_blob(payload, TSPILL_RESULT, "TSPILL_RESULT", list)


def encode_trestore(ticket: int, states: list) -> bytes:
    """Parent → worker: controller states to re-intern into the shard."""
    return _encode_blob(TRESTORE, ticket, states)


def decode_trestore(payload: bytes) -> tuple[int, list]:
    return _decode_blob(payload, TRESTORE, "TRESTORE", list)


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


def encode_state(ticket: int, state: dict) -> bytes:
    """Worker → parent: the shard's full ``export_state()``."""
    return _encode_blob(STATE, ticket, state)


def decode_state(payload: bytes) -> tuple[int, dict]:
    return _decode_blob(payload, STATE, "STATE", dict)


def encode_shutdown() -> bytes:
    return bytes([SHUTDOWN])


def encode_error(message: str) -> bytes:
    return bytes([ERROR]) + message.encode("utf-8", errors="replace")


def decode_error(payload: bytes) -> str:
    _expect(payload, ERROR, "ERROR")
    return payload[1:].decode("utf-8", errors="replace")


# -- transports -------------------------------------------------------------
class PipeTransport:
    """Frames over a ``multiprocessing.Pipe`` duplex connection.

    ``Connection.send_bytes`` delimits messages itself, so no explicit
    length prefix is added.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, payload: bytes) -> None:
        self._conn.send_bytes(payload)

    def recv(self) -> bytes:
        return self._conn.recv_bytes()

    def close(self) -> None:
        self._conn.close()


class SocketTransport:
    """Length-prefixed frames (``<uint32 length><payload>``) over a
    stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        sock.settimeout(None)

    def send(self, payload: bytes) -> None:
        self._sock.sendall(_LEN.pack(len(payload)) + payload)

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
        header = self._sock.recv(_LEN.size, socket.MSG_WAITALL)
        if len(header) < _LEN.size:
            raise EOFError("socket closed")
        (length,) = _LEN.unpack(header)
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
