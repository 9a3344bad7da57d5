"""Replication wire protocol: handshake, stream, and read-only frames.

Same conventions as the worker protocol (:mod:`repro.serve.wire`): a
frame is one type byte plus a struct-packed little-endian body, carried
by :class:`~repro.serve.wire.SocketTransport`'s
``<uint32 length><payload>`` framing over TCP or AF_UNIX.  Frame types
live in a disjoint range (0x41+) so a replication frame can never be
mistaken for a worker frame, and decode failures raise the same
:class:`~repro.serve.wire.ProtocolError`.

Replication stream (primary ⇄ follower)::

    R_HELLO     magic "REPROREP" | uint16 version
                | int64 watermark                    follower → primary
    R_WELCOME   uint16 version | int64 last_seq
                | uint32 zlen | zlib(JSON config)    primary → follower
    R_SNAPSHOT  int64 covered_seq | raw snapshot
                file bytes (gzip JSON)               primary → follower
    R_BATCH     EventBatch.to_bytes()                primary → follower
    R_ACK       int64 seq                            follower → primary
    R_ERROR     utf-8 message                        either direction

The handshake watermark is the follower's ``last_seq`` — the newest
batch already durable in *its* log — and the primary resumes the
stream strictly after it.  An ``R_ACK`` means the follower has
appended **and committed** everything through ``seq`` to its own WAL:
acked ⇒ follower-durable, which is what lets
``last_replicated_seq`` stand next to ``last_durable_seq``.

Read-only serving (client ⇄ follower)::

    RO_QUERY      uint32 n | int32 pc[n]             client → follower
                  (bit 31 of n set: int64 packed
                  ``(tenant << 32) | pc`` keys instead of int32 pcs)
    RO_DECISION   uint32 n | uint8 speculate[n]      follower → client
    RO_STATUS_REQ (empty)                            client → follower
    RO_STATUS     zlib(JSON status)                  follower → client
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

import numpy as np

from repro.serve.wire import ProtocolError, _expect, frame_type

__all__ = [
    "REPLICATION_MAGIC", "REPLICATION_VERSION",
    "R_HELLO", "R_WELCOME", "R_SNAPSHOT", "R_BATCH", "R_ACK", "R_ERROR",
    "RO_QUERY", "RO_DECISION", "RO_STATUS_REQ", "RO_STATUS",
    "encode_r_hello", "decode_r_hello",
    "encode_r_welcome", "decode_r_welcome",
    "encode_r_snapshot", "decode_r_snapshot",
    "encode_r_batch", "decode_r_batch",
    "encode_r_ack", "decode_r_ack",
    "encode_r_error", "decode_r_error",
    "encode_ro_query", "decode_ro_query",
    "encode_ro_decision", "decode_ro_decision",
    "encode_ro_status_req", "encode_ro_status", "decode_ro_status",
    "parse_addr", "listen_socket", "connect_socket", "format_addr",
    "frame_type", "ProtocolError",
]

REPLICATION_MAGIC = b"REPROREP"
REPLICATION_VERSION = 1

R_HELLO = 0x41
R_WELCOME = 0x42
R_SNAPSHOT = 0x43
R_BATCH = 0x44
R_ACK = 0x45
R_ERROR = 0x46

RO_QUERY = 0x51
RO_DECISION = 0x52
RO_STATUS_REQ = 0x53
RO_STATUS = 0x54

_R_HELLO = struct.Struct("<B8sHq")
_R_WELCOME = struct.Struct("<BHqI")
_R_SNAPSHOT = struct.Struct("<Bq")
_R_ACK = struct.Struct("<Bq")
_RO_QUERY = struct.Struct("<BI")
_RO_DECISION = struct.Struct("<BI")


# -- handshake --------------------------------------------------------------
def encode_r_hello(watermark: int) -> bytes:
    """Follower → primary: resume the stream after ``watermark``."""
    return _R_HELLO.pack(R_HELLO, REPLICATION_MAGIC, REPLICATION_VERSION,
                         watermark)


def decode_r_hello(payload: bytes) -> int:
    """Returns the follower's watermark; validates magic + version."""
    _expect(payload, R_HELLO, "R_HELLO", exact_len=_R_HELLO.size)
    _, magic, version, watermark = _R_HELLO.unpack(payload)
    if magic != REPLICATION_MAGIC:
        raise ProtocolError(f"R_HELLO bad magic {magic!r} — not a "
                            "replication peer")
    if version != REPLICATION_VERSION:
        raise ProtocolError(f"unsupported replication version {version} "
                            f"(speaking {REPLICATION_VERSION})")
    return watermark


def encode_r_welcome(last_seq: int, config: dict) -> bytes:
    """Primary → follower: accepted; here is the primary's watermark
    and the controller configuration a fresh follower must adopt."""
    blob = zlib.compress(json.dumps(config, separators=(",", ":"))
                         .encode("utf-8"))
    return _R_WELCOME.pack(R_WELCOME, REPLICATION_VERSION, last_seq,
                           len(blob)) + blob


def decode_r_welcome(payload: bytes) -> tuple[int, dict]:
    """Returns ``(primary_last_seq, config_dict)``."""
    _expect(payload, R_WELCOME, "R_WELCOME", min_len=_R_WELCOME.size)
    _, version, last_seq, zlen = _R_WELCOME.unpack_from(payload)
    if version != REPLICATION_VERSION:
        raise ProtocolError(f"unsupported replication version {version} "
                            f"(speaking {REPLICATION_VERSION})")
    if len(payload) != _R_WELCOME.size + zlen:
        raise ProtocolError("R_WELCOME frame length mismatch")
    try:
        config = json.loads(zlib.decompress(payload[_R_WELCOME.size:])
                            .decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(
            f"R_WELCOME config body is not zlib JSON: {err}") from err
    return last_seq, config


# -- stream -----------------------------------------------------------------
def encode_r_snapshot(covered_seq: int, blob: bytes) -> bytes:
    """Primary → follower: re-anchor on this snapshot file (raw gzip
    bytes, written to the follower's snapshot dir verbatim)."""
    return _R_SNAPSHOT.pack(R_SNAPSHOT, covered_seq) + blob


def decode_r_snapshot(payload: bytes) -> tuple[int, bytes]:
    _expect(payload, R_SNAPSHOT, "R_SNAPSHOT",
            min_len=_R_SNAPSHOT.size + 1)
    _, covered_seq = _R_SNAPSHOT.unpack_from(payload)
    return covered_seq, payload[_R_SNAPSHOT.size:]


def encode_r_batch(payload: bytes) -> bytes:
    """Primary → follower: one WAL record body
    (:meth:`EventBatch.to_bytes`), forwarded without a decode."""
    return bytes([R_BATCH]) + payload


def decode_r_batch(payload: bytes) -> bytes:
    """Returns the raw batch body (``EventBatch.from_bytes`` it)."""
    # 12 = the batch header (<uint64 seq><uint32 n>) at minimum.
    _expect(payload, R_BATCH, "R_BATCH", min_len=1 + 12)
    return payload[1:]


def encode_r_ack(seq: int) -> bytes:
    """Follower → primary: durable in my WAL through ``seq``."""
    return _R_ACK.pack(R_ACK, seq)


def decode_r_ack(payload: bytes) -> int:
    _expect(payload, R_ACK, "R_ACK", exact_len=_R_ACK.size)
    return _R_ACK.unpack(payload)[1]


def encode_r_error(message: str) -> bytes:
    return bytes([R_ERROR]) + message.encode("utf-8", errors="replace")


def decode_r_error(payload: bytes) -> str:
    _expect(payload, R_ERROR, "R_ERROR")
    return payload[1:].decode("utf-8", errors="replace")


# -- read-only serving ------------------------------------------------------
#: Bit 31 of the RO_QUERY count marks a tenant-aware query: the column
#: is int64 packed ``(tenant << 32) | pc`` keys instead of int32 pcs.
#: Legacy frames stay byte-identical (tenant-0 keys *are* the pcs).
_RO_TENANT_FLAG = 1 << 31


def encode_ro_query(pcs, tenants=None) -> bytes:
    if tenants is None:
        arr = np.asarray(pcs, dtype=np.int32)
        return _RO_QUERY.pack(RO_QUERY, len(arr)) + arr.tobytes()
    from repro.tenant.keys import pack_keys

    keys = pack_keys(np.asarray(tenants, dtype=np.uint32),
                     np.asarray(pcs, dtype=np.int64))
    return (_RO_QUERY.pack(RO_QUERY, len(keys) | _RO_TENANT_FLAG)
            + keys.tobytes())


def decode_ro_query(payload: bytes) -> np.ndarray:
    """Queried pcs (int32, the legacy form) or packed keys (int64)."""
    _expect(payload, RO_QUERY, "RO_QUERY", min_len=_RO_QUERY.size)
    _, n = _RO_QUERY.unpack_from(payload)
    tenanted = bool(n & _RO_TENANT_FLAG)
    n &= ~_RO_TENANT_FLAG
    width = 8 if tenanted else 4
    if len(payload) != _RO_QUERY.size + width * n:
        raise ProtocolError("RO_QUERY frame length mismatch")
    return np.frombuffer(payload,
                         dtype=np.int64 if tenanted else np.int32,
                         count=n, offset=_RO_QUERY.size)


def encode_ro_decision(decisions) -> bytes:
    arr = np.asarray(decisions, dtype=np.uint8)
    return _RO_DECISION.pack(RO_DECISION, len(arr)) + arr.tobytes()


def decode_ro_decision(payload: bytes) -> np.ndarray:
    _expect(payload, RO_DECISION, "RO_DECISION", min_len=_RO_DECISION.size)
    _, n = _RO_DECISION.unpack_from(payload)
    if len(payload) != _RO_DECISION.size + n:
        raise ProtocolError("RO_DECISION frame length mismatch")
    return np.frombuffer(payload, dtype=np.uint8, count=n,
                         offset=_RO_DECISION.size)


def encode_ro_status_req() -> bytes:
    return bytes([RO_STATUS_REQ])


def encode_ro_status(status: dict) -> bytes:
    blob = zlib.compress(json.dumps(status, separators=(",", ":"))
                         .encode("utf-8"))
    return bytes([RO_STATUS]) + blob


def decode_ro_status(payload: bytes) -> dict:
    _expect(payload, RO_STATUS, "RO_STATUS", min_len=2)
    try:
        return json.loads(zlib.decompress(payload[1:]).decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(
            f"RO_STATUS frame body is not zlib JSON: {err}") from err


# -- addresses --------------------------------------------------------------
def parse_addr(addr: str) -> tuple[int, str | tuple[str, int]]:
    """``host:port`` → TCP, anything else → AF_UNIX path.

    Returns ``(family, sockaddr)`` ready for :func:`socket.socket`.
    A bare ``:port`` binds/connects on localhost.
    """
    host, sep, port = addr.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, addr


def format_addr(sockaddr) -> str:
    if isinstance(sockaddr, tuple):
        return f"{sockaddr[0]}:{sockaddr[1]}"
    return str(sockaddr)


def listen_socket(addr: str, backlog: int = 4) -> socket.socket:
    """Bind + listen on ``addr`` (TCP ``host:port`` or AF_UNIX path)."""
    family, sockaddr = parse_addr(addr)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        if family == socket.AF_INET:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        else:
            import os

            try:
                os.unlink(sockaddr)
            except FileNotFoundError:
                pass
        sock.bind(sockaddr)
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock


def connect_socket(addr: str, timeout: float | None = None
                   ) -> socket.socket:
    """Connect to ``addr`` (TCP ``host:port`` or AF_UNIX path)."""
    family, sockaddr = parse_addr(addr)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(sockaddr)
        sock.settimeout(None)
    except BaseException:
        sock.close()
        raise
    return sock
