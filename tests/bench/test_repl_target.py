"""The repl target's ack check reads the watermark drain() leaves.

A follower that acks only after the primary has drained must leave the
check reading -1, with the wait for the acked tip reported on its own.
"""

from __future__ import annotations

import struct
import threading
import time

from repro.bench.targets import repl
from repro.replicate import frames
from repro.serve.wire import SocketTransport
from repro.trace.spec2000 import load_trace

ACK_DELAY = 1.0


def _late_follower(addr: str, tip: int) -> None:
    """Read every batch through ``tip``, ack it ACK_DELAY s later, then
    read until the primary closes the link."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            sock = frames.connect_socket(addr, timeout=1.0)
            break
        except OSError:
            assert time.monotonic() < deadline, "primary never listened"
            time.sleep(0.01)
    transport = SocketTransport(sock)
    sock.settimeout(10.0)  # a primary that never closes times out
    try:
        transport.send(frames.encode_r_hello(-1))
        frames.decode_r_welcome(transport.recv())
        seq = -1
        while seq < tip:
            body = frames.decode_r_batch(transport.recv())
            seq = struct.unpack_from("<Q", body)[0]
        time.sleep(ACK_DELAY)
        transport.send(frames.encode_r_ack(tip))
        while True:
            transport.recv()
    except (EOFError, OSError):
        pass
    finally:
        transport.close()


def test_ingest_reads_the_ack_watermark_as_drain_returns(tmp_path):
    trace = load_trace("gzip", length=4 * 8192)  # seqs 0-3
    addr = str(tmp_path / "repl.sock")
    follower = threading.Thread(target=_late_follower, args=(addr, 3),
                                daemon=True)
    follower.start()
    try:
        _metrics, _elapsed, acked, (unsent, ms) = repl._ingest(
            trace, str(tmp_path / "wal"), repl_listen=addr)
    finally:
        follower.join(timeout=15.0)
    assert not follower.is_alive()
    assert acked == -1
    assert unsent == 0
    assert ms is not None and ACK_DELAY * 1e3 / 2 <= ms <= 10_000
