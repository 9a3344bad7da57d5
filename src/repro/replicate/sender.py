"""Primary-side replication: stream the WAL to warm standbys.

:class:`ReplicationSender` is owned by a WAL-enabled
:class:`~repro.serve.service.SpeculationService` (the ``repl_listen``
knob).  It accepts follower connections on a TCP or AF_UNIX address
and, per connection, runs two threads:

* a **stream** thread drives a :class:`~repro.wal.reader.WalTailer`
  from the follower's handshake watermark: sealed segments and the
  live tail are forwarded as ``R_BATCH`` frames *without decoding*
  (the WAL record body is already the wire body), and when compaction
  has outrun the follower the newest snapshot file is shipped whole
  (``R_SNAPSHOT``) and tailing resumes from its covered seq;
* an **ack** thread consumes ``R_ACK`` frames and advances the
  replication watermark.

The service's hot path touches the sender exactly once per accepted
batch — :meth:`offer` sets an event so idle stream threads wake
without polling delay — which is what keeps the primary-side overhead
inside the ``repl`` bench gate (:mod:`repro.bench.targets.repl`).

``last_replicated_seq`` is the newest seq any follower has confirmed
durable in *its own* WAL (acks are sent after the follower's commit).
It stands alongside ``last_durable_seq``: the former survives losing
the primary's disk, the latter survives losing the network.

The sender's gauges and counters live only in a metrics registry —
the service's, or a private one when none is passed.  Two senders on
one registry would merge their counts: a service attaches at most one.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.replicate import frames
from repro.serve.wire import ProtocolError, SocketTransport
from repro.wal.reader import WalGapError, WalTailer
from repro.wal.segment import WalCorruptionError, list_segments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import SpeculationService

__all__ = ["ReplicationSender"]

logger = logging.getLogger(__name__)

#: Idle stream-thread wakeup (s): the offer event removes latency on
#: the happy path; this bounds it when offers race the event clear.
_IDLE_WAIT = 0.05
_HANDSHAKE_TIMEOUT = 10.0


class _Connection:
    """One follower link: socket, watermark, wake event."""

    __slots__ = ("sock", "transport", "peer", "acked", "wake", "dead")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.transport = SocketTransport(sock)
        self.peer = peer
        self.acked = -1
        self.wake = threading.Event()
        self.dead = threading.Event()


class ReplicationSender:
    """Accepts follower connections and streams the service's WAL."""

    def __init__(self, service: "SpeculationService", listen_addr: str,
                 registry: MetricsRegistry | None = None,
                 spans=None) -> None:
        if service.service_config.wal_dir is None:
            raise ValueError("replication requires a WAL "
                             "(repl_listen without wal_dir)")
        self.service = service
        self.listen_addr = listen_addr
        # Optional repro.obs.spans.SpanRecorder: stamps the repl_ack
        # stage whenever the replication watermark advances.
        self._spans = spans
        self._lock = threading.Lock()
        self._acked = -1
        self._offers: deque[tuple[int, float]] = deque()
        self._stopped = threading.Event()
        self._listen_sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[_Connection] = []
        registry = registry if registry is not None else MetricsRegistry()
        self._m_watermark = registry.gauge(
            "repro_repl_last_replicated_seq",
            "Newest batch seq acked durable by a follower")
        self._m_lag_seq = registry.gauge(
            "repro_repl_lag_seq",
            "Batches accepted by the primary but not yet acked "
            "by any follower")
        self._m_lag_sec = registry.gauge(
            "repro_repl_lag_seconds",
            "Replication delay of the newest acked batch: ack "
            "time minus primary accept time")
        self._m_conns = registry.counter(
            "repro_repl_connections_total",
            "Follower connections accepted (reconnects included)")
        self._m_batches = registry.counter(
            "repro_repl_batches_sent_total",
            "R_BATCH frames sent across all followers")
        self._m_bytes = registry.counter(
            "repro_repl_bytes_sent_total",
            "Replication payload bytes sent across all followers")
        self._m_snaps = registry.counter(
            "repro_repl_snapshots_sent_total",
            "Snapshot re-anchors shipped to lagging followers")

    # -- watermarks -----------------------------------------------------
    @property
    def last_replicated_seq(self) -> int:
        """Newest seq some follower confirmed durable (-1: none)."""
        return self._acked

    @property
    def connections(self) -> int:
        with self._lock:
            return sum(1 for c in self._conns if not c.dead.is_set())

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind the listen address and start accepting followers."""
        if self._accept_thread is not None:
            return
        self._listen_sock = frames.listen_socket(self.listen_addr)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-repl-accept",
            daemon=True)
        self._accept_thread.start()
        logger.info("replication: listening on %s", self.listen_addr)

    def offer(self, seq: int) -> None:
        """Hot-path hook: the service accepted (WAL-appended) ``seq``.

        O(1): record the accept time for the lag gauge and wake idle
        stream threads.
        """
        with self._lock:
            self._offers.append((seq, time.monotonic()))
            self._m_lag_seq.set(seq - self._acked)
            conns = list(self._conns)
        for conn in conns:
            conn.wake.set()

    def close(self) -> None:
        """Stop accepting, drop every follower, join the threads."""
        self._stopped.set()
        if self._listen_sock is not None:
            try:
                self._listen_sock.close()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.dead.set()
            conn.wake.set()
            try:
                conn.transport.close()
            except OSError:
                pass
        for thread in [self._accept_thread, *self._threads]:
            if thread is not None and thread.is_alive():
                thread.join(timeout=5.0)
        self._accept_thread = None
        self._threads = []
        family, sockaddr = frames.parse_addr(self.listen_addr)
        if family == socket.AF_UNIX:
            import os

            try:
                os.unlink(sockaddr)
            except OSError:
                pass

    # -- accept / per-connection threads --------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, peeraddr = self._listen_sock.accept()
            except OSError:
                return  # listen socket closed by close()
            if self._stopped.is_set():
                sock.close()
                return
            peer = frames.format_addr(peeraddr) or "unix-peer"
            conn = _Connection(sock, peer)
            with self._lock:
                self._conns.append(conn)
            self._m_conns.inc()
            stream = threading.Thread(
                target=self._stream_loop, args=(conn,),
                name=f"repro-repl-stream-{peer}", daemon=True)
            self._threads.append(stream)
            stream.start()

    def _stream_loop(self, conn: _Connection) -> None:
        try:
            watermark = self._handshake(conn)
        except (ProtocolError, EOFError, OSError) as err:
            if not self._stopped.is_set():
                logger.warning("replication: handshake with %s failed: "
                               "%s", conn.peer, err)
            self._drop(conn)
            return
        logger.info("replication: follower %s connected at watermark %d",
                    conn.peer, watermark)
        # Acks flow back on the same socket; the reader starts only now
        # so it can never race the handshake recv above.
        acks = threading.Thread(
            target=self._ack_loop, args=(conn,),
            name=f"repro-repl-ack-{conn.peer}", daemon=True)
        self._threads.append(acks)
        acks.start()
        wal_dir = self.service.service_config.wal_dir
        tailer = WalTailer(wal_dir, after_seq=watermark)
        try:
            # A fully-compacted log can be *empty*: no segment is left
            # to raise WalGapError, yet the follower still needs
            # everything up to the snapshot anchor.  Detect the silent
            # gap at connect time instead of idling on it.
            if (watermark < self.service.last_seq
                    and not list_segments(wal_dir)):
                tailer.close()
                tailer = self._send_snapshot(
                    conn, WalGapError(watermark, self.service.last_seq))
            while not (conn.dead.is_set() or self._stopped.is_set()):
                try:
                    records = tailer.poll()
                except WalGapError as gap:
                    tailer.close()
                    tailer = self._send_snapshot(conn, gap)
                    continue
                if not records:
                    conn.wake.wait(_IDLE_WAIT)
                    conn.wake.clear()
                    continue
                for _seq, payload in records:
                    conn.transport.send(frames.encode_r_batch(payload))
                self._m_batches.inc(len(records))
                self._m_bytes.inc(sum(len(p) for _s, p in records))
        except (WalCorruptionError, ProtocolError) as err:
            logger.error("replication: stream to %s aborted: %s",
                         conn.peer, err)
            self._send_error(conn, str(err))
        except OSError as err:
            logger.info("replication: follower %s dropped: %s",
                        conn.peer, err)
        finally:
            tailer.close()
            self._drop(conn)

    def _handshake(self, conn: _Connection) -> int:
        conn.sock.settimeout(_HANDSHAKE_TIMEOUT)
        watermark = frames.decode_r_hello(conn.transport.recv())
        conn.sock.settimeout(None)
        conn.transport.send(frames.encode_r_welcome(
            self.service.last_seq,
            {"controller_config": asdict(self.service.config)}))
        return watermark

    def _send_snapshot(self, conn: _Connection,
                       gap: WalGapError) -> WalTailer:
        """The follower is behind the compaction horizon: re-anchor it
        on the newest snapshot, then resume tailing after its seq."""
        from repro.serve.snapshot import snapshot_covered_seq

        path = self.service.newest_snapshot()
        if path is None:
            raise WalCorruptionError(
                self.service.service_config.wal_dir, 0,
                f"follower needs records after seq {gap.last_seq} "
                "(compacted) but no snapshot exists to re-anchor on")
        covered = snapshot_covered_seq(path)
        logger.info("replication: %s is %d behind the compaction "
                    "horizon; shipping snapshot %s (covers seq %d)",
                    conn.peer, gap.oldest_available - gap.last_seq,
                    path.name, covered)
        conn.transport.send(frames.encode_r_snapshot(
            covered, path.read_bytes()))
        self._m_snaps.inc()
        return WalTailer(self.service.service_config.wal_dir,
                         after_seq=covered)

    def _ack_loop(self, conn: _Connection) -> None:
        try:
            while not conn.dead.is_set():
                seq = frames.decode_r_ack(conn.transport.recv())
                conn.acked = seq
                self._advance(seq)
        except (EOFError, OSError, ProtocolError):
            pass
        finally:
            self._drop(conn)

    def _advance(self, seq: int) -> None:
        now = time.monotonic()
        with self._lock:
            if seq <= self._acked:
                return
            self._acked = seq
            accepted_at = None
            while self._offers and self._offers[0][0] <= seq:
                accepted_at = self._offers.popleft()[1]
            self._m_watermark.set(seq)
            self._m_lag_seq.set(self.service.last_seq - seq)
            if accepted_at is not None:
                self._m_lag_sec.set(now - accepted_at)
        if self._spans is not None:
            self._spans.note_replicated(seq)

    def _send_error(self, conn: _Connection, message: str) -> None:
        try:
            conn.transport.send(frames.encode_r_error(message))
        except OSError:
            pass

    def _drop(self, conn: _Connection) -> None:
        if conn.dead.is_set():
            return
        conn.dead.set()
        conn.wake.set()
        try:
            conn.transport.close()
        except OSError:
            pass
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)
