"""Primary-side replication: stream the WAL to warm standbys.

:class:`ReplicationSender` is owned by a WAL-enabled
:class:`~repro.serve.service.SpeculationService` (the ``repl_listen``
knob) and runs on the service's event loop, which also owns every
worker link.  An asyncio server accepts followers on a TCP or AF_UNIX
address; one task per follower link answers its ``R_HELLO`` watermark
with ``R_WELCOME``, catches it up, then reads its ``R_ACK`` frames,
topping the catch-up up on each.  Catch-up forwards WAL records from
the link's :class:`~repro.wal.reader.WalTailer` as ``R_BATCH`` frames
*without decoding* (the record body is the wire body), a few at a time
between turns of the loop, or re-anchors a follower that compaction
has outrun on the newest snapshot (``R_SNAPSHOT``).

A caught-up link is *live*: :meth:`offer`, called at the end of every
accepted submit, writes the batch straight to it, so the stream keeps
pace with ingest.  A link holding more than :data:`_MAX_BUFFERED`
unsent bytes (a stalled follower) stops being live and catches up
from the log as its acks arrive: bounded memory, and ingest never
waits.

``last_replicated_seq`` is the newest seq any follower has confirmed
durable in *its own* WAL (acks are sent after the follower's commit).
It stands alongside ``last_durable_seq``: the former survives losing
the primary's disk, the latter survives losing the network.

The sender's gauges and counters live only in a metrics registry —
the service's, or a private one when none is passed.  Two senders on
one registry would merge their counts: a service attaches at most one.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.replicate import frames
from repro.serve.wire import ProtocolError, read_frame, write_frame
from repro.wal.reader import WalGapError, WalTailer
from repro.wal.segment import WalCorruptionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import SpeculationService

__all__ = ["ReplicationSender"]

logger = logging.getLogger(__name__)

_HANDSHAKE_TIMEOUT = 10.0
#: Unsent bytes past which a link stops being live.
_MAX_BUFFERED = 8 << 20
#: Seconds a closing link may take to flush before it is aborted.
_CLOSE_GRACE = 1.0
#: Accept times the lag gauge keeps while no follower acks.
_MAX_OFFERS = 1 << 16
#: WAL records a catching-up link writes per turn of the loop.
_CATCH_UP_STEP = 4


class _Link:
    """One follower link: its stream, its task and its cursor."""

    __slots__ = ("writer", "task", "sent", "live", "tailer")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.task = asyncio.current_task()
        self.sent = -1       # newest seq written to the link
        self.live = False    # caught up: offer() writes to it
        self.tailer: WalTailer | None = None  # open while catching up

    def close_tailer(self) -> None:
        if self.tailer is not None:
            self.tailer.close()
            self.tailer = None


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
        self._acked = -1
        #: (seq, accept time) of unacked batches accepted while a
        #: follower is connected, for the lag gauge.
        self._offers: deque[tuple[int, float]] = deque(maxlen=_MAX_OFFERS)
        self._server: asyncio.AbstractServer | None = None
        self._links: list[_Link] = []
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
        return len(self._links)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the listen address and start accepting followers."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._serve, sock=frames.listen_socket(self.listen_addr))
            logger.info("replication: listening on %s", self.listen_addr)

    def offer(self, seq: int, body: list) -> None:
        """Hot-path hook: the service accepted (WAL-appended) batch
        ``seq``, whose wire form is the buffers ``body`` (what
        :meth:`~repro.wal.writer.WalWriter.append` returns).  Writes it
        to every live link with room; while a follower is connected,
        records its accept time for the lag gauge."""
        self._m_lag_seq.set(seq - self._acked)
        if not self._links:
            return
        self._offers.append((seq, time.monotonic()))
        frame, sent = frames.encode_r_batch(*body), 0
        for link in self._links:
            if not link.live or link.writer.is_closing():
                continue
            if link.writer.transport.get_write_buffer_size() > _MAX_BUFFERED:
                link.live = False  # catch up from the log as acks come
                continue
            write_frame(link.writer, frame)
            link.sent = seq
            sent += 1
        self._m_batches.inc(sent)
        self._m_bytes.inc(sent * (len(frame) - 1))

    async def close(self) -> None:
        """Stop accepting and close every follower link; a link that
        cannot flush within :data:`_CLOSE_GRACE` seconds is aborted."""
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        links = list(self._links)
        for link in links:
            link.writer.close()
        if links:
            await asyncio.wait([link.task for link in links],
                               timeout=_CLOSE_GRACE)
            for link in links:  # no-op on a link that closed
                link.writer.transport.abort()
            await asyncio.wait([link.task for link in links])
        await server.wait_closed()
        frames.unlink_addr(self.listen_addr)

    # -- one follower link ----------------------------------------------
    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Handshake, then catch up and read acks until the link breaks
        or the sender closes."""
        if self._server is None:  # accepted while closing
            writer.close()
            return
        peer = (frames.format_addr(writer.get_extra_info("peername"))
                or "unix-peer")
        link = _Link(writer)
        self._links.append(link)
        self._m_conns.inc()
        try:
            link.sent = frames.decode_r_hello(await asyncio.wait_for(
                read_frame(reader), _HANDSHAKE_TIMEOUT))
            write_frame(writer, frames.encode_r_welcome(
                self.service.last_seq,
                {"controller_config": asdict(self.service.config)}))
            logger.info("replication: follower %s connected at watermark "
                        "%d", peer, link.sent)
            while True:
                try:
                    await self._catch_up(link)
                except WalGapError:
                    link.close_tailer()
                    await self._send_snapshot(link)
                self._advance(frames.decode_r_ack(await read_frame(reader)))
        except (WalCorruptionError, ProtocolError) as err:
            logger.error("replication: stream to %s aborted: %s", peer, err)
            write_frame(writer, frames.encode_r_error(str(err)))
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                OSError) as err:
            if self._server is not None:
                logger.info("replication: follower %s dropped: %s",
                            peer, err)
        finally:
            self._links.remove(link)
            if not self._links:
                self._offers.clear()
            link.close_tailer()
            writer.close()

    async def _catch_up(self, link: _Link) -> None:
        """Write the log after ``link.sent``, :data:`_CATCH_UP_STEP`
        records per turn of the loop, until the link holds
        :data:`_MAX_BUFFERED` bytes or reaches the tip and goes live
        (in one step, so no :meth:`offer` falls between).  The link's
        tailer stays open until then: each step reads only new bytes."""
        service, writer = self.service, link.writer
        while not (writer.is_closing()
                   or writer.transport.get_write_buffer_size()
                   >= _MAX_BUFFERED):
            if link.sent >= service.last_seq:  # a live link always is
                link.live = True
                link.close_tailer()
                return
            if link.tailer is None:
                link.tailer = WalTailer(service.service_config.wal_dir,
                                        after_seq=link.sent)
            records = link.tailer.poll(_CATCH_UP_STEP)
            if not records:  # the log is empty or compacting past us
                raise WalGapError(link.sent, service.last_seq)
            for _seq, payload in records:
                write_frame(writer, frames.encode_r_batch(payload))
            link.sent = records[-1][0]
            self._m_batches.inc(len(records))
            self._m_bytes.inc(sum(len(p) for _s, p in records))
            await asyncio.sleep(0)

    async def _send_snapshot(self, link: _Link) -> None:
        """Re-anchor a follower behind the compaction horizon on the
        newest snapshot, found and read off the loop; tailing resumes
        after it once the follower acks it."""
        path, covered, blob = await asyncio.get_running_loop(
            ).run_in_executor(None, _newest_snapshot, self.service)
        if covered <= link.sent:
            raise WalCorruptionError(
                self.service.service_config.wal_dir, 0,
                f"follower needs records after seq {link.sent} "
                "(compacted) but no snapshot covers them")
        logger.info("replication: follower at seq %d is behind the "
                    "compaction horizon; shipping snapshot %s (covers "
                    "seq %d)", link.sent, path.name, covered)
        write_frame(link.writer, frames.encode_r_snapshot(covered, blob))
        link.sent = covered
        self._m_snaps.inc()

    def _advance(self, seq: int) -> None:
        if seq <= self._acked:
            return
        self._acked = seq
        accepted_at = None
        while self._offers and self._offers[0][0] <= seq:
            accepted_at = self._offers.popleft()[1]
        self._m_watermark.set(seq)
        self._m_lag_seq.set(self.service.last_seq - seq)
        if accepted_at is not None:
            self._m_lag_sec.set(time.monotonic() - accepted_at)
        if self._spans is not None:
            self._spans.note_replicated(seq)


def _newest_snapshot(service: "SpeculationService"):
    """The service's newest snapshot file, the seq it covers and its
    bytes (None, -1, b"" without one): file reads, run off the loop."""
    from repro.serve.snapshot import snapshot_covered_seq

    path = service.newest_snapshot()
    if path is None:
        return None, -1, b""
    return path, snapshot_covered_seq(path), path.read_bytes()
