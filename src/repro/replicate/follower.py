"""Follower side: replay the primary's stream into a local WAL + bank.

:class:`ReplicationFollower` connects to a primary's replication
listener, announces its local watermark (``R_HELLO``), and then
applies whatever arrives:

* ``R_BATCH`` — appended to the follower's **own** WAL first, then
  applied to its bank (the same log-before-apply discipline as the
  primary's ingest path), and acknowledged only after a group commit,
  so an ``R_ACK`` promises follower-side durability;
* ``R_SNAPSHOT`` — a re-anchor for a follower behind the primary's
  compaction horizon: the file is written durably into the follower's
  snapshot directory (fsynced, then renamed, then the directory
  fsynced, all before the ack) and the local service is rebuilt from
  it;
* records at or below the local watermark are skipped (idempotent
  seq-based replay), which is what makes reconnect-after-drop safe:
  the follower resumes from its watermark and duplicates cannot
  double-apply.

The follower's service is deliberately **not started**: batches are
applied synchronously to the bank exactly like WAL replay
(:meth:`~repro.serve.service.SpeculationService.apply_logged`), which
keeps the standby shape-independent — it may run a different shard
count than the primary, and promotion may pick yet another shape.
Tenants spill and restore as on the primary, so a replica rebuilt
from a snapshot holds that snapshot's resident budget (a follower
bootstrapped from an empty disk has none until its first re-anchor).

While standing by, :class:`ReadOnlyServer` answers
``should_speculate`` queries from the live replica state over the same
length-prefixed framing (``RO_QUERY``/``RO_DECISION``), plus a status
document (``RO_STATUS``) with both watermarks for lag monitoring.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import ControllerConfig
from repro.replicate import frames
from repro.serve.events import EventBatch
from repro.serve.service import SpeculationService
from repro.serve.wire import ProtocolError, SocketTransport
from repro.tenant.keys import key_pc, key_tenant
from repro.wal.recovery import RecoveryReport, recover_service

__all__ = ["FollowerConfig", "ReplicationFollower", "ReplicationError",
           "ReadOnlyServer"]

logger = logging.getLogger(__name__)

#: Commit + ack at the latest every N applied batches even while the
#: socket still has frames pending (bounds ack latency under a firehose).
_ACK_EVERY = 64


class ReplicationError(Exception):
    """The primary rejected or aborted the replication stream."""


@dataclass(frozen=True)
class FollowerConfig:
    """Deployment shape and reconnect policy of a standby."""

    upstream: str                 # primary's repl_listen address
    wal_dir: str                  # the follower's OWN log
    #: Where shipped snapshots land (and promotion looks first).
    #: Defaults to ``<wal_dir>/snapshots``.
    snapshot_dir: str | None = None
    n_shards: int = 2
    wal_fsync: str = "batch"
    ro_listen: str | None = None  # read-only decision endpoint
    connect_timeout: float = 5.0
    reconnect_backoff: float = 0.2
    max_backoff: float = 2.0
    #: None = retry forever (until :meth:`ReplicationFollower.stop`);
    #: N = give up after N consecutive failed connection attempts.
    max_retries: int | None = None

    def resolved_snapshot_dir(self) -> Path:
        if self.snapshot_dir is not None:
            return Path(self.snapshot_dir)
        return Path(self.wal_dir) / "snapshots"


@dataclass
class FollowerStats:
    batches_applied: int = 0
    duplicates_skipped: int = 0
    reconnects: int = 0
    snapshots_installed: int = 0
    connected: bool = False
    primary_last_seq: int = -1
    last_error: str | None = field(default=None)


class ReplicationFollower:
    """A warm standby: local WAL + bank continuously fed by a primary."""

    def __init__(self, config: FollowerConfig) -> None:
        self.config = config
        self.service: SpeculationService | None = None
        self.stats = FollowerStats()
        # Standby health: a private rate-only detector (on its own
        # private registry) fed by the apply stream.  The follower
        # applies synchronously (no capture, so no transition arcs);
        # verdicts come from the windowed misspec rate, which is
        # exactly what a standby can observe.
        from repro.obs.detect import MisspecDetector
        self._detector = MisspecDetector()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self._transport: SocketTransport | None = None
        self._ro_server: ReadOnlyServer | None = None
        self._lock = threading.Lock()
        self._sealed = False
        self._sessions = 0  # handshakes completed (reconnects included)

    # -- watermarks -----------------------------------------------------
    @property
    def last_seq(self) -> int:
        """The follower's watermark: newest locally durable batch."""
        if self.service is not None:
            return self.service.last_seq
        return self._local_watermark()

    def _local_watermark(self) -> int:
        """Watermark recoverable from local disk alone (no service)."""
        from repro.serve.snapshot import (find_latest_snapshot,
                                          snapshot_covered_seq)
        from repro.wal.reader import WalReader
        from repro.wal.segment import list_segments

        seq = -1
        snap = find_latest_snapshot(self.config.resolved_snapshot_dir())
        if snap is not None:
            seq = snapshot_covered_seq(snap)
        if list_segments(self.config.wal_dir):
            seq = max(seq, WalReader(self.config.wal_dir).last_seq())
        return seq

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`run` on a daemon thread (the CLI/test entry)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self.run,
                                        name="repro-repl-follower",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop replicating; the local service/WAL stay intact."""
        self._stopped.set()
        self._disconnect()
        if self._ro_server is not None:
            self._ro_server.close()
            self._ro_server = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def seal(self) -> SpeculationService | None:
        """Stop and close the local writer: the log is final.

        Promotion calls this first so its recovery pass reads a sealed
        log; returns the (stopped) replica service, if one was built.
        """
        self.stop()
        with self._lock:
            self._sealed = True
            service = self.service
        if service is not None:
            service.close()
        return service

    def run(self) -> str:
        """Replicate until stopped; returns why the loop ended.

        ``"stopped"`` — :meth:`stop` was called; ``"gave-up"`` — the
        retry budget ran out (the primary is gone; time to promote).
        """
        backoff = self.config.reconnect_backoff
        failures = 0
        while not self._stopped.is_set():
            sessions_before = self._sessions
            try:
                self._connect_and_stream()
            except (OSError, EOFError, ProtocolError,
                    ReplicationError) as err:
                self.stats.connected = False
                self.stats.last_error = str(err)
                if self._stopped.is_set():
                    break
                if self._sessions > sessions_before:
                    # The link was up and then dropped: this is a fresh
                    # outage, not another failure of the same attempt.
                    failures = 0
                    backoff = self.config.reconnect_backoff
                failures += 1
                if (self.config.max_retries is not None
                        and failures > self.config.max_retries):
                    logger.warning(
                        "replication: giving up on %s after %d failed "
                        "attempts (%s)", self.config.upstream,
                        failures - 1, err)
                    return "gave-up"
                logger.info("replication: link to %s lost (%s); "
                            "retrying in %.2fs", self.config.upstream,
                            err, backoff)
                self._stopped.wait(backoff)
                backoff = min(backoff * 2, self.config.max_backoff)
        return "stopped"

    # -- the stream -----------------------------------------------------
    def _connect_and_stream(self) -> None:
        watermark = self.last_seq
        sock = frames.connect_socket(self.config.upstream,
                                     timeout=self.config.connect_timeout)
        transport = SocketTransport(sock)
        self._transport = transport
        try:
            transport.send(frames.encode_r_hello(watermark))
            primary_seq, remote = frames.decode_r_welcome(transport.recv())
            self.stats.primary_last_seq = primary_seq
            self._sessions += 1
            if self._sessions > 1:
                self.stats.reconnects += 1
            self.stats.connected = True
            logger.info("replication: connected to %s (watermark %d, "
                        "primary at %d)", self.config.upstream,
                        watermark, primary_seq)
            if self.service is None:
                self._build_service(remote["controller_config"])
            if self._ro_server is None and self.config.ro_listen:
                self._ro_server = ReadOnlyServer(self,
                                                 self.config.ro_listen)
                self._ro_server.start()
            self._apply_stream(sock, transport)
        finally:
            self.stats.connected = False
            self._transport = None
            try:
                transport.close()
            except OSError:
                pass

    def _build_service(self, controller_config: dict) -> None:
        """First contact: recover whatever this standby has on local
        disk; with nothing there, that is an empty replica with the
        primary's controller parameters."""
        from repro.serve.snapshot import find_latest_snapshot

        report = self._recover(
            find_latest_snapshot(self.config.resolved_snapshot_dir()),
            ControllerConfig(**controller_config))
        logger.info("replication: local state recovered — %s",
                    report.summary())

    def _install_snapshot(self, covered_seq: int, blob: bytes) -> None:
        """Re-anchor: persist the shipped snapshot durably (the ack
        that follows promises it) and rebuild the replica from it (the
        local log cannot bridge the gap)."""
        from repro.serve.snapshot import write_durably

        path = write_durably(self.config.resolved_snapshot_dir()
                             / f"snapshot-{covered_seq:016d}.json.gz", blob)
        old = self.service
        if old is not None:
            old.close()     # one WAL writer per directory
        report = self._recover(path)
        self.stats.snapshots_installed += 1
        logger.info("replication: re-anchored on shipped snapshot "
                    "(covers seq %d) — %s", covered_seq,
                    report.summary())

    def _recover(self, snapshot: Path | None,
                 config: ControllerConfig | None = None) -> RecoveryReport:
        """Rebuild the replica from ``snapshot`` plus the local log and
        make it the live one."""
        service, report = recover_service(
            self.config.wal_dir, snapshot=snapshot, config=config,
            n_shards=self.config.n_shards,
            wal_fsync=self.config.wal_fsync)
        with self._lock:
            if self._sealed:
                raise ReplicationError("follower already sealed")
            self.service = service
        return report

    def _apply_stream(self, sock: socket.socket,
                      transport: SocketTransport) -> None:
        """recv → (wal append → apply) → commit → ack, batched by
        what is already pending on the socket."""
        uncommitted = 0
        while not self._stopped.is_set():
            payload = transport.recv()
            ftype = frames.frame_type(payload)
            if ftype == frames.R_BATCH:
                batch = EventBatch.from_bytes(
                    frames.decode_r_batch(payload))
                if batch.seq > self.stats.primary_last_seq:
                    self.stats.primary_last_seq = batch.seq
                if self._apply_one(batch):
                    uncommitted += 1
                else:
                    self.stats.duplicates_skipped += 1
                if uncommitted >= _ACK_EVERY or not _readable(sock):
                    if uncommitted:
                        self.service._wal.commit()
                        uncommitted = 0
                    transport.send(frames.encode_r_ack(
                        self.service.last_seq))
            elif ftype == frames.R_SNAPSHOT:
                covered, blob = frames.decode_r_snapshot(payload)
                self._install_snapshot(covered, blob)
                uncommitted = 0
                transport.send(frames.encode_r_ack(
                    self.service.last_seq))
            elif ftype == frames.R_ERROR:
                raise ReplicationError(frames.decode_r_error(payload))
            else:
                raise ProtocolError(
                    f"unexpected replication frame type {ftype:#x}")

    def _apply_one(self, batch: EventBatch) -> bool:
        """Log-then-apply one batch; False = duplicate (skipped)."""
        service = self.service
        if batch.seq <= service.last_seq:
            return False
        service._wal.append(batch)
        results = service.apply_logged(batch)
        self.stats.batches_applied += 1
        self._detector.observe_apply(
            batch.n_events,
            sum(r.correct for r in results),
            sum(r.incorrect for r in results),
            batch.first_instr, batch.last_instr)
        return True

    # -- read-only view -------------------------------------------------
    def should_speculate(self, pc: int, tenant: int = 0) -> bool:
        """Deployed-code answer from the replica (read-only)."""
        service = self.service
        if service is None:
            raise ReplicationError("follower has no state yet")
        return service.bank.should_speculate(pc, tenant)

    def status(self) -> dict:
        service = self.service
        return {
            "role": "follower",
            "upstream": self.config.upstream,
            "connected": self.stats.connected,
            "last_seq": service.last_seq if service is not None else -1,
            "events_applied": (service.events_submitted
                               if service is not None else 0),
            "primary_last_seq": self.stats.primary_last_seq,
            "batches_applied": self.stats.batches_applied,
            "duplicates_skipped": self.stats.duplicates_skipped,
            "reconnects": self.stats.reconnects,
            "snapshots_installed": self.stats.snapshots_installed,
            "health": self._detector.verdict,
            "peak_health": self._detector.peak_verdict,
        }

    # -- test/CLI helpers -----------------------------------------------
    def wait_connected(self, timeout: float = 10.0) -> bool:
        return _wait(lambda: self.stats.connected, timeout)

    def wait_caught_up(self, seq: int, timeout: float = 30.0) -> bool:
        """Block until the local watermark reaches ``seq``."""
        return _wait(lambda: (self.service is not None
                              and self.service.last_seq >= seq), timeout)

    def _disconnect(self) -> None:
        transport = self._transport
        if transport is not None:
            try:
                transport.close()
            except OSError:
                pass


class ReadOnlyServer:
    """Serves ``should_speculate`` from a standby over the wire.

    One thread per connection; queries read the replica's live
    decision caches (dict reads are atomic under the GIL, and a
    decision mid-batch is exactly as fresh as the replication stream).
    :meth:`close` ends every connection too, so a sealed standby stops
    answering on links opened before it was sealed.
    """

    def __init__(self, follower: ReplicationFollower,
                 listen_addr: str) -> None:
        self.follower = follower
        self.listen_addr = listen_addr
        self._sock: socket.socket | None = None
        self._stopped = threading.Event()
        self._conns: set[SocketTransport] = set()

    def start(self) -> None:
        self._sock = frames.listen_socket(self.listen_addr)
        threading.Thread(target=self._accept_loop, name="repro-repl-ro",
                         daemon=True).start()
        logger.info("replication: read-only endpoint on %s",
                    self.listen_addr)

    def close(self) -> None:
        """Stop accepting and end every open connection."""
        self._stopped.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            self._sock.close()
        for transport in list(self._conns):
            transport.close()  # its client reads end of file
        frames.unlink_addr(self.listen_addr)

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _peer = self._sock.accept()
            except OSError:
                return
            transport = SocketTransport(sock)
            self._conns.add(transport)
            if self._stopped.is_set():  # accepted while closing
                transport.close()
                return
            threading.Thread(target=self._serve, args=(transport,),
                             daemon=True).start()

    def _serve(self, transport: SocketTransport) -> None:
        try:
            while not self._stopped.is_set():
                payload = transport.recv()
                ftype = frames.frame_type(payload)
                if ftype == frames.RO_QUERY:
                    keys = frames.decode_ro_query(payload)
                    service = self.follower.service
                    if service is None:
                        transport.send(frames.encode_r_error(
                            "follower has no state yet"))
                        continue
                    # A tenant-aware query carries int64
                    # (tenant << 32) | pc keys; the legacy form
                    # carries raw int32 pcs.
                    if keys.dtype == np.int64:
                        decisions = [service.bank.should_speculate(
                                         key_pc(int(k)), key_tenant(int(k)))
                                     for k in keys]
                    else:
                        decisions = [service.bank.should_speculate(int(pc))
                                     for pc in keys]
                    transport.send(frames.encode_ro_decision(decisions))
                elif ftype == frames.RO_STATUS_REQ:
                    transport.send(frames.encode_ro_status(
                        self.follower.status()))
                else:
                    transport.send(frames.encode_r_error(
                        f"unexpected frame type {ftype:#x} on the "
                        "read-only endpoint"))
        except (EOFError, OSError, ProtocolError):
            pass
        finally:
            self._conns.discard(transport)
            transport.close()


def _readable(sock: socket.socket) -> bool:
    """More frames already pending? (drives the group-commit cadence)"""
    try:
        ready, _w, _x = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return False
    return bool(ready)


def _wait(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()
