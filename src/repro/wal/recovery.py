"""Exact crash recovery: snapshot anchor + WAL tail replay.

The recovery contract: a service restored from the newest snapshot and
then fed the WAL records *after* that snapshot's sequence watermark is
bit-identical — same controller state, same
:class:`~repro.sim.metrics.SpeculationMetrics`, same deployed-code
answers — to a service that never crashed, for every event batch the
crashed process had accepted.  The only discardable bytes are a torn
final record (a batch the producer was never acknowledged past the
fsync policy's guarantee for), which the client re-submits from
``last_seq + 1`` exactly as it would after backpressure.

:func:`recover_service` is the one way a service is rebuilt from disk:
``python -m repro.serve --restore``/``--restore-latest`` (with or
without ``--wal-dir``), ``python -m repro.wal replay``, a replication
follower's bootstrap and re-anchor, and promotion all call it.
:func:`replay_into_service` is the replay half alone, applied to an
already-restored, not-yet-started service.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.wal.reader import WalReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ControllerConfig
    from repro.serve.service import SpeculationService

__all__ = ["RecoveryReport", "replay_into_service", "recover_service"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery did, for logs and the CLI."""

    snapshot: Path | None        # anchor file (None: replay from zero)
    snapshot_seq: int            # seq watermark the anchor covered
    replayed_batches: int
    replayed_events: int
    last_seq: int                # service watermark after replay
    torn_tail_bytes: int         # dropped from a partial final record

    def summary(self) -> str:
        anchor = (f"snapshot {self.snapshot}" if self.snapshot is not None
                  else "no snapshot (replay from the log's start)")
        line = (f"recovered from {anchor} (seq {self.snapshot_seq}) + "
                f"{self.replayed_batches} WAL batches "
                f"({self.replayed_events:,} events); "
                f"watermark now seq {self.last_seq}")
        if self.torn_tail_bytes:
            line += (f"; dropped a torn final record "
                     f"({self.torn_tail_bytes} bytes)")
        return line


def replay_into_service(service: "SpeculationService",
                        wal_dir: str | Path,
                        up_to_seq: int | None = None) -> RecoveryReport:
    """Apply the WAL tail beyond ``service.last_seq`` to ``service``.

    The service must not be started: replay drives the bank
    synchronously (shard workers would race it), which also makes
    recovery independent of the worker count the crashed process ran
    with — or the one the restored service will use.  ``up_to_seq``
    bounds the replay inclusively, reconstructing the state as of
    that watermark (point-in-time recovery).
    """
    snapshot_seq = service.last_seq
    batches, events, torn = _replay(service, wal_dir, up_to_seq)
    return RecoveryReport(
        snapshot=None, snapshot_seq=snapshot_seq,
        replayed_batches=batches, replayed_events=events,
        last_seq=service.last_seq, torn_tail_bytes=torn)


def _replay(service: "SpeculationService", wal_dir: str | Path,
            up_to_seq: int | None) -> tuple[int, int, int]:
    """Apply the log tail; (batches, events, torn bytes dropped)."""
    if service._running:
        raise RuntimeError("replay requires a stopped service")
    logger.info("replaying WAL %s from seq %d%s", wal_dir,
                service.last_seq + 1,
                "" if up_to_seq is None else f" up to seq {up_to_seq}")
    reader = WalReader(wal_dir)
    batches = events = 0
    for batch in reader.batches(after_seq=service.last_seq,
                                up_to_seq=up_to_seq):
        service.apply_logged(batch)
        batches += 1
        events += batch.n_events
    torn = reader.torn_tail
    if torn is None:
        return batches, events, 0
    logger.warning("WAL %s: torn final record in %s (%d bytes) "
                   "dropped; the producer must resubmit from seq %d",
                   wal_dir, torn.path.name, torn.torn_bytes,
                   service.last_seq + 1)
    return batches, events, torn.torn_bytes


def recover_service(wal_dir: str | Path | None,
                    snapshot: str | Path | None = None,
                    config: "ControllerConfig | None" = None,
                    n_shards: int | None = None,
                    workers: int | None = None,
                    attach_wal: bool = True,
                    wal_fsync: str | None = None,
                    up_to_seq: int | None = None,
                    ) -> tuple["SpeculationService", RecoveryReport]:
    """Snapshot + WAL tail → a service identical to the crashed one.

    ``snapshot=None`` recovers purely from the log (a service that
    crashed before its first checkpoint, or nothing on disk at all: a
    fresh service); ``config`` then supplies the controller parameters
    the snapshot would have carried.  ``wal_dir=None`` restores the
    snapshot alone: nothing to replay, no log to attach.  With
    ``attach_wal`` (the default) the recovered service keeps logging
    into ``wal_dir`` — its writer re-opens the newest segment,
    truncating any torn tail first — so the crash/recover cycle
    composes.  ``n_shards``/``workers``/``wal_fsync`` choose the
    recovered service's shape
    (:func:`~repro.serve.snapshot.restore_shape`); replay itself is
    shape-independent.  ``up_to_seq`` gives point-in-time recovery
    (replay stops at that watermark, inclusive); it requires
    ``attach_wal=False`` — a re-attached writer would sit at the
    log's physical tip while the service's watermark is behind it.
    """
    from repro.serve.service import ServiceConfig, SpeculationService
    from repro.serve.snapshot import load_snapshot, restore_shape

    if up_to_seq is not None and attach_wal:
        raise ValueError("up_to_seq (point-in-time recovery) requires "
                         "attach_wal=False")
    attach = attach_wal and wal_dir is not None
    shape = {"n_shards": n_shards, "workers": workers,
             "wal_dir": str(wal_dir) if attach else None,
             "wal_fsync": wal_fsync if attach else None}
    if snapshot is not None:
        service = load_snapshot(snapshot, **shape)
        logger.info("recovery anchored on snapshot %s (covers seq %d)",
                    snapshot, service.last_seq)
    else:
        service = SpeculationService(
            config, restore_shape(ServiceConfig(), **shape))
        logger.info("recovery without a snapshot anchor: replaying %s "
                    "from the log's start", wal_dir)
    snapshot_seq = service.last_seq
    batches = events = torn = 0
    if wal_dir is not None:
        batches, events, torn = _replay(service, wal_dir, up_to_seq)
    # With attach_wal the service's writer already opened the log and
    # truncated any torn tail before our reader gets to scan it, so the
    # reader alone would under-report; the writer counts what it cut.
    if service._wal is not None:
        torn += service._wal.stats.repaired_bytes
    return service, RecoveryReport(
        snapshot=Path(snapshot) if snapshot is not None else None,
        snapshot_seq=snapshot_seq, replayed_batches=batches,
        replayed_events=events, last_seq=service.last_seq,
        torn_tail_bytes=torn)
