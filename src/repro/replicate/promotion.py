"""Failover: turn a warm standby into the read-write primary.

Promotion is deliberately built on the crash-recovery path rather
than on the in-memory replica: the follower's log is sealed
(:meth:`~repro.replicate.follower.ReplicationFollower.seal`), then
:func:`~repro.wal.recovery.recover_service` rebuilds a service from
the follower's newest snapshot anchor plus its WAL tail — the same
machinery a single node uses after ``kill -9`` — and re-attaches the
writer so the promoted primary keeps logging into the same directory.
That buys two properties for free:

* **zero accepted-event loss** — everything the follower ever acked
  is in its log, and the log is replayed to its tip, bit-exactly;
* **shape independence** — the promoted service may run any
  shard/worker topology (``n_shards``/``workers``), not the one the
  dead primary or the standby used.

The promoted service is returned *stopped*; start it (or hand it to
the serving CLI) and producers resume from ``last_seq + 1`` exactly
as they would after backpressure.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replicate.follower import ReplicationFollower
    from repro.serve.service import SpeculationService

__all__ = ["PromotionReport", "promote_follower"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PromotionReport:
    """What a failover did, for logs and the CLI."""

    last_seq: int                # the promoted primary's watermark
    events: int                  # events in the promoted state
    replayed_batches: int        # WAL tail replayed beyond the anchor
    snapshot_seq: int            # anchor watermark (-1: log only)
    duration_seconds: float

    def summary(self) -> str:
        return (f"promoted to primary at seq {self.last_seq} "
                f"({self.events:,} events; replayed "
                f"{self.replayed_batches} batches over the seq "
                f"{self.snapshot_seq} anchor) in "
                f"{self.duration_seconds:.3f}s")


def promote_follower(follower: "ReplicationFollower",
                     n_shards: int | None = None,
                     workers: int | None = None,
                     wal_fsync: str | None = None,
                     ) -> tuple["SpeculationService", PromotionReport]:
    """Seal the standby's log and come up as a read-write primary.

    Returns the promoted (stopped, WAL-attached) service and a
    report.  ``n_shards``/``workers`` pick the promoted service's
    execution shape; by default it keeps the follower's shard count,
    in-process.
    """
    from repro.serve.snapshot import find_latest_snapshot
    from repro.wal.recovery import recover_service

    started = time.monotonic()
    follower.seal()
    snap = find_latest_snapshot(follower.config.resolved_snapshot_dir())
    replica = follower.service
    service, report = recover_service(
        follower.config.wal_dir,
        snapshot=snap,
        config=replica.config if replica is not None else None,
        n_shards=(n_shards if n_shards is not None
                  else follower.config.n_shards),
        workers=workers,
        wal_fsync=(wal_fsync if wal_fsync is not None
                   else follower.config.wal_fsync))
    if replica is not None and service.last_seq != replica.last_seq:
        raise RuntimeError(
            f"promotion recovered to seq {service.last_seq} but the "
            f"replica had acked seq {replica.last_seq}: the standby's "
            "log lost acknowledged records")
    promotion = PromotionReport(
        last_seq=service.last_seq,
        events=service.events_submitted,
        replayed_batches=report.replayed_batches,
        snapshot_seq=report.snapshot_seq,
        duration_seconds=time.monotonic() - started)
    logger.info("replication: %s", promotion.summary())
    return service, promotion
