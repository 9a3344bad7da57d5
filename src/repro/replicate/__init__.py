"""Streaming WAL replication with warm-standby failover.

The paper's reactive controllers only help online while their
accumulated per-branch state is live: a cold-rebooted bank re-deploys
biased speculation and re-pays the misspeculation bursts the FSM's
eviction arc exists to bound.  :mod:`repro.wal` already makes a single
node exactly recoverable; this package keeps a *second* machine warm.

Roles:

* :class:`~repro.replicate.sender.ReplicationSender` — primary side.
  Attached to a WAL-enabled :class:`~repro.serve.service
  .SpeculationService` and run on its event loop, it accepts follower
  connections, catches each up from the log through an incremental
  :class:`~repro.wal.reader.WalTailer` (or the newest snapshot, when
  compaction has outrun it), then writes every accepted batch to it.
  Follower acknowledgements drive ``last_replicated_seq``, the
  replication twin of ``last_durable_seq``.
* :class:`~repro.replicate.follower.ReplicationFollower` — standby
  side.  Connects with its local watermark, replays every received
  batch into its *own* WAL and bank (ack ⇒ follower-durable),
  reconnects with resume-from-watermark after drops, and serves
  read-only ``should_speculate`` while standing by.
* :func:`~repro.replicate.promotion.promote_follower` — failover.
  Seals the follower's log and rebuilds a read-write service from it
  via the shape-independent :func:`~repro.wal.recovery
  .recover_service`, so the standby may run a different shard/worker
  topology than the primary it replaces.
"""

from repro.replicate.follower import FollowerConfig, ReplicationFollower
from repro.replicate.frames import REPLICATION_VERSION
from repro.replicate.promotion import PromotionReport, promote_follower
from repro.replicate.sender import ReplicationSender

__all__ = [
    "REPLICATION_VERSION",
    "ReplicationSender",
    "ReplicationFollower",
    "FollowerConfig",
    "PromotionReport",
    "promote_follower",
]
