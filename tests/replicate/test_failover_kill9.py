"""Failover acceptance: the primary is SIGKILLed, the standby takes over.

The tentpole scenario for replication.  A separate OS process runs a
WAL-enabled primary with ``repl_listen`` on and feeds it a trace; this
test process runs a real :class:`ReplicationFollower` (on a different
shard count) against it, then kills the primary with ``SIGKILL``
mid-burst — no shutdown handshake, no final commit.  Promotion must
produce a read-write service that

* lost **zero acknowledged events** — everything the follower ever
  acked survives, and
* is **bit-identical** to a point-in-time single-node recovery of the
  dead primary's own WAL at the follower's watermark (the replicated
  copy is as good as the original disk), and
* composes — it finishes the workload and matches an uninterrupted
  offline run exactly.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.config import scaled_config
from repro.replicate.follower import FollowerConfig, ReplicationFollower
from repro.replicate.promotion import promote_follower
from repro.serve.client import feed_trace
from repro.serve.snapshot import find_latest_snapshot, snapshot_covered_seq
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import load_trace
from repro.wal.recovery import recover_service
from tests.conftest import model_states, ring_arcs, spec_parity

SRC = Path(repro.__file__).resolve().parents[1]
BATCH_EVENTS = 1_024
TOTAL_EVENTS = 40 * BATCH_EVENTS

FEEDER = """
import asyncio, sys
from repro.core.config import scaled_config
from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService
from repro.trace.spec2000 import load_trace

wal_dir, snap_dir, repl, rate = sys.argv[1:5]
trace = load_trace("gzip", length=%d)

async def main():
    scfg = ServiceConfig(n_shards=2, wal_dir=wal_dir, wal_fsync="batch",
                         snapshot_interval_events=8192,
                         snapshot_dir=snap_dir, repl_listen=repl)
    service = SpeculationService(scaled_config(), scfg)
    async with service:
        await feed_trace(service, trace, batch_events=%d,
                         rate=float(rate))
        await service.drain()

asyncio.run(main())
""" % (TOTAL_EVENTS, BATCH_EVENTS)


def _newest_snapshot_at_or_below(directory, seq):
    """Newest primary snapshot whose coverage the watermark reaches."""
    candidates = sorted(Path(directory).glob("*.json.gz"), reverse=True)
    for path in candidates:
        if snapshot_covered_seq(path) <= seq:
            return path
    return None


def test_kill9_failover_loses_nothing(tmp_path):
    pwal, snaps = tmp_path / "pwal", tmp_path / "snaps"
    repl_addr = str(tmp_path / "repl.sock")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-c", FEEDER, str(pwal), str(snaps),
         repl_addr, "20000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    follower = ReplicationFollower(FollowerConfig(
        upstream=repl_addr, wal_dir=str(tmp_path / "fwal"),
        n_shards=3, reconnect_backoff=0.05))
    try:
        follower.start()
        assert follower.wait_connected(timeout=30.0), \
            "follower never reached the primary"
        # Kill once the run is interesting: the primary has
        # checkpointed AND the follower has replicated batches beyond
        # that checkpoint — so promotion must replay its local WAL
        # tail over the anchor, not just reload a snapshot.
        killed_mid_run = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            snap = find_latest_snapshot(snaps)
            if (snap is not None
                    and follower.last_seq
                    >= snapshot_covered_seq(snap) + 2):
                killed_mid_run = True
                break
            time.sleep(0.02)
        assert killed_mid_run or proc.poll() is not None, \
            "no replicated progress in 60s"
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()

    # The follower notices the dead link on its own.
    deadline = time.monotonic() + 10.0
    while follower.stats.connected and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not follower.stats.connected
    acked = follower.last_seq
    assert acked >= 0

    # -- promote, onto yet another shard count ------------------------
    promoted, report = promote_follower(follower, n_shards=4)
    assert promoted.last_seq == acked, "promotion lost acked batches"
    assert promoted.bank.n_shards == 4
    if killed_mid_run:
        assert report.replayed_batches >= 2
        assert report.last_seq > report.snapshot_seq

    # -- the replicated copy is as good as the primary's own disk -----
    # Point-in-time recovery of the *dead primary's* WAL at the
    # follower's watermark, onto the same shard count, must be
    # bit-identical — state export and metrics both.
    config = scaled_config()
    ref, _ = recover_service(
        pwal, snapshot=_newest_snapshot_at_or_below(snaps, acked),
        config=config, n_shards=4, attach_wal=False, up_to_seq=acked)
    assert ref.last_seq == acked
    assert promoted.metrics() == ref.metrics()
    assert model_states(promoted) == model_states(ref)

    # ...and bit-identical to an offline run over the acked prefix
    # (every batch the primary sent was full, so the prefix is exact).
    trace = load_trace("gzip", length=TOTAL_EVENTS)
    prefix = promoted.events_submitted
    assert prefix == (acked + 1) * BATCH_EVENTS
    assert promoted.metrics() \
        == run_reactive(trace.slice(0, prefix), config).metrics

    # -- the promoted primary composes: finish the workload -----------
    async def finish():
        async with promoted:
            await feed_trace(promoted, trace, batch_events=BATCH_EVENTS)
            await promoted.drain()
            return (promoted.metrics(), model_states(promoted),
                    ring_arcs(promoted))

    metrics, states, arcs = asyncio.run(finish())
    assert promoted.events_submitted == TOTAL_EVENTS
    # The finished run ends in the spec's states, and captures exactly
    # the arcs the spec logs past the acked prefix.
    assert metrics == spec_parity(states, arcs, trace, config,
                                  prefix).metrics
