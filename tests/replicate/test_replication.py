"""In-process replication: stream, ack, reconnect, re-anchor, promote.

A real primary (``repl_listen`` on an AF_UNIX path) streams to a real
:class:`ReplicationFollower` over a real socket — only the processes
are shared.  The follower deliberately runs a *different* shard count
than the primary throughout: replication ships events, not placement,
so the standby's shape is its own business.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.core.config import scaled_config
from repro.replicate import frames
from repro.replicate.follower import FollowerConfig, ReplicationFollower
from repro.replicate.promotion import promote_follower
from repro.serve.client import feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.wire import SocketTransport
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import load_trace
from repro.wal.reader import WalReader
from repro.wal.segment import list_segments, parse_segment_name
from tests.conftest import model_states

BATCH_EVENTS = 512
TOTAL_EVENTS = 24 * BATCH_EVENTS  # batch-aligned: re-feeds dedup cleanly


@pytest.fixture(scope="module")
def trace():
    return load_trace("gzip", length=TOTAL_EVENTS)


def _primary(tmp_path, **overrides) -> SpeculationService:
    scfg = ServiceConfig(n_shards=2, wal_dir=str(tmp_path / "pwal"),
                         wal_fsync="batch",
                         repl_listen=str(tmp_path / "repl.sock"),
                         **overrides)
    return SpeculationService(scaled_config(), scfg)


def _follower(tmp_path, **overrides) -> ReplicationFollower:
    cfg = FollowerConfig(upstream=str(tmp_path / "repl.sock"),
                         wal_dir=str(tmp_path / "fwal"),
                         n_shards=3, reconnect_backoff=0.05,
                         **overrides)
    return ReplicationFollower(cfg)


async def _wait_acked(service: SpeculationService, seq: int,
                      timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while service.last_replicated_seq < seq:
        assert time.monotonic() < deadline, (
            f"acked watermark stuck at {service.last_replicated_seq}, "
            f"wanted {seq}")
        await asyncio.sleep(0.01)


def test_live_stream_watermark_and_read_only_serving(trace, tmp_path):
    service = _primary(tmp_path)
    ro_addr = str(tmp_path / "ro.sock")
    follower = _follower(tmp_path, ro_listen=ro_addr)

    async def run():
        async with service:
            follower.start()
            assert await asyncio.to_thread(follower.wait_connected)
            await feed_trace(service, trace, batch_events=BATCH_EVENTS)
            await service.drain()
            tip = service.last_seq
            assert await asyncio.to_thread(follower.wait_caught_up, tip)
            # R_ACK is sent after the follower's WAL commit, so the
            # primary's acked watermark must reach the tip.
            await _wait_acked(service, tip)
            assert service.last_replicated_seq == tip

            # Read-only serving answers from the replica over the wire
            # and matches the primary's deployed-code view exactly.
            pcs = np.unique(trace.branch_ids[:4096])[:64]
            transport = SocketTransport(
                frames.connect_socket(ro_addr, timeout=5.0))
            try:
                transport.send(frames.encode_ro_query(pcs))
                decisions = frames.decode_ro_decision(transport.recv())
                assert [bool(d) for d in decisions] \
                    == [service.should_speculate(int(pc)) for pc in pcs]
                transport.send(frames.encode_ro_status_req())
                status = frames.decode_ro_status(transport.recv())
            finally:
                transport.close()
            assert status["role"] == "follower"
            assert status["connected"] is True
            assert status["last_seq"] == tip
            assert status["primary_last_seq"] >= 0
            return tip

    tip = asyncio.run(run())
    replica = follower.seal()
    # Acked means durable: the follower's own WAL holds every batch.
    assert replica.last_seq == tip
    assert replica.events_submitted == TOTAL_EVENTS
    assert WalReader(tmp_path / "fwal").last_seq() == tip
    assert follower.stats.duplicates_skipped == 0


def test_reconnect_resumes_from_watermark_without_duplicates(
        trace, tmp_path):
    service = _primary(tmp_path)
    follower = _follower(tmp_path)

    async def run():
        async with service:
            follower.start()
            assert await asyncio.to_thread(follower.wait_connected)
            await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                             max_events=12 * BATCH_EVENTS)
            await service.drain()
            assert await asyncio.to_thread(follower.wait_caught_up,
                                           service.last_seq)

            # Sever the link mid-stream; the follower must come back by
            # itself and announce its watermark, not start over.
            follower._disconnect()
            assert await asyncio.to_thread(
                _poll, lambda: follower.stats.reconnects >= 1)

            await feed_trace(service, trace, batch_events=BATCH_EVENTS)
            await service.drain()
            tip = service.last_seq
            assert await asyncio.to_thread(follower.wait_caught_up, tip)
            await _wait_acked(service, tip)
            return tip

    tip = asyncio.run(run())
    replica = follower.seal()
    assert follower.stats.reconnects >= 1
    # Zero duplicate application: every event exactly once, and the
    # follower's log holds each seq exactly once, in order.
    assert replica.events_submitted == TOTAL_EVENTS
    seqs = [b.seq for b in WalReader(tmp_path / "fwal").batches()]
    assert seqs == list(range(tip + 1))

    # The idempotence guard itself: a replayed old batch is refused
    # before it can touch the WAL or the bank.
    stale = next(iter_trace_batches(trace, BATCH_EVENTS))
    applied_before = follower.stats.batches_applied
    assert follower._apply_one(stale) is False
    assert follower.stats.batches_applied == applied_before
    assert replica.last_seq == tip


def test_lagging_follower_bootstraps_from_snapshot_then_promotes(
        tmp_path, monkeypatch):
    # One trace for every phase: the loader's synthetic outcomes are
    # not prefix-stable across lengths, so prefixes must be sliced
    # from the same load, never re-loaded shorter.
    trace = load_trace("gzip", length=TOTAL_EVENTS + 8 * BATCH_EVENTS)
    # Tiny segments so compaction actually removes the early log: the
    # late-joining follower *cannot* be served from records alone.
    service = _primary(tmp_path, snapshot_dir=str(tmp_path / "snaps"),
                       wal_segment_bytes=8192)
    follower = _follower(tmp_path)
    # Every (device, inode) fsynced from the follower's start on: its
    # ack of the shipped snapshot promises that the file and its
    # directory entry are on disk.
    synced = set()
    real_fsync = os.fsync

    def fsync_spy(fd):
        st = os.fstat(fd)
        synced.add((st.st_dev, st.st_ino))
        return real_fsync(fd)

    async def run():
        async with service:
            await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                             max_events=16 * BATCH_EVENTS)
            await service.drain()
            await service.snapshot()
            anchor_seq = service.last_seq
            # Compaction removed the covered prefix (possibly the whole
            # log): nothing at or below seq 0 can be served from records.
            assert all(parse_segment_name(p.name) > 0
                       for p in list_segments(tmp_path / "pwal")), \
                "compaction did not trim the early segments"

            # A brand-new follower (watermark -1) joins behind the
            # horizon: the primary must re-anchor it on the snapshot.
            monkeypatch.setattr(os, "fsync", fsync_spy)
            follower.start()
            assert await asyncio.to_thread(follower.wait_connected)
            assert await asyncio.to_thread(follower.wait_caught_up,
                                           anchor_seq)
            assert follower.stats.snapshots_installed == 1
            snap_dir = follower.config.resolved_snapshot_dir()
            installed = list(snap_dir.glob("*.json.gz"))
            assert len(installed) == 1
            for path in (installed[0], snap_dir):
                st = path.stat()
                assert (st.st_dev, st.st_ino) in synced, \
                    f"{path} was acked but never fsynced"

            # ...then live batches continue on top of the anchor.
            await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                             max_events=TOTAL_EVENTS)
            await service.drain()
            tip = service.last_seq
            assert await asyncio.to_thread(follower.wait_caught_up, tip)
            await _wait_acked(service, tip)
            return anchor_seq, tip, service.metrics()

    anchor_seq, tip, primary_metrics = asyncio.run(run())

    # Failover: promote onto yet another shard count.  Promotion goes
    # through the crash-recovery path (snapshot anchor + local WAL
    # tail), so the result must be bit-identical to the dead primary
    # and to an offline run that never involved a network.
    promoted, report = promote_follower(follower, n_shards=4)
    assert report.last_seq == tip
    assert report.snapshot_seq == anchor_seq
    assert report.replayed_batches == tip - anchor_seq
    assert promoted.bank.n_shards == 4
    assert promoted.events_submitted == TOTAL_EVENTS
    assert promoted.metrics() == primary_metrics
    assert promoted.metrics() == run_reactive(
        trace.slice(0, TOTAL_EVENTS), scaled_config()).metrics

    # The promoted primary composes: it accepts new work and keeps
    # logging into the (previously follower-owned) WAL directory, and
    # the continued run matches an offline run of the whole workload.
    async def extend():
        async with promoted:
            await feed_trace(promoted, trace, batch_events=BATCH_EVENTS)
            await promoted.drain()
            return promoted.metrics()

    assert asyncio.run(extend()) == run_reactive(trace,
                                                 scaled_config()).metrics
    assert promoted.last_seq > tip
    assert WalReader(tmp_path / "fwal").last_seq() == promoted.last_seq


def _poll(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_follower_status_reports_detector_health(tmp_path):
    # The follower runs its own misspeculation detector over the
    # replicated stream; its verdict rides the status document even
    # before any connection is made.
    follower = _follower(tmp_path)
    status = follower.status()
    assert status["health"] == "ok"
    assert status["peak_health"] == "ok"
    assert status["connected"] is False


def test_follower_rebuilt_from_a_snapshot_keeps_its_knobs(tmp_path):
    """A standby re-anchored on a shipped snapshot runs with the
    snapshot's tuning knobs (the committed v7 fixture's 40-branch
    tenant budget) on its own shard count, as promotion does."""
    from pathlib import Path

    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    follower = _follower(tmp_path)
    follower._install_snapshot(9, fixture.read_bytes())
    try:
        service = follower.service
        assert service.bank.n_shards == 3
        assert service.service_config.tenant_resident_bytes == 20_480
        assert service.tenant_stats()["resident_budget"] == 20_480
    finally:
        follower.seal()


def test_follower_holds_its_snapshot_budget(tmp_path):
    """A standby re-anchored on the v7 fixture spills and restores
    tenants as it applies the stream, so its resident set stays within
    the snapshot's 40-branch budget after every batch; promotion then
    returns the replica's resident and spilled states and tenant
    stats."""
    from pathlib import Path

    from repro.trace.synthetic import with_tenants

    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    follower = _follower(tmp_path)
    follower._install_snapshot(9, fixture.read_bytes())
    trace = with_tenants(load_trace("gzip", length=60_000), 16, seed=7)
    try:
        replica = follower.service
        for batch in iter_trace_batches(trace, 1024):
            follower._apply_one(batch)  # seq <= 9: covered, skipped
            assert replica.tenant_stats()["resident_bytes"] <= 20_480
        assert replica.last_seq == 58
        assert replica.tenant_stats()["spills"] > 0
        # Promotion closes the replica's spill store: read it first.
        replica_states = model_states(replica)
        promoted, report = promote_follower(follower)
        assert report.replayed_batches == 49
        assert promoted.tenant_stats() == replica.tenant_stats()
        assert model_states(promoted) == replica_states
        promoted.close()
    finally:
        follower.seal()


def test_reanchor_closes_the_discarded_replica(tmp_path):
    """Each re-anchor discards the replica service it replaces: its
    spill store is closed and its managed spill directory removed, as
    its WAL writer is; sealing closes the live replica the same way."""
    from pathlib import Path

    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    follower = _follower(tmp_path)
    try:
        follower._install_snapshot(9, fixture.read_bytes())
        first = follower.service
        store = first._tenants._store
        assert store.directory.is_dir()
        follower._install_snapshot(9, fixture.read_bytes())
        assert follower.service is not first
        assert store._writer.closed and store._reader.closed
        assert not store.directory.exists()
        assert first._wal._closed
        second = follower.service._tenants._store
    finally:
        follower.seal()
    assert second._writer.closed and not second.directory.exists()
