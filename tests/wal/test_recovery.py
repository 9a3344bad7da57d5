"""The recovery contract: snapshot anchor + WAL tail == never crashed.

These tests run a real service with a WAL attached, "crash" it by
discarding the process state without a clean stop, and require the
recovered service to be bit-identical — same
:class:`SpeculationMetrics`, same deployed-code answers — to an
offline run over exactly the accepted prefix, *including the batches
accepted after the last snapshot*.  That tail is the part a
snapshot-only restore loses and the WAL exists to keep.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService
from repro.sim.runner import run_reactive
from repro.wal.recovery import recover_service, replay_into_service
from repro.wal.segment import list_segments
from tests.wal.conftest import make_batches

BATCH_EVENTS = 1024


def _offline(trace, config, n_events=None):
    if n_events is not None:
        trace = trace.slice(0, n_events)
    return run_reactive(trace, config).metrics


def _crash_after(trace, config, wal_dir, snap_path=None,
                 snapshot_at_events=20_480, total_events=40_960,
                 wal_fsync="batch"):
    """Feed ``total_events``, snapshotting mid-way; return the accepted
    seq watermark.  The service is *not* stopped — as in a crash, the
    only surviving state is what is in the WAL directory (and the
    snapshot, if taken)."""

    async def run():
        scfg = ServiceConfig(n_shards=2, wal_dir=str(wal_dir),
                             wal_fsync=wal_fsync)
        service = SpeculationService(config, scfg)
        await service.start()
        await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                         max_events=snapshot_at_events)
        if snap_path is not None:
            await service.snapshot(snap_path)
        await feed_trace(service, trace, batch_events=BATCH_EVENTS,
                         max_events=total_events)
        await service.drain()
        # Simulated kill -9: drop everything without stop(); only the
        # files it holds are released (what the WAL wrote is on disk).
        service.close()
        return service.last_seq

    return asyncio.run(run())


def test_recover_snapshot_plus_tail_is_bit_identical(tmp_path, bench_trace,
                                                     bench_config):
    wal_dir = tmp_path / "wal"
    snap = tmp_path / "mid.json.gz"
    last_seq = _crash_after(bench_trace, bench_config, wal_dir, snap)
    assert last_seq == 40_960 // BATCH_EVENTS - 1

    service, report = recover_service(wal_dir, snapshot=snap)
    assert report.snapshot == snap
    assert report.snapshot_seq == 20_480 // BATCH_EVENTS - 1
    assert report.replayed_batches == last_seq - report.snapshot_seq
    assert report.replayed_events == 40_960 - 20_480
    assert report.last_seq == last_seq
    assert report.torn_tail_bytes == 0
    # Bit-identical to a run that never crashed, over the exact
    # accepted prefix — events after the snapshot included.
    assert (service.metrics()
            == _offline(bench_trace, bench_config, 40_960))

    # The recovered service composes: keep feeding the remainder and
    # match the uninterrupted full run, while the attached WAL keeps
    # logging from the recovered watermark.
    async def finish():
        async with service:
            await feed_trace(service, bench_trace,
                             batch_events=BATCH_EVENTS)
            await service.drain()
            return service.metrics()

    assert asyncio.run(finish()) == _offline(bench_trace, bench_config)
    assert service.reading().wal_records_appended > 0


@pytest.mark.parametrize("workers,n_shards", [(0, 3), (2, None)])
def test_recovery_is_execution_shape_independent(tmp_path, bench_trace,
                                                 bench_config, workers,
                                                 n_shards):
    """A crash under one shard/worker layout recovers onto another."""
    wal_dir = tmp_path / "wal"
    snap = tmp_path / "mid.json.gz"
    _crash_after(bench_trace, bench_config, wal_dir, snap)

    service, report = recover_service(wal_dir, snapshot=snap,
                                      workers=workers, n_shards=n_shards)
    assert (service.metrics()
            == _offline(bench_trace, bench_config, 40_960))

    async def finish():
        async with service:
            await feed_trace(service, bench_trace,
                             batch_events=BATCH_EVENTS)
            await service.drain()
            return service.metrics()

    assert asyncio.run(finish()) == _offline(bench_trace, bench_config)


def test_recover_from_log_alone(tmp_path, bench_trace, bench_config):
    """A crash before the first checkpoint replays from sequence zero."""
    wal_dir = tmp_path / "wal"
    _crash_after(bench_trace, bench_config, wal_dir, snap_path=None)

    service, report = recover_service(wal_dir, config=bench_config)
    assert report.snapshot is None
    assert report.snapshot_seq == -1
    assert report.replayed_events == 40_960
    assert (service.metrics()
            == _offline(bench_trace, bench_config, 40_960))
    service.close()


def test_recover_truncates_and_reports_torn_tail(tmp_path, bench_trace,
                                                 bench_config):
    """A partial final record is dropped, counted, and not fatal."""
    wal_dir = tmp_path / "wal"
    snap = tmp_path / "mid.json.gz"
    _crash_after(bench_trace, bench_config, wal_dir, snap)
    newest = list_segments(wal_dir)[-1]
    with open(newest, "ab") as fh:
        fh.write(b"\x13" * 57)  # crash mid-append

    service, report = recover_service(wal_dir, snapshot=snap)
    service.close()
    assert report.torn_tail_bytes == 57
    assert (service.metrics()
            == _offline(bench_trace, bench_config, 40_960))
    # attach_wal repaired the file in place: recovery is idempotent.
    service2, report2 = recover_service(wal_dir, snapshot=snap)
    service2.close()
    assert report2.torn_tail_bytes == 0
    assert service2.metrics() == service.metrics()


def test_replay_requires_a_stopped_service(tmp_path, bench_config):
    wal_dir = tmp_path / "wal"
    scfg = ServiceConfig(n_shards=2, wal_dir=str(wal_dir), wal_fsync="off")

    async def run():
        service = SpeculationService(bench_config, scfg)
        async with service:
            for batch in make_batches(3, events=64):
                await service.submit(batch)
            await service.drain()
            with pytest.raises(RuntimeError, match="stopped"):
                replay_into_service(service, wal_dir)

    asyncio.run(run())


def test_apply_logged_refuses_a_running_service(bench_config):
    """The non-queued apply path (WAL replay, follower apply) would race
    a running service's shard loop."""
    async def run():
        async with SpeculationService(bench_config) as service:
            with pytest.raises(RuntimeError, match="stopped"):
                service.apply_logged(make_batches(1, events=64)[0])
            assert service.last_seq == -1

    asyncio.run(run())


def test_service_refuses_stale_wal_directory(tmp_path, bench_config):
    """A fresh service pointed at a directory holding a newer log must
    fail loudly on its first append, not silently fork history."""
    wal_dir = tmp_path / "wal"
    scfg = ServiceConfig(n_shards=2, wal_dir=str(wal_dir), wal_fsync="off")

    async def fill():
        service = SpeculationService(bench_config, scfg)
        async with service:
            for batch in make_batches(5, events=64):
                await service.submit(batch)
            await service.drain()

    asyncio.run(fill())

    async def reuse():
        service = SpeculationService(bench_config, scfg)
        async with service:
            with pytest.raises(ValueError, match="replay or remove"):
                service.submit_nowait(make_batches(1, events=64)[0])

    asyncio.run(reuse())


def test_point_in_time_recovery(tmp_path, bench_trace, bench_config):
    """``up_to_seq`` recovers the exact state at an older watermark —
    the primitive failover uses to audit a promoted standby against
    the dead primary's own log."""
    wal_dir = tmp_path / "wal"
    last_seq = _crash_after(bench_trace, bench_config, wal_dir,
                            snap_path=None)
    target = last_seq // 2
    service, report = recover_service(wal_dir, config=bench_config,
                                      attach_wal=False,
                                      up_to_seq=target)
    assert service.last_seq == target
    assert report.last_seq == target
    prefix = service.events_submitted
    assert prefix == (target + 1) * BATCH_EVENTS
    assert (service.metrics()
            == _offline(bench_trace, bench_config, prefix))


def test_point_in_time_requires_detached_wal(tmp_path, bench_config):
    with pytest.raises(ValueError, match="attach_wal=False"):
        recover_service(tmp_path, config=bench_config, up_to_seq=3)
