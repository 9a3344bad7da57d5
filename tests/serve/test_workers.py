"""Per-shard worker processes: exactness, snapshots, and crash safety.

These tests drive real OS processes over the binary wire protocol and
hold them to the same load-bearing invariant as the in-process path:
bit-identical ``SpeculationMetrics`` against the offline engine, and
snapshots that restore interchangeably across execution modes and
worker counts.  The kill -9 test is the acceptance scenario for the
failure model: a worker that vanishes mid-trace must surface as a
clean :class:`WorkerDiedError` naming the last durable sequence
number, and restoring the last snapshot must reproduce the
uninterrupted run exactly.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.serve.client import feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.snapshot import load_snapshot
from repro.serve.workers import WorkerDiedError
from repro.sim.runner import run_reactive


def _offline(trace, config):
    return run_reactive(trace, config).metrics


@pytest.mark.parametrize("transport", ["pipe", "socket"])
def test_multiprocess_matches_offline(bench_trace, bench_config, transport):
    """Both transports produce metrics identical to run_reactive, and
    the parent's mirrored decision cache matches an in-process run."""

    async def multiprocess():
        scfg = ServiceConfig(n_shards=2, workers=2, transport=transport)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=2048)
            await service.drain()
            assert all(pid is not None for pid in service.worker_pids)
            decisions = {int(pc): service.should_speculate(int(pc))
                         for pc in set(bench_trace.branch_ids[:2000])}
            return service.metrics(), decisions

    async def inprocess():
        async with SpeculationService(bench_config,
                                      ServiceConfig(n_shards=2)) as service:
            await feed_trace(service, bench_trace, batch_events=2048)
            await service.drain()
            return {int(pc): service.should_speculate(int(pc))
                    for pc in set(bench_trace.branch_ids[:2000])}

    metrics, decisions = asyncio.run(multiprocess())
    assert metrics == _offline(bench_trace, bench_config)
    assert decisions == asyncio.run(inprocess())


def test_snapshot_roundtrips_across_modes_and_worker_counts(
        tmp_path, bench_trace, bench_config):
    """A snapshot taken under worker processes restores bit-identically
    in-process, and onto a different worker count."""
    snap = tmp_path / "mid.json.gz"

    async def first_half():
        scfg = ServiceConfig(n_shards=2, workers=2)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=30_720)
            await service.snapshot(snap)
            assert service.last_durable_seq == service.last_seq

    async def second_half(**restore_kwargs):
        service = load_snapshot(snap, **restore_kwargs)
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    asyncio.run(first_half())
    offline = _offline(bench_trace, bench_config)
    assert asyncio.run(second_half()) == offline                 # in-process
    assert asyncio.run(second_half(workers=3)) == offline        # reshard
    assert asyncio.run(second_half(workers=2,
                                   transport="socket")) == offline


def test_clean_stop_regathers_worker_state(bench_trace, bench_config):
    """A drained stop pulls authoritative shard state back into the
    parent, so post-stop metrics and snapshots stay exact."""

    async def run():
        scfg = ServiceConfig(n_shards=2, workers=2)
        service = SpeculationService(bench_config, scfg)
        async with service:
            await feed_trace(service, bench_trace, batch_events=2048)
            await service.drain()
        # Workers are gone; the parent bank must be whole again.
        assert service.worker_pids == []
        total = sum(len(s.bank) for s in service.bank.shards)
        assert total == len(set(map(int, bench_trace.branch_ids)))
        return service.metrics()

    assert asyncio.run(run()) == _offline(bench_trace, bench_config)


def test_kill9_worker_reports_last_durable_seq_and_restores(
        tmp_path, bench_trace, bench_config):
    """kill -9 mid-trace: the supervisor must detect the dead pipe,
    raise a clean error carrying the last durable seq, and a restore
    from the last snapshot must reproduce the uninterrupted metrics."""
    snap = tmp_path / "durable.json.gz"

    async def run_until_killed():
        scfg = ServiceConfig(n_shards=2, workers=2, queue_events=8192)
        service = SpeculationService(bench_config, scfg)
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=20_480)
            await service.snapshot(snap)
            durable_seq = service.last_seq
            victim = service.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(WorkerDiedError) as excinfo:
                await feed_trace(service, bench_trace, batch_events=1024)
                await service.drain()
            return durable_seq, excinfo.value

    durable_seq, err = asyncio.run(run_until_killed())
    assert err.shard == 0
    assert err.last_durable_seq == durable_seq
    assert f"last durable seq {durable_seq}" in str(err)
    assert f"seq {durable_seq + 1}" in str(err)

    async def restore_and_finish():
        service = load_snapshot(snap, workers=2)
        assert service.last_seq == durable_seq
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    assert (asyncio.run(restore_and_finish())
            == _offline(bench_trace, bench_config))


def test_kill9_with_wal_recovers_every_accepted_batch(
        tmp_path, bench_trace, bench_config):
    """With a WAL attached, a worker death costs *nothing*: the error
    names the exact recovery command, and snapshot + WAL tail recovers
    every batch accepted before the kill — not just the snapshot-
    covered prefix the WAL-less path falls back to."""
    from repro.wal.recovery import recover_service

    wal_dir = tmp_path / "wal"
    snap = tmp_path / "durable.json.gz"

    async def run_until_killed():
        scfg = ServiceConfig(n_shards=2, workers=2, queue_events=8192,
                             wal_dir=str(wal_dir), wal_fsync="always")
        service = SpeculationService(bench_config, scfg)
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=20_480)
            await service.snapshot(snap)
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=30_720)
            await service.drain()
            accepted_seq = service.last_seq
            os.kill(service.worker_pids[0], signal.SIGKILL)
            with pytest.raises(WorkerDiedError) as excinfo:
                await feed_trace(service, bench_trace, batch_events=1024)
                await service.drain()
            return accepted_seq, excinfo.value

    accepted_seq, err = asyncio.run(run_until_killed())
    snap_seq = 20_480 // 1024 - 1
    # The WAL shifts last_durable_seq from snapshot-covered to fsynced:
    # every accepted batch is durable, including the post-snapshot ones
    # (and any accepted in the window before the dead pipe surfaced).
    assert err.last_durable_seq >= accepted_seq > snap_seq
    assert err.wal_dir == str(wal_dir)
    assert err.snapshot_path == snap
    assert (f"python -m repro.wal replay --wal-dir {wal_dir} "
            f"--snapshot {snap}") in str(err)

    service, report = recover_service(wal_dir, snapshot=snap, workers=2)
    assert report.last_seq == err.last_durable_seq
    assert report.replayed_batches == report.last_seq - snap_seq

    async def finish():
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    assert asyncio.run(finish()) == _offline(bench_trace, bench_config)


def test_fatal_service_refuses_submissions_and_snapshots(
        bench_trace, bench_config):
    """After a worker death the service stays failed: submissions raise
    the latched error and a snapshot cannot silently cover lost state."""

    async def run():
        scfg = ServiceConfig(n_shards=2, workers=2)
        service = SpeculationService(bench_config, scfg)
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=10_240)
            await service.drain()
            os.kill(service.worker_pids[1], signal.SIGKILL)
            with pytest.raises(WorkerDiedError):
                await feed_trace(service, bench_trace, batch_events=1024)
                await service.drain()
            with pytest.raises(WorkerDiedError):
                service.submit_nowait(next(iter_trace_batches(
                    bench_trace, 256, start_seq=99_999)))
        with pytest.raises(RuntimeError):
            await service.snapshot("/tmp/never-written.json.gz")

    asyncio.run(run())


def test_failed_worker_spawn_raises_its_own_error(monkeypatch,
                                                 bench_config):
    """A worker process that cannot be spawned fails start() with the
    spawn's own error, and leaves no child process behind."""
    import errno
    import multiprocessing
    import time

    from repro.serve import workers

    real_get_context = multiprocessing.get_context

    class FlakyContext:
        """Spawn context whose second worker process fails to start."""

        def __init__(self, ctx):
            self._ctx = ctx

        def __getattr__(self, name):
            return getattr(self._ctx, name)

        def Process(self, *args, **kwargs):
            proc = self._ctx.Process(*args, **kwargs)
            if proc.name.endswith("-1"):
                def start():
                    raise OSError(errno.EMFILE, "Too many open files")
                proc.start = start
            return proc

    monkeypatch.setattr(
        workers.multiprocessing, "get_context",
        lambda method=None: FlakyContext(real_get_context(method)))

    async def run():
        service = SpeculationService(bench_config,
                                     ServiceConfig(n_shards=2, workers=2))
        with pytest.raises(OSError) as excinfo:
            await service.start()
        assert excinfo.value.errno == errno.EMFILE
        assert service.worker_pids == []

    asyncio.run(run())
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def test_service_config_validates_worker_mode():
    with pytest.raises(ValueError, match="one worker process per shard"):
        ServiceConfig(n_shards=4, workers=2)
    with pytest.raises(ValueError, match="transport"):
        ServiceConfig(n_shards=2, workers=2, transport="carrier-pigeon")
    with pytest.raises(ValueError, match="non-negative"):
        ServiceConfig(workers=-1)
