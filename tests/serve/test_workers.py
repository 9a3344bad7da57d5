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
import dataclasses
import gzip
import itertools
import json
import os
import signal
import socket
from pathlib import Path

import numpy as np
import pytest

from repro.serve import wire, workers
from repro.serve.client import feed_trace
from repro.serve.events import EventBatch, iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.shard import BankShard, ShardApplyResult, ShardedBank
from repro.serve.snapshot import load_snapshot
from repro.serve.workers import WorkerDiedError, WorkerPool
from repro.sim.runner import run_reactive
from tests.conftest import model_states, ring_arcs

#: Seconds a failure test waits for ``drain()`` before calling it hung.
_HANG_S = 10.0


def _offline(trace, config):
    return run_reactive(trace, config).metrics


def _assert_same_outcome(got, want):
    """Two apply results agree on everything the batch decided (not on
    timing, and not on the shard's instruction high-water mark)."""
    timing = {"shard", "last_instr", "apply_seconds", "t_recv", "t_done"}
    for f in dataclasses.fields(ShardApplyResult):
        if f.name in timing:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def _random_batch(n, n_keys, seed):
    """``n`` events over ``n_keys`` random packed tenant keys: varied
    keys make the shard's state compress badly, so its STATE frame is
    large."""
    rng = np.random.default_rng(seed)
    pool = ((rng.integers(0, 1 << 16, n_keys) << 32)
            | rng.integers(0, 1 << 31, n_keys))
    return (pool[rng.integers(0, n_keys, n)], rng.random(n) < 0.9,
            np.cumsum(rng.integers(1, 9, n)))


#: Spills tenants 0-2; a tenant-0 batch past its last seq (9) restores
#: tenant 0 ahead of its events.
_V7_FIXTURE = Path(__file__).parent / "data" / "snapshot-v7.json.gz"


def _poisoned_snapshot(tmp_path) -> Path:
    """The v7 fixture with one of spilled tenant 0's controllers
    queueing three deployments, which no row can hold."""
    with gzip.open(_V7_FIXTURE, "rt") as fh:
        state = json.load(fh)
    state["tenants"]["spilled"]["0"][0]["pending"] = [
        [1, True, True], [2, False, True], [3, True, True]]
    path = tmp_path / "poisoned.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(state, fh)
    return path


def _tenant0_batch(seq: int) -> EventBatch:
    n = 64
    return EventBatch(seq=seq, pcs=np.arange(n, dtype=np.int32) % 8,
                      taken=np.ones(n, dtype=bool),
                      instrs=np.arange(n, dtype=np.int64) + 10**9,
                      tenants=np.zeros(n, dtype=np.uint32))


def test_multiprocess_matches_offline(bench_trace, bench_config):
    """Worker processes produce metrics identical to run_reactive, and
    the parent's mirrored decision cache matches an in-process run."""

    async def multiprocess():
        scfg = ServiceConfig(n_shards=2, workers=2)
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
    in-process, resharded in-process, and onto a different worker
    count: the same metrics and final states as an uninterrupted run,
    and, with the arcs captured before the snapshot, the same arcs."""
    snap = tmp_path / "mid.json.gz"

    async def first_half():
        scfg = ServiceConfig(n_shards=2, workers=2)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=30_720)
            await service.snapshot(snap)
            assert service.last_durable_seq == service.last_seq
            return ring_arcs(service)

    async def finish(service):
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            await service.stop()
            return (service.metrics(), model_states(service),
                    ring_arcs(service))

    first_arcs = asyncio.run(first_half())
    metrics, states, arcs = asyncio.run(finish(SpeculationService(
        bench_config, ServiceConfig(n_shards=2))))
    assert metrics == _offline(bench_trace, bench_config)
    assert arcs
    for restore_kwargs in ({},                 # in-process
                           {"n_shards": 3},    # reshard
                           {"workers": 3}):    # 3 workers
        got = asyncio.run(finish(load_snapshot(snap, **restore_kwargs)))
        assert got[:2] == (metrics, states), restore_kwargs
        assert sorted(first_arcs + got[2]) == arcs, restore_kwargs


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
        total = sum(len(s.export_state().rows)
                    for s in service.bank.shards)
        assert total == len(set(map(int, bench_trace.branch_ids)))
        return service.metrics()

    assert asyncio.run(run()) == _offline(bench_trace, bench_config)


def test_kill9_worker_reports_last_durable_seq_and_restores(
        tmp_path, bench_trace, bench_config):
    """kill -9 mid-trace: the supervisor must detect the closed link,
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
    # (and any accepted in the window before the closed link surfaced).
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


def test_failed_send_leaves_no_unretrieved_future(bench_config):
    """A send on a link whose worker end is closed fails every pending
    call, the sending call's own future included; that call raises the
    error itself, so its future must not later report an error nobody
    saw ("Future exception was never retrieved")."""
    import gc
    import logging
    import socket

    import numpy as np

    from repro.serve.shard import ShardedBank
    from repro.serve.workers import WorkerPool, _WorkerHandle

    class Collect(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    async def run():
        pool = WorkerPool(ShardedBank(bench_config, 1))
        handle = _WorkerHandle(0, asyncio.get_running_loop())
        handle.hello.set_result(4242)   # a started worker said hello
        handle.sock, worker_end = socket.socketpair()
        worker_end.close()              # ... and is gone
        await handle.connect()
        pool.handles = [handle]
        with pytest.raises(WorkerDiedError):
            await pool.apply(0, np.zeros(1, np.int32), np.zeros(1, bool),
                             np.zeros(1, np.int64))
        handle.writer.close()

    collect = Collect()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(collect)
    try:
        asyncio.run(run())
        gc.collect()
    finally:
        asyncio_log.removeHandler(collect)
    assert not [m for m in collect.messages if "never retrieved" in m]


def test_poisoned_spilled_tenant_is_refused_at_load(tmp_path):
    """A snapshot whose spilled tenant holds a state no row can hold is
    refused when it loads, naming the branch, before any shard sees
    it."""
    with pytest.raises(ValueError,
                       match="branch 0: 3 pending deployments"):
        load_snapshot(_poisoned_snapshot(tmp_path))


def test_failed_restore_fails_drain_in_process(monkeypatch):
    """A shard operation that raises in-process (a restore the shard
    refuses) fails drain() and later submissions with its own error
    instead of leaving drain() waiting."""

    def refuse(shard, rows):
        raise ValueError(f"shard {shard.index} refuses {len(rows)} rows")

    monkeypatch.setattr(BankShard, "restore_tenant", refuse)

    async def run():
        service = load_snapshot(_V7_FIXTURE)
        async with service:
            service.submit_nowait(_tenant0_batch(10))
            with pytest.raises(ValueError, match="refuses .* rows"):
                await asyncio.wait_for(service.drain(), _HANG_S)
            with pytest.raises(ValueError, match="refuses .* rows"):
                service.submit_nowait(_tenant0_batch(11))

    asyncio.run(run())


def test_worker_error_frame_fails_drain(monkeypatch):
    """A worker that reports an error (ERROR) and leaves its loop breaks
    the link: drain() raises WorkerDiedError naming the shard and pid
    and carrying the worker's message.  Here the parent sends a
    TRESTORE whose row block the worker cannot decode."""
    encode = wire.encode_trestore

    def undecodable(ticket, rows):
        frame = encode(ticket, rows)
        head = len(frame) - len(rows.to_bytes())
        return frame[:head] + b"\xff" * (len(frame) - head)

    monkeypatch.setattr(wire, "encode_trestore", undecodable)

    async def run():
        service = load_snapshot(_V7_FIXTURE, workers=1)
        async with service:
            pid = service.worker_pids[0]
            service.submit_nowait(_tenant0_batch(10))
            with pytest.raises(WorkerDiedError) as excinfo:
                await asyncio.wait_for(service.drain(), _HANG_S)
            return pid, excinfo.value

    pid, err = asyncio.run(run())
    assert (err.shard, err.pid) == (0, pid)
    assert f"shard worker 0 (pid {pid}) died" in str(err)
    assert ("it reported ProtocolError: TRESTORE frame body: row block "
            "is not zlib data") in str(err)
    assert err.last_durable_seq == 9


def test_undecodable_reply_fails_drain(monkeypatch, bench_trace,
                                       bench_config):
    """An APPLY_RESULT the parent cannot decode breaks the link:
    drain() raises WorkerDiedError carrying the decode error."""
    truncated = {wire.APPLY_RESULT: lambda payload, shard:
                 wire.decode_apply_result(payload[:-1], shard)}
    monkeypatch.setattr(workers, "_REPLIES",
                        {**workers._REPLIES, **truncated})

    async def run():
        scfg = ServiceConfig(n_shards=1, workers=1)
        async with SpeculationService(bench_config, scfg) as service:
            pid = service.worker_pids[0]
            with pytest.raises(WorkerDiedError) as excinfo:
                await feed_trace(service, bench_trace, batch_events=1024,
                                 max_events=4096)
                await asyncio.wait_for(service.drain(), _HANG_S)
            return pid, excinfo.value

    pid, err = asyncio.run(run())
    assert (err.shard, err.pid) == (0, pid)
    assert "did not decode" in str(err)
    assert "ProtocolError: APPLY_RESULT frame" in str(err)


def test_frames_larger_than_the_socket_buffer(bench_config):
    """An APPLY of 200k events and the STATE reply of the shard it
    builds are each several times the link's send buffer; both cross
    whole, and the worker's result and state equal an in-process
    shard's bit for bit."""
    keys, taken, instrs = _random_batch(200_000, 200_000, seed=5)
    local = BankShard(0, bench_config)
    local.capture = True
    want = local.apply(keys, taken, instrs)

    async def run():
        pool = WorkerPool(ShardedBank(bench_config, 1), capture=True)
        await pool.start()
        try:
            sndbuf = pool.handles[0].writer.get_extra_info(
                "socket").getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            got = await pool.apply(0, keys, taken, instrs)
            (state,) = await pool.collect_states()
        finally:
            await pool.shutdown()
        return sndbuf, got, state

    sndbuf, got, state = asyncio.run(run())
    assert len(wire.encode_apply(0, keys, taken, instrs)) > 4 * sndbuf
    assert len(wire.encode_state(0, state)) > 4 * sndbuf
    _assert_same_outcome(got, want)
    assert got.last_instr == want.last_instr
    assert state == local.export_state()


def test_concurrent_callers_get_their_own_replies(bench_config):
    """Applies, barriers and a state collection gathered on one worker
    at once: each caller gets the reply to its own ticket.  The batches
    touch disjoint keys, so each result matches an in-process shard's
    whatever order the worker ran them in."""
    sizes = (3000, 500, 4096, 1200)
    batches = []
    for i, n in enumerate(sizes):
        keys, taken, instrs = _random_batch(n, 200, seed=i)
        batches.append((keys | (i << 48), taken, instrs))
    local = BankShard(0, bench_config)
    local.capture = True
    wants = [local.apply(*batch) for batch in batches]

    async def run():
        pool = WorkerPool(ShardedBank(bench_config, 1), capture=True)
        await pool.start()
        try:
            replies = await asyncio.gather(
                pool.apply(0, *batches[0]), pool.barrier(),
                pool.apply(0, *batches[1]), pool.collect_states(),
                pool.apply(0, *batches[2]), pool.barrier(),
                pool.apply(0, *batches[3]))
            (final,) = await pool.collect_states()
        finally:
            await pool.shutdown()
        return replies, final

    replies, final = asyncio.run(run())
    applied = [replies[0], replies[2], replies[4], replies[6]]
    for got, want in zip(applied, wants):
        _assert_same_outcome(got, want)
    assert replies[1] is None and replies[5] is None
    (mid,) = replies[3]
    assert mid.index == 0
    assert mid.events_applied in {
        sum(subset) for r in range(len(sizes) + 1)
        for subset in itertools.combinations(sizes, r)}
    assert final == local.export_state()


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
    with pytest.raises(ValueError, match="non-negative"):
        ServiceConfig(workers=-1)
