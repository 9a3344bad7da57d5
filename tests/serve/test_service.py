"""The asyncio service: equivalence, backpressure, sequencing."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.events import iter_trace_batches
from repro.serve.client import feed_trace
from repro.serve.service import (
    BackpressureError,
    SequenceError,
    ServiceConfig,
    SpeculationService,
)
from repro.sim.runner import run_reactive


def test_service_config_validation():
    for bad in (dict(n_shards=0), dict(queue_events=0),
                dict(snapshot_interval_events=0, snapshot_dir="/tmp/x"),
                dict(snapshot_interval_events=100)):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_service_matches_offline_engine(bench_trace, bench_config, n_shards):
    """The acceptance property: service-mode == run_reactive, exactly."""

    async def run():
        scfg = ServiceConfig(n_shards=n_shards)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace)
            await service.drain()
            return service.metrics()

    metrics = asyncio.run(run())
    assert metrics == run_reactive(bench_trace, bench_config).metrics


def test_backpressure_rejects_then_drains(bench_trace, bench_config):
    """Overflowing a stopped service rejects atomically; once workers
    start, queues drain and the final state is complete and exact."""

    async def run():
        scfg = ServiceConfig(n_shards=2, queue_events=2048)
        service = SpeculationService(bench_config, scfg)
        batches = list(iter_trace_batches(bench_trace, 512))
        rejected_at = None
        accepted = 0
        # Workers not started: the queue must fill and then reject.
        for i, batch in enumerate(batches):
            before = service.queued_events
            try:
                service.submit_nowait(batch)
            except BackpressureError as bp:
                rejected_at = i
                assert bp.retry_after > 0
                assert 0 <= bp.shard < 2
                # All-or-nothing: the rejected batch left no partial
                # enqueue behind.
                assert service.queued_events == before
                assert service.last_seq == batches[i - 1].seq
                break
            accepted += 1
        assert rejected_at is not None, "queue never filled"
        assert service.queued_events <= scfg.queue_events * 2

        # Start workers; the rejected batch resubmits with the SAME
        # seq (idempotent retry), then the rest flows under
        # backpressure via the retrying client.
        await service.start()
        await feed_trace(service, bench_trace, batch_events=512)
        await service.drain()
        assert service.queued_events == 0
        metrics = service.metrics()
        await service.stop()
        return metrics

    metrics = asyncio.run(run())
    assert metrics == run_reactive(bench_trace, bench_config).metrics


def test_queued_burst_is_applied_in_one_call(bench_trace, bench_config):
    """Whole-queue applies: every partition queued while a shard's
    worker waits goes to the shard in one apply, however many batches
    it came from; a tenant job is the only fence."""

    async def run():
        scfg = ServiceConfig(n_shards=2)
        async with SpeculationService(bench_config, scfg) as service:
            calls = []
            apply = service._pool.apply

            async def counted(shard, pcs, taken, instrs):
                calls.append((shard, len(pcs)))
                return await apply(shard, pcs, taken, instrs)

            service._pool.apply = counted
            batches = list(iter_trace_batches(bench_trace, 1024))[:12]
            for batch in batches:       # no yield: all twelve queue up
                service.submit_nowait(batch)
            routed = [service._queued_events[i] for i in range(2)]
            await service.drain()
            return calls, routed, service.metrics().dynamic_branches

    calls, routed, applied = asyncio.run(run())
    assert sorted(calls) == [(0, routed[0]), (1, routed[1])]
    assert applied == 12 * 1024


def test_sequence_errors(bench_trace, bench_config):
    async def run():
        async with SpeculationService(bench_config) as service:
            batches = list(iter_trace_batches(bench_trace, 1024,
                                              max_events=3072))
            await service.submit(batches[0])
            with pytest.raises(SequenceError):
                await service.submit(batches[0])  # replayed seq
            await service.submit(batches[1])
            with pytest.raises(SequenceError):
                service.submit_nowait(batches[0])  # stale seq
            await service.submit(batches[2])
            await service.drain()
            assert service.last_seq == batches[2].seq
            assert service.events_submitted == 3072

    asyncio.run(run())


def test_oversized_partition_is_a_usage_error(bench_trace, bench_config):
    """A batch bigger than a whole shard queue can never be accepted —
    that must surface as ValueError, not as an unretryable reject."""

    async def run():
        scfg = ServiceConfig(n_shards=1, queue_events=256)
        service = SpeculationService(bench_config, scfg)
        batch = next(iter_trace_batches(bench_trace, 1024))
        with pytest.raises(ValueError, match="queue capacity"):
            service.submit_nowait(batch)

    asyncio.run(run())


def test_bank_shard_count_must_match_config(bench_config):
    from repro.serve.shard import ShardedBank

    bank = ShardedBank(bench_config, 3)
    with pytest.raises(ValueError, match="shards"):
        SpeculationService(service_config=ServiceConfig(n_shards=4),
                           bank=bank)


def test_telemetry_reading_is_populated(bench_trace, bench_config):
    async def run():
        scfg = ServiceConfig(n_shards=4, queue_events=4096)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=512)
            await service.drain()
            return service.reading(), service.metrics()

    reading, metrics = asyncio.run(run())
    assert reading.events_applied == len(bench_trace)
    assert sum(reading.shard_events) == len(bench_trace)
    assert reading.batches_applied > 0
    assert reading.mean_batch_events > 0
    assert reading.drain_rate > 0
    assert reading.shard_skew >= 1.0
    # Queues were bounded the whole way.
    assert max(reading.queue_high_water) <= 4096
    assert reading.queue_depths == (0, 0, 0, 0)
    # Windowed rates agree with the merged totals on this short run.
    assert 0.0 <= reading.window_misspec_rate <= 1.0
    assert 0.0 <= reading.window_coverage <= 1.0
    assert metrics.dynamic_branches == len(bench_trace)
    assert "ev/s" in reading.summary()
