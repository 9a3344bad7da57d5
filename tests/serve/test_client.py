"""Client protocol: retries, stats, the replay driver, decisions."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import SpeculationClient, SubmitStats, feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import (
    BackpressureError,
    ServiceConfig,
    SpeculationService,
)


def test_submit_stats_merge():
    a = SubmitStats(batches=2, events=100, rejections=1, retry_wait=0.5)
    a.merge(SubmitStats(batches=1, events=50, rejections=2, retry_wait=0.25))
    assert (a.batches, a.events, a.rejections, a.retry_wait) \
        == (3, 150, 3, 0.75)


def test_client_retries_until_capacity(bench_trace, bench_config):
    """A rejected batch is retried with the same seq and eventually
    lands once a worker frees capacity."""

    async def run():
        scfg = ServiceConfig(n_shards=1, queue_events=1024)
        service = SpeculationService(bench_config, scfg)
        client = SpeculationClient(service)
        batches = list(iter_trace_batches(bench_trace, 512, max_events=2048))
        # Fill the queue with no workers running.
        await client.submit(batches[0])
        await client.submit(batches[1])
        with pytest.raises(BackpressureError):
            service.submit_nowait(batches[2])
        # Start workers while a retrying submit is waiting.
        retrying = asyncio.ensure_future(client.submit(batches[2]))
        await asyncio.sleep(0.005)
        assert not retrying.done()
        await service.start()
        rejections = await retrying
        assert rejections >= 1
        assert client.stats.rejections >= 1
        assert client.stats.retry_wait > 0
        await client.submit(batches[3])
        await service.drain()
        metrics = service.metrics()
        await service.stop()
        assert metrics.dynamic_branches == 2048
        assert service.last_seq == batches[3].seq

    asyncio.run(run())


def test_submit_burst_fills_queues_without_yielding(bench_trace,
                                                    bench_config):
    """Burst submission enqueues back-to-back; workers only run once
    backpressure (or an explicit await) lets them."""

    async def run():
        scfg = ServiceConfig(n_shards=2, queue_events=4096)
        async with SpeculationService(bench_config, scfg) as service:
            client = SpeculationClient(service)
            batches = list(iter_trace_batches(bench_trace, 1024,
                                              max_events=4096))
            for batch in batches:
                await client.submit_burst(batch)
            # No backpressure was hit, so no yield happened: every
            # event is still queued, none applied.
            assert service.queued_events == 4096
            assert service.metrics().dynamic_branches == 0
            await service.drain()
            assert service.metrics().dynamic_branches == 4096
            assert client.stats.batches == len(batches)

    asyncio.run(run())


def test_feed_trace_burst_matches_offline(bench_trace, bench_config):
    from repro.sim.runner import run_reactive

    async def run(burst):
        scfg = ServiceConfig(n_shards=4, queue_events=8192)
        async with SpeculationService(bench_config, scfg) as service:
            stats = await feed_trace(service, bench_trace,
                                     batch_events=1024, burst=burst)
            await service.drain()
            return service.metrics(), stats

    offline = run_reactive(bench_trace, bench_config).metrics
    burst_metrics, burst_stats = asyncio.run(run(True))
    polite_metrics, _ = asyncio.run(run(False))
    assert burst_metrics == offline
    assert polite_metrics == offline
    assert burst_stats.events == len(bench_trace)


def test_client_gives_up_after_max_retries(bench_trace, bench_config):
    async def run():
        scfg = ServiceConfig(n_shards=1, queue_events=512)
        service = SpeculationService(bench_config, scfg)  # never started
        client = SpeculationClient(service, max_retries=3)
        batches = list(iter_trace_batches(bench_trace, 512, max_events=1024))
        await client.submit(batches[0])
        with pytest.raises(BackpressureError):
            await client.submit(batches[1])

    asyncio.run(run())


def test_feed_trace_rate_and_progress(bench_trace, bench_config):
    async def run():
        calls = {"sync": 0, "async": 0}

        def on_progress():
            calls["sync"] += 1

        async def on_progress_async():
            calls["async"] += 1

        async with SpeculationService(bench_config) as service:
            stats = await feed_trace(service, bench_trace,
                                     batch_events=1024, max_events=8192,
                                     progress=on_progress,
                                     progress_every=2048)
            await feed_trace(service, bench_trace, batch_events=1024,
                             progress=on_progress_async,
                             progress_every=20_000)
            await service.drain()
            events = service.metrics().dynamic_branches
        assert stats.events == 8192
        assert stats.batches == 8
        assert calls["sync"] == 4
        assert calls["async"] >= 2
        assert events == len(bench_trace)

    asyncio.run(run())


def test_feed_trace_paced(bench_trace, bench_config):
    """With a rate cap the feeder takes at least events/rate seconds."""
    import time

    async def run():
        async with SpeculationService(bench_config) as service:
            started = time.monotonic()
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=4096, rate=100_000)
            elapsed = time.monotonic() - started
            await service.drain()
        return elapsed

    assert asyncio.run(run()) >= 4096 / 100_000 * 0.8


def test_should_speculate_passthrough(bench_trace, bench_config):
    async def run():
        async with SpeculationService(bench_config) as service:
            client = SpeculationClient(service)
            await feed_trace(service, bench_trace)
            await service.drain()
            deployed = [key for rows in (s.export_state().rows
                                         for s in service.bank.shards)
                        for key in rows.keys[rows.deployed].tolist()]
            assert deployed, "trace must deploy some branches"
            for pc in deployed[:10]:
                assert client.should_speculate(pc) is True
            assert client.should_speculate(10**9) is False

    asyncio.run(run())


def test_feed_trace_logs_skipped_batches_at_debug(bench_trace, bench_config,
                                                  caplog):
    """Resuming a feed past a seq watermark logs each skipped batch at
    DEBUG — silent skipping made observable without noise by default."""
    import logging

    async def run():
        async with SpeculationService(bench_config) as service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=4096)
            await service.drain()
            applied = service.metrics().dynamic_branches
            # Replay the same prefix: every batch is already covered.
            with caplog.at_level(logging.DEBUG, logger="repro.serve.client"):
                stats = await feed_trace(service, bench_trace,
                                         batch_events=1024,
                                         max_events=4096)
            await service.drain()
            assert service.metrics().dynamic_branches == applied
            return stats

    stats = asyncio.run(run())
    assert stats.batches == 0
    skipped = [r for r in caplog.records if "skipping batch" in r.message]
    assert len(skipped) == 4
    assert all(r.levelname == "DEBUG" for r in skipped)
    assert "seq watermark 3" in skipped[0].message
