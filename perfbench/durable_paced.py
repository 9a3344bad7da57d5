"""durable-paced: an open loop into one worker process behind a WAL.

One SPEC trace (``vortex``) is offered at a fixed rate in 4096-event
batches whose due times are fixed before the pass starts.  The service
runs one worker process (``n_shards=1, workers=1``) and a write-ahead
log with group commit (``wal_fsync="batch"``) on the checkout's disk.
Queues stay shallow and coalescing stays near ``min_batch_events``, so
per-batch fixed costs dominate — WAL append and commit, wire encode and
decode, ``absorb`` — the opposite use of ``serve.service`` and
``serve.shard`` from spec-replay.  After each submit the generator
times a block of ``should_speculate`` calls, the way a JIT polls the
code it deployed, so a read path runs beside the writes.

The offered rate is about a third of this configuration's saturation;
nearer saturation the median latency does not repeat (README.md).
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from collections import deque

from harness import CpuClock, Pass, low_quartile, median, quantile
from repro.serve.events import iter_trace_batches
from repro.serve.service import (
    BackpressureError,
    ServiceConfig,
    SpeculationService,
)
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import load_trace

MODEL = "vortex"
#: Offered load, events per second.
RATE = 500_000
BATCH_EVENTS = 4096
#: Batches pushed unpaced through each new service and drained before
#: the schedule starts; their latencies are never recorded.
WARMUP_BATCHES = 64
#: ``should_speculate`` calls timed as one block after each submit (one
#: call is too short for the timer).
READ_BLOCK = 128
#: Completion watcher polling interval, seconds.
POLL_S = 0.0005
#: Set-ups timed per run (``setup_s`` is their median).
SETUPS = 3
#: Backpressure retries of one batch before it counts as failed.
MAX_RETRIES = 1000
#: Length of the schedule's windows whose CPU cost per event is read;
#: ``cpu_us_per_event`` is the first quartile over the run's windows.
WINDOW_S = 1.0


async def _submit(service, batch) -> int:
    """Submit one batch, retrying on backpressure; returns the number
    of rejections absorbed."""
    rejections = 0
    while True:
        try:
            service.submit_nowait(batch)
            return rejections
        except BackpressureError as bp:
            rejections += 1
            if rejections > MAX_RETRIES:
                raise
            await asyncio.sleep(min(bp.retry_after, 0.01))


async def _open(trace, wal_dir):
    """Build and start the service (spawning its worker), then push the
    warm-up batches through until they are applied and durable."""
    service = SpeculationService(service_config=ServiceConfig(
        n_shards=1, workers=1, wal_dir=wal_dir, wal_fsync="batch"))
    await service.start()
    try:
        for batch in iter_trace_batches(
                trace, BATCH_EVENTS,
                max_events=WARMUP_BATCHES * BATCH_EVENTS):
            await _submit(service, batch)
        await service.drain()
        while service.last_durable_seq < service.last_seq:
            await asyncio.sleep(POLL_S)
    except BaseException:
        await service.stop(drain=False)
        raise
    return service


def setup(args, work, res):
    """Generate the trace (``--seconds`` of schedule after the warm-up;
    ``trace_seed`` is the benchmark seed) and open a service on it."""
    length = WARMUP_BATCHES * BATCH_EVENTS + RATE * args.seconds
    times = []

    async def set_up_repeatedly():
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            trace = load_trace(MODEL, length=length, trace_seed=args.seed)
            service = await _open(trace, tempfile.mkdtemp(dir=work))
            times.append(time.perf_counter() - t0)
            await service.stop()
        return trace

    trace = asyncio.run(set_up_repeatedly())
    return (trace, run_reactive(trace).metrics), times


def measure(state, args, work, res, record, single):
    trace, reference = state
    return asyncio.run(_paced(trace, reference, tempfile.mkdtemp(dir=work),
                              args, res, record))


async def _paced(trace, reference, wal_dir, args, res, record):
    service = await _open(trace, wal_dir)
    res.attempted += WARMUP_BATCHES
    batches = list(iter_trace_batches(trace, BATCH_EVENTS))[WARMUP_BATCHES:]
    read_pcs = [batch.pcs[:READ_BLOCK].tolist() for batch in batches]
    #: (seq, cumulative applied-event target, due time) per batch
    #: submitted and not yet seen applied and durable.
    pending = deque()
    latencies, lateness, reads = [], [], []
    polls = [0, 0.0]  # count, seconds spent in the poll body
    generated = asyncio.Event()

    async def watch():
        bank = service.bank
        while True:
            t = time.perf_counter()
            applied = sum(bank.shard_event_counts())
            durable = service.last_durable_seq
            while (pending and pending[0][1] <= applied
                   and pending[0][0] <= durable):
                latencies.append(t - pending.popleft()[2])
            polls[0] += 1
            polls[1] += time.perf_counter() - t
            if generated.is_set() and not pending:
                return
            await asyncio.sleep(POLL_S)

    rejections = 0
    target = sum(service.bank.shard_event_counts())
    window = max(1, round(WINDOW_S * RATE / BATCH_EVENTS))
    #: (CPU seconds, events submitted) at the start of each window.
    marks = []
    should = service.should_speculate
    cpu = CpuClock(service.worker_pids)
    start = time.perf_counter() + 0.005
    with record():
        watcher = asyncio.create_task(watch())
        try:
            for i, batch in enumerate(batches):
                due = start + i * BATCH_EVENTS / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                if i % window == 0:
                    marks.append((cpu.elapsed(), target))
                res.attempted += 1
                rejections += await _submit(service, batch)
                target += batch.n_events
                pending.append((batch.seq, target, due))
                pcs = read_pcs[i]
                t = time.perf_counter()
                for pc in pcs:
                    should(pc)
                reads.append((time.perf_counter() - t) / len(pcs))
        except BackpressureError as err:
            res.check("every batch accepted", False, str(err))
        finally:
            generated.set()
        try:
            await asyncio.wait_for(watcher, timeout=args.seconds + 30)
        except asyncio.TimeoutError:
            res.check("every batch applied and durable", False,
                      f"{len(pending)} batches never completed")
    wall = time.perf_counter() - start
    cpu_s = cpu.elapsed()
    commit_records = service.reading().wal_mean_commit_records
    await service.stop()
    res.check("metrics match run_reactive", service.metrics() == reference,
              f"{service.metrics()} != {reference}")
    events = sum(batch.n_events for batch in batches)
    if len(marks) < 2:
        raise RuntimeError(f"the schedule is shorter than {WINDOW_S} s")
    window_us = low_quartile([(c1 - c0) / (e1 - e0) * 1e6
                              for (c0, e0), (c1, e1) in zip(marks, marks[1:])])
    ms = 1e3
    figures = {
        "latency_p50_ms": (median(latencies) * ms, "ms"),
        "latency_p99_ms": (quantile(latencies, 0.99) * ms, "ms"),
        "decision_read_us": (median(reads) * 1e6, "us"),
        "gen.late_p50_ms": (median(lateness) * ms, "ms"),
        "gen.late_p99_ms": (quantile(lateness, 0.99) * ms, "ms"),
        "watch.poll_us": (polls[1] / polls[0] * 1e6, "us"),
    }
    extra = {name: value for name, (value, _unit) in figures.items()}
    extra["wal.records_per_commit"] = commit_records
    figures.update({
        "latency_samples": (len(latencies), "batches"),
        "watch.polls": (polls[0], "count"),
        "watch.cpu_share": (polls[1] / wall, "fraction"),
        "rejections": (rejections, "count"),
        "offered_events": (events, "events"),
        "cpu_windows": (len(marks) - 1, "count"),
        "cpu_us_per_event_all": (cpu_s / events * 1e6, "us"),
    })
    return Pass(wall=wall, cpu_us_per_event=window_us, basis=cpu_s,
                figures=figures, extra=extra)
