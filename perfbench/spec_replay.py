"""spec-replay: bulk ingestion of every SPEC model, closed loop.

All 12 ``BENCHMARK_NAMES`` models, a ``LENGTH``-event trace of each,
are each replayed with ``feed_trace(burst=True, batch_events=8192)``
into a fresh in-process ``SpeculationService`` with the shipped
defaults: 4 shards, columnar engine, obs, spans and detector on, no
WAL.  Deep queues and the most coalescing: ``serve.colpath`` and
``obs`` do the work; the WAL, the worker wire and ``tenant`` do none.
PC spread differs widely between the models, so a kernel change that
helps only wide or only narrow traffic shows here.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from harness import CpuClock, Pass, low_quartile, rounds
from repro.serve.client import feed_trace
from repro.serve.service import SpeculationService
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import BENCHMARK_NAMES, load_trace

BATCH_EVENTS = 8192
#: Events of each model's trace: short enough that a round of all 12
#: replays repeats about ten times in a run.
LENGTH = 262_144
#: Events of each model replayed into a throwaway service at set-up.
WARMUP_EVENTS = 65_536
#: Rounds of all 12 replays per run, at the least (one when ``single``).
MIN_ROUNDS = 3


async def _replay(trace, record):
    service = SpeculationService()
    await service.start()
    try:
        cpu = CpuClock()
        t0 = time.perf_counter()
        with record():
            stats = await feed_trace(service, trace,
                                     batch_events=BATCH_EVENTS, burst=True)
            await service.drain()
        wall = time.perf_counter() - t0
        cpu_s = cpu.elapsed()
    finally:
        await service.stop()
    return wall, cpu_s, stats.batches, service.metrics()


def setup(args, work, res):
    """One set-up per model: generate its trace (``trace_seed`` is the
    benchmark seed; ``base_seed`` stays fixed, so the calibrated models
    do not change), then build, start and warm a service on it."""
    traces, references, times = {}, {}, []
    for name in BENCHMARK_NAMES:
        t0 = time.perf_counter()
        trace = load_trace(name, length=LENGTH, trace_seed=args.seed)
        asyncio.run(_replay(trace.slice(0, WARMUP_EVENTS),
                            contextlib.nullcontext))
        times.append(time.perf_counter() - t0)
        traces[name] = trace
        references[name] = run_reactive(trace).metrics
    return (traces, references), times


def measure(state, args, work, res, record, single):
    """Rounds of all 12 replays until ``--seconds`` have passed (at
    least ``MIN_ROUNDS``; one when ``single``); each model's
    first-quartile CPU and wall time over the rounds count."""
    traces, references = state
    walls = {name: [] for name in traces}
    cpus = {name: [] for name in traces}
    for rnd in rounds(args.seconds, single, MIN_ROUNDS):
        for name, trace in traces.items():
            try:
                wall, cpu_s, batches, metrics = asyncio.run(
                    _replay(trace, record))
            except Exception as err:  # count it, keep measuring the rest
                res.attempted += 1
                res.check(f"{name} replay", False,
                          f"{type(err).__name__}: {err}")
                continue
            res.attempted += batches
            res.check(f"{name} metrics match run_reactive",
                      metrics == references[name],
                      f"{metrics} != {references[name]}")
            walls[name].append(wall)
            cpus[name].append(cpu_s)
    if not all(walls.values()):
        raise RuntimeError("a model never replayed successfully")
    events = sum(len(trace) for trace in traces.values())
    pass_s = sum(low_quartile(w) for w in walls.values())
    cpu_s = sum(low_quartile(c) for c in cpus.values())
    return Pass(wall=pass_s, cpu_us_per_event=cpu_s / events * 1e6,
                basis=pass_s,
                figures={"pass_s": (pass_s, "s"),
                         "events_per_s": (events / pass_s, "ev/s"),
                         "rounds": (rnd, "count")})
