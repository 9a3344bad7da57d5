"""tenant-churn: adversarial multi-tenant traffic under spill pressure.

A closed loop.  ``round_robin_trace`` builds 256 branches split evenly
between ``PeriodicBias(1, 0, 1024, 1024)`` square waves,
``train_then_flip(2048)`` and ``slow_poison(2048)`` — SpecFuzz-style
worst cases that keep the controller crossing FSM boundaries — and
``with_tenants(64, "zipf", s=1.1)`` spreads the events over 64
tenants.  The in-process service's resident budget sits half a tenant
below the working set, so one tenant is always spilled and the batches
that touch it bring it back.  It is the only workload that runs
``repro.tenant`` spill and restore (controller ``export_state`` /
``from_state``, JSON, zlib) and the boundary-dense colpath and
detector paths; the WAL and the worker wire stay idle.
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile
import time

from harness import CpuClock, Pass, low_quartile, median, rounds
from repro.serve.client import feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.shard import ShardedBank
from repro.trace import PeriodicBias, round_robin_trace
from repro.trace.patterns import slow_poison, train_then_flip
from repro.trace.synthetic import with_tenants

#: Short enough that a replay repeats about ten times in a run.
EVENTS = 524_288
TENANTS = 64
BRANCHES = 256
BYTES_PER_BRANCH = 512
#: Every tenant touches all 256 branches: 8 MiB of estimated state.
WORKING_SET = TENANTS * BRANCHES * BYTES_PER_BRANCH
#: Half a tenant short of the working set: one tenant stays spilled.
BUDGET = WORKING_SET - BRANCHES * BYTES_PER_BRANCH // 2
#: Nearly every batch touches all 64 tenants, so each batch costs about
#: one spill and one restore; at this size they take about a third of
#: the pass rather than all of it (32768 gave a quarter, 8192 two thirds).
BATCH_EVENTS = 16_384
WARMUP_EVENTS = 2 * BATCH_EVENTS
#: Set-ups timed per run (``setup_s`` is their median).
SETUPS = 3
#: Replays per run, at the least (one when ``single``).
MIN_ROUNDS = 3


def _trace(seed: int):
    kinds = (PeriodicBias(1.0, 0.0, 1024, 1024), train_then_flip(2048),
             slow_poison(2048))
    patterns = [kinds[i % len(kinds)] for i in range(BRANCHES)]
    return with_tenants(round_robin_trace(patterns, EVENTS, seed=seed),
                        TENANTS, "zipf", s=1.1, seed=seed)


async def _replay(trace, spill_dir, record, max_events=None):
    service = SpeculationService(service_config=ServiceConfig(
        tenant_resident_bytes=BUDGET,
        tenant_bytes_per_branch=BYTES_PER_BRANCH,
        tenant_spill_dir=spill_dir))
    await service.start()
    try:
        cpu = CpuClock()
        t0 = time.perf_counter()
        with record():
            stats = await feed_trace(service, trace,
                                     batch_events=BATCH_EVENTS,
                                     max_events=max_events)
            await service.drain()
        wall = time.perf_counter() - t0
        cpu_s = cpu.elapsed()
    finally:
        await service.stop()
    return wall, cpu_s, stats.batches, service.metrics(), \
        service.tenant_stats()


def _reference(trace):
    """The same batches applied synchronously, with no budget."""
    bank = ShardedBank()
    for batch in iter_trace_batches(trace, BATCH_EVENTS):
        bank.apply_batch(batch)
    return bank.metrics()


def setup(args, work, res):
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        trace = _trace(args.seed)
        asyncio.run(_replay(trace, tempfile.mkdtemp(dir=work),
                            contextlib.nullcontext,
                            max_events=WARMUP_EVENTS))
        times.append(time.perf_counter() - t0)
    return (trace, _reference(trace)), times


def measure(state, args, work, res, record, single):
    """Full replays into fresh services until ``--seconds`` have passed
    (at least ``MIN_ROUNDS``; one when ``single``); the first-quartile
    CPU and wall time over the rounds count."""
    trace, reference = state
    walls, cpus, spills, restores = [], [], [], []
    for rnd in rounds(args.seconds, single, MIN_ROUNDS):
        try:
            wall, cpu_s, batches, metrics, tenants = asyncio.run(
                _replay(trace, tempfile.mkdtemp(dir=work), record))
        except Exception as err:  # count it, keep measuring
            res.attempted += 1
            res.check("replay", False, f"{type(err).__name__}: {err}")
            continue
        res.attempted += batches
        res.check("metrics match the no-budget replay", metrics == reference,
                  f"{metrics} != {reference}")
        walls.append(wall)
        cpus.append(cpu_s)
        spills.append(tenants["spills"])
        restores.append(tenants["restores"])
    if not walls:
        raise RuntimeError("every replay failed")
    wall = low_quartile(walls)
    cpu_s = low_quartile(cpus)
    return Pass(wall=wall, cpu_us_per_event=cpu_s / len(trace) * 1e6,
                basis=wall,
                figures={"pass_s": (wall, "s"),
                         "events_per_s": (len(trace) / wall, "ev/s"),
                         "spills": (median(spills), "count"),
                         "rounds": (rnd, "count")},
                extra={"tenant.spills": spills[-1],
                       "tenant.restores": restores[-1]})
