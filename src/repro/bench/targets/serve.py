"""Serve-scaling target: single-process vs per-shard worker processes.

The committed claim: worker processes buy at least a 1.8x ingestion
speedup at 4 workers over single-process mode, measured within one
run so machine speed cancels out.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.bench.gates import exact, floor
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    ratio,
    register_benchmark,
)
from repro.core.config import scaled_config

WORKER_COUNTS = (1, 2, 4)


def ingest(trace, n_shards: int, queue_events: int = 65_536,
           workers: int = 0, transport: str = "pipe"):
    """One full replay; timing excludes worker-process startup."""
    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService

    async def run():
        # spans/detect off: this target tracks raw ingest scaling; the
        # instrumentation tax has its own gated target (obs).
        scfg = ServiceConfig(n_shards=n_shards, queue_events=queue_events,
                             workers=workers, transport=transport,
                             spans=False, detect=False)
        async with SpeculationService(scaled_config(), scfg) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=8192)
            await service.drain()
            elapsed = time.perf_counter() - started
            return service.metrics(), service.reading(), elapsed

    return asyncio.run(run())


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {
        "single_process_eps": eps(doc["single_process_eps"]),
    }
    multi = doc.get("multi_process_eps", {})
    for workers in sorted(multi, key=int):
        metrics[f"eps_{workers}_workers"] = eps(multi[workers])
    # Recompute the gated ratio from the underlying figures — a
    # doctored document cannot smuggle a regression past the gate by
    # editing the stored speedup alone.
    top = str(doc.get("max_workers", max(map(int, multi), default=0)))
    if top in multi and doc["single_process_eps"]:
        metrics["speedup_at_max_workers"] = ratio(
            multi[top] / doc["single_process_eps"])
    metrics["exact"] = flag(doc.get("exact", False))
    return metrics


@register_benchmark(
    "serve",
    title="Worker-process ingestion scaling",
    kind="repro.serve.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        exact(),
        floor("speedup_at_max_workers", 1.8, label="scaling floor",
              param="min_speedup", min_cpus=4),
    ),
    baseline="BENCH_serve.json",
    params={"events": 400_000},
    smoke_params={"events": 24_000, "worker_counts": (1,)},
    timeout=900.0,
)
def run_scaling(events: int = 400_000, trace_name: str = "gcc",
                worker_counts=WORKER_COUNTS, transport: str = "pipe",
                verbose: bool = True) -> dict:
    """Measure single-process vs worker-process ingestion throughput.

    Returns the result document the bench-gate compares: absolute
    events/sec per mode, the max-workers speedup, and an exactness flag
    (every mode's metrics must equal the offline engine's).  Timings
    exclude worker-process startup; each mode runs once after a shared
    warmup replay (the trace generator is deterministic, so exactness
    holds machine-independently).
    """
    from repro.sim.runner import run_reactive
    from repro.trace.spec2000 import load_trace

    trace = load_trace(trace_name, length=events)
    offline = run_reactive(trace, scaled_config()).metrics
    exact_flag = True

    def measure(workers: int) -> float:
        nonlocal exact_flag
        shards = workers if workers else 4
        metrics, _reading, elapsed = ingest(
            trace, n_shards=shards, workers=workers, transport=transport)
        if metrics != offline:
            exact_flag = False
        return len(trace) / elapsed

    ingest(trace, n_shards=4)  # warmup: page in the trace + JIT numpy
    single_eps = measure(0)
    multi = {str(w): measure(w) for w in worker_counts}
    top = str(max(worker_counts))
    result = {
        "kind": "repro.serve.bench",
        "schema": 1,
        "trace": {"name": trace_name, "events": len(trace)},
        "machine": {"cpus": os.cpu_count()},
        "transport": transport,
        "single_process_eps": single_eps,
        "multi_process_eps": multi,
        "speedup_at_max_workers": multi[top] / single_eps,
        "max_workers": int(top),
        "exact": exact_flag,
    }
    if verbose:
        print(f"serve scaling, {trace_name} {len(trace):,} events, "
              f"{os.cpu_count()} cpu(s), transport={transport}")
        print(f"  single-process (4 shards) {single_eps:>12,.0f} ev/s")
        for w in worker_counts:
            rate = multi[str(w)]
            print(f"  {w} worker process(es)     {rate:>12,.0f} ev/s "
                  f"{rate / single_eps:>6.2f}x")
        print(f"  exact vs offline engine: {exact_flag}")
    return result
