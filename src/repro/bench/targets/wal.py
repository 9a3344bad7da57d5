"""WAL-tax target: ingestion overhead per fsync policy + replay speed.

The committed claim (docs/durability.md): group commit
(``wal_fsync="batch"``) costs at most 15% of the same run's WAL-less
ingestion throughput.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from pathlib import Path

from repro.bench.gates import ceil, exact
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    fraction,
    register_benchmark,
)
from repro.core.config import scaled_config

FSYNC_MODES = ("off", "batch", "always")


def _ingest(trace, wal_dir: str | None, wal_fsync: str = "batch"):
    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService

    async def run():
        # spans/detect off: this target measures the WAL tax alone
        # (the combined instrumentation tax is the obs target's job).
        scfg = ServiceConfig(n_shards=4, wal_dir=wal_dir,
                             wal_fsync=wal_fsync,
                             spans=False, detect=False)
        async with SpeculationService(scaled_config(), scfg) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=8192)
            await service.drain()
            elapsed = time.perf_counter() - started
            return service.metrics(), elapsed

    return asyncio.run(run())


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {
        "baseline_eps": eps(doc["baseline_eps"]),
    }
    for mode, value in doc.get("wal_eps", {}).items():
        metrics[f"eps_fsync_{mode}"] = eps(value)
    if "replay_eps" in doc:
        metrics["replay_eps"] = eps(doc["replay_eps"])
    batch = doc.get("wal_eps", {}).get("batch")
    if batch is not None and doc["baseline_eps"]:
        metrics["batch_overhead"] = fraction(
            1.0 - batch / doc["baseline_eps"])
    metrics["exact"] = flag(doc.get("exact", False))
    return metrics


@register_benchmark(
    "wal",
    title="Write-ahead-log durability tax",
    kind="repro.wal.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        exact(),
        ceil("batch_overhead", 0.15, label="wal overhead",
             param="max_wal_overhead"),
    ),
    baseline="BENCH_wal.json",
    params={"events": 400_000},
    smoke_params={"events": 24_000, "repeats": 1},
    timeout=900.0,
)
def run_wal_bench(events: int = 400_000, trace_name: str = "gcc",
                  repeats: int = 3, verbose: bool = True) -> dict:
    """Measure ingestion eps without a WAL vs per fsync policy, plus
    log-replay eps; returns the result document the bench-gate checks.

    Every figure is the best of ``repeats`` runs: single-run ingestion
    timings at this scale are noisy (GC, page cache, CI neighbors) in
    both directions, and the gate compares a *ratio* of two of them —
    best-of-N makes that ratio about the code, not the scheduler.
    """
    from repro.sim.runner import run_reactive
    from repro.trace.spec2000 import load_trace
    from repro.wal.recovery import recover_service

    trace = load_trace(trace_name, length=events)
    config = scaled_config()
    offline = run_reactive(trace, config).metrics
    exact_flag = True

    def best_eps(wal_fsync: str | None) -> float:
        """Best-of-``repeats`` ingestion rate; None = WAL disabled.
        Each repeat logs into a fresh directory (sequence numbers
        restart per run, and a WAL refuses stale appends)."""
        nonlocal exact_flag
        best = 0.0
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(prefix="bench-wal-") as d:
                wal_dir = (str(Path(d) / "wal")
                           if wal_fsync is not None else None)
                metrics, elapsed = _ingest(trace, wal_dir,
                                           wal_fsync=wal_fsync or "batch")
                if metrics != offline:
                    exact_flag = False
                best = max(best, len(trace) / elapsed)
        return best

    _ingest(trace, None)  # warmup: page in the trace + JIT numpy
    baseline_eps = best_eps(None)
    wal_eps = {mode: best_eps(mode) for mode in FSYNC_MODES}

    # Recovery exactness + replay speed on one batch-mode log (replay
    # does not depend on the fsync policy the log was written under).
    replay_eps = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-wal-replay-") as d:
        wal_dir = str(Path(d) / "wal")
        metrics, _elapsed = _ingest(trace, wal_dir, wal_fsync="batch")
        if metrics != offline:
            exact_flag = False
        for _ in range(repeats):
            started = time.perf_counter()
            service, _report = recover_service(wal_dir, config=config,
                                               attach_wal=False)
            replay_elapsed = time.perf_counter() - started
            if service.metrics() != offline:
                exact_flag = False
            replay_eps = max(replay_eps, len(trace) / replay_elapsed)

    result = {
        "kind": "repro.wal.bench",
        "schema": 1,
        "trace": {"name": trace_name, "events": len(trace)},
        "machine": {"cpus": os.cpu_count()},
        "baseline_eps": baseline_eps,
        "wal_eps": wal_eps,
        "batch_overhead": 1.0 - wal_eps["batch"] / baseline_eps,
        "replay_eps": replay_eps,
        "exact": exact_flag,
    }
    if verbose:
        print(f"wal overhead, {trace_name} {len(trace):,} events, "
              f"{os.cpu_count()} cpu(s)")
        print(f"  no WAL                 {baseline_eps:>12,.0f} ev/s")
        for mode in FSYNC_MODES:
            rate = wal_eps[mode]
            print(f"  wal fsync={mode:<6}       {rate:>12,.0f} ev/s "
                  f"{rate / baseline_eps:>6.2f}x")
        print(f"  replay (recovery)      {replay_eps:>12,.0f} ev/s")
        print(f"  batch-commit overhead: {result['batch_overhead']:.1%}")
        print(f"  exact vs offline engine (ingest + recovery): "
              f"{exact_flag}")
    return result
