"""WAL-tax target: ingestion overhead per fsync policy + replay speed.

The committed claim (docs/durability.md): group commit
(``wal_fsync="batch"``) costs at most 15% of the same run's WAL-less
ingestion throughput, read as one minus the median throughput ratio
of alternating no-WAL / ``batch`` ingest pairs.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from pathlib import Path

from repro.bench.gates import ceil, exact, pair_overhead
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
    # Recompute the gated overhead from the document's own figures:
    # the per-pair rates, or (documents written before the pairs) the
    # best-of rates.
    batch = doc.get("wal_eps", {}).get("batch")
    if doc.get("batch_pairs"):
        metrics["batch_overhead"] = fraction(
            pair_overhead(doc["batch_pairs"]))
    elif batch is not None and doc["baseline_eps"]:
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

    The gated ``batch_overhead`` comes from ``2 * repeats + 1``
    back-to-back pairs of a no-WAL and a ``fsync=batch`` ingest: each
    pair's ratio sees the host as it was for that pair, so drift
    between pairs (GC, page cache, CI neighbors) cancels, and the
    median of the ratios drops the outlying pairs.  The eps figures
    are each the best of their runs (the pairs', and ``repeats`` each
    for ``off`` and ``always``, which are informational).
    """
    from repro.sim.runner import run_reactive
    from repro.trace.spec2000 import load_trace
    from repro.wal.recovery import recover_service

    trace = load_trace(trace_name, length=events)
    config = scaled_config()
    offline = run_reactive(trace, config).metrics
    exact_flag = True

    def ingest_eps(wal_fsync: str | None) -> float:
        """One ingest's rate; None = WAL disabled.  Each run logs into
        a fresh directory (sequence numbers restart per run, and a WAL
        refuses stale appends)."""
        nonlocal exact_flag
        with tempfile.TemporaryDirectory(prefix="bench-wal-") as d:
            wal_dir = (str(Path(d) / "wal")
                       if wal_fsync is not None else None)
            metrics, elapsed = _ingest(trace, wal_dir,
                                       wal_fsync=wal_fsync or "batch")
        if metrics != offline:
            exact_flag = False
        return len(trace) / elapsed

    _ingest(trace, None)  # warmup: page in the trace + JIT numpy
    pairs = [(ingest_eps(None), ingest_eps("batch"))
             for _ in range(2 * repeats + 1)]
    baseline_eps = max(base for base, _ in pairs)
    best_batch = max(batch for _, batch in pairs)
    wal_eps = {mode: best_batch if mode == "batch"
               else max(ingest_eps(mode) for _ in range(repeats))
               for mode in FSYNC_MODES}

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
        "batch_pairs": pairs,
        "batch_overhead": pair_overhead(pairs),
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
        ratios = ", ".join(f"{batch / base:.2f}" for base, batch in pairs)
        print(f"  batch/no-WAL per pair: {ratios}")
        print(f"  batch-commit overhead: {result['batch_overhead']:.1%} "
              f"(1 - median of {len(pairs)} pairs)")
        print(f"  exact vs offline engine (ingest + recovery): "
              f"{exact_flag}")
    return result
