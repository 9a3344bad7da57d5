"""Observability-tax target: full instrumentation vs none.

The committed claims (docs/observability.md): with every layer
instrumented (histograms + transition tracing), ingestion stays
within 10% of the same run's ``ServiceConfig(obs=False)`` throughput,
and turning on span tracing plus the misspeculation health detector
costs at most a further 10% against the same run's spans-off
instrumented figure.  Both are read as one minus the median
throughput ratio of back-to-back runs (:func:`pair_overhead`).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.bench.gates import ceil, exact, pair_overhead
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    fraction,
    register_benchmark,
)
from repro.core.config import scaled_config


def _ingest(trace, obs: bool, spans: bool = False,
            detect: bool = False):
    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService

    async def run():
        scfg = ServiceConfig(n_shards=4, obs=obs, spans=spans,
                             detect=detect)
        async with SpeculationService(scaled_config(), scfg) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=8192)
            await service.drain()
            elapsed = time.perf_counter() - started
            trace_len = len(service.trace)
            return service.metrics(), elapsed, trace_len

    return asyncio.run(run())


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {
        "baseline_eps": eps(doc["baseline_eps"]),
        "obs_eps": eps(doc["obs_eps"]),
    }
    # Recompute the gated overheads from the document's own figures:
    # the per-run triples, or (documents written before them) the
    # best-of rates.
    runs = doc.get("obs_runs")
    if runs:
        metrics["overhead"] = fraction(
            pair_overhead([(off, on) for off, on, _full in runs]))
    elif doc["baseline_eps"]:
        metrics["overhead"] = fraction(
            1.0 - doc["obs_eps"] / doc["baseline_eps"])
    if doc.get("full_eps") and doc["obs_eps"]:
        metrics["full_eps"] = eps(doc["full_eps"])
        metrics["span_overhead"] = fraction(
            pair_overhead([(on, full) for _off, on, full in runs])
            if runs else 1.0 - doc["full_eps"] / doc["obs_eps"])
    metrics["exact"] = flag(doc.get("exact", False))
    return metrics


@register_benchmark(
    "obs",
    title="Observability instrumentation tax",
    kind="repro.obs.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        exact(),
        ceil("overhead", 0.10, label="obs overhead",
             param="max_obs_overhead"),
        ceil("span_overhead", 0.10, label="span+detector overhead",
             param="max_span_overhead"),
    ),
    baseline="BENCH_obs.json",
    params={"events": 400_000},
    smoke_params={"events": 24_000, "repeats": 1},
    timeout=900.0,
)
def run_obs_bench(events: int = 400_000, trace_name: str = "gcc",
                  repeats: int = 4, verbose: bool = True) -> dict:
    """Measure ingestion eps with observability off vs fully on;
    returns the result document the bench-gate checks.

    The gated overheads come from ``2 * repeats + 1`` back-to-back
    runs of the three modes (obs off, instrumented, spans plus
    detector): each run's ratios see the host as it was for that run,
    so drift between runs cancels, and the median drops the outlying
    runs.  The three eps figures are each the best of their runs.
    """
    from repro.sim.runner import run_reactive
    from repro.trace.spec2000 import load_trace

    trace = load_trace(trace_name, length=events)
    offline = run_reactive(trace, scaled_config()).metrics
    exact_flag = True
    ring_records = 0

    def one_eps(obs: bool, spans: bool = False,
                detect: bool = False) -> float:
        nonlocal exact_flag, ring_records
        metrics, elapsed, trace_len = _ingest(trace, obs, spans, detect)
        if metrics != offline:
            exact_flag = False
        if obs:
            ring_records = max(ring_records, trace_len)
        return len(trace) / elapsed

    _ingest(trace, False)  # warmup: page in the trace + JIT numpy
    runs = [(one_eps(False), one_eps(True),
             one_eps(True, spans=True, detect=True))
            for _ in range(2 * repeats + 1)]
    baseline_eps, obs_eps, full_eps = (max(column) for column in zip(*runs))

    result = {
        "kind": "repro.obs.bench",
        "schema": 2,
        "trace": {"name": trace_name, "events": len(trace)},
        "machine": {"cpus": os.cpu_count()},
        "baseline_eps": baseline_eps,
        "obs_eps": obs_eps,
        "full_eps": full_eps,
        "obs_runs": runs,
        "overhead": pair_overhead([(off, on) for off, on, _ in runs]),
        "span_overhead": pair_overhead([(on, full)
                                        for _, on, full in runs]),
        "trace_ring_records": ring_records,
        "exact": exact_flag,
    }
    if verbose:
        print(f"obs overhead, {trace_name} {len(trace):,} events, "
              f"{os.cpu_count()} cpu(s)")
        print(f"  obs off (baseline)       {baseline_eps:>12,.0f} ev/s")
        print(f"  obs on  (instrumented)   {obs_eps:>12,.0f} ev/s "
              f"{obs_eps / baseline_eps:>6.2f}x")
        print(f"  + spans + detector       {full_eps:>12,.0f} ev/s "
              f"{full_eps / baseline_eps:>6.2f}x")
        print("  on/off, full/on per run: " + ", ".join(
            f"{on / off:.2f}/{full / on:.2f}" for off, on, full in runs))
        print(f"  instrumentation overhead: {result['overhead']:.1%} "
              f"(1 - median of {len(runs)} runs)")
        print(f"  span+detector overhead:   "
              f"{result['span_overhead']:.1%} (vs instrumented, 1 - "
              f"median)")
        print(f"  transition-ring records (last run): {ring_records:,}")
        print(f"  exact vs offline engine (all modes): {exact_flag}")
    return result
