"""Unified benchmark/experiment infrastructure.

One registry declares every benchmark as a *target x instance x config*
matrix entry (``@register_benchmark``); one parallel job runner executes
a suite with per-job timeouts; one schema-versioned results document
carries every metric with its unit and better-direction; one declarative
gate engine evaluates every target's gates; and one report generator
diffs a run against the committed baselines and the trajectory of
prior runs.

Entry points::

    python -m repro.bench list
    python -m repro.bench run --suite ci-gates --out BENCH.current.json
    python -m repro.bench run --suite all --smoke
    python -m repro.bench report --current BENCH.current.json
    python -m repro.bench migrate BENCH_serve.json

See docs/benchmarking.md for the full workflow.
"""

from repro.bench.gates import Gate, GateReport, ceil, evaluate, exact, floor
from repro.bench.registry import (
    BenchSpec,
    Metric,
    all_suites,
    get_benchmark,
    iter_benchmarks,
    register_benchmark,
)
from repro.bench.schema import (
    LEGACY_KINDS,
    RESULTS_KIND,
    SCHEMA_VERSION,
    dump_document,
    host_fingerprint,
    load_document,
    new_document,
    wrap_legacy,
)

__all__ = [
    "BenchSpec", "Metric", "register_benchmark", "get_benchmark",
    "iter_benchmarks", "all_suites",
    "Gate", "GateReport", "exact", "floor", "ceil", "evaluate",
    "RESULTS_KIND", "SCHEMA_VERSION", "LEGACY_KINDS", "host_fingerprint",
    "new_document", "load_document", "dump_document", "wrap_legacy",
]
