"""High-level simulation entry points: single runs, suites and sweeps.

This is the layer experiment drivers and examples talk to; it hides the
vectorized engine and the trace cache.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.config import ControllerConfig, scaled_config
from repro.sim.metrics import SpeculationMetrics
from repro.sim.summary import ReactiveRunResult
from repro.trace.spec2000 import BENCHMARK_NAMES, load_trace
from repro.trace.stream import Trace

__all__ = ["run_reactive", "run_suite", "run_config_sweep", "TraceCache",
           "aggregate_metrics"]


def run_reactive(trace: Trace, config: ControllerConfig | None = None
                 ) -> ReactiveRunResult:
    """Run the reactive controller over one trace (vectorized engine).

    :func:`repro.sim.engine.run_reference` is the per-event executable
    specification it is tested against; that one also retains live
    per-branch controllers on ``result.bank``.
    """
    from repro.sim.vector import run_vector

    return run_vector(trace, config if config is not None
                      else scaled_config())


class TraceCache:
    """Cache of benchmark traces, keyed by (name, input).

    Experiment drivers run many configurations over the same traces;
    regenerating one at its calibrated length (0.6–3.2M events) takes
    0.03–0.28 s, 1.3–1.5 s for all twelve evaluation inputs (measured
    on a 2-vCPU host, numpy 2.4.6), so a shared in-memory cache
    matters.  Passing ``cache_dir`` additionally persists traces to
    disk (compressed npz), so repeated harness invocations skip
    generation entirely.
    """

    def __init__(self, length_scale: float = 1.0,
                 cache_dir: str | None = None) -> None:
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = length_scale
        self.cache_dir = cache_dir
        self._traces: dict[tuple[str, str | None], Trace] = {}

    def _length_for(self, name: str) -> int | None:
        if self.length_scale == 1.0:
            return None
        from repro.trace.spec2000 import benchmark_spec

        return max(50_000,
                   int(benchmark_spec(name).length * self.length_scale))

    def get(self, name: str, input_name: str | None = None) -> Trace:
        key = (name, input_name)
        trace = self._traces.get(key)
        if trace is not None:
            return trace
        length = self._length_for(name)
        path = None
        if self.cache_dir is not None:
            from pathlib import Path

            token = input_name or "eval"
            path = (Path(self.cache_dir)
                    / f"{name}__{token}__{length or 'full'}.npz")
            if path.exists():
                from repro.trace.io import load_trace_file

                trace = load_trace_file(path)
                self._traces[key] = trace
                return trace
        trace = load_trace(name, input_name, length=length)
        if path is not None:
            from repro.trace.io import save_trace

            save_trace(trace, path)
        self._traces[key] = trace
        return trace

    def clear(self) -> None:
        self._traces.clear()


def run_suite(config: ControllerConfig | None = None,
              benchmarks: Iterable[str] | None = None,
              cache: TraceCache | None = None,
              ) -> dict[str, ReactiveRunResult]:
    """Run one configuration over the whole benchmark suite."""
    cache = cache or TraceCache()
    names = tuple(benchmarks) if benchmarks is not None else BENCHMARK_NAMES
    return {name: run_reactive(cache.get(name), config) for name in names}


def run_config_sweep(configs: Mapping[str, ControllerConfig],
                     benchmarks: Iterable[str] | None = None,
                     cache: TraceCache | None = None,
                     ) -> dict[str, dict[str, ReactiveRunResult]]:
    """Run several named configurations over the suite.

    Returns ``{config_name: {benchmark: result}}``.
    """
    cache = cache or TraceCache()
    return {cfg_name: run_suite(cfg, benchmarks, cache)
            for cfg_name, cfg in configs.items()}


def aggregate_metrics(results: Mapping[str, ReactiveRunResult] |
                      Iterable[SpeculationMetrics]) -> SpeculationMetrics:
    """Pool metrics across benchmarks (the paper's 'ave' rows)."""
    if isinstance(results, Mapping):
        metrics = [r.metrics for r in results.values()]
    else:
        metrics = list(results)
    if not metrics:
        raise ValueError("no metrics to aggregate")
    total = metrics[0]
    for m in metrics[1:]:
        total = total + m
    return total
