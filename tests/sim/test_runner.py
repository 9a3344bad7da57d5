"""Tests for the high-level runners and trace cache."""

import pytest

from repro.core.config import scaled_config
from repro.sim.engine import run_reference
from repro.sim.metrics import SpeculationMetrics
from repro.sim.runner import (
    TraceCache,
    aggregate_metrics,
    run_config_sweep,
    run_reactive,
    run_suite,
)
from repro.trace.spec2000 import load_trace


@pytest.fixture(scope="module")
def small_cache():
    return TraceCache(length_scale=0.05)


class TestRunReactive:
    def test_engines_agree(self):
        trace = load_trace("gzip", length=30_000)
        vec = run_reactive(trace)
        ref = run_reference(trace, scaled_config())
        assert vec.metrics == ref.metrics
        assert vec.branches == ref.branches

    def test_reference_engine_retains_bank(self):
        trace = load_trace("gzip", length=5_000)
        assert run_reference(trace, scaled_config()).bank is not None
        assert run_reactive(trace).bank is None

    def test_default_config_is_scaled(self):
        trace = load_trace("gzip", length=5_000)
        result = run_reactive(trace)
        assert result.config == scaled_config()


class TestTraceCache:
    def test_caches_by_name_and_input(self, small_cache):
        a = small_cache.get("gzip")
        b = small_cache.get("gzip")
        assert a is b

    def test_length_scale_shrinks_traces(self):
        from repro.trace.spec2000 import benchmark_spec

        cache = TraceCache(length_scale=0.05)
        trace = cache.get("eon")
        assert len(trace) == max(
            50_000, int(benchmark_spec("eon").length * 0.05))

    def test_clear(self, small_cache):
        a = small_cache.get("mcf")
        small_cache.clear()
        assert small_cache.get("mcf") is not a

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            TraceCache(length_scale=0)


class TestSuiteRunners:
    def test_run_suite_subset(self, small_cache):
        results = run_suite(benchmarks=("gzip", "eon"), cache=small_cache)
        assert set(results) == {"gzip", "eon"}

    def test_run_config_sweep(self, small_cache):
        base = scaled_config()
        sweep = run_config_sweep(
            {"baseline": base, "no evict": base.without_eviction()},
            benchmarks=("gzip",), cache=small_cache)
        assert set(sweep) == {"baseline", "no evict"}
        assert "gzip" in sweep["baseline"]

    def test_aggregate_metrics(self):
        a = SpeculationMetrics(100, 40, 1, 800)
        b = SpeculationMetrics(300, 60, 2, 2400)
        pooled = aggregate_metrics([a, b])
        assert pooled.dynamic_branches == 400
        assert pooled.correct == 100

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])


class TestDiskCache:
    def test_persists_and_reloads(self, tmp_path):
        import numpy as np

        a_cache = TraceCache(length_scale=0.05, cache_dir=str(tmp_path))
        a = a_cache.get("eon")
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        b_cache = TraceCache(length_scale=0.05, cache_dir=str(tmp_path))
        b = b_cache.get("eon")
        assert np.array_equal(a.taken, b.taken)
        assert np.array_equal(a.instrs, b.instrs)
