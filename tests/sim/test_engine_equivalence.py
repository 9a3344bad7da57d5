"""The vectorized engine must agree exactly with the per-event
reference engine — on every metric, every per-branch summary, every
transition — across randomized traces and configurations.

This is the load-bearing correctness argument for using the fast engine
in all experiments: the reference engine is the executable
specification, and these tests are the proof obligation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SENSITIVITY_VARIANTS, ControllerConfig
from repro.sim.engine import run_reference
from repro.sim.vector import run_vector, speculation_flags
from repro.trace.patterns import (
    BurstNoise,
    ConstantBias,
    PeriodicBias,
    StepChange,
)
from repro.trace.spec2000 import load_trace
from repro.trace.synthetic import round_robin_trace, trace_from_outcomes


def assert_equivalent(trace, config):
    ref = run_reference(trace, config)
    vec = run_vector(trace, config)
    assert ref.metrics == vec.metrics
    assert ref.stats == vec.stats
    assert ref.branches == vec.branches


# A config space that exercises every code path at tiny scales.
config_strategy = st.builds(
    ControllerConfig,
    monitor_period=st.integers(1, 8),
    selection_threshold=st.sampled_from([0.6, 0.75, 0.9, 1.0]),
    evict_counter_max=st.sampled_from([50, 100, 120]),
    misspec_increment=st.sampled_from([50, 60]),
    correct_decrement=st.sampled_from([1, 10]),
    revisit_period=st.integers(1, 10),
    oscillation_limit=st.integers(1, 4),
    optimization_latency=st.sampled_from([0, 7, 40, 200]),
    eviction_enabled=st.booleans(),
    revisit_enabled=st.booleans(),
    monitor_sample_stride=st.sampled_from([1, 2, 3]),
    evict_by_sampling=st.booleans(),
    evict_sample_period=st.sampled_from([6, 10]),
    evict_sample_len=st.sampled_from([2, 4]),
    evict_bias_threshold=st.sampled_from([0.75, 0.9, 1.0]),
)


class TestRandomized:
    @settings(max_examples=150, deadline=None)
    @given(
        config=config_strategy,
        outcomes=st.lists(
            st.lists(st.booleans(), min_size=1, max_size=120),
            min_size=1, max_size=4),
        stride=st.integers(1, 20),
    )
    def test_equivalence_on_random_traces(self, config, outcomes, stride):
        trace = trace_from_outcomes(
            {i: seq for i, seq in enumerate(outcomes)},
            instr_stride=stride)
        assert_equivalent(trace, config)

    @settings(max_examples=30, deadline=None)
    @given(
        config=config_strategy,
        seed=st.integers(0, 1000),
    )
    def test_equivalence_on_patterned_traces(self, config, seed):
        patterns = [
            ConstantBias(1.0),
            ConstantBias(0.97),
            ConstantBias(0.5),
            StepChange(1.0, 0.0, 60),
            PeriodicBias(1.0, 0.0, 40, 40),
            BurstNoise(ConstantBias(1.0), 30, 3, 0.0),
        ]
        trace = round_robin_trace(patterns, length=900, seed=seed)
        assert_equivalent(trace, config)


class TestBenchmarkSlices:
    @pytest.mark.parametrize("variant", list(SENSITIVITY_VARIANTS()))
    def test_equivalence_on_benchmark_prefix(self, variant):
        trace = load_trace("gzip", length=60_000)
        assert_equivalent(trace, SENSITIVITY_VARIANTS()[variant])

    def test_equivalence_on_mid_run_slice(self):
        trace = load_trace("mcf", length=80_000).slice(20_000, 70_000)
        from repro.core.config import scaled_config

        assert_equivalent(trace, scaled_config())


class TestSpeculationFlags:
    def test_flags_sum_to_metrics(self):
        from repro.core.config import scaled_config

        trace = load_trace("gzip", length=50_000)
        spec, misspec, result = speculation_flags(trace, scaled_config())
        assert int(spec.sum()) == result.metrics.correct \
            + result.metrics.incorrect
        assert int(misspec.sum()) == result.metrics.incorrect
        assert np.all(spec[misspec])  # misspec implies speculated

    @settings(max_examples=150, deadline=None)
    @given(
        config=config_strategy,
        outcomes=st.lists(
            st.lists(st.booleans(), min_size=1, max_size=120),
            min_size=1, max_size=4),
        stride=st.integers(1, 20),
    )
    def test_flags_match_reference_outcomes(self, config, outcomes, stride):
        """Deployed windows and their directions are re-derived from the
        SELECT/EVICT arcs (strided monitor windows included); every
        event's flags must equal per-event ``observe``'s outcome."""
        from repro.core.controller import ControllerBank

        trace = trace_from_outcomes(
            {i: seq for i, seq in enumerate(outcomes)},
            instr_stride=stride)
        spec, misspec, result = speculation_flags(trace, config)
        bank = ControllerBank(config)
        for i in range(len(trace)):
            out = bank.observe(int(trace.branch_ids[i]),
                               bool(trace.taken[i]),
                               int(trace.instrs[i]))
            assert out.speculated == bool(spec[i])
            assert out.misspeculated == bool(misspec[i])
        assert result.branches == run_reference(trace, config).branches
