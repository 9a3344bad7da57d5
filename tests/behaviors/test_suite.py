"""Integration tests: the controller's signature holds across behavior
classes (the Section 2 qualitative-consistency claim)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.behaviors.base import behavior_trace_from_streams
from repro.behaviors.suite import (
    behavior_config,
    reference_memdep_trace,
    reference_value_trace,
)
from repro.sim.runner import run_reactive


def loop_interleave(streams, seed):
    """The per-event reference: the same shuffled unit order, each
    event taking its unit's next held bit."""
    rng = np.random.default_rng(seed)
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    unit_ids = np.repeat(np.arange(len(streams), dtype=np.int32), lengths)
    rng.shuffle(unit_ids)
    held = np.zeros(len(unit_ids), dtype=bool)
    cursors = np.zeros(len(streams), dtype=np.int64)
    for i, unit in enumerate(unit_ids):
        held[i] = streams[unit][cursors[unit]]
        cursors[unit] += 1
    return unit_ids, held


class TestBehaviorTraceFromStreams:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.booleans(), min_size=1, max_size=80),
                    min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    def test_matches_the_per_event_loop(self, streams, seed):
        streams = [np.array(s, dtype=bool) for s in streams]
        unit_ids, held = loop_interleave(streams, seed)
        trace = behavior_trace_from_streams(streams, seed=seed)
        np.testing.assert_array_equal(trace.branch_ids, unit_ids)
        assert trace.branch_ids.dtype == unit_ids.dtype
        np.testing.assert_array_equal(trace.taken, held)

    def test_preserves_stream_contents(self):
        streams = [np.array([True, False, True]),
                   np.ones(5, dtype=bool)]
        trace = behavior_trace_from_streams(streams, seed=1)
        g = trace.groups()
        assert list(trace.taken[g.indices_of(0)]) == [True, False, True]
        assert trace.taken[g.indices_of(1)].all()

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            behavior_trace_from_streams([])
        with pytest.raises(ValueError):
            behavior_trace_from_streams([np.zeros(0, dtype=bool)])


@pytest.mark.parametrize("make_trace", [
    reference_value_trace,
    reference_memdep_trace,
], ids=["values", "memdep"])
class TestConsistencyClaim:
    def test_reactive_finds_substantial_coverage(self, make_trace):
        trace = make_trace(8_000)
        result = run_reactive(trace, behavior_config())
        assert result.metrics.correct_rate > 0.3
        assert result.metrics.incorrect_rate < 0.005

    def test_eviction_arc_matters(self, make_trace):
        """Same signature as branches: no-evict inflates misspec by an
        order of magnitude or more."""
        trace = make_trace(8_000)
        cfg = behavior_config()
        reactive = run_reactive(trace, cfg)
        no_evict = run_reactive(trace, cfg.without_eviction())
        assert no_evict.metrics.incorrect_rate \
            > 8 * reactive.metrics.incorrect_rate

    def test_time_varying_units_get_evicted(self, make_trace):
        trace = make_trace(8_000)
        result = run_reactive(trace, behavior_config())
        assert result.stats.total_evictions >= 1
