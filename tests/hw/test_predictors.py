"""Tests for the hardware branch predictors.

:func:`predict_trace` runs gshare as array code; ``loop_misses`` keeps
the per-event :meth:`GsharePredictor.predict_and_update` loop it must
match bit for bit: the mispredicted events, and the predictor's table
and history afterwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.predictors import (
    GsharePredictor,
    StaticTakenPredictor,
    TwoBitCounters,
    predict_trace,
)
from repro.trace.patterns import ConstantBias, PeriodicBias
from repro.trace.stream import Trace
from repro.trace.synthetic import round_robin_trace, single_branch_trace


def make_trace(pcs, taken) -> Trace:
    n = len(pcs)
    return Trace("t", "in", np.asarray(pcs, dtype=np.int32),
                 np.asarray(taken, dtype=bool),
                 np.arange(1, n + 1, dtype=np.int64))


def loop_misses(predictor, pcs, taken) -> np.ndarray:
    """The per-event reference: mispredicted events, in order."""
    return np.array([predictor.predict_and_update(int(pc), bool(t))
                     != bool(t) for pc, t in zip(pcs, taken)], dtype=bool)


def pretrained(table_bits, history_bits, pcs, taken) -> GsharePredictor:
    predictor = GsharePredictor(table_bits, history_bits)
    loop_misses(predictor, pcs, taken)
    return predictor


def assert_matches_loop(table_bits, history_bits, pcs, taken,
                        warm=((), ())):
    """predict_trace on a predictor trained on ``warm`` equals the loop
    on another trained the same way, and both end in one state."""
    ref = pretrained(table_bits, history_bits, *warm)
    arr = pretrained(table_bits, history_bits, *warm)
    expected = loop_misses(ref, pcs, taken)
    got = predict_trace(make_trace(pcs, taken), arr)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(arr._counters.table, ref._counters.table)
    assert arr._history == ref._history


geometries = st.integers(1, 12).flatmap(
    lambda bits: st.tuples(st.just(bits), st.integers(0, bits)))
events = st.integers(1, 400).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 5000), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestTwoBitCounters:
    def test_hysteresis(self):
        counters = TwoBitCounters(4, initial=1)  # weakly not-taken
        assert not counters.predict(0)
        counters.update(0, True)
        assert counters.predict(0)   # 2: weakly taken
        counters.update(0, False)
        assert not counters.predict(0)

    def test_saturation(self):
        counters = TwoBitCounters(4, initial=3)
        counters.update(0, True)
        assert counters.table[0] == 3
        counters.update(0, False)
        counters.update(0, False)
        counters.update(0, False)
        counters.update(0, False)
        assert counters.table[0] == 0

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TwoBitCounters(100)


class TestGshare:
    def test_learns_a_perfectly_biased_branch(self):
        predictor = GsharePredictor(table_bits=10)
        misses = 0
        for i in range(1000):
            if not predictor.predict_and_update(42, True):
                misses += 1
        assert misses < 20  # only warmup misses

    def test_learns_history_correlated_pattern(self):
        """Alternating outcomes are perfectly predictable from history."""
        predictor = GsharePredictor(table_bits=10)
        misses = sum(
            predictor.predict_and_update(7, i % 2 == 0) != (i % 2 == 0)
            for i in range(2000))
        assert misses < 60

    def test_validation(self):
        with pytest.raises(ValueError):
            GsharePredictor(table_bits=0)
        with pytest.raises(ValueError):
            GsharePredictor(table_bits=4, history_bits=10)


class TestPredictTrace:
    def test_low_misprediction_on_biased_trace(self):
        trace = single_branch_trace([True] * 2000)
        mispredicted = predict_trace(trace)
        assert mispredicted.mean() < 0.02

    def test_high_misprediction_on_random_trace(self):
        trace = round_robin_trace([ConstantBias(0.5)], length=4000, seed=0)
        mispredicted = predict_trace(trace)
        assert mispredicted.mean() > 0.3

    def test_biased_beats_unbiased(self):
        biased = round_robin_trace([ConstantBias(0.99)], 3000, seed=1)
        noisy = round_robin_trace([ConstantBias(0.7)], 3000, seed=1)
        assert predict_trace(biased).mean() < predict_trace(noisy).mean()

    def test_static_predictor(self):
        trace = round_robin_trace(
            [PeriodicBias(1.0, 0.0, 10, 10)], 100, seed=2)
        mispredicted = predict_trace(trace, StaticTakenPredictor())
        assert mispredicted.mean() == pytest.approx(0.5, abs=0.1)
        np.testing.assert_array_equal(
            mispredicted, loop_misses(StaticTakenPredictor(),
                                      trace.branch_ids, trace.taken))

    def test_rejects_other_predictors(self):
        with pytest.raises(TypeError):
            predict_trace(single_branch_trace([True]), TwoBitCounters(4))


class TestPredictTraceMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(geometries, events)
    def test_fresh_predictor(self, geometry, trace):
        assert_matches_loop(*geometry, *trace)

    @settings(max_examples=100, deadline=None)
    @given(geometries, events, events)
    def test_pretrained_predictor(self, geometry, trace, warm):
        assert_matches_loop(*geometry, *trace, warm=warm)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trace_shorter_than_history(self, data):
        n = data.draw(st.integers(1, 5))
        history_bits = data.draw(st.integers(n + 1, 12))
        bits = data.draw(st.integers(history_bits, 12))
        pcs = data.draw(st.lists(st.integers(0, 100), min_size=n,
                                 max_size=n))
        taken = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        assert_matches_loop(bits, history_bits, pcs, taken,
                            warm=data.draw(events))

    @pytest.mark.parametrize("bits", [(12, 12), (12, 0), (4, 2), (1, 1)])
    def test_geometries_on_a_long_trace(self, bits):
        trace = round_robin_trace([ConstantBias(0.9), PeriodicBias(
            1.0, 0.0, 7, 5), ConstantBias(0.5)], 6000, seed=4)
        assert_matches_loop(*bits, trace.branch_ids, trace.taken)

    @pytest.mark.parametrize("history_bits", [0, 6])
    def test_single_hot_table_index(self, history_bits):
        """Every event on one counter: the longest run is the trace."""
        rng = np.random.default_rng(9)
        taken = rng.random(5000) < 0.8
        if history_bits:
            # pc ^ history is constant when the pc tracks the history.
            history = 0
            pcs = []
            for t in taken:
                pcs.append(history ^ 0b101)
                history = ((history << 1) | int(t)) & 0b111111
        else:
            pcs = [3] * len(taken)
        assert_matches_loop(6, history_bits, pcs, taken)
        predictor = GsharePredictor(6, history_bits)
        predict_trace(make_trace(pcs, taken), predictor)
        assert np.flatnonzero(predictor._counters.table != 1).tolist() \
            == [0b101 if history_bits else 3]
