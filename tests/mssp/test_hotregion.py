"""Tests for the hot-region detector.

:func:`detect_hot_regions` is array code; ``observe_all`` keeps the
per-event :meth:`HotRegionDetector.observe` loop it must match: the
same per-event coverage and a detector in the same state (regions,
covered set, counts and successor weights in insertion order, last
branch), which then keeps observing alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mssp.hotregion import HotRegionDetector, detect_hot_regions
from repro.trace.model import BenchmarkModel, Region, StaticBranch
from repro.trace.patterns import ConstantBias
from repro.trace.stream import generate_trace
from repro.trace.stream import Trace
from repro.trace.synthetic import single_branch_trace, uniform_model


def make_trace(ids) -> Trace:
    n = len(ids)
    return Trace("t", "in", np.asarray(ids, dtype=np.int32),
                 np.ones(n, dtype=bool), np.arange(1, n + 1, dtype=np.int64))


def observe_all(detector, ids) -> np.ndarray:
    """The per-event reference: events inside a region at their time."""
    covered: set[int] = set()
    in_region = np.zeros(len(ids), dtype=bool)
    for i, branch in enumerate(np.asarray(ids).tolist()):
        formed = detector.observe(branch)
        if formed is not None:
            covered.update(formed.branches)
        in_region[i] = branch in covered
    return in_region


def detector_state(detector):
    """Everything observe() reads or writes, orders included."""
    return (detector.regions, detector.covered_branches(),
            list(detector._counts.items()),
            [(src, list(dst.items())) for src, dst in detector._succ.items()],
            detector._prev)


def assert_matches_loop(ids, *params, more=(3, 1, 3, 0)):
    ref = HotRegionDetector(*params)
    expected = observe_all(ref, ids)
    detector, in_region = detect_hot_regions(make_trace(ids), *params)
    np.testing.assert_array_equal(in_region, expected)
    assert detector_state(detector) == detector_state(ref)
    for branch in more:
        assert detector.observe(branch) == ref.observe(branch)
    assert detector_state(detector) == detector_state(ref)
    return detector


def looping_ids(seed: int, n: int, n_ids: int) -> np.ndarray:
    """Loop bodies of a few branches with random exits: hot paths with
    dominant, tied and diffuse successors."""
    rng = np.random.default_rng(seed)
    bodies = [rng.integers(0, n_ids, int(rng.integers(1, 6)))
              for _ in range(3)]
    chunks, total = [], 0
    while total < n:
        body = bodies[int(rng.integers(len(bodies)))]
        chunk = np.tile(body, int(rng.integers(1, 40)))
        noise = rng.random(len(chunk)) < 0.05
        chunk[noise] = rng.integers(0, n_ids, int(noise.sum()))
        chunks.append(chunk)
        total += len(chunk)
    return np.concatenate(chunks)[:n]


def hot_cold_model():
    hot = Region(0, tuple(StaticBranch(i, ConstantBias(1.0))
                          for i in range(3)),
                 body_instructions=24, mean_trip_count=30.0, weight=50.0)
    cold = Region(1, tuple(StaticBranch(10 + i, ConstantBias(1.0))
                           for i in range(3)),
                  body_instructions=24, mean_trip_count=2.0, weight=0.1)
    return BenchmarkModel("hc", "in", (hot, cold))


class TestDetector:
    def test_region_forms_at_threshold(self):
        detector = HotRegionDetector(hot_threshold=10)
        formed = None
        for _ in range(10):
            for b in (0, 1, 2):
                region = detector.observe(b)
                if region is not None:
                    formed = region
        assert formed is not None
        assert formed.branches == (0, 1, 2)

    def test_region_follows_dominant_successors(self):
        detector = HotRegionDetector(hot_threshold=50)
        rng = np.random.default_rng(0)
        for _ in range(60):
            detector.observe(0)
            detector.observe(1)
            # Noise successor occasionally.
            if rng.random() < 0.1:
                detector.observe(9)
            detector.observe(2)
        regions = detector.regions
        assert regions
        assert regions[0].branches[0] == 0
        assert 1 in regions[0].branches

    def test_covered_branches_accumulate(self):
        detector = HotRegionDetector(hot_threshold=5)
        for _ in range(5):
            detector.observe(3)
        assert 3 in detector.covered_branches()

    def test_validation(self):
        with pytest.raises(ValueError):
            HotRegionDetector(hot_threshold=0)
        with pytest.raises(ValueError):
            HotRegionDetector(min_edge_fraction=0.0)


class TestDetectOverTrace:
    def test_hot_region_covers_hot_events(self):
        trace = generate_trace(hot_cold_model(), 20_000, seed=1)
        detector, in_region = detect_hot_regions(trace, hot_threshold=200)
        covered = detector.covered_branches()
        assert {0, 1, 2} <= covered
        # Cold branches never cross the threshold.
        assert not ({10, 11, 12} & covered)
        # Most hot events (after warmup) are inside a region.
        hot_events = np.isin(trace.branch_ids, [0, 1, 2])
        assert in_region[hot_events].mean() > 0.8

    def test_events_before_formation_uncovered(self):
        trace = single_branch_trace([True] * 100)
        _detector, in_region = detect_hot_regions(trace, hot_threshold=50)
        assert not in_region[:49].any()
        assert in_region[50:].all()

    def test_mssp_gating_reduces_speculation(self):
        from repro.mssp.simulator import simulate_mssp

        trace = generate_trace(uniform_model(4), 30_000, seed=2)
        ungated = simulate_mssp(trace)
        gated = simulate_mssp(trace, hot_region_threshold=10**9)
        # An unreachable threshold means no regions, no speculation.
        assert gated.mean_distillation == pytest.approx(1.0)
        assert ungated.mean_distillation < 1.0


class TestDetectMatchesLoop:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3000), st.integers(1, 30),
           st.sampled_from([1, 2, 7, 50, 500, 10**9]), st.integers(1, 16),
           st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    def test_looping_traces(self, seed, n, n_ids, threshold, length,
                            fraction):
        assert_matches_loop(looping_ids(seed, n, n_ids), threshold, length,
                            fraction)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=300),
           st.sampled_from([1, 2, 3, 50]), st.integers(1, 5))
    def test_random_traces(self, ids, threshold, length):
        assert_matches_loop(ids, threshold, length, 0.3)

    @pytest.mark.parametrize("threshold", [1, 50, 500, 10**9])
    def test_spec_like_trace(self, threshold):
        trace = generate_trace(hot_cold_model(), 20_000, seed=1)
        assert_matches_loop(trace.branch_ids, threshold, 16, 0.3)

    def test_one_event(self):
        assert_matches_loop([4], 2, 16, 0.3)
        detector = assert_matches_loop([4], 1, 16, 0.3)
        assert detector.regions[0].branches == (4,)

    def test_self_loop_only(self):
        detector = assert_matches_loop([5] * 40, 10, 16, 0.3, more=(5, 5))
        assert [r.branches for r in detector.regions] == [(5,)]

    @pytest.mark.parametrize("first, second", [(1, 2), (2, 1)])
    def test_equal_weights_pick_the_earlier_edge(self, first, second):
        # At 0's third execution 0->first and 0->second weigh 1 each.
        ids = [0, first, 0, second, 0, first, 0, second]
        detector = assert_matches_loop(ids, 3, 16, 0.3)
        assert detector.regions[0].branches == (0, first)
