"""The per-branch FSM kernel must be bit-identical to scalar ``observe``.

``apply_chunk`` (:mod:`repro.sim.vector`) is the per-branch kernel: the
offline simulator runs every branch's whole history through it, and the
service's columnar engine hands it single-branch batches and the window
shapes it cannot express.  It advances one controller over a run of
per-branch events with vectorized interior segments and exact handling
of FSM boundaries and pending deployment landings.  These tests drive a
controller event-by-event through the scalar reference and a twin
through ``apply_chunk`` under *randomized chunk boundaries*, then
require identical exported state — every counter, every transition,
every pending landing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ControllerConfig, scaled_config
from repro.core.controller import ReactiveBranchController
from repro.sim.vector import apply_chunk

CONFIGS = {
    "tiny": ControllerConfig(
        monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=6,
        oscillation_limit=3, optimization_latency=0),
    "tiny-latency": ControllerConfig(
        monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=6,
        oscillation_limit=3, optimization_latency=64),
    "tiny-sampling": ControllerConfig(
        monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=9,
        oscillation_limit=2, optimization_latency=16,
        evict_by_sampling=True, evict_sample_period=12, evict_sample_len=5,
        evict_bias_threshold=0.6),
    "tiny-stride": ControllerConfig(
        monitor_period=6, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=8,
        oscillation_limit=3, optimization_latency=10,
        monitor_sample_stride=3),
    "tiny-no-evict": ControllerConfig(
        monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=6,
        oscillation_limit=3, optimization_latency=8,
        eviction_enabled=False),
    "tiny-no-revisit": ControllerConfig(
        monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=6,
        oscillation_limit=3, optimization_latency=8,
        revisit_enabled=False),
}


def _branch_events(n: int, seed: int, bias_schedule) -> tuple:
    """Outcomes for one branch whose bias shifts over phases."""
    rng = np.random.default_rng(seed)
    phases = np.array_split(np.arange(n), len(bias_schedule))
    taken = np.empty(n, dtype=bool)
    for idx, bias in zip(phases, bias_schedule):
        taken[idx] = rng.uniform(size=len(idx)) < bias
    instrs = np.cumsum(rng.integers(1, 9, n)).astype(np.int64)
    return taken, instrs


def _scalar_run(config, taken, instrs):
    ctrl = ReactiveBranchController(config, branch=1)
    correct = incorrect = 0
    for t, i in zip(taken, instrs):
        out = ctrl.observe(bool(t), int(i))
        if out.speculated:
            correct += out.correct
            incorrect += not out.correct
    return ctrl, correct, incorrect


def _chunked_run(config, taken, instrs, rng):
    ctrl = ReactiveBranchController(config, branch=1)
    correct = incorrect = 0
    lo = 0
    while lo < len(taken):
        hi = min(len(taken), lo + int(rng.integers(1, 40)))
        c, x = apply_chunk(ctrl, taken[lo:hi], instrs[lo:hi])
        correct += c
        incorrect += x
        lo = hi
    return ctrl, correct, incorrect


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_equals_scalar_across_phases(config_name, seed):
    config = CONFIGS[config_name]
    # Phases chosen to force SELECT, EVICT, REVISIT and re-SELECT.
    taken, instrs = _branch_events(
        600, seed, bias_schedule=[0.95, 0.5, 1.0, 0.1, 0.98])
    ref, ref_c, ref_x = _scalar_run(config, taken, instrs)
    rng = np.random.default_rng(seed + 1000)
    fast, fast_c, fast_x = _chunked_run(config, taken, instrs, rng)
    assert fast.export_state() == ref.export_state()
    assert (fast_c, fast_x) == (ref_c, ref_x)
    assert (fast.correct, fast.incorrect) == (ref.correct, ref.incorrect)


def test_single_whole_trace_chunk_equals_scalar():
    config = CONFIGS["tiny-latency"]
    taken, instrs = _branch_events(400, 7, [0.99, 0.3, 0.97])
    ref, ref_c, ref_x = _scalar_run(config, taken, instrs)
    fast = ReactiveBranchController(config, branch=1)
    c, x = apply_chunk(fast, taken, instrs)
    assert fast.export_state() == ref.export_state()
    assert (c, x) == (ref_c, ref_x)


def test_chunked_equals_scalar_at_paper_scale_config():
    config = scaled_config()
    taken, instrs = _branch_events(3_000, 11, [0.999, 0.4, 0.999])
    ref, ref_c, ref_x = _scalar_run(config, taken, instrs)
    rng = np.random.default_rng(42)
    fast, c, x = _chunked_run(config, taken, instrs, rng)
    assert fast.export_state() == ref.export_state()
    assert (c, x) == (ref_c, ref_x)


sampling_configs = st.builds(
    ControllerConfig,
    monitor_period=st.integers(1, 8),
    selection_threshold=st.sampled_from([0.6, 0.75, 0.9]),
    revisit_period=st.integers(1, 10),
    oscillation_limit=st.integers(1, 4),
    optimization_latency=st.sampled_from([0, 7, 40]),
    evict_by_sampling=st.just(True),
    evict_sample_period=st.sampled_from([5, 8, 12]),
    evict_sample_len=st.sampled_from([1, 2, 5]),
    evict_bias_threshold=st.sampled_from([0.6, 0.8, 1.0]),
)


@settings(max_examples=40, deadline=None)
@given(config=sampling_configs, seed=st.integers(0, 10_000))
def test_sampling_eviction_split_at_every_window_offset(config, seed):
    """Evict-by-sampling carries its window position and count across
    chunks: cut the history before every execution at window offset
    ``o``, for each ``o`` of the sample period, and the kernel must
    still match per-event ``observe`` exactly.  Landings fall inside
    the chunks (deployment latency splits them mid-window)."""
    taken, instrs = _branch_events(
        400, seed, bias_schedule=[0.95, 0.6, 1.0, 0.2, 0.9, 0.97])
    ref = ReactiveBranchController(config, branch=1)
    ref_c = ref_x = 0
    offsets = []  # each execution's sample-window position on entry
    for t, i in zip(taken, instrs):
        offsets.append(ref._window_pos)
        out = ref.observe(bool(t), int(i))
        ref_c += out.speculated and out.correct
        ref_x += out.misspeculated
    offsets = np.array(offsets)
    for offset in range(config.evict_sample_period):
        cuts = np.flatnonzero(offsets == offset)
        bounds = np.unique(np.concatenate(([0], cuts, [len(taken)])))
        fast = ReactiveBranchController(config, branch=1)
        c = x = 0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            dc, dx = apply_chunk(fast, taken[lo:hi], instrs[lo:hi])
            c += dc
            x += dx
        assert fast.export_state() == ref.export_state(), offset
        assert (c, x) == (ref_c, ref_x)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_kernel_never_calls_observe(config_name, monkeypatch):
    """``apply_chunk`` resolves every config family in array code: it
    must not fall back to the scalar spec's ``observe`` anywhere."""
    config = CONFIGS[config_name]
    taken, instrs = _branch_events(
        600, 5, bias_schedule=[0.95, 0.5, 1.0, 0.1, 0.98])
    ref, ref_c, ref_x = _scalar_run(config, taken, instrs)

    def forbidden(self, taken, instr):
        raise AssertionError("apply_chunk called observe()")

    monkeypatch.setattr(ReactiveBranchController, "observe", forbidden)
    fast, c, x = _chunked_run(config, taken, instrs,
                              np.random.default_rng(3))
    whole = ReactiveBranchController(config, branch=1)
    apply_chunk(whole, taken, instrs)
    assert fast.export_state() == ref.export_state()
    assert whole.export_state() == ref.export_state()
    assert (c, x) == (ref_c, ref_x)
