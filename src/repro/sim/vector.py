"""The per-branch FSM kernel and the offline simulator built on it.

The reactive model tracks every branch independently (Section 3.2: "the
behavior of each branch is tracked independently, with the exception of
modeling the optimization latency" — and the latency is expressed in
global instruction stamps, which every event carries).  Within a branch
the FSM only changes state a handful of times, so :func:`apply_chunk`
advances a live :class:`~repro.core.controller.ReactiveBranchController`
over a run of the branch's executions with a few numpy scans per state
instead of a per-event Python loop:

* a monitor window (strided or not) and a revisit countdown are one
  slice reduction up to the known decision execution;
* the eviction counter is a floored-at-zero random walk; its first
  crossing is ``cumsum`` plus a running minimum (for a walk clamped
  below at zero, ``c_j = S_j - min(0, min_{i<=j} S_i)`` exactly),
  seeded with the live counter value as carry-in;
* eviction by sampling reduces every sample window from one prefix sum,
  seeded with the live window position and count as carry-in;
* pending re-optimization landings split the run at ``searchsorted``
  boundaries, so deployment accounting stays stamp-exact.

The contract is *bit-exactness*: after ``apply_chunk(ctrl, t, s)`` the
controller is in precisely the state ``len(t)`` successive
:meth:`~repro.core.controller.ReactiveBranchController.observe` calls
would leave it in, and the returned ``(correct, incorrect)`` deltas
match the outcomes those calls would report — for every configuration,
without ever calling ``observe``.  This is what makes service snapshots
interchangeable with offline runs.

The offline simulator (:func:`run_vector`, :func:`simulate_branch`,
:func:`speculation_flags`) drives one controller per branch through
its whole history in a single :func:`apply_chunk` call; every
experiment driver uses it.  The service's cross-branch columnar engine
(:mod:`repro.serve.colpath`) shares :func:`classify_split` and
:func:`deploy_delay`, and hands single-branch batches and the window
shapes it cannot express to :func:`apply_chunk`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.core.states import BranchState, TransitionKind
from repro.core.stats import collect_transition_stats
from repro.sim.metrics import SpeculationMetrics
from repro.sim.summary import BranchSummary, ReactiveRunResult
from repro.trace.stream import Trace

__all__ = ["apply_chunk", "classify_split", "deploy_delay", "run_vector",
           "simulate_branch", "speculation_flags"]

#: Longest run of an engaged episode scanned in one step.
_ENGAGED_SCAN = 1 << 15


def deploy_delay(cfg) -> int:
    """Instruction delay until a scheduled re-optimization lands.

    Mirrors ``ReactiveBranchController._schedule_deploy``: with zero
    configured latency the new code still cannot affect the current
    execution, so it lands one instruction later (stamps strictly
    grow).
    """
    latency = cfg.optimization_latency
    return latency if latency > 0 else 1


def classify_split(taken_counts: np.ndarray, samples: np.ndarray,
                   bias_entries: np.ndarray, cfg,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
    """Vectorized monitor-classify decision over many branches at once.

    The scalar arc lives in
    ``ReactiveBranchController._classify_monitor``; this evaluates the
    identical bias test (int64 counts, one float64 division — bit-equal
    to Python's ``int / int``) for whole arrays, returning boolean
    masks ``(select, reject, disable, direction)``.  ``select`` and
    ``disable`` are disjoint; ``reject`` is their complement.
    """
    majority = np.maximum(taken_counts, samples - taken_counts)
    biased = majority / samples >= cfg.selection_threshold
    direction = (2 * taken_counts) >= samples
    disable = biased & (bias_entries >= cfg.oscillation_limit)
    select = biased & ~disable
    return select, ~biased, disable, direction


def apply_chunk(ctrl: ReactiveBranchController,
                taken: np.ndarray, instrs: np.ndarray) -> tuple[int, int]:
    """Feed ``ctrl`` its next executions; returns (correct, incorrect).

    ``taken``/``instrs`` are the branch's outcomes and global
    instruction stamps in execution order, continuing the controller's
    history.  Equivalent to — and property-tested against — calling
    ``ctrl.observe`` per event.
    """
    n = len(taken)
    i = 0
    correct_delta = 0
    incorrect_delta = 0
    while i < n:
        pending = ctrl._pending
        if pending:
            when = pending[0][0]
            if when <= instrs[i]:
                # Landing happens as part of processing event i, before
                # its accounting — same order as observe().
                ctrl._land_due(int(instrs[i]))
                continue
            limit = i + int(np.searchsorted(instrs[i:], when, side="left"))
        else:
            limit = n
        c, x, i = _segment(ctrl, taken, instrs, i, limit)
        correct_delta += c
        incorrect_delta += x
    return correct_delta, incorrect_delta


def _account(ctrl: ReactiveBranchController,
             seg_taken: np.ndarray) -> tuple[int, int]:
    """Speculation accounting for a segment under fixed deployment."""
    if not ctrl._deployed:
        return 0, 0
    hits = int(np.count_nonzero(seg_taken))
    if not ctrl._deployed_direction:
        hits = len(seg_taken) - hits
    misses = len(seg_taken) - hits
    ctrl.correct += hits
    ctrl.incorrect += misses
    return hits, misses


def _segment(ctrl: ReactiveBranchController, taken: np.ndarray,
             instrs: np.ndarray, i: int, limit: int) -> tuple[int, int, int]:
    """Process events ``[i, limit)`` — no pending landings inside — up
    to and including the next FSM boundary (or the end of one bounded
    scan of an engaged episode).  Returns (correct, incorrect, new_i);
    consumes at least one event."""
    cfg = ctrl.config
    state = ctrl.state
    span = limit - i

    if state is BranchState.MONITOR:
        # The classify decision fires at offset monitor_period-1 from
        # state entry; events before it only sample.
        done = ctrl.exec_count - ctrl._state_entry_exec
        remaining = cfg.monitor_period - done
        m = min(span, remaining)
        seg_taken = taken[i:i + m]
        stride = cfg.monitor_sample_stride
        if stride == 1:
            ctrl._monitor_samples += m
            ctrl._monitor_taken += int(np.count_nonzero(seg_taken))
        else:
            first = (-done) % stride
            sampled = seg_taken[first::stride]
            ctrl._monitor_samples += len(sampled)
            ctrl._monitor_taken += int(np.count_nonzero(sampled))
        c, x = _account(ctrl, seg_taken)
        ctrl.exec_count += m
        if m == remaining:
            ctrl._classify_monitor(ctrl.exec_count - 1,
                                   int(instrs[i + m - 1]))
        return c, x, i + m

    if state is BranchState.UNBIASED:
        if cfg.revisit_enabled:
            fire = ctrl._state_entry_exec + cfg.revisit_period - 1
            m = min(span, fire - ctrl.exec_count + 1)
        else:
            m = span
        c, x = _account(ctrl, taken[i:i + m])
        ctrl.exec_count += m
        if cfg.revisit_enabled and ctrl.exec_count - 1 == fire:
            ctrl._enter(BranchState.MONITOR, TransitionKind.REVISIT,
                        ctrl.exec_count - 1, int(instrs[i + m - 1]))
        return c, x, i + m

    if (state is BranchState.DISABLED or not ctrl._episode_active
            or not cfg.eviction_enabled):
        # No arc can fire (a BIASED branch whose episode code has not
        # landed, and cannot land inside this segment, is inert too):
        # only accounting runs.
        c, x = _account(ctrl, taken[i:limit])
        ctrl.exec_count += span
        return c, x, limit

    # BIASED with the episode engaged.  Its own speculative code is
    # deployed (the episode engages when that code lands and ends at
    # EVICT, before the repair lands), so each event's speculation
    # outcome is its match against the deployed direction.  Scans are
    # bounded so an early eviction does not pay for the rest of a long
    # history; the live counter or window carries into the next one.
    limit = min(limit, i + _ENGAGED_SCAN)
    correct_vec = taken[i:limit] == ctrl._deployed_direction
    if cfg.evict_by_sampling:
        r = _sampling_evict(ctrl, correct_vec)
    else:
        r = _counter_evict(ctrl, correct_vec)
    m = len(correct_vec) if r is None else r + 1
    c = int(np.count_nonzero(correct_vec[:m]))
    x = m - c
    ctrl.correct += c
    ctrl.incorrect += x
    ctrl.exec_count += m
    if r is not None:
        ctrl._evict(ctrl.exec_count - 1, int(instrs[i + r]))
    return c, x, i + m


def _counter_evict(ctrl: ReactiveBranchController,
                   correct_vec: np.ndarray) -> int | None:
    """Saturating-counter eviction over an engaged run.

    Returns the relative index of the EVICT decision (None if the walk
    never reaches the ceiling) and leaves ``ctrl._counter`` at its
    value after the consumed events.
    """
    cfg = ctrl.config
    if correct_vec.all():
        # All correct — the walk only decays; no eviction possible and
        # the floored endpoint is order-independent.
        ctrl._counter = max(0, ctrl._counter
                            - len(correct_vec) * cfg.correct_decrement)
        return None
    steps = np.where(correct_vec, -cfg.correct_decrement,
                     cfg.misspec_increment)
    cum = np.cumsum(steps) + ctrl._counter
    walk = cum - np.minimum.accumulate(np.minimum(cum, 0))
    hits = np.flatnonzero(walk >= cfg.evict_counter_max)
    if len(hits) == 0:
        ctrl._counter = int(walk[-1])
        return None
    r = int(hits[0])
    ctrl._counter = min(cfg.evict_counter_max, int(walk[r]))
    return r


def _sampling_evict(ctrl: ReactiveBranchController,
                    correct_vec: np.ndarray) -> int | None:
    """Periodic re-sampling eviction over an engaged run.

    Window positions continue from ``ctrl._window_pos``; a sample
    completes at position ``evict_sample_len - 1``, and its count is
    the run's correct outcomes since the sample began, plus
    ``ctrl._window_correct`` for the first one.  Returns the relative
    index of the first completion below the eviction bias threshold
    (None if every completed sample passes) and leaves the window
    bookkeeping where ``observe`` would.
    """
    cfg = ctrl.config
    period, sample_len = cfg.evict_sample_period, cfg.evict_sample_len
    n = len(correct_vec)
    pos0 = ctrl._window_pos
    carry = ctrl._window_correct
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(correct_vec, out=prefix[1:])
    next_end = (sample_len - 1 - pos0) % period
    ends = np.arange(next_end, n, period)
    if len(ends):
        counts = prefix[ends + 1] - prefix[np.maximum(ends - sample_len + 1,
                                                      0)]
        counts[0] += carry
        # int64 / int, like the scalar's int / int: one float64 division.
        bad = np.flatnonzero(counts / sample_len < cfg.evict_bias_threshold)
        if len(bad):
            r = int(ends[bad[0]])
            ctrl._window_pos = (pos0 + r + 1) % period
            ctrl._window_correct = 0
            return r
        carry = 0
        next_end = int(ends[-1]) + period
    # The sample in progress when the run ends.
    begun = min(max(next_end - sample_len + 1, 0), n)
    ctrl._window_pos = (pos0 + n) % period
    ctrl._window_correct = carry + int(prefix[n] - prefix[begun])
    return None


def simulate_branch(branch: int, taken: np.ndarray, instr: np.ndarray,
                    cfg: ControllerConfig) -> BranchSummary:
    """Run the full reactive FSM for one branch's execution history.

    ``taken``/``instr`` are the branch's outcomes and global instruction
    stamps in execution order.  Produces exactly the per-branch summary
    the reference engine would.
    """
    n = len(taken)
    if n < cfg.monitor_period:
        # No arc can fire before the first monitor period ends.  Short
        # histories are common (the flush drivers simulate windows), so
        # skip building a controller for them.
        return BranchSummary(branch=branch, exec_count=n, correct=0,
                             incorrect=0, bias_entries=0, evictions=0,
                             final_state=BranchState.MONITOR,
                             transitions=())
    ctrl = ReactiveBranchController(cfg, branch)
    apply_chunk(ctrl, taken, instr)
    return BranchSummary.from_controller(ctrl)


def _deployed_windows(summary: BranchSummary, taken: np.ndarray,
                      instr: np.ndarray, cfg: ControllerConfig):
    """Yield ``(start, end, direction)`` for each run of executions
    ``[start, end)`` that executed the branch's speculative code.

    A SELECT's code lands :func:`deploy_delay` instructions after the
    arc and runs until the repair requested by the next EVICT lands, or
    to the end of the history.  Its direction is the majority of the
    SELECT's (possibly strided) monitor window.
    """
    delay = deploy_delay(cfg)
    start = None
    for t in summary.transitions:
        lands = int(np.searchsorted(instr, t.instr + delay, side="left"))
        if t.kind is TransitionKind.SELECT:
            window = taken[t.exec_index + 1 - cfg.monitor_period:
                           t.exec_index + 1:cfg.monitor_sample_stride]
            start, direction = lands, 2 * int(window.sum()) >= len(window)
        elif t.kind is TransitionKind.EVICT:
            yield start, lands, direction
            start = None
    if start is not None:
        yield start, len(taken), direction


def speculation_flags(trace: Trace, config: ControllerConfig,
                      ) -> tuple[np.ndarray, np.ndarray, ReactiveRunResult]:
    """Per-event speculation outcomes of a reactive run.

    Returns ``(spec_flags, misspec_flags, result)``: boolean arrays in
    trace order marking events executed as speculations and events whose
    speculation failed (``misspec_flags`` implies ``spec_flags``).  The
    MSSP task builder consumes these.
    """
    taken = trace.taken
    instrs = trace.instrs
    spec_flags = np.zeros(len(trace), dtype=bool)
    misspec_flags = np.zeros(len(trace), dtype=bool)
    summaries = []
    for branch_id, idx in trace.groups():
        outcomes = taken[idx]
        stamps = instrs[idx]
        summary = simulate_branch(branch_id, outcomes, stamps, config)
        summaries.append(summary)
        for a, b, direction in _deployed_windows(summary, outcomes, stamps,
                                                 config):
            events = idx[a:b]
            spec_flags[events] = True
            misspec_flags[events] = outcomes[a:b] != direction
    result = _package(trace, config, summaries)
    return spec_flags, misspec_flags, result


def _package(trace: Trace, config: ControllerConfig,
             summaries: list[BranchSummary]) -> ReactiveRunResult:
    summaries = sorted(summaries, key=lambda s: s.branch)
    branches = tuple(summaries)
    metrics = SpeculationMetrics(
        dynamic_branches=len(trace),
        correct=sum(s.correct for s in branches),
        incorrect=sum(s.incorrect for s in branches),
        instructions=trace.total_instructions,
    )
    stats = collect_transition_stats(branches, trace.total_instructions)
    return ReactiveRunResult(
        trace_name=trace.name,
        input_name=trace.input_name,
        config=config,
        metrics=metrics,
        stats=stats,
        branches=branches,
        bank=None,
    )


def run_vector(trace: Trace, config: ControllerConfig) -> ReactiveRunResult:
    """Run the reactive controller over ``trace``, branch by branch."""
    taken = trace.taken
    instrs = trace.instrs
    summaries = []
    for branch_id, idx in trace.groups():
        summaries.append(simulate_branch(
            branch_id, taken[idx], instrs[idx], config))
    return _package(trace, config, summaries)
