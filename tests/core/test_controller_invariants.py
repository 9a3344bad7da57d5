"""Model-based invariants of the controller FSM.

Rather than checking specific scenarios, these tests drive randomized
outcome sequences through the controller and assert structural
properties that must hold for *any* input: legal transition grammar,
count consistency, monotone indices, terminal disabling.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.core.states import BranchState, TransitionKind
from repro.sim.vector import simulate_branch

config_strategy = st.builds(
    ControllerConfig,
    monitor_period=st.integers(1, 10),
    selection_threshold=st.sampled_from([0.6, 0.8, 0.95, 1.0]),
    evict_counter_max=st.sampled_from([50, 100, 150]),
    misspec_increment=st.just(50),
    correct_decrement=st.sampled_from([1, 5]),
    revisit_period=st.integers(1, 12),
    oscillation_limit=st.integers(1, 4),
    optimization_latency=st.sampled_from([0, 13, 120]),
    eviction_enabled=st.booleans(),
    revisit_enabled=st.booleans(),
)

outcomes_strategy = st.lists(st.booleans(), min_size=1, max_size=400)


def run(config, outcomes, stride=9):
    taken = np.asarray(outcomes, dtype=bool)
    instr = np.arange(1, len(taken) + 1, dtype=np.int64) * stride
    return simulate_branch(0, taken, instr, config)


_LEGAL_AFTER = {
    None: {TransitionKind.SELECT, TransitionKind.REJECT,
           TransitionKind.DISABLE},
    TransitionKind.SELECT: {TransitionKind.EVICT},
    TransitionKind.EVICT: {TransitionKind.SELECT, TransitionKind.REJECT,
                           TransitionKind.DISABLE},
    TransitionKind.REJECT: {TransitionKind.REVISIT},
    TransitionKind.REVISIT: {TransitionKind.SELECT, TransitionKind.REJECT,
                             TransitionKind.DISABLE},
    TransitionKind.DISABLE: set(),
}


class TestTransitionGrammar:
    @settings(max_examples=200, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_transition_sequence_is_legal(self, config, outcomes):
        summary = run(config, outcomes)
        previous = None
        for tr in summary.transitions:
            assert tr.kind in _LEGAL_AFTER[previous], \
                (previous, tr.kind, summary.transitions)
            previous = tr.kind

    @settings(max_examples=200, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_counts_match_transitions(self, config, outcomes):
        summary = run(config, outcomes)
        kinds = [t.kind for t in summary.transitions]
        assert summary.bias_entries == kinds.count(TransitionKind.SELECT)
        assert summary.evictions == kinds.count(TransitionKind.EVICT)
        assert summary.bias_entries <= config.oscillation_limit
        assert summary.evictions <= summary.bias_entries

    @settings(max_examples=200, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_indices_strictly_increase(self, config, outcomes):
        summary = run(config, outcomes)
        indices = [t.exec_index for t in summary.transitions]
        assert indices == sorted(indices)
        assert all(0 <= i < len(outcomes) for i in indices)
        instrs = [t.instr for t in summary.transitions]
        assert instrs == sorted(instrs)

    @settings(max_examples=200, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_speculation_bounded_by_executions(self, config, outcomes):
        summary = run(config, outcomes)
        assert 0 <= summary.correct + summary.incorrect \
            <= summary.exec_count

    @settings(max_examples=200, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_no_speculation_without_selection(self, config, outcomes):
        summary = run(config, outcomes)
        if summary.bias_entries == 0:
            assert summary.correct == 0
            assert summary.incorrect == 0

    @settings(max_examples=100, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_disabled_is_terminal(self, config, outcomes):
        summary = run(config, outcomes)
        kinds = [t.kind for t in summary.transitions]
        if TransitionKind.DISABLE in kinds:
            assert kinds.index(TransitionKind.DISABLE) == len(kinds) - 1
            assert summary.final_state is BranchState.DISABLED


class TestArcRemovalInvariants:
    @settings(max_examples=100, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_no_eviction_means_no_evict_transitions(self, config,
                                                    outcomes):
        cfg = config.without_eviction()
        summary = run(cfg, outcomes)
        assert summary.evictions == 0
        assert summary.bias_entries <= 1  # can never leave BIASED

    @settings(max_examples=100, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_no_revisit_means_no_revisit_transitions(self, config,
                                                     outcomes):
        cfg = config.without_revisit()
        summary = run(cfg, outcomes)
        kinds = [t.kind for t in summary.transitions]
        assert TransitionKind.REVISIT not in kinds
        # Without revisit, at most one REJECT can ever happen... unless
        # eviction re-enters MONITOR.
        if not cfg.eviction_enabled:
            assert kinds.count(TransitionKind.REJECT) <= 1

    @settings(max_examples=100, deadline=None)
    @given(config=config_strategy, outcomes=outcomes_strategy)
    def test_perfect_branch_never_evicted(self, config, outcomes):
        """A perfectly biased branch can never saturate the counter."""
        summary = run(config, [True] * len(outcomes))
        assert summary.evictions == 0
        assert summary.incorrect == 0


@st.composite
def _latency_config(draw):
    period = draw(st.integers(1, 4))
    return ControllerConfig(
        monitor_period=draw(st.integers(1, 6)),
        selection_threshold=draw(st.sampled_from([0.6, 0.75, 1.0])),
        evict_counter_max=draw(st.integers(1, 4)),
        misspec_increment=draw(st.integers(1, 3)),
        correct_decrement=1,
        revisit_period=draw(st.integers(1, 8)),
        oscillation_limit=draw(st.integers(1, 4)),
        optimization_latency=draw(st.integers(0, 64)),
        eviction_enabled=draw(st.booleans()),
        revisit_enabled=draw(st.booleans()),
        evict_by_sampling=draw(st.booleans()),
        evict_sample_period=period,
        evict_sample_len=draw(st.integers(1, period)),
        evict_bias_threshold=0.75,
    )


class TestDeploymentQueue:
    @settings(max_examples=300, deadline=None)
    @given(config=_latency_config(),
           events=st.lists(st.tuples(st.booleans(), st.integers(1, 9)),
                           min_size=1, max_size=300))
    def test_at_most_two_deployments_pending(self, config, events):
        """A SELECT leaves the branch BIASED with its episode off until
        its own code lands, and only an engaged episode can EVICT, so
        the queue never holds more than [repair, select] — the two
        slots a columnar row keeps."""
        ctrl = ReactiveBranchController(config, 0)
        instr = 0
        for taken, gap in events:
            instr += gap
            ctrl.observe(taken, instr)
            assert len(ctrl._pending) <= 2
