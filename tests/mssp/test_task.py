"""Tests for MSSP task construction.

:func:`build_tasks` reduces over the task bounds in array code;
``loop_tasks`` keeps the per-task loop it must match, down to the bits
of each task's summed elimination.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mssp.task import Task, build_tasks
from repro.trace.stream import Trace
from repro.trace.synthetic import single_branch_trace


def loop_tasks(trace, spec_flags, misspec_flags, mispred_flags,
               task_branches, elim_weights=None) -> list[Task]:
    """The per-task reference loop."""
    tasks = []
    prev_instr = 0
    for start in range(0, len(trace), task_branches):
        stop = min(len(trace), start + task_branches)
        end_instr = int(trace.instrs[stop - 1])
        spec = spec_flags[start:stop]
        hw_mispred = mispred_flags[start:stop]
        tasks.append(Task(
            index=len(tasks),
            instructions=max(1, end_instr - prev_instr),
            branches=stop - start,
            speculated=int(spec.sum()),
            misspeculated=bool(misspec_flags[start:stop].any()),
            mispredicted=int((hw_mispred & ~spec).sum()),
            mispredicted_all=int(hw_mispred.sum()),
            eliminated=(float(elim_weights[start:stop][spec].sum())
                        if elim_weights is not None else None),
        ))
        prev_instr = end_instr
    return tasks


def flags(n, true_at=()):
    arr = np.zeros(n, dtype=bool)
    arr[list(true_at)] = True
    return arr


class TestBuildTasks:
    def test_slices_fixed_size(self):
        trace = single_branch_trace([True] * 100)
        tasks = build_tasks(trace, flags(100), flags(100), flags(100), 32)
        assert [t.branches for t in tasks] == [32, 32, 32, 4]
        assert sum(t.instructions for t in tasks) \
            == trace.total_instructions

    def test_speculation_counts_per_task(self):
        trace = single_branch_trace([True] * 64)
        spec = flags(64, range(0, 40))
        tasks = build_tasks(trace, spec, flags(64), flags(64), 32)
        assert tasks[0].speculated == 32
        assert tasks[1].speculated == 8

    def test_any_misspec_squashes_whole_task(self):
        trace = single_branch_trace([True] * 64)
        misspec = flags(64, [5, 6, 7])  # 3 misspecs, same task
        spec = flags(64, [5, 6, 7])
        tasks = build_tasks(trace, spec, misspec, flags(64), 32)
        assert tasks[0].misspeculated
        assert not tasks[1].misspeculated

    def test_mispredictions_exclude_speculated(self):
        trace = single_branch_trace([True] * 32)
        spec = flags(32, [0, 1])
        mispred = flags(32, [0, 1, 2])
        tasks = build_tasks(trace, spec, flags(32), mispred, 32)
        assert tasks[0].mispredicted == 1
        assert tasks[0].mispredicted_all == 3

    def test_rejects_mismatched_flags(self):
        trace = single_branch_trace([True] * 10)
        with pytest.raises(ValueError):
            build_tasks(trace, flags(5), flags(10), flags(10), 4)


class TestTaskValidation:
    def test_speculated_fraction(self):
        task = Task(0, 100, 32, 16, False, 2, 4)
        assert task.speculated_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(instructions=0, branches=1, speculated=0,
             misspeculated=False, mispredicted=0, mispredicted_all=0),
        dict(instructions=10, branches=4, speculated=5,
             misspeculated=False, mispredicted=0, mispredicted_all=0),
        dict(instructions=10, branches=4, speculated=2,
             misspeculated=False, mispredicted=3, mispredicted_all=3),
        dict(instructions=10, branches=4, speculated=0,
             misspeculated=False, mispredicted=2, mispredicted_all=1),
    ])
    def test_rejects_inconsistent_tasks(self, kwargs):
        with pytest.raises(ValueError):
            Task(index=0, **kwargs)


class TestBuildTasksMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3000), st.integers(1, 300),
           st.floats(0.0, 1.0), st.booleans())
    def test_random_flags_and_weights(self, seed, n, task_branches,
                                      spec_rate, weighted):
        rng = np.random.default_rng(seed)
        trace = Trace("t", "in", np.zeros(n, dtype=np.int32),
                      np.ones(n, dtype=bool),
                      np.cumsum(rng.integers(1, 20, n)))
        spec = rng.random(n) < spec_rate
        misspec = spec & (rng.random(n) < 0.05)
        mispred = rng.random(n) < 0.1
        weights = (rng.random(n) * 10.0 ** rng.integers(-3, 4)
                   if weighted else None)
        expected = loop_tasks(trace, spec, misspec, mispred, task_branches,
                              weights)
        got = build_tasks(trace, spec, misspec, mispred, task_branches,
                          weights)
        assert got == expected
        if weighted:
            assert [t.eliminated.hex() for t in got] \
                == [t.eliminated.hex() for t in expected]

    def test_trailing_partial_task_with_weights(self):
        rng = np.random.default_rng(7)
        n = 32 * 40 + 5
        trace = single_branch_trace([True] * n)
        spec = rng.random(n) < 0.9
        weights = rng.random(n) * 3.7
        got = build_tasks(trace, spec, np.zeros(n, dtype=bool),
                          np.zeros(n, dtype=bool), 32, weights)
        assert got[-1].branches == 5
        assert [t.eliminated.hex() for t in got] == [
            t.eliminated.hex() for t in loop_tasks(
                trace, spec, np.zeros(n, dtype=bool),
                np.zeros(n, dtype=bool), 32, weights)]
