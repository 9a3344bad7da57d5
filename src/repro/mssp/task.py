"""Task construction: slicing a branch trace into MSSP tasks.

MSSP speculates at the granularity of a *task* — the instructions
between two task boundaries.  The leading core runs the distilled
version of each task; trailing cores re-execute the original version and
compare state at the boundary, so any misspeculation inside a task
squashes the whole task (multiple failed speculations in one task cost
one squash, the effect Section 4.3 observes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.stream import Trace

__all__ = ["Task", "build_tasks"]


@dataclass(frozen=True)
class Task:
    """One MSSP task.

    ``instructions`` covers the whole task body (branch and non-branch);
    ``branches`` its dynamic branch count; ``speculated`` how many of
    those were run as software speculations; ``misspeculated`` whether
    any speculation in the task failed; ``mispredicted`` how many of the
    *non-speculated* branches the core's gshare predictor missed
    (speculated branches are removed from the distilled code and cannot
    mispredict there); ``mispredicted_all`` counts gshare misses over
    every branch in the task, which is what the baseline superscalar and
    the trailing checkers — both executing the original code — pay.
    """

    index: int
    instructions: int
    branches: int
    speculated: int
    misspeculated: bool
    mispredicted: int
    mispredicted_all: int
    #: Measured instructions the distiller removes from this task
    #: (per-branch elimination table); None falls back to the machine
    #: config's analytic ``max_elimination`` model.
    eliminated: float | None = None

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("a task must contain instructions")
        if not 0 <= self.speculated <= self.branches:
            raise ValueError("speculated must be within [0, branches]")
        if not 0 <= self.mispredicted <= self.branches - self.speculated:
            raise ValueError(
                "mispredicted must fit in the non-speculated branches")
        if not self.mispredicted <= self.mispredicted_all <= self.branches:
            raise ValueError(
                "mispredicted_all must cover at least the distilled-code "
                "mispredictions and at most every branch")
        if self.eliminated is not None and self.eliminated < 0:
            raise ValueError("eliminated must be non-negative")

    @property
    def speculated_fraction(self) -> float:
        return self.speculated / self.branches if self.branches else 0.0


def build_tasks(trace: Trace, spec_flags: np.ndarray,
                misspec_flags: np.ndarray, mispred_flags: np.ndarray,
                task_branches: int,
                elim_weights: np.ndarray | None = None) -> list[Task]:
    """Slice ``trace`` into fixed-size tasks.

    ``spec_flags`` / ``misspec_flags`` mark, per event, whether it ran
    as a software speculation and whether that speculation failed;
    ``mispred_flags`` marks hardware branch mispredictions.
    ``elim_weights`` optionally gives, per event, the instructions the
    distiller removes when that branch is speculated (a measured
    elimination table); when present each task carries the summed
    elimination of its speculated events.  A trailing partial task is
    kept (runs are not multiples of the task size).
    """
    n = len(trace)
    if len(spec_flags) != n or len(misspec_flags) != n \
            or len(mispred_flags) != n:
        raise ValueError("flag arrays must match the trace length")
    if task_branches <= 0:
        raise ValueError("task_branches must be positive")
    starts = np.arange(0, n, task_branches)
    stops = np.minimum(starts + task_branches, n)
    end_instr = trace.instrs[stops - 1].astype(np.int64)
    instructions = np.maximum(1, np.diff(end_instr, prepend=0))
    spec = np.asarray(spec_flags, dtype=bool)
    mispred = np.asarray(mispred_flags, dtype=bool)
    speculated = np.add.reduceat(spec, starts, dtype=np.int64)
    misspeculated = np.logical_or.reduceat(
        np.asarray(misspec_flags, dtype=bool), starts)
    mispredicted = np.add.reduceat(mispred & ~spec, starts, dtype=np.int64)
    mispredicted_all = np.add.reduceat(mispred, starts, dtype=np.int64)
    if elim_weights is None:
        eliminated = [None] * len(starts)
    else:
        # Each task's speculated weights, led by a zero: reduceat sums
        # a run as its first value plus the pairwise sum of the rest,
        # so the zero makes it the pairwise sum ndarray.sum takes of
        # elim_weights[start:stop][spec], bit for bit.
        weights = np.asarray(elim_weights)[spec]
        before = np.cumsum(speculated) - speculated
        runs = np.insert(weights, before, 0)
        eliminated = np.add.reduceat(
            runs, before + np.arange(len(starts))).tolist()
    return [Task(index=i, instructions=ins, branches=branches,
                 speculated=sp, misspeculated=ms, mispredicted=mp,
                 mispredicted_all=mpa, eliminated=el)
            for i, (ins, branches, sp, ms, mp, mpa, el) in enumerate(zip(
                instructions.tolist(), (stops - starts).tolist(),
                speculated.tolist(), misspeculated.tolist(),
                mispredicted.tolist(), mispredicted_all.tolist(),
                eliminated))]
