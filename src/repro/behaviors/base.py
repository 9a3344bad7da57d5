"""Generalizing the controller beyond branches.

Section 2 of the paper: "We have confirmed that these results are
qualitatively consistent with other program behaviors (e.g., loads that
produce invariant values and memory dependences)."  The controller never
looks at branch semantics — it classifies any *binary recurring
behavior* attached to a static program point.  This package makes that
concrete: each behavior class produces an ordinary
:class:`~repro.trace.stream.Trace` whose ``taken`` array means "the
speculated behavior held on this dynamic instance", so every engine,
baseline and analysis in the repository applies unchanged.

Conventions:

* branch direction — ``taken`` is the literal branch outcome (the
  controller learns the majority direction itself);
* load-value invariance — ``taken`` is "this load produced the same
  value as its previous execution" (speculation = value reuse);
* memory independence — ``taken`` is "this load did not alias any
  in-flight store" (speculation = hoisting past stores).

For the latter two the interesting direction is always True, and the
selection threshold plays the same role as for branches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.trace.stream import Trace

__all__ = ["behavior_trace_from_streams"]


def behavior_trace_from_streams(streams: Sequence[np.ndarray],
                                instr_stride: int = 8,
                                name: str = "behavior",
                                input_name: str = "synthetic",
                                seed: int = 0) -> Trace:
    """Interleave per-unit ``held`` streams into a behavior trace.

    ``streams[u]`` is the boolean held/violated history of static unit
    ``u`` (a load PC, a store-load pair, ...).  Units are interleaved by
    weighted random draws proportional to their stream lengths, which
    preserves each unit's execution density without imposing lockstep.
    """
    if not streams:
        raise ValueError("streams must not be empty")
    rng = np.random.default_rng(seed)
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    if (lengths <= 0).any():
        raise ValueError("every stream must be non-empty")
    total = int(lengths.sum())

    # Draw an interleave: a random permutation of unit ids with each id
    # appearing exactly len(stream) times keeps per-unit order while
    # mixing units realistically.
    unit_ids = np.repeat(np.arange(len(streams), dtype=np.int32), lengths)
    rng.shuffle(unit_ids)

    # A stable sort by unit lists each unit's events in order, so the
    # concatenated streams land on them in one scatter.
    held = np.empty(total, dtype=bool)
    held[np.argsort(unit_ids, kind="stable")] = np.concatenate(streams)

    instrs = np.arange(1, total + 1, dtype=np.int64) * instr_stride
    return Trace(name=name, input_name=input_name,
                 branch_ids=unit_ids, taken=held, instrs=instrs)
