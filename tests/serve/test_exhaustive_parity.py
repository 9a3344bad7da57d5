"""Exhaustive small-scope parity: every outcome history, not a sample.

The randomized parity suites (``test_colpath.py``, ``test_fastpath.py``)
sample traces.  Here each tiny configuration family runs *every*
outcome history of length ``L`` at once, one PC per history, through a
capturing :class:`~repro.serve.shard.BankShard`, and compares it with
per-event :meth:`~repro.core.controller.ReactiveBranchController.observe`:
per-batch ``(correct, incorrect)`` deltas, decision flips, captured
transitions against the spec's log, each SELECT's deployed direction
and in-batch flip onset against the spec's, prefix states at batch edges and
the final state (the shard's rows against the spec's states as rows:
rows keep no log, and a free pending slot's columns are always the
same) and the decision cache.  Batches are cut every step, every three steps
at each of three phases (so a deployment landing falls before, on and
after a batch edge) and once over the whole history.  Every history of
length :data:`_SHORT` also runs on its own, as single-branch batches,
under every way of cutting it, and every full history runs through
:func:`~repro.sim.vector.apply_chunk` in one call.

Instruction stamps advance by a repeating pattern of uneven gaps, so
some landings hit a stamp exactly and others fall between two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.obs.tracing import ARC_CODE
from repro.serve.shard import BankShard
from repro.sim.vector import apply_chunk
from tests.conftest import captured_selects, rows_of

_BASE = dict(monitor_period=4, selection_threshold=0.75, evict_counter_max=3,
             misspec_increment=2, correct_decrement=1, revisit_period=3,
             oscillation_limit=2, optimization_latency=5)


@dataclass(frozen=True)
class _Family:
    config: ControllerConfig
    length: int
    gaps: tuple[int, ...]
    #: Arc kinds the enumeration must reach, and the longest deployment
    #: queue it must see: a family that stops reaching its feature would
    #: pass vacuously.
    arcs: frozenset[str]
    max_pending: int = 1


def _family(length, gaps, arcs, max_pending=1, **overrides):
    return _Family(ControllerConfig(**{**_BASE, **overrides}), length,
                   gaps, frozenset(arcs.split()), max_pending)


FAMILIES = {
    "counter-evict": _family(14, (3, 2, 1, 1),
                             "select reject revisit evict"),
    "no-evict": _family(12, (1, 2, 3), "select reject revisit",
                        eviction_enabled=False),
    "no-revisit": _family(12, (3, 2, 1, 1), "select reject evict",
                          revisit_enabled=False),
    # One biased episode allowed: the second selection DISABLEs.
    "disable": _family(12, (2, 1, 3, 1),
                       "select reject revisit evict disable",
                       monitor_period=3, oscillation_limit=1,
                       optimization_latency=2),
    "evict-by-sampling": _family(12, (2, 2, 1, 3),
                                 "select reject revisit evict",
                                 evict_by_sampling=True,
                                 evict_sample_period=3, evict_sample_len=2,
                                 evict_bias_threshold=0.75,
                                 optimization_latency=3),
    # Stride 2 cannot tell a sample offset from its negation; stride 3
    # can.
    "monitor-stride-2": _family(12, (1, 2, 3),
                                "select reject revisit evict",
                                monitor_sample_stride=2, monitor_period=5),
    "monitor-stride-3": _family(12, (1, 2, 3),
                                "select reject revisit evict",
                                monitor_sample_stride=3, monitor_period=5),
    # An EVICT's repair is still in flight when the next SELECT fires,
    # so two deployments are pending at once.
    "two-pending": _family(13, (1, 3, 2), "select reject revisit evict",
                           max_pending=2, monitor_period=2,
                           optimization_latency=9),
}

#: Histories this long also run alone under every batch cutting.
_SHORT = 6


@dataclass
class _Reference:
    """Per-event ``observe`` over every history, recorded per step."""

    taken: np.ndarray        # [N, L] outcomes; row h is history h's bits
    instrs: np.ndarray       # [L] instruction stamp of step j
    correct: np.ndarray      # [N, L] correct speculation at step j
    incorrect: np.ndarray    # [N, L] misspeculation at step j
    deployed: np.ndarray     # [N, L + 1] deployed view before step j
    arcs: dict[int, list]    # step -> captured transitions fired there
    states: dict[int, list]  # step count -> exported states at that edge
    #: One column per SELECT: history, step, the direction it deploys
    #: (the spec's pending deployment right after it) and the step of
    #: the history's next outcome against that direction (L: none).
    selects: np.ndarray


def _reference(fam: _Family, edges: set[int]) -> _Reference:
    L = fam.length
    n = 1 << L
    taken = ((np.arange(n)[:, None] >> np.arange(L)) & 1).astype(bool)
    instrs = np.cumsum([fam.gaps[j % len(fam.gaps)]
                        for j in range(L)]).astype(np.int64)
    ctrls = [ReactiveBranchController(fam.config, h) for h in range(n)]
    correct = np.zeros((n, L), dtype=bool)
    incorrect = np.zeros((n, L), dtype=bool)
    deployed = np.zeros((n, L + 1), dtype=bool)
    states = {}
    max_pending = 0
    selects = []
    for j in range(L):
        stamp = int(instrs[j])
        for h, ctrl in enumerate(ctrls):
            logged = len(ctrl.transitions)
            out = ctrl.observe(bool(taken[h, j]), stamp)
            if ctrl.transitions[logged:] and (
                    ctrl.transitions[-1].kind.value == "select"):
                selects.append((h, j, ctrl._pending[-1][2]))
            if out.speculated:
                correct[h, j] = out.correct
                incorrect[h, j] = not out.correct
            deployed[h, j + 1] = ctrl.deployed
            max_pending = max(max_pending, len(ctrl._pending))
        if j + 1 in edges:
            states[j + 1] = [c.export_state() for c in ctrls]
    arcs: dict[int, list] = {j: [] for j in range(L)}
    for h, ctrl in enumerate(ctrls):
        for t in ctrl.transitions:
            arcs[t.exec_index].append(
                (h, ARC_CODE[t.kind.value], t.exec_index, t.instr))
    kinds = {t.kind.value for c in ctrls for t in c.transitions}
    assert kinds == fam.arcs, f"the enumeration reached {sorted(kinds)}"
    assert max_pending == fam.max_pending
    hs, js, ds = np.array(selects, dtype=np.int64).reshape(-1, 3).T
    against = ((taken[hs] != ds[:, None].astype(bool))
               & (np.arange(L) > js[:, None]))
    nxt = np.where(against.any(1), against.argmax(1), L)
    return _Reference(taken, instrs, correct, incorrect, deployed, arcs,
                      states, np.stack((hs, js, ds, nxt)))


def _cuts(L: int) -> dict[str, list[int]]:
    """Batch edges (step counts) per cutting."""
    cuts = {"every-1": list(range(1, L + 1)), "whole": [L]}
    for phase in range(3):
        first = phase or 3
        cuts[f"every-3@{phase}"] = sorted({*range(first, L, 3), L})
    return cuts


def _check_batch(ref: _Reference, res, rows, a: int, b: int) -> None:
    """One batch's result against the reference over steps ``[a, b)``
    of the histories ``rows`` (a PC is its history's index)."""
    assert (res.correct, res.incorrect) == (
        int(ref.correct[rows, a:b].sum()),
        int(ref.incorrect[rows, a:b].sum()))
    before, after = ref.deployed[rows, a], ref.deployed[rows, b]
    flips = np.flatnonzero(before != after)
    assert dict(zip(res.changed, res.changed_deployed)) == dict(
        zip(rows[flips].tolist(), after[flips].tolist()))
    mine = set(rows.tolist())
    assert sorted(zip(*res.transitions.tolist())) == sorted(
        arc for j in range(a, b) for arc in ref.arcs[j] if arc[0] in mine)
    hs, js, ds, nxt = ref.selects
    here = (js >= a) & (js < b) & np.isin(hs, rows)
    assert captured_selects([res]) == sorted(zip(
        hs[here].tolist(), ds[here].tolist(),
        np.where(nxt[here] < b, nxt[here], -1).tolist()))


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    fam = FAMILIES[request.param]
    edges = {*_cuts(fam.length)["every-3@0"], _SHORT}
    return fam, _reference(fam, edges)


def test_every_history_as_one_pc_each(family):
    """All 2^L histories side by side, one PC each, under every cutting;
    prefix states are compared at every edge of the phase-0 3-step cut."""
    fam, ref = family
    n, L = ref.taken.shape
    rows = np.arange(n)
    for name, edges in _cuts(L).items():
        shard = BankShard(0, fam.config)
        shard.capture = shard.detect = True
        a = 0
        for b in edges:
            res = shard.apply(np.tile(rows, b - a),
                              ref.taken[:, a:b].T.ravel(),
                              np.repeat(ref.instrs[a:b], n))
            assert res.events == n * (b - a)
            _check_batch(ref, res, rows, a, b)
            if name == "every-3@0" or b == L:
                assert shard.export_state().rows == rows_of(
                    ref.states[b]), f"state after step {b} ({name})"
            a = b
        assert shard.decisions == dict(zip(range(n),
                                           ref.deployed[:, L].tolist()))


def test_every_short_history_alone_under_every_cutting(family):
    """Histories of length ``_SHORT`` as single-branch batches: every
    composition of the history into batches."""
    fam, ref = family
    states = ref.states[_SHORT]
    for h in range(1 << _SHORT):
        row = np.array([h])
        for mask in range(1 << (_SHORT - 1)):
            edges = [j + 1 for j in range(_SHORT - 1) if mask >> j & 1]
            shard = BankShard(0, fam.config)
            shard.capture = shard.detect = True
            a = 0
            for b in [*edges, _SHORT]:
                res = shard.apply(np.full(b - a, h, dtype=np.int64),
                                  ref.taken[h, a:b], ref.instrs[a:b])
                _check_batch(ref, res, row, a, b)
                a = b
            assert shard.export_state().rows == rows_of([states[h]])


def test_apply_chunk_over_every_whole_history(family):
    """The per-branch kernel, one call per full history."""
    fam, ref = family
    L = ref.taken.shape[1]
    for h, state in enumerate(ref.states[L]):
        ctrl = ReactiveBranchController(fam.config, h)
        c, x = apply_chunk(ctrl, ref.taken[h], ref.instrs)
        assert (c, x) == (int(ref.correct[h].sum()),
                          int(ref.incorrect[h].sum()))
        assert ctrl.export_state() == state

