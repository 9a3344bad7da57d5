"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.obs.tracing import ARC_CODE
from repro.serve.colpath import rows_to_states, states_to_rows
from repro.sim.engine import run_reference
from repro.trace.stream import Trace


@pytest.fixture
def tiny_config() -> ControllerConfig:
    """A controller config with small thresholds for hand-traceable
    scenarios: monitor 4 executions, evict after 2 misspeculations
    (2 x 50 >= 100), revisit after 6 executions, no latency."""
    return ControllerConfig(
        monitor_period=4,
        selection_threshold=0.75,
        evict_counter_max=100,
        misspec_increment=50,
        correct_decrement=1,
        revisit_period=6,
        oscillation_limit=3,
        optimization_latency=0,
    )


def make_trace(branch_ids, taken, instr_stride: int = 8,
               name: str = "test") -> Trace:
    """Build a trace from explicit parallel event lists."""
    n = len(branch_ids)
    return Trace(
        name=name, input_name="test",
        branch_ids=np.asarray(branch_ids, dtype=np.int32),
        taken=np.asarray(taken, dtype=bool),
        instrs=np.arange(1, n + 1, dtype=np.int64) * instr_stride,
    )


@pytest.fixture
def make_trace_fn():
    return make_trace


def without_logs(states) -> list[dict]:
    """``export_state()`` dicts with their transition logs emptied.

    The service keeps no arc history (its exports carry
    ``"transitions": []``), while the scalar spec keeps a log.  A
    comparison with the spec's states goes through here, and compares
    arcs separately: :func:`logged_arcs` on the spec's side,
    :func:`captured_arcs` or :func:`ring_arcs` on the service's.
    """
    return [{**state, "transitions": []} for state in states]


def bank_states(shard) -> list[dict]:
    """A ``BankShard``'s controllers as ``export_state()`` dicts in key
    order: its rows through the snapshot file's converter."""
    return rows_to_states(shard.export_state().rows)


def rows_of(states):
    """The row block of ``export_state()`` dicts (the snapshot file's
    converter), e.g. to install or restore them into a shard."""
    return states_to_rows(list(states))


def logged_arcs(controllers, since=None) -> list[tuple[int, ...]]:
    """The scalar controllers' transition logs as sorted capture rows
    ``(key, arc code, exec index, instr)``; with ``since`` (a key →
    log length map), only the entries past each log's mark."""
    return sorted(
        (ctrl.branch, ARC_CODE[t.kind.value], t.exec_index, t.instr)
        for ctrl in controllers
        for t in ctrl.transitions[(since or {}).get(ctrl.branch, 0):])


def captured_arcs(blocks) -> list[tuple[int, ...]]:
    """Sorted capture rows of ``ShardApplyResult.transitions`` blocks."""
    return sorted(row for block in blocks for row in zip(*block.tolist()))


def captured_selects(results) -> list[tuple[int, ...]]:
    """Sorted ``(key, direction, onset)`` columns of the results' SELECT
    blocks, each block checked to follow its SELECT arcs' order."""
    out = []
    for res in results:
        assert res.selects[0].tolist() == [
            key for key, code, *_ in zip(*res.transitions.tolist())
            if code == ARC_CODE["select"]]
        out += zip(*res.selects.tolist())
    return sorted(out)


class SelectWatch:
    """The spec's side of a SELECT block: fed each event as the scalar
    controller observes it, it notes every SELECT's direction (the
    controller's pending deployment right after it) and the exec index
    of its key's next outcome against that direction in the batch."""

    def __init__(self) -> None:
        self.selects: list[list[int]] = []
        self._open: dict[int, int] = {}

    def observe(self, ctrl, taken: bool) -> None:
        """Call right after ``ctrl.observe(taken, ...)``."""
        at = ctrl.exec_count - 1
        i = self._open.get(ctrl.branch)
        if i is not None and self.selects[i][1] != taken:
            self.selects[i][2] = at
            del self._open[ctrl.branch]
        log = ctrl.transitions
        if log and log[-1].exec_index == at and \
                log[-1].kind.value == "select":
            self._open[ctrl.branch] = len(self.selects)
            self.selects.append([ctrl.branch, int(ctrl._pending[-1][2]), -1])

    def batch(self) -> list[tuple[int, ...]]:
        """The batch's SELECTs, sorted; starts the next batch."""
        out = sorted(map(tuple, self.selects))
        self.selects, self._open = [], {}
        return out


def ring_arcs(service) -> list[tuple[int, ...]]:
    """Every arc a service captured, from its trace ring, as sorted
    capture rows (the ring must be large enough that none fell off)."""
    trace = service.trace
    assert trace.total_recorded == len(trace), "the trace ring overflowed"
    return sorted((r.pc, ARC_CODE[r.arc], r.exec_index, r.instr)
                  for r in trace.records())


def arc_blocks(*arcs) -> tuple[np.ndarray, np.ndarray]:
    """Arcs as the detector takes them: ``(key, arc code, exec index)``,
    or for a SELECT ``(key, arc code, exec index, direction, onset)``,
    to the ``[4, n]`` transition block (instruction stamps 0) and the
    ``[3, S]`` SELECT block (``ShardApplyResult.selects``)."""
    trans = np.array([arc[:3] + (0,) for arc in arcs],
                     dtype=np.int64).reshape(-1, 4).T
    selects = np.array([(arc[0], *arc[3:]) for arc in arcs if len(arc) > 3],
                       dtype=np.int64).reshape(-1, 3).T
    return trans, selects


def summarize(keys, taken, counts: dict) -> np.ndarray:
    """The per-key summary of a raw batch, built independently of the
    shard (``ShardApplyResult.summary``: key, executions before the
    batch, events, taken, first taken and first not-taken offset or
    -1, one column per distinct key ascending).  ``counts`` holds each
    key's executions before the batch (absent: 0); it is advanced past
    the batch."""
    keys = np.asarray(keys, dtype=np.int64)
    taken = np.asarray(taken, dtype=bool)
    uniq = np.unique(keys)
    out = np.empty((6, len(uniq)), dtype=np.int64)
    for col, key in enumerate(uniq.tolist()):
        mine = taken[keys == key]
        ones, zeros = np.flatnonzero(mine), np.flatnonzero(~mine)
        before = counts.get(key, 0)
        out[:, col] = (key, before, len(mine), len(ones),
                       ones[0] if len(ones) else -1,
                       zeros[0] if len(zeros) else -1)
        counts[key] = before + len(mine)
    return out


def spec_parity(states: dict, arcs, trace, config, after: int = 0):
    """Check a service's final model states (:func:`model_states`) and
    captured arcs (:func:`ring_arcs`) against the scalar spec run over
    ``trace``: its states with the logs emptied, and the arcs it logs
    past the first ``after`` events (a resumed service captures only
    those).  Returns the spec's run."""
    spec = run_reference(trace, config)
    assert sorted(states.values(), key=lambda s: s["branch"]) == \
        without_logs(spec.bank.export_state())
    checkpoint = int(trace.instrs[after - 1]) if after else -1
    assert arcs == [arc for arc in logged_arcs(spec.bank)
                    if arc[3] > checkpoint]
    return spec


def model_states(service) -> dict:
    """Every controller's export dict by packed branch key, resident
    and spilled alike: the model state a service's snapshot carries.
    Rows keep no arc history (each dict's transition log is empty);
    compare a service's arcs through :func:`ring_arcs`."""
    states = {s["branch"]: s for shard in service.bank.shards
              for s in bank_states(shard)}
    for rows in service._export_tenants().values():
        states.update((s["branch"], s) for s in rows_to_states(rows))
    return states
