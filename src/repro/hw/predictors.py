"""Hardware branch predictors.

These serve two roles in the reproduction:

* the superscalar baseline and the MSSP cores of Section 4 predict
  branches with a gshare predictor (Table 5: 8Kb gshare), so the timing
  model needs one;
* they provide the *hardware speculation* contrast of Section 1 — a
  per-instance, instantly-reactive mechanism — used by the
  ``hardware_vs_software`` example.
"""

from __future__ import annotations

import numpy as np

from repro.trace.stream import Trace

__all__ = ["TwoBitCounters", "GsharePredictor", "StaticTakenPredictor",
           "predict_trace"]


class TwoBitCounters:
    """A table of 2-bit saturating counters (00/01 weakly/strongly)."""

    def __init__(self, entries: int, initial: int = 1) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if not 0 <= initial <= 3:
            raise ValueError("initial counter value must be in [0, 3]")
        self.entries = entries
        self.table = np.full(entries, initial, dtype=np.int8)

    def predict(self, index: int) -> bool:
        return bool(self.table[index] >= 2)

    def update(self, index: int, taken: bool) -> None:
        value = self.table[index]
        if taken:
            if value < 3:
                self.table[index] = value + 1
        else:
            if value > 0:
                self.table[index] = value - 1


class GsharePredictor:
    """Classic gshare: PC xor global-history indexes a 2-bit table.

    The default geometry matches Table 5's '8Kb gshare': 4096 2-bit
    counters indexed with 12 bits of global history.
    """

    def __init__(self, table_bits: int = 12,
                 history_bits: int | None = None) -> None:
        if table_bits <= 0 or table_bits > 24:
            raise ValueError("table_bits must be in [1, 24]")
        self.table_bits = table_bits
        self.history_bits = (history_bits if history_bits is not None
                             else table_bits)
        if not 0 <= self.history_bits <= table_bits:
            raise ValueError("history_bits must be in [0, table_bits]")
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << self.history_bits) - 1
        self._counters = TwoBitCounters(1 << table_bits)
        self._history = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._counters.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self._counters.update(self._index(pc), taken)
        self._history = ((self._history << 1) | int(taken)) \
            & self._history_mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, then train with the true outcome; returns the
        prediction (the common simulation step)."""
        index = self._index(pc)
        prediction = self._counters.predict(index)
        self._counters.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) \
            & self._history_mask
        return prediction


class StaticTakenPredictor:
    """Degenerate predictor (always taken) — a lower baseline."""

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        return True


def _pack(states) -> int:
    """A map of the four counter states, one byte: bits ``2s, 2s+1``
    hold the image of state ``s``."""
    return sum(int(image) << (2 * s) for s, image in enumerate(states))


def _compose_table() -> np.ndarray:
    """``table[a, b]``: the packed map "apply ``a``, then ``b``"."""
    maps = np.arange(256)
    table = np.zeros((256, 256), dtype=np.uint8)
    for s in range(4):
        after_a = (maps >> (2 * s)) & 3
        table |= (((maps[None, :] >> (2 * after_a[:, None])) & 3)
                  << (2 * s)).astype(np.uint8)
    return table


_TAKEN_MAP = _pack([1, 2, 3, 3])
_NOT_TAKEN_MAP = _pack([0, 0, 1, 2])
_COMPOSE = _compose_table()


def _gshare_misses(predictor: GsharePredictor, pcs: np.ndarray,
                   taken: np.ndarray) -> np.ndarray:
    """:meth:`GsharePredictor.predict_and_update` over every event, as
    arrays: returns the mispredicted events and leaves the predictor's
    table and history where the per-event loop would.

    Each event's table index comes from the outcome history before it.
    Events sorted stably by index are one run per counter, in program
    order; a counter's state before an event is the composition of the
    run's transition maps so far applied to the counter's starting
    value, found by a segmented prefix scan in ``ceil(log2(longest
    run))`` passes of the composition table.
    """
    n = len(pcs)
    bits = predictor.history_bits
    # outcomes[bits + i] is event i's outcome; the history register
    # holds the outcomes before the trace, oldest in its top bit.
    outcomes = np.empty(bits + n, dtype=np.int64)
    outcomes[:bits] = (predictor._history
                       >> np.arange(bits - 1, -1, -1)) & 1
    outcomes[bits:] = taken
    # history[i]: the register before event i (history[n]: after all).
    history = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, bits + 1):
        history |= outcomes[bits - k:bits - k + n + 1] << (k - 1)
    mask = predictor._mask
    index = (pcs.astype(np.int64) ^ history[:n]) & mask
    order = np.argsort(index.astype(np.min_scalar_type(mask)), kind="stable")
    index = index[order]
    taken_sorted = taken[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(index[1:], index[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    # Position of each event within its counter's run.
    pos = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    maps = np.where(taken_sorted, _TAKEN_MAP, _NOT_TAKEN_MAP).astype(np.uint8)
    live = np.flatnonzero(pos >= 1)
    step = 1
    while live.size:
        maps[live] = _COMPOSE[maps[live - step], maps[live]]
        step *= 2
        live = live[pos[live] >= step]
    table = predictor._counters.table
    start_value = table[index].astype(np.int64)
    after = (maps >> (2 * start_value)) & 3
    before = np.empty_like(after)
    before[1:] = after[:-1]
    before[starts] = start_value[starts]
    mispredicted = np.empty(n, dtype=bool)
    mispredicted[order] = (before >= 2) != taken_sorted
    ends = np.append(starts[1:], n) - 1
    table[index[ends]] = after[ends]
    predictor._history = int(history[n])
    return mispredicted


def predict_trace(trace: Trace, predictor=None) -> np.ndarray:
    """Run ``predictor`` over a whole trace.

    Returns a boolean array marking *mispredicted* events.  Branch ids
    stand in for PCs.  Defaults to a fresh :class:`GsharePredictor`;
    a given one starts from its table and history and is left trained,
    exactly as :meth:`GsharePredictor.predict_and_update` event by
    event would leave it.  A :class:`StaticTakenPredictor` misses every
    not-taken event; any other predictor is a ``TypeError``.
    """
    taken = np.asarray(trace.taken, dtype=bool)
    if isinstance(predictor, StaticTakenPredictor):
        return ~taken
    if predictor is None:
        predictor = GsharePredictor()
    if not isinstance(predictor, GsharePredictor):
        raise TypeError("predict_trace runs a GsharePredictor or a "
                        "StaticTakenPredictor")
    return _gshare_misses(predictor, trace.branch_ids, taken)
