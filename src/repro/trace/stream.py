"""Trace representation and the trace-generation engine.

A :class:`Trace` is the unit all simulators consume: three parallel numpy
arrays (static branch id, taken outcome, global instruction count) in
program order, plus metadata.  :func:`generate_trace` realizes a
:class:`~repro.trace.model.BenchmarkModel` into a trace: regions are
visited with weighted random selection and geometric trip counts, each
iteration emits the region's branch slots in order, instruction stamps
advance by the region's body size, and each branch's outcomes are drawn
against its behavior pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.model import BenchmarkModel, Region

__all__ = ["Trace", "BranchGroups", "generate_trace"]

#: Region visits drawn per generator round.  Part of the random stream:
#: changing it changes every generated trace.
_VISIT_BATCH = 1024
#: Events written per step of :func:`_emit_visits`, which bounds its
#: temporaries whatever the trip counts.
_EVENT_WINDOW = 1 << 16


@dataclass(frozen=True)
class BranchGroups:
    """Per-static-branch grouping of a trace's events.

    ``order`` is a stable sort permutation of event indices by branch id;
    events of ``branch_ids[i]`` occupy ``order[starts[i]:starts[i] +
    counts[i]]``, in program order (so position ``k`` within the group is
    the branch's ``k``-th dynamic execution).
    """

    unique_ids: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def indices_of(self, branch_id: int) -> np.ndarray:
        """Event indices (program order) of one branch's executions."""
        pos = np.searchsorted(self.unique_ids, branch_id)
        if pos >= len(self.unique_ids) or self.unique_ids[pos] != branch_id:
            raise KeyError(f"branch {branch_id} does not appear in trace")
        start = self.starts[pos]
        return self.order[start:start + self.counts[pos]]

    def __iter__(self):
        """Yields ``(branch_id, event_indices)`` per touched branch."""
        for i, bid in enumerate(self.unique_ids):
            start = self.starts[i]
            yield int(bid), self.order[start:start + self.counts[i]]

    def __len__(self) -> int:
        return len(self.unique_ids)


@dataclass
class Trace:
    """A dynamic conditional-branch trace.

    Attributes
    ----------
    name / input_name:
        Benchmark and input identity (Table 1 vocabulary).
    branch_ids:
        int32 static branch id per event.
    taken:
        bool outcome per event.
    instrs:
        int64 global instruction count at each branch instruction;
        strictly increasing.
    meta:
        Free-form provenance (model parameters, seed, ...).
    tenants:
        Optional parallel uint32 tenant id per event (``None`` — the
        default — means a single-tenant trace, i.e. tenant 0); see
        :func:`repro.trace.synthetic.assign_tenants`.
    """

    name: str
    input_name: str
    branch_ids: np.ndarray
    taken: np.ndarray
    instrs: np.ndarray
    meta: dict = field(default_factory=dict)
    tenants: np.ndarray | None = field(default=None, repr=False)
    _groups: BranchGroups | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.branch_ids)
        if len(self.taken) != n or len(self.instrs) != n:
            raise ValueError("trace arrays must have equal length")
        if self.tenants is not None and len(self.tenants) != n:
            raise ValueError("trace arrays must have equal length")
        if n == 0:
            raise ValueError("trace must contain at least one event")

    def __len__(self) -> int:
        return len(self.branch_ids)

    @property
    def total_instructions(self) -> int:
        """Instruction count covered by the trace."""
        return int(self.instrs[-1])

    @property
    def n_touched(self) -> int:
        """Static branches executed at least once."""
        return len(self.groups())

    def groups(self) -> BranchGroups:
        """Per-branch grouping (computed once, then cached)."""
        if self._groups is None:
            ids = self.branch_ids
            order = np.argsort(ids.astype(_narrowest(ids), copy=False),
                               kind="stable")
            sorted_ids = ids[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], sorted_ids[1:] != sorted_ids[:-1])))
            self._groups = BranchGroups(
                unique_ids=sorted_ids[starts], order=order, starts=starts,
                counts=np.diff(starts, append=len(ids)))
        return self._groups

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on failure."""
        if np.any(np.diff(self.instrs) <= 0):
            raise ValueError("instruction stamps must strictly increase")
        if self.instrs[0] <= 0:
            raise ValueError("instruction stamps must be positive")
        if np.any(self.branch_ids < 0):
            raise ValueError("branch ids must be non-negative")

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace of events ``[start, stop)``.

        Instruction stamps are rebased so the sub-trace starts near
        zero — a slice is a self-contained run (fresh group cache too).
        """
        offset = int(self.instrs[start - 1]) if start > 0 else 0
        return Trace(
            name=self.name, input_name=self.input_name,
            branch_ids=self.branch_ids[start:stop],
            taken=self.taken[start:stop],
            instrs=self.instrs[start:stop] - offset,
            meta=dict(self.meta),
            tenants=(None if self.tenants is None
                     else self.tenants[start:stop]))


def _narrowest(ids: np.ndarray) -> np.dtype:
    """The narrowest integer type that holds every value of ``ids``.

    A stable argsort radix-sorts 8- and 16-bit integers (timsort
    otherwise), and a cast that loses no value keeps the permutation,
    so small-range ids sort in linear time.
    """
    return np.promote_types(np.min_scalar_type(int(ids.min())),
                            np.min_scalar_type(int(ids.max())))


def _region_slot_gaps(region: Region) -> np.ndarray:
    """Instruction advance per branch slot in one iteration of a region.

    The iteration's ``body_instructions`` are spread evenly over the
    slots, with the remainder attributed to the last slot (ending the
    loop body).  Every slot advances by at least one instruction, which
    keeps trace instruction stamps strictly increasing.
    """
    n = len(region.branches)
    base = region.body_instructions // n
    gaps = np.full(n, base, dtype=np.int64)
    gaps[-1] += region.body_instructions - base * n
    return gaps


def generate_trace(model: BenchmarkModel, length: int,
                   seed: int | np.random.Generator = 0) -> Trace:
    """Realize ``model`` into a trace of exactly ``length`` branch events.

    Deterministic for a given ``(model, length, seed)``.  Visits are
    drawn 1,024 at a time (one ``choice`` for their regions, one
    ``geometric`` for their trip counts), and the visit that completes
    the trace is the last whose trip count is drawn: the outcome draws
    continue the same stream from there.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))

    regions = [r for r in model.regions if r.weight > 0.0]
    weights = np.array([r.weight for r in regions], dtype=np.float64)
    weights /= weights.sum()
    p_trip = 1.0 / np.array([r.mean_trip_count for r in regions],
                            dtype=np.float64)
    # Every region's slots, flattened: slot j of region r is entry
    # ``slot_base[r] + j`` of the slot id and gap tables.
    n_slots = np.array([len(r.branches) for r in regions], dtype=np.int64)
    slot_base = np.cumsum(n_slots) - n_slots
    slot_ids = np.array([b.branch_id for r in regions for b in r.branches],
                        dtype=np.int32)
    slot_gaps = np.concatenate([_region_slot_gaps(r) for r in regions])

    branch_ids = np.empty(length, dtype=np.int32)
    instrs = np.empty(length, dtype=np.int64)   # gaps until the cumsum
    emitted = 0
    while emitted < length:
        visits = rng.choice(len(regions), size=_VISIT_BATCH, p=weights)
        # An array-parameter geometric draws element by element, so one
        # call draws what one scalar call per visit would.
        state = rng.bit_generator.state
        trips = rng.geometric(p_trip[visits])
        ends = emitted + np.cumsum(trips * n_slots[visits])
        last = int(np.searchsorted(ends, length))
        if last < _VISIT_BATCH - 1:
            # Visit ``last`` completes the trace: rewind and redraw just
            # the trips up to it, so the outcome draws start where they
            # would after a per-visit loop that stops there.
            rng.bit_generator.state = state
            visits = visits[:last + 1]
            rng.geometric(p_trip[visits])
            ends = ends[:last + 1]
        _emit_visits(branch_ids, instrs, emitted, ends,
                     slot_base[visits], n_slots[visits], slot_ids, slot_gaps)
        emitted = int(ends[-1])
    np.cumsum(instrs, out=instrs)

    taken = np.zeros(length, dtype=bool)
    trace = Trace(
        name=model.name, input_name=model.input_name,
        branch_ids=branch_ids, taken=taken, instrs=instrs,
        meta={"length": length, **model.meta})

    patterns = {b.branch_id: b.pattern for b in model.static_branches}
    for branch_id, idx in trace.groups():
        pattern = patterns[branch_id]
        exec_idx = np.arange(len(idx), dtype=np.int64)
        p = pattern.p_taken(exec_idx, instrs[idx])
        taken[idx] = rng.random(len(idx)) < p
    return trace


def _emit_visits(branch_ids: np.ndarray, gaps: np.ndarray, start: int,
                 ends: np.ndarray, base: np.ndarray, n_slots: np.ndarray,
                 slot_ids: np.ndarray, slot_gaps: np.ndarray) -> None:
    """Write the events of consecutive visits from event ``start`` on.

    Visit ``v`` covers events ``[ends[v - 1], ends[v])`` (the first
    from ``start``) and emits its region's slots ``base[v] ..
    base[v] + n_slots[v] - 1`` cyclically; events past the arrays' end
    are dropped.  Temporaries span at most :data:`_EVENT_WINDOW` events.
    """
    begins = np.concatenate(([start], ends[:-1]))
    stop = min(int(ends[-1]), len(branch_ids))
    for lo in range(start, stop, _EVENT_WINDOW):
        hi = min(lo + _EVENT_WINDOW, stop)
        first = int(np.searchsorted(ends, lo, side="right"))
        past = int(np.searchsorted(begins, hi))
        spans = (np.minimum(ends[first:past], hi)
                 - np.maximum(begins[first:past], lo))
        visit = np.repeat(np.arange(first, past), spans)
        slot = base[visit] + (np.arange(lo, hi) - begins[visit]) \
            % n_slots[visit]
        branch_ids[lo:hi] = slot_ids[slot]
        gaps[lo:hi] = slot_gaps[slot]
