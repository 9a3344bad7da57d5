"""Sharded controller banks: hash-partitioning static branches.

The reactive model tracks every static branch independently (the only
global coupling — optimization latency — travels with each event as its
instruction stamp), so a bank splits losslessly into N independent
shards keyed by a hash of the branch PC.  Sharding buys two things:

* **independence** — a hot branch only serializes its own shard, and a
  shard worker can run wherever its queue lives;
* **batching density** — a shard's micro-batch draws its events from
  an N×-longer stretch of the trace for the same event count, so each
  branch contributes longer runs and the columnar engine
  (:mod:`repro.serve.colpath`) amortizes its per-batch overhead
  better.  Under a bursting producer this outweighs the
  routing cost even on one core — modestly; the real scaling headroom
  is that shards share nothing and can move to worker processes (see
  the ``serve`` bench target and docs/serving.md).

Routing uses a SplitMix64 finalizer rather than ``pc % n_shards``:
static branch ids (or real branch addresses) are clustered and stride-
patterned, and a multiplicative avalanche keeps shard loads balanced
regardless of the id distribution.

A shard's controllers live only in its columnar engine's rows
(:class:`~repro.serve.colpath.ColumnarBank`), and its sorted key index
is the shard's one record of which controllers it holds: every
controller gets a row as it enters.  One tenant's controllers are the
slice ``[t << 32, (t + 1) << 32)`` of that index, which is all
:meth:`BankShard.spill_tenant` reads.  State leaves and enters a shard
as a :class:`~repro.serve.colpath.RowBlock` (spill, restore,
:meth:`BankShard.install`), and a whole shard's state is a
:class:`ShardState`: its counters and its rows' block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.serve.colpath import (
    SELECT_ROWS,
    SUMMARY_ROWS,
    ColumnarBank,
    RowBlock,
)
from repro.serve.events import EventBatch
from repro.sim.metrics import SpeculationMetrics
from repro.tenant.keys import MAX_PC, TENANT_SHIFT, mix64, stable_order

__all__ = ["shard_of", "shard_ids", "BankShard", "ShardedBank",
           "ShardApplyResult", "ShardState"]


def shard_of(pc: int, n_shards: int) -> int:
    """Shard owning static branch ``pc`` (SplitMix64 finalizer mod N)."""
    return mix64(pc) % n_shards


def shard_ids(pcs: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized :func:`shard_of` over an array of PCs."""
    x = pcs.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(n_shards)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ShardApplyResult:
    """Outcome of applying one micro-batch to one shard.

    Carries everything a remote supervisor needs to mirror the shard —
    outcome deltas, the instruction high-water mark, and the decision
    flips — so it is also the body of the ``APPLY_RESULT`` wire frame
    (:mod:`repro.serve.wire`).  Results hold arrays, so ``==`` is
    identity; compare fields instead.
    """

    shard: int
    events: int
    correct: int
    incorrect: int
    #: Keys (int64) whose deployed-code view flipped during the batch
    #: (a SELECT or EVICT landed) — the decision-cache invalidation set.
    changed: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    #: New deployed-code answer per changed key (bool).
    changed_deployed: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=bool))
    #: Shard's instruction stamp high-water mark after the batch.
    last_instr: int = 0
    #: FSM arc firings during the batch, an int64 ``[4, n]`` block of
    #: rows key, arc code (:data:`repro.obs.tracing.ARCS` index), exec
    #: index and instruction stamp.  Empty unless ``capture`` is on.
    transitions: np.ndarray = field(
        default_factory=lambda: np.empty((4, 0), dtype=np.int64))
    #: The batch per key, an int64 ``[6, U]`` block with one column per
    #: distinct key in ascending key order and the rows
    #: :data:`~repro.serve.colpath.SUMMARY_ROWS`: key, the row's exec
    #: count before the batch, events, taken outcomes, and the offsets
    #: of the key's first taken and first not-taken outcome among its
    #: events (-1 for none).  The misspeculation detector's input
    #: (:meth:`~repro.obs.detect.MisspecDetector.observe_batch`).
    #: Empty unless the shard's ``detect`` is on.
    summary: np.ndarray = field(
        default_factory=lambda: np.empty((len(SUMMARY_ROWS), 0),
                                         dtype=np.int64))
    #: The batch's SELECT arcs as the detector arms them, an int64
    #: ``[3, S]`` block with one column per SELECT arc of
    #: ``transitions``, in their order, and the rows
    #: :data:`~repro.serve.colpath.SELECT_ROWS`: key, the direction the
    #: SELECT deploys (1 taken), and the exec index of the key's first
    #: outcome against it after the SELECT within the batch (-1 for
    #: none).  Empty unless the shard's ``detect`` is on.
    selects: np.ndarray = field(
        default_factory=lambda: np.empty((len(SELECT_ROWS), 0),
                                         dtype=np.int64))
    #: Wall-clock seconds the apply took where it ran (0.0 when the
    #: shard is not capturing observability data).
    apply_seconds: float = 0.0
    #: Worker-side CLOCK_MONOTONIC stamps at APPLY frame receipt and
    #: apply completion (multi-process mode with capture on; 0.0
    #: otherwise).  CLOCK_MONOTONIC is system-wide on Linux, so these
    #: compare directly against parent-side stamps for the span
    #: tracer's ``wire_out``/``wire_back`` stages.
    t_recv: float = 0.0
    t_done: float = 0.0
    #: Columnar-engine routing of this batch's events: advanced in the
    #: cross-branch arrays / per-branch kernel fallbacks (strided
    #: monitors, engaged evict-by-sampling episodes) / by-design
    #: single-branch batches.
    col_fast: int = 0
    col_fallback: int = 0
    col_single: int = 0


@dataclass(frozen=True)
class ShardState:
    """One shard's whole state: its counters and its controllers' rows
    (in key order).  The body of the worker link's ``LOAD`` and
    ``STATE`` frames; :mod:`repro.serve.snapshot` writes it to and
    reads it from the snapshot file."""

    index: int
    events_applied: int
    last_instr: int
    correct: int
    incorrect: int
    rows: RowBlock = field(repr=False)


class BankShard:
    """One shard: its controllers' columnar rows plus a decision cache.

    The decision cache is the read-mostly, deployed-code view of every
    branch the shard has seen — ``decisions[pc]`` answers
    ``should_speculate(pc)`` without touching controller state, and
    is updated only when a batch application lands a SELECT or EVICT.
    The shards of a :class:`ShardedBank` share one cache (``decisions``
    passed in): their keys are disjoint, so a read needs no routing.
    """

    __slots__ = ("index", "decisions", "events_applied",
                 "last_instr", "correct", "incorrect", "capture", "detect",
                 "col")

    def __init__(self, index: int, config: ControllerConfig,
                 decisions: dict[int, bool] | None = None) -> None:
        self.index = index
        self.decisions: dict[int, bool] = (
            {} if decisions is None else decisions)
        self.events_applied = 0
        self.last_instr = 0
        self.correct = 0
        self.incorrect = 0
        #: When True, :meth:`apply` times itself and collects the FSM
        #: arc firings of the batch into the result (read-only
        #: observation — controller state is bit-identical either way).
        self.capture = False
        #: When True (with ``capture``), :meth:`apply` also returns the
        #: misspeculation detector's inputs: the per-key ``summary`` and
        #: the ``selects`` block.
        self.detect = False
        #: The batch engine and the only copy of controller state: one
        #: row per controller the shard holds, and the sorted key index
        #: that records them.
        self.col = ColumnarBank(config, self.decisions)

    def apply(self, pcs: np.ndarray, taken: np.ndarray,
              instrs: np.ndarray) -> ShardApplyResult:
        """Apply a program-order micro-batch of this shard's events.

        Events are grouped per branch (stable, preserving program
        order, by :func:`~repro.tenant.keys.stable_order`); the groups
        advance together through the columnar cross-branch engine
        (:mod:`repro.serve.colpath`).  This grouping is the batch's
        only one: with ``detect`` on, the result's ``summary`` carries
        it to the misspeculation detector.
        """
        capture = self.capture
        t0 = perf_counter() if capture else 0.0
        n = len(pcs)
        if n == 0:
            return ShardApplyResult(
                shard=self.index, events=0, correct=0, incorrect=0,
                last_instr=self.last_instr,
                apply_seconds=perf_counter() - t0 if capture else 0.0)
        if n == 1 or bool((pcs[1:] >= pcs[:-1]).all()):
            # Already PC-grouped (single hot branch, or a pre-grouped
            # feeder): the stable sort would be the identity — skip it
            # and the three gathers.
            sorted_pcs, sorted_taken, sorted_instrs = pcs, taken, instrs
        else:
            order, sorted_pcs = stable_order(pcs)
            # Gather once; per-branch chunks below are contiguous views.
            sorted_taken = taken[order]
            sorted_instrs = instrs[order]
        bounds = np.flatnonzero(sorted_pcs[1:] != sorted_pcs[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        col = self.col
        f0, b0, s0 = col.events_fast, col.events_fallback, col.events_single
        (correct, incorrect, changed, deployed, fired, summary,
         selects) = col.apply_sorted(sorted_pcs, sorted_taken,
                                     sorted_instrs, starts, ends, capture,
                                     self.detect)
        self.events_applied += n
        self.last_instr = max(self.last_instr, int(instrs[-1]))
        self.correct += correct
        self.incorrect += incorrect
        return ShardApplyResult(
            shard=self.index, events=n, correct=correct,
            incorrect=incorrect, changed=changed, changed_deployed=deployed,
            last_instr=self.last_instr, transitions=fired, summary=summary,
            selects=selects,
            apply_seconds=perf_counter() - t0 if capture else 0.0,
            col_fast=col.events_fast - f0,
            col_fallback=col.events_fallback - b0,
            col_single=col.events_single - s0)

    def absorb(self, result: ShardApplyResult) -> None:
        """Mirror a result computed elsewhere (a worker process).

        In multi-process mode the parent's shard objects hold no live
        controllers; this keeps their counters and decision cache in
        lockstep with the worker that owns the real state, so
        ``metrics()`` and ``should_speculate()`` read locally.
        """
        self.events_applied += result.events
        self.correct += result.correct
        self.incorrect += result.incorrect
        self.last_instr = max(self.last_instr, result.last_instr)
        if result.changed.size:
            self.decisions.update(zip(result.changed.tolist(),
                                      result.changed_deployed.tolist()))

    def should_speculate(self, pc: int) -> bool:
        """Deployed-code view: does the live code speculate on ``pc``?

        Unknown branches answer False (unoptimized code never
        speculates).
        """
        return self.decisions.get(pc, False)

    def controller(self, pc: int) -> ReactiveBranchController:
        """A detached scalar copy of ``pc``'s controller, built from its
        row: reading it is exact, changing it changes nothing here.  Its
        transition log is empty, as rows keep no arc history.  An unseen
        ``pc`` enters the shard like a batch-minted one, with a fresh
        row.
        """
        return self.col.controller(pc)

    def release_controllers(self) -> None:
        """Drop live controller state (supervisor-mirror mode: a worker
        process owns the real shard; this one keeps only counters and
        the decision cache)."""
        self.col = ColumnarBank(self.col.config, self.decisions)

    def install(self, rows: RowBlock) -> None:
        """Enter controllers from their rows.

        The one way controller state arrives in a shard: tenant
        restore, snapshot load, reshard and a worker's LOAD all come
        through here.  Each row replaces any controller the shard held
        under its key and sets the key's decision.
        """
        self.col.put(rows)

    # -- tenant spill / restore -----------------------------------------
    def spill_tenant(self, tenant: int) -> RowBlock:
        """Extract and evict every controller of ``tenant``.

        Returns the controllers' rows in ascending key order and removes
        the keys' rows and decisions.  Restoring the block via
        :meth:`restore_tenant` is bit-exact.
        """
        col = self.col
        keys, rows = col.key_range(tenant << TENANT_SHIFT,
                                   (tenant << TENANT_SHIFT) | MAX_PC)
        block = col.gather(rows)
        decisions = self.decisions
        for key in keys.tolist():
            decisions.pop(key, None)
        col.evict_keys(keys)
        return block

    def restore_tenant(self, rows: RowBlock) -> None:
        """Re-intern a spilled tenant's rows into this shard."""
        self.install(rows)

    # -- snapshot hooks -------------------------------------------------
    def export_state(self) -> ShardState:
        return ShardState(
            index=self.index, events_applied=int(self.events_applied),
            last_instr=int(self.last_instr), correct=int(self.correct),
            incorrect=int(self.incorrect), rows=self.col.gather())

    @classmethod
    def from_state(cls, config: ControllerConfig, state: ShardState,
                   decisions: dict[int, bool] | None = None) -> "BankShard":
        shard = cls(state.index, config, decisions)
        shard.events_applied = state.events_applied
        shard.last_instr = state.last_instr
        shard.correct = state.correct
        shard.incorrect = state.incorrect
        shard.install(state.rows)
        return shard


@dataclass
class _Partition:
    """One batch's events split by destination shard."""

    shard: int
    pcs: np.ndarray = field(repr=False)
    taken: np.ndarray = field(repr=False)
    instrs: np.ndarray = field(repr=False)
    #: Span-tracing context, stamped by the service at enqueue time
    #: when spans are on: the owning batch's seq and the monotonic
    #: instant the partition entered its shard queue.
    seq: int = -1
    t_enqueue: float = 0.0

    @property
    def n_events(self) -> int:
        return len(self.pcs)


class ShardedBank:
    """N independent :class:`BankShard` partitions of one controller bank.

    Synchronous core of the online service: routing, application, the
    merged metrics view, and whole-bank snapshot state.  The asyncio
    service (:mod:`repro.serve.service`) wraps it with queues and
    backpressure; tests drive it directly.  ``decisions`` is the one
    decision cache every shard keeps current, so
    :meth:`should_speculate` is a single dict lookup.
    """

    def __init__(self, config: ControllerConfig | None = None,
                 n_shards: int = 4) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if config is None:
            from repro.core.config import scaled_config

            config = scaled_config()
        self.config = config
        self.decisions: dict[int, bool] = {}
        self.shards = tuple(BankShard(i, config, self.decisions)
                            for i in range(n_shards))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def partition(self, batch: EventBatch) -> list[_Partition]:
        """Split a batch by destination shard (program order kept).

        One stable sort on the destination id, then contiguous view
        slices per shard — cheaper than a boolean-mask pass per shard
        and zero-copy downstream.  The ids are sorted in the narrowest
        type that holds every shard number, which numpy radix-sorts.
        """
        # Tenant-bearing batches route (and apply) by packed int64 key;
        # tenant-less batches keep their bare int32 PCs, which *are*
        # tenant 0's keys, so both traffic kinds share one key space.
        ids = batch.pcs if batch.tenants is None else batch.keys()
        if self.n_shards == 1:
            return [_Partition(0, ids, batch.taken, batch.instrs)]
        dest = shard_ids(ids, self.n_shards).astype(
            np.min_scalar_type(self.n_shards - 1))
        order = np.argsort(dest, kind="stable")
        dest = dest[order]
        pcs = ids[order]
        taken = batch.taken[order]
        instrs = batch.instrs[order]
        bounds = np.flatnonzero(dest[1:] != dest[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(dest)]))
        return [_Partition(int(dest[s]), pcs[s:e], taken[s:e], instrs[s:e])
                for s, e in zip(starts, ends)]

    def apply_batch(self, batch: EventBatch) -> list[ShardApplyResult]:
        """Route and apply one batch synchronously (no queues)."""
        return [self.shards[p.shard].apply(p.pcs, p.taken, p.instrs)
                for p in self.partition(batch)]

    def should_speculate(self, pc: int, tenant: int = 0) -> bool:
        return self.decisions.get((tenant << TENANT_SHIFT) | pc, False)

    def controller(self, pc: int,
                   tenant: int = 0) -> ReactiveBranchController:
        key = (tenant << TENANT_SHIFT) | pc
        return self.shards[shard_of(key, self.n_shards)].controller(key)

    @property
    def events_applied(self) -> int:
        return sum(s.events_applied for s in self.shards)

    def metrics(self) -> SpeculationMetrics:
        """Merged speculation metrics across shards.

        Matches :func:`repro.sim.runner.run_reactive` metrics exactly
        when the same events have been applied in program order.
        """
        return SpeculationMetrics(
            dynamic_branches=self.events_applied,
            correct=sum(s.correct for s in self.shards),
            incorrect=sum(s.incorrect for s in self.shards),
            instructions=max((s.last_instr for s in self.shards), default=0),
        )

    def shard_event_counts(self) -> tuple[int, ...]:
        return tuple(s.events_applied for s in self.shards)

    # -- snapshot hooks -------------------------------------------------
    def export_state(self) -> list[ShardState]:
        """Every shard's state, by shard index."""
        return [s.export_state() for s in self.shards]

    @classmethod
    def from_state(cls, config: ControllerConfig,
                   states: list[ShardState]) -> "ShardedBank":
        bank = cls(config, len(states))
        bank.load_states(states)
        return bank

    def load_states(self, states: list[ShardState]) -> None:
        """Replace every shard by one rebuilt from its state (as many
        states as shards), the decision cache with theirs."""
        if tuple(s.index for s in states) != tuple(range(self.n_shards)):
            raise ValueError("snapshot shard indices are not 0..N-1")
        self.decisions.clear()
        self.shards = tuple(BankShard.from_state(self.config, s,
                                                 self.decisions)
                            for s in states)
