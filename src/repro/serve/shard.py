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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ControllerBank, ReactiveBranchController
from repro.serve.colpath import ColumnarBank
from repro.serve.events import EventBatch
from repro.sim.metrics import SpeculationMetrics

__all__ = ["shard_of", "shard_ids", "BankShard", "ShardedBank",
           "ShardApplyResult"]

_MASK64 = (1 << 64) - 1


def shard_of(pc: int, n_shards: int) -> int:
    """Shard owning static branch ``pc`` (SplitMix64 finalizer mod N)."""
    x = (pc + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return int(x % n_shards)


def shard_ids(pcs: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized :func:`shard_of` over an array of PCs."""
    x = pcs.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(n_shards)).astype(np.int64)


@dataclass(frozen=True)
class ShardApplyResult:
    """Outcome of applying one micro-batch to one shard.

    Carries everything a remote supervisor needs to mirror the shard —
    outcome deltas, the instruction high-water mark, and the decision
    flips — so it is also the body of the ``APPLY_RESULT`` wire frame
    (:mod:`repro.serve.wire`).
    """

    shard: int
    events: int
    correct: int
    incorrect: int
    #: PCs whose deployed-code view flipped during the batch (a SELECT
    #: or EVICT landed) — exactly the decision-cache invalidation set.
    changed: tuple[int, ...] = ()
    #: New deployed-code answer per changed PC (parallel to ``changed``).
    changed_deployed: tuple[bool, ...] = ()
    #: Shard's instruction stamp high-water mark after the batch.
    last_instr: int = 0
    #: FSM arc firings during the batch, as ``(pc, arc_code,
    #: exec_index, instr)`` tuples (arc codes index
    #: :data:`repro.obs.tracing.ARCS`).  Empty unless the shard's
    #: ``capture`` flag is on.
    transitions: tuple[tuple[int, int, int, int], ...] = ()
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


class BankShard:
    """One shard: a :class:`ControllerBank` plus its decision cache.

    The decision cache is the read-mostly, deployed-code view of every
    branch the shard has seen — ``decisions[pc]`` answers
    ``should_speculate(pc)`` without touching controller internals, and
    is updated only when a batch application lands a SELECT or EVICT.
    """

    __slots__ = ("index", "bank", "decisions", "tenant_keys",
                 "events_applied", "last_instr", "correct", "incorrect",
                 "capture", "col")

    def __init__(self, index: int, config: ControllerConfig) -> None:
        self.index = index
        self.bank = ControllerBank(config)
        self.decisions: dict[int, bool] = {}
        #: Tenant → set of this shard's controller keys for that tenant
        #: (key >> 32).  Maintained wherever controllers are minted so
        #: :meth:`spill_tenant` never scans the whole bank.  Tenant-less
        #: traffic lands under tenant 0 (bare PCs *are* tenant-0 keys).
        self.tenant_keys: dict[int, set[int]] = {}
        self.events_applied = 0
        self.last_instr = 0
        self.correct = 0
        self.incorrect = 0
        #: When True, :meth:`apply` times itself and collects the FSM
        #: arc firings of the batch into the result (read-only
        #: observation — controller state is bit-identical either way).
        self.capture = False
        #: The batch engine's row mirror of ``bank``, built lazily by
        #: the next batch (:meth:`from_state` swaps ``bank`` after
        #: construction; :meth:`release_controllers` drops the mirror).
        self.col: ColumnarBank | None = None

    def apply(self, pcs: np.ndarray, taken: np.ndarray,
              instrs: np.ndarray) -> ShardApplyResult:
        """Apply a program-order micro-batch of this shard's events.

        Events are grouped per branch (stable, preserving program
        order); the groups advance together through the columnar
        cross-branch engine (:mod:`repro.serve.colpath`).
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
            order = np.argsort(pcs, kind="stable")
            sorted_pcs = pcs[order]
            # Gather once; per-branch chunks below are contiguous views.
            sorted_taken = taken[order]
            sorted_instrs = instrs[order]
        bounds = np.flatnonzero(sorted_pcs[1:] != sorted_pcs[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        col = self.col
        if col is None:
            col = self.col = ColumnarBank(self.bank.config, self.bank,
                                          self.decisions,
                                          tenant_index=self.tenant_keys)
        f0, b0, s0 = col.events_fast, col.events_fallback, col.events_single
        correct, incorrect, changed, fired = col.apply_sorted(
            sorted_pcs, sorted_taken, sorted_instrs, starts, ends, capture)
        self.events_applied += n
        self.last_instr = max(self.last_instr, int(instrs[-1]))
        self.correct += correct
        self.incorrect += incorrect
        return ShardApplyResult(
            shard=self.index, events=n, correct=correct,
            incorrect=incorrect, changed=tuple(changed),
            changed_deployed=tuple(self.decisions[pc] for pc in changed),
            last_instr=self.last_instr, transitions=tuple(fired),
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
        for pc, deployed in zip(result.changed, result.changed_deployed):
            self.decisions[pc] = deployed

    def should_speculate(self, pc: int) -> bool:
        """Deployed-code view: does the live code speculate on ``pc``?

        Unknown branches answer False (unoptimized code never
        speculates).
        """
        return self.decisions.get(pc, False)

    def controller(self, pc: int) -> ReactiveBranchController:
        """The scalar controller for ``pc``, flushed and current.

        A branch's hot counters live in the columnar row arrays
        between flushes; this accessor writes them back first so
        callers always read authoritative state.
        """
        if self.col is not None:
            return self.col.controller(pc)
        return self.bank.controller(pc)

    def release_controllers(self) -> None:
        """Drop live controller state (supervisor-mirror mode: a worker
        process owns the real shard; this one keeps only counters and
        the decision cache)."""
        self.col = None
        self.bank._controllers.clear()
        self.tenant_keys.clear()

    # -- tenant spill / restore -----------------------------------------
    def spill_tenant(self, tenant: int) -> list[dict]:
        """Extract and evict every controller of ``tenant``.

        Returns the controllers' ``export_state()`` dicts in ascending
        key order (deterministic blobs) and removes the keys from the
        bank, the decision cache, and the columnar mirror.  Restoring
        the same states via :meth:`restore_tenant` is bit-exact.
        """
        keys = self.tenant_keys.pop(tenant, None)
        if not keys:
            return []
        sorted_keys = np.fromiter(keys, dtype=np.int64, count=len(keys))
        sorted_keys.sort()
        controllers = self.bank._controllers
        col = self.col
        if col is not None:
            for key in sorted_keys.tolist():
                row = col._row_of(key)
                if row is not None and col.dirty[row]:
                    col._flush_row(row, controllers[key])
            col.evict_keys(sorted_keys)
        states = []
        for key in sorted_keys.tolist():
            ctrl = controllers.pop(key, None)
            self.decisions.pop(key, None)
            if ctrl is not None:
                states.append(ctrl.export_state())
        return states

    def restore_tenant(self, states: list[dict]) -> None:
        """Re-intern spilled controller states into this shard.

        Columnar rows are *not* rebuilt eagerly — the next batch that
        touches a restored key re-interns it through the pre-existing-
        controller path, seeding the row from the live state.
        """
        controllers = self.bank._controllers
        config = self.bank.config
        for state in states:
            ctrl = ReactiveBranchController.from_state(config, state)
            key = ctrl.branch
            controllers[key] = ctrl
            self.decisions[key] = ctrl.deployed
            self.tenant_keys.setdefault(key >> 32, set()).add(key)

    # -- snapshot hooks -------------------------------------------------
    def export_state(self) -> dict:
        if self.col is not None:
            self.col.flush()
        return {
            "index": self.index,
            "events_applied": int(self.events_applied),
            "last_instr": int(self.last_instr),
            "correct": int(self.correct),
            "incorrect": int(self.incorrect),
            "bank": self.bank.export_state(),
        }

    @classmethod
    def from_state(cls, config: ControllerConfig,
                   state: dict) -> "BankShard":
        shard = cls(int(state["index"]), config)
        shard.events_applied = int(state["events_applied"])
        shard.last_instr = int(state["last_instr"])
        shard.correct = int(state["correct"])
        shard.incorrect = int(state["incorrect"])
        shard.bank = ControllerBank.from_state(config, state["bank"])
        for ctrl in shard.bank:
            shard.decisions[ctrl.branch] = ctrl.deployed
            shard.tenant_keys.setdefault(ctrl.branch >> 32,
                                         set()).add(ctrl.branch)
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
    backpressure; tests drive it directly.
    """

    def __init__(self, config: ControllerConfig | None = None,
                 n_shards: int = 4) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if config is None:
            from repro.core.config import scaled_config

            config = scaled_config()
        self.config = config
        self.shards = tuple(BankShard(i, config) for i in range(n_shards))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def partition(self, batch: EventBatch) -> list[_Partition]:
        """Split a batch by destination shard (program order kept).

        One stable sort on the destination id, then contiguous view
        slices per shard — cheaper than a boolean-mask pass per shard
        and zero-copy downstream.
        """
        # Tenant-bearing batches route (and apply) by packed int64 key;
        # tenant-less batches keep their bare int32 PCs, which *are*
        # tenant 0's keys, so both traffic kinds share one key space.
        ids = batch.pcs if batch.tenants is None else batch.keys()
        if self.n_shards == 1:
            return [_Partition(0, ids, batch.taken, batch.instrs)]
        dest = shard_ids(ids, self.n_shards)
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
        key = (tenant << 32) | pc
        return self.shards[shard_of(key, self.n_shards)].should_speculate(key)

    def controller(self, pc: int,
                   tenant: int = 0) -> ReactiveBranchController:
        key = (tenant << 32) | pc
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
    def export_state(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "shards": [s.export_state() for s in self.shards],
        }

    @classmethod
    def from_state(cls, config: ControllerConfig,
                   state: dict) -> "ShardedBank":
        bank = cls(config, int(state["n_shards"]))
        bank.shards = tuple(BankShard.from_state(config, s)
                            for s in state["shards"])
        if tuple(s.index for s in bank.shards) != tuple(range(bank.n_shards)):
            raise ValueError("snapshot shard indices are not 0..N-1")
        return bank
