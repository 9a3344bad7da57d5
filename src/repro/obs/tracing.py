"""FSM transition tracing: a bounded ring of arc firings.

The paper's central claim is that reactivity lives in two FSM arcs —
*eviction* (``biased → monitor``) and *revisit* (``unbiased →
monitor``) — yet in a running service those firings are invisible:
``should_speculate(pc)`` flips and nobody can say why.  This module
makes every arc a first-class, queryable event:

* every transition increments ``repro_fsm_transitions_total{arc=...}``
  (so the scrape endpoint answers "how often is the controller
  reacting"), and
* a bounded ring keeps the most recent ``(seq, pc, from_state,
  to_state, arc, exec_index, instr)`` records for a (optionally
  sampled) subset of PCs, so ``python -m repro.obs explain PC``
  answers "why did PC X stop being speculated" with the branch's
  actual history.

``seq`` is assigned by the ring in arrival order, giving ``tail`` a
stable global ordering even though records arrive from several shards
(and, in multi-process mode, ride ``APPLY_RESULT`` frames from worker
processes).  Recording reads only the arcs each shard's apply
captures (``ShardApplyResult.transitions``), never controller state,
so tracing can never perturb results; ``tests/obs/test_service_obs.py``
asserts bit-identical controller state with tracing on vs. off.
Controller state keeps no transition log, so the counters and the
ring are the service's only record of arcs.

Sampling is deterministic by PC (the same SplitMix64 finalizer the
shard router uses), so "is this PC traced" has one answer across
shards, workers, and restarts.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.tenant.keys import mix64

__all__ = ["ARCS", "ARC_CODE", "ARC_ENDPOINTS", "ARC_REASONS",
           "TraceRecord", "TransitionTrace"]

#: Arc names in wire order (codes are indexes into this tuple).
ARCS = ("select", "reject", "evict", "revisit", "disable")
ARC_CODE = {name: code for code, name in enumerate(ARCS)}

#: Each arc's (from_state, to_state) — the FSM of Figure 4(b) has
#: exactly one arc per kind, so the endpoints are implied by the kind.
ARC_ENDPOINTS = {
    "select": ("monitor", "biased"),
    "reject": ("monitor", "unbiased"),
    "evict": ("biased", "monitor"),
    "revisit": ("unbiased", "monitor"),
    "disable": ("monitor", "disabled"),
}

#: Human narrative per arc, used by ``python -m repro.obs explain``.
ARC_REASONS = {
    "select": ("monitor window classified the branch as biased; "
               "speculative code was requested"),
    "reject": ("monitor window found the branch insufficiently biased; "
               "no speculation"),
    "evict": ("misspeculation crossed the eviction threshold; "
              "speculative code was evicted"),
    "revisit": ("revisit period expired; the branch re-enters "
                "monitoring for another chance"),
    "disable": ("oscillation limit reached; the branch is permanently "
                "excluded from speculation"),
}

@dataclass(frozen=True)
class TraceRecord:
    """One recorded arc firing."""

    seq: int          # ring-assigned arrival order (global, monotonic)
    pc: int           # static branch id
    arc: str          # TransitionKind value ("evict", "revisit", ...)
    from_state: str
    to_state: str
    exec_index: int   # per-branch execution count at the firing
    instr: int        # global instruction stamp at the firing

    def to_dict(self) -> dict:
        return {"seq": self.seq, "pc": self.pc, "arc": self.arc,
                "from_state": self.from_state, "to_state": self.to_state,
                "exec_index": self.exec_index, "instr": self.instr}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceRecord":
        return cls(seq=int(d["seq"]), pc=int(d["pc"]), arc=str(d["arc"]),
                   from_state=str(d["from_state"]),
                   to_state=str(d["to_state"]),
                   exec_index=int(d["exec_index"]), instr=int(d["instr"]))


class TransitionTrace:
    """Bounded, sampled ring of FSM arc firings plus arc counters.

    ``capacity`` bounds memory (old records fall off); ``sample``
    traces 1-in-N PCs by hash (1 = every PC).  Arc *counters* always
    cover every transition — sampling only thins the ring.

    The counters live only in ``registry`` (a private one when none is
    passed), and :meth:`arc_counts` reads them back.  Two traces on one
    registry would merge their counts: the service builds one per
    registry.
    """

    def __init__(self, capacity: int = 4096, sample: int = 1,
                 registry: MetricsRegistry | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if sample <= 0:
            raise ValueError("sample must be positive (1 = trace all PCs)")
        self.capacity = capacity
        self.sample = sample
        self._ring: deque[TraceRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_seq = 0
        registry = registry if registry is not None else MetricsRegistry()
        family = registry.counter(
            "repro_fsm_transitions_total",
            "FSM arc firings by kind (evict/revisit are the paper's "
            "two reactive arcs)", labelnames=("arc",))
        self._counters = {arc: family.labels(arc=arc) for arc in ARCS}

    # -- recording ------------------------------------------------------
    def traced(self, pc: int) -> bool:
        """Deterministic sampling decision for one PC."""
        return self.sample <= 1 or mix64(pc) % self.sample == 0

    def record(self, pc: int, arc: int | str, exec_index: int,
               instr: int) -> None:
        """Record one arc firing (``arc`` by name or wire code)."""
        name = ARCS[arc] if isinstance(arc, int) else arc
        self._counters[name].inc()
        if not self.traced(pc):
            return
        from_state, to_state = ARC_ENDPOINTS[name]
        with self._lock:
            self._ring.append(TraceRecord(
                seq=self._next_seq, pc=pc, arc=name,
                from_state=from_state, to_state=to_state,
                exec_index=exec_index, instr=instr))
            self._next_seq += 1

    def extend(self, transitions: np.ndarray) -> None:
        """Record the ``[4, n]`` arc block a
        :class:`~repro.serve.shard.ShardApplyResult` carries."""
        for pc, code, exec_index, instr in zip(*transitions.tolist()):
            self.record(pc, code, exec_index, instr)

    # -- views ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_recorded(self) -> int:
        """Ring records ever appended (>= len once records fall off)."""
        return self._next_seq

    def arc_counts(self) -> dict[str, int]:
        """Firings per arc, read from ``repro_fsm_transitions_total``."""
        return {arc: child.value for arc, child in self._counters.items()}

    def records(self) -> list[TraceRecord]:
        with self._lock:
            return list(self._ring)

    def tail(self, n: int = 20) -> list[TraceRecord]:
        with self._lock:
            if n >= len(self._ring):
                return list(self._ring)
            return list(self._ring)[-n:]

    def for_pc(self, pc: int) -> list[TraceRecord]:
        with self._lock:
            return [r for r in self._ring if r.pc == pc]

    def snapshot_doc(self, pc: int | None = None,
                     n: int | None = None) -> dict:
        """JSON document: the ring (optionally filtered/tailed) plus
        its configuration — what ``/trace.json`` serves and
        ``--metrics-json`` embeds."""
        if pc is not None:
            records = self.for_pc(pc)
        elif n is not None:
            records = self.tail(n)
        else:
            records = self.records()
        return {
            "kind": "repro.obs.trace",
            "capacity": self.capacity,
            "sample": self.sample,
            "total_recorded": self.total_recorded,
            "arc_counts": self.arc_counts(),
            "records": [r.to_dict() for r in records],
        }

    # -- narrative ------------------------------------------------------
    def explain(self, pc: int) -> str:
        return explain_records(self.for_pc(pc), pc,
                               traced=self.traced(pc))


def explain_records(records: list[TraceRecord], pc: int,
                    traced: bool = True) -> str:
    """Narrate one PC's transition history ("why did it stop being
    speculated").  Works on live rings and on dumped documents."""
    if not traced:
        return (f"pc {pc}: not traced (sampled out); rerun with "
                "trace_sample=1 to trace every PC")
    if not records:
        return (f"pc {pc}: no transitions in the ring — the branch "
                "either never fired an arc or its records aged out "
                f"(ring keeps the most recent firings)")
    lines = [f"pc {pc}: {len(records)} transition(s) in the ring"]
    for r in records:
        lines.append(
            f"  seq {r.seq:>8}  exec {r.exec_index:>9,}  "
            f"instr {r.instr:>13,}  {r.from_state:>8} -> "
            f"{r.to_state:<8}  [{r.arc}] {ARC_REASONS[r.arc]}")
    last = records[-1]
    if last.arc in ("evict", "disable"):
        verdict = ("speculation is currently OFF for this branch "
                   f"(last arc: {last.arc})")
    elif last.arc == "select":
        verdict = ("speculation is currently ON for this branch "
                   "(pending the optimization latency)")
    elif last.arc == "reject":
        verdict = ("the branch is classified unbiased; it will be "
                   "revisited periodically")
    else:
        verdict = ("the branch is back in monitoring after a revisit; "
                   "the next monitor window decides")
    lines.append(f"  => {verdict}")
    return "\n".join(lines)
