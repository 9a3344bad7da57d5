"""Per-micro-batch span tracing across the serving pipeline.

Every batch accepted by ``SpeculationService.submit_nowait`` is stamped
with a trace context (its ``seq`` plus a monotonic submit timestamp) and
accumulates one :class:`SpanRecord` as it flows through the pipeline.
The record attributes wall time to named stages:

``enqueue``
    Submit-side work: admission, partitioning, and queue insertion
    (everything in ``submit_nowait`` except the WAL append).
``wal_append``
    Synchronous WAL append inside ``submit_nowait`` (zero when the WAL
    is disabled).
``queue_wait``
    Time a partition sat in its shard queue before a worker picked it
    up (max across the batch's partitions).
``wire_out``
    Parent-side send to worker-side receipt of the APPLY frame
    (workers mode only; piggybacked on APPLY_RESULT as a worker-local
    monotonic stamp — CLOCK_MONOTONIC is system-wide on Linux, so
    parent and worker stamps share a timebase).
``apply``
    The shard's batch apply itself (the columnar engine).
``wire_back``
    Worker-side completion to parent-side receipt of APPLY_RESULT.
``apply`` / ``wire_*`` and coalesced batches
    When a shard worker coalesces several queued partitions into one
    apply, the full apply/wire durations are attributed to *every*
    covered batch's span — spans answer "how long did this batch's
    bytes take through each stage", not "how much exclusive CPU did it
    consume".
``wal_fsync``
    Submit to group-commit durability (the WAL's ``on_durable``
    callback), i.e. time-to-durability, not fsync syscall time.
``repl_ack``
    Submit to follower acknowledgement of this seq.

A span *completes* when all of its partitions have been applied;
``wal_fsync`` and ``repl_ack`` may land after completion and are
stamped into the same (mutable) record.  Completed and in-flight spans
live in one bounded ring, queryable via ``GET /spans.json`` and
``python -m repro.obs spans|slowest``.

The recorder is read-only with respect to controller state: it only
ever consumes timestamps and counts, so speculation decisions are
bit-identical with spans on or off (asserted by
``tests/obs/test_service_obs.py``).

Thread-safety: ``begin``/``note_applied``/``note_replicated`` run on
the service's event loop (the last from a replication link's task),
``note_durable`` on the WAL executor thread, and ``snapshot_doc`` on
the HTTP server thread — every entry point takes the recorder lock.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

__all__ = ["STAGES", "SpanRecord", "SpanRecorder"]

#: Stage names in pipeline order (the order ``to_dict`` reports them).
STAGES = (
    "enqueue", "wal_append", "queue_wait", "wire_out",
    "apply", "wire_back", "wal_fsync", "repl_ack",
)

#: Stages folded with ``max`` across a batch's partitions.
_FOLDED = ("queue_wait", "wire_out", "apply", "wire_back")


class SpanRecord:
    """One micro-batch's trace: stage durations in seconds, keyed by
    the batch ``seq``.  Mutable — late stages (durability, replication
    ack) are stamped into the record after it completes."""

    __slots__ = ("seq", "events", "parts", "t_submit", "pending",
                 "stages", "t_complete")

    def __init__(self, seq: int, events: int, parts: int,
                 t_submit: float) -> None:
        self.seq = seq
        self.events = events
        self.parts = parts
        self.t_submit = t_submit
        self.pending = parts
        self.stages: dict[str, float] = {}
        self.t_complete = 0.0

    @property
    def complete(self) -> bool:
        """All partitions applied (durability/ack may still be pending)."""
        return self.pending == 0

    @property
    def total_seconds(self) -> float:
        """Submit to last-partition-applied, 0.0 while in flight."""
        return self.t_complete - self.t_submit if self.complete else 0.0

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "events": self.events,
            "parts": self.parts,
            "complete": self.complete,
            "total_seconds": round(self.total_seconds, 9),
            "stages": {name: round(self.stages[name], 9)
                       for name in STAGES if name in self.stages},
        }


class SpanRecorder:
    """Bounded ring of :class:`SpanRecord` plus per-stage histograms.

    The span count and the histograms live only in ``registry`` (a
    private one when none is passed); ``snapshot_doc`` and
    :meth:`quantiles` read them back.  Two recorders on one registry
    would merge their counts: the service builds one per registry.
    """

    def __init__(self, capacity: int = 1024,
                 registry: MetricsRegistry | None = None) -> None:
        if capacity <= 0:
            raise ValueError("span ring capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[SpanRecord] = deque()
        self._by_seq: dict[int, SpanRecord] = {}
        self._awaiting_durable: deque[int] = deque()
        self._awaiting_ack: deque[int] = deque()
        registry = registry if registry is not None else MetricsRegistry()
        self._stage_hist = registry.histogram(
            "repro_span_stage_seconds",
            "Per-stage span durations across the serving pipeline",
            labelnames=("stage",), buckets=LATENCY_BUCKETS)
        self._batch_hist = registry.histogram(
            "repro_span_batch_seconds",
            "Submit-to-applied duration per micro-batch",
            buckets=LATENCY_BUCKETS)
        self._total = registry.counter(
            "repro_spans_total", "Micro-batch spans begun")
        # Resolve the per-stage children once: labels() is a dict
        # lookup behind a lock, too slow for the apply hot path.
        self._stage_child = {name: self._stage_hist.labels(name)
                             for name in STAGES}

    # -- producer side (service event loop) -----------------------------
    def begin(self, seq: int, events: int, parts: int, t_submit: float,
              enqueue_seconds: float, wal_seconds: float = 0.0) -> None:
        """Open the span for batch ``seq`` (called at the end of
        ``submit_nowait``, after its partitions are queued)."""
        rec = SpanRecord(seq, events, parts, t_submit)
        rec.stages["enqueue"] = enqueue_seconds
        if wal_seconds > 0.0:
            rec.stages["wal_append"] = wal_seconds
        with self._lock:
            if len(self._ring) >= self.capacity:
                evicted = self._ring.popleft()
                self._by_seq.pop(evicted.seq, None)
            self._ring.append(rec)
            self._by_seq[seq] = rec
            self._awaiting_durable.append(seq)
            self._awaiting_ack.append(seq)
        self._total.inc()
        self._stage_child["enqueue"].observe(enqueue_seconds)
        if wal_seconds > 0.0:
            self._stage_child["wal_append"].observe(wal_seconds)

    def note_applied(self, seq: int, queue_wait: float, apply: float,
                     wire_out: float = 0.0, wire_back: float = 0.0,
                     t_now: float | None = None) -> None:
        """Record one partition's apply; folds stage durations with max
        and completes the span when every partition has reported."""
        if t_now is None:
            t_now = monotonic()
        completed = None
        with self._lock:
            rec = self._by_seq.get(seq)
            if rec is None or rec.pending <= 0:
                return
            stages = rec.stages
            for name, value in (("queue_wait", queue_wait),
                                ("wire_out", wire_out),
                                ("apply", apply),
                                ("wire_back", wire_back)):
                if value > 0.0 or name in ("queue_wait", "apply"):
                    prev = stages.get(name, 0.0)
                    if value > prev or name not in stages:
                        stages[name] = max(prev, value)
            rec.pending -= 1
            if rec.pending == 0:
                rec.t_complete = t_now
                completed = rec
        if completed is not None:
            for name in _FOLDED:
                if name in completed.stages:
                    self._stage_child[name].observe(
                        completed.stages[name])
            self._batch_hist.observe(completed.total_seconds)

    # -- late stages (WAL executor thread / replication link tasks) -----
    def note_durable(self, durable_seq: int) -> None:
        """Stamp ``wal_fsync`` (time-to-durability) on every span with
        ``seq <= durable_seq`` that has not been stamped yet."""
        self._note_watermark(durable_seq, self._awaiting_durable,
                             "wal_fsync")

    def note_replicated(self, acked_seq: int) -> None:
        """Stamp ``repl_ack`` on every span with ``seq <= acked_seq``."""
        self._note_watermark(acked_seq, self._awaiting_ack, "repl_ack")

    def _note_watermark(self, upto: int, queue: deque[int],
                        stage: str) -> None:
        now = monotonic()
        stamped: list[float] = []
        with self._lock:
            while queue and queue[0] <= upto:
                seq = queue.popleft()
                rec = self._by_seq.get(seq)
                if rec is not None and stage not in rec.stages:
                    value = now - rec.t_submit
                    rec.stages[stage] = value
                    stamped.append(value)
        hist = self._stage_child[stage]
        for value in stamped:
            hist.observe(value)

    # -- consumer side (HTTP / CLI) -------------------------------------
    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.99)) -> dict:
        """Per-stage duration quantile estimates from the histograms
        (empty before any stage is observed)."""
        out: dict[str, dict[str, float]] = {}
        for key, child in self._stage_hist.children():
            if child.count == 0:
                continue
            out[key[0]] = {f"p{int(q * 100)}": round(child.quantile(q), 9)
                           for q in qs}
        return out

    def snapshot_doc(self, n: int | None = None,
                     slowest: int | None = None) -> dict:
        """JSON document for ``/spans.json`` and the CLI.

        ``n`` tails the ring (most recent spans); ``slowest`` instead
        returns the top-k completed spans by end-to-end duration.
        """
        with self._lock:
            records = list(self._ring)
        if slowest is not None:
            records = [r for r in records if r.complete]
            records.sort(key=lambda r: r.total_seconds, reverse=True)
            records = records[:max(slowest, 0)]
        elif n is not None:
            records = records[-max(n, 0):] if n else []
        return {
            "kind": "repro.obs.spans",
            "capacity": self.capacity,
            "begun": self._total.value,
            "stage_quantiles": self.quantiles(),
            "spans": [r.to_dict() for r in records],
        }
