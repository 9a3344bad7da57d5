"""The asyncio speculation-control service loop.

:class:`SpeculationService` turns the sharded controller bank into a
long-lived online system with the deployment shape the paper assumes —
a reactive controller that continuously ingests branch outcomes and
re-decides, tolerating re-optimization latencies, while a JIT polls the
deployed-code view through :meth:`should_speculate`.

Design points:

* **Bounded per-shard queues.**  Each shard owns a FIFO of routed
  event partitions, bounded in *events* (not batches).  Bounded queues
  are what make overload degrade predictably: memory per shard is
  capped and latency cannot balloon unobserved.
* **Explicit backpressure.**  A submission that would overflow any
  destination shard's queue is rejected atomically (no partial
  enqueue) with :class:`BackpressureError` carrying a ``retry_after``
  hint derived from the observed drain rate.  Combined with monotonic
  batch sequence numbers, rejected batches are resubmitted verbatim
  and can never double-ingest.
* **Adaptive micro-batching.**  Workers coalesce everything queued up
  to a per-shard target that doubles while the queue stays deep and
  halves when it runs dry — small batches (low latency) when lightly
  loaded, large batches (high throughput, denser per-branch runs for
  the vectorized fast path) under pressure.
* **One shard loop.**  Each shard's task hands every shard operation —
  apply, tenant spill and restore, state collection — to one pool
  chosen at :meth:`start`: a :class:`~repro.serve.workers.LocalPool`
  on the bank's own shards, or a :class:`~repro.serve.workers.WorkerPool`
  of one OS process per shard (``workers=N``) that keeps the bank's
  shards as mirrors.  The loop never branches on execution mode.
* **Quiesced snapshots.**  :meth:`snapshot` drains all queues and then
  checkpoints full controller + deployment-queue state; a service
  restored from the file continues bit-identically (see
  :mod:`repro.serve.snapshot`).
* **Write-ahead logging.**  With ``wal_dir`` set, every *accepted*
  batch is appended to a CRC-framed segment log
  (:mod:`repro.wal`) before it is enqueued, so a crash loses at most
  the tail the fsync policy permits — snapshot + WAL replay restores
  the exact accepted stream, not just the snapshot-covered prefix.
  ``last_durable_seq`` accordingly means *fsynced* (the WAL
  watermark), falling back to snapshot-covered when the WAL is off.
  Group commit (``wal_fsync="batch"``) rides the same micro-batch
  cadence: appends return immediately and a committer task folds
  everything outstanding into one fsync.  Snapshots double as
  compaction anchors — segments fully below the covered sequence
  number are deleted once the checkpoint is on disk.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

import numpy as np

from repro.core.config import ControllerConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TransitionTrace
from repro.serve.events import EventBatch
from repro.serve.shard import ShardedBank, shard_of
from repro.serve.telemetry import ServiceTelemetry, TelemetryReading
from repro.serve.workers import LocalPool, WorkerDiedError, WorkerPool
from repro.sim.metrics import SpeculationMetrics
from repro.tenant.keys import sorted_unique
from repro.tenant.manager import TenantManager

__all__ = ["ServiceConfig", "BackpressureError", "QuotaExceededError",
           "SequenceError", "SpeculationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the online service (not of the controller)."""

    n_shards: int = 4
    #: Per-shard queue bound, in events.  Overflow → backpressure.
    queue_events: int = 32_768
    #: Adaptive micro-batch coalescing floor/ceiling, in events.
    min_batch_events: int = 512
    max_batch_events: int = 8_192
    #: Rolling telemetry window, in events.
    telemetry_window: int = 65_536
    #: Retry hint when no drain rate has been observed yet.
    default_retry_after: float = 0.02
    #: Auto-snapshot every N applied events (None = disabled).
    snapshot_interval_events: int | None = None
    snapshot_dir: str | None = None
    #: 0 = apply shards in-process on the asyncio loop; N = one OS
    #: worker process per shard (requires ``workers == n_shards``) fed
    #: over the binary wire protocol for real multi-core scaling.
    workers: int = 0
    #: Worker transport: ``pipe`` (multiprocessing.Pipe) or ``socket``
    #: (AF_UNIX stream with explicit length-prefixed frames).
    transport: str = "pipe"
    #: Write-ahead log directory (None = WAL disabled).  Every accepted
    #: batch is appended before it is enqueued; see :mod:`repro.wal`.
    wal_dir: str | None = None
    #: WAL durability policy: ``always`` (fsync per append), ``batch``
    #: (group commit — one fsync covers everything appended since the
    #: last), or ``off`` (OS page cache only: survives process death,
    #: not power loss).
    wal_fsync: str = "batch"
    #: WAL segment rotation threshold, in bytes.
    wal_segment_bytes: int = 4 * 1024 * 1024
    #: Replication listen address (``host:port`` or AF_UNIX path).
    #: When set, a :class:`~repro.replicate.sender.ReplicationSender`
    #: streams this service's WAL to connecting followers; requires
    #: ``wal_dir``.  None = replication off.
    repl_listen: str | None = None
    #: Observability capture: apply-latency/batch-size histograms, WAL
    #: latency histograms, and FSM transition tracing.  Counters and
    #: gauges stay on either way (they replace the old plain-int
    #: telemetry); turning this off removes every per-apply
    #: ``perf_counter`` call and transition copy — the obs-off
    #: baseline of the ``obs`` bench target.
    obs: bool = True
    #: Span tracing: stamp every accepted batch with a trace context
    #: and record per-stage latency spans (enqueue → queue wait → wire
    #: → apply → WAL fsync → replication ack) into a bounded ring
    #: served at ``/spans.json``.  Effective only with ``obs`` on;
    #: read-only with respect to controller state.
    spans: bool = True
    #: Span ring capacity (most recent micro-batch spans kept).
    span_ring: int = 1024
    #: Online misspeculation health detection: sliding-window misspec
    #: rate / eviction-storm detectors over the exact transition
    #: stream, served at ``/health``.  Effective only with ``obs`` on;
    #: read-only with respect to controller state.
    detect: bool = True
    #: Transition-ring capacity (most recent arc firings kept).
    trace_ring: int = 4096
    #: Trace 1-in-N PCs by deterministic hash (1 = every PC).
    #: Arc counters always cover every transition.
    trace_sample: int = 1
    #: Per-tenant admission quota: sustained events/second refill of
    #: each tenant's token bucket (None = quotas off).  Rejections are
    #: retryable (:class:`QuotaExceededError`).
    tenant_quota_rate: float | None = None
    #: Token-bucket capacity, in events (the permitted burst).
    tenant_quota_burst: int = 32_768
    #: Resident-set budget in estimated controller bytes; cold tenants
    #: are spilled to disk to stay under it (None = no spilling).
    tenant_resident_bytes: int | None = None
    #: Spill-store directory (None = a managed temporary directory,
    #: discarded with the process).
    tenant_spill_dir: str | None = None
    #: Footprint estimate per distinct resident branch key.
    tenant_bytes_per_branch: int = 512
    #: Per-tenant metric labels kept: top-K tenants by traffic get
    #: dedicated labels, the rest aggregate under ``__overflow__``.
    tenant_top_k: int = 16

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.workers and self.workers != self.n_shards:
            raise ValueError(
                f"workers ({self.workers}) must equal n_shards "
                f"({self.n_shards}): the execution model is one worker "
                "process per shard")
        if self.transport not in ("pipe", "socket"):
            raise ValueError(f"unknown transport {self.transport!r} "
                             "(expected 'pipe' or 'socket')")
        if self.queue_events <= 0:
            raise ValueError("queue_events must be positive")
        if not 0 < self.min_batch_events <= self.max_batch_events:
            raise ValueError("need 0 < min_batch_events <= max_batch_events")
        if self.telemetry_window <= 0:
            raise ValueError("telemetry_window must be positive")
        if (self.snapshot_interval_events is not None
                and self.snapshot_interval_events <= 0):
            raise ValueError("snapshot_interval_events must be positive")
        if (self.snapshot_interval_events is not None
                and self.snapshot_dir is None):
            raise ValueError("snapshot_interval_events needs snapshot_dir")
        if self.wal_fsync not in ("always", "batch", "off"):
            raise ValueError(f"unknown wal_fsync {self.wal_fsync!r} "
                             "(expected 'always', 'batch' or 'off')")
        if self.wal_segment_bytes <= 0:
            raise ValueError("wal_segment_bytes must be positive")
        if self.repl_listen is not None and self.wal_dir is None:
            raise ValueError("repl_listen requires wal_dir: replication "
                             "streams the write-ahead log")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")
        if self.span_ring <= 0:
            raise ValueError("span_ring must be positive")
        if self.trace_sample <= 0:
            raise ValueError("trace_sample must be positive "
                             "(1 = trace every PC)")
        if (self.tenant_quota_rate is not None
                and self.tenant_quota_rate <= 0):
            raise ValueError("tenant_quota_rate must be positive")
        if self.tenant_quota_burst <= 0:
            raise ValueError("tenant_quota_burst must be positive")
        if (self.tenant_resident_bytes is not None
                and self.tenant_resident_bytes <= 0):
            raise ValueError("tenant_resident_bytes must be positive")
        if self.tenant_bytes_per_branch <= 0:
            raise ValueError("tenant_bytes_per_branch must be positive")
        if self.tenant_top_k <= 0:
            raise ValueError("tenant_top_k must be positive")


class BackpressureError(Exception):
    """A submission was rejected because a shard queue is full.

    Resubmit the same batch (same ``seq``) after ``retry_after``
    seconds; the hint is the time the hottest destination shard needs
    to drain at its recently observed rate.
    """

    def __init__(self, shard: int, queued_events: int,
                 retry_after: float) -> None:
        super().__init__(
            f"shard {shard} queue full ({queued_events} events); "
            f"retry after {retry_after:.3f}s")
        self.shard = shard
        self.queued_events = queued_events
        self.retry_after = retry_after


class QuotaExceededError(BackpressureError):
    """A submission exceeded its tenant's admission quota.

    Subclasses :class:`BackpressureError` so existing client retry
    loops treat a throttled tenant exactly like a full queue: resubmit
    the same batch (same ``seq``) after ``retry_after`` seconds.
    """

    def __init__(self, tenant: int, retry_after: float) -> None:
        Exception.__init__(
            self, f"tenant {tenant} quota exceeded; retry after "
            f"{retry_after:.3f}s")
        self.tenant = tenant
        self.shard = -1
        self.queued_events = 0
        self.retry_after = retry_after


class SequenceError(Exception):
    """A batch arrived with a non-monotonic sequence number."""


@dataclass
class _TenantJob:
    """A per-shard spill/restore control job riding the event queues.

    Queue position is the correctness argument: a restore enqueued
    *before* its triggering batch's partitions re-interns the tenant's
    controllers ahead of the events, and a spill enqueued *after* a
    batch's partitions extracts state behind every event already
    admitted — the shard queues are FIFO, so no flush or barrier is
    needed.
    """

    kind: str  # "spill" | "restore"
    tenant: int
    states: list[dict] | None = field(default=None, repr=False)


class SpeculationService:
    """Online reactive speculation control over a sharded bank."""

    def __init__(self, config: ControllerConfig | None = None,
                 service_config: ServiceConfig | None = None,
                 bank: ShardedBank | None = None,
                 last_seq: int = -1) -> None:
        self.service_config = service_config or ServiceConfig()
        if bank is not None:
            if bank.n_shards != self.service_config.n_shards:
                raise ValueError(
                    f"bank has {bank.n_shards} shards but service config "
                    f"says {self.service_config.n_shards}")
            self.bank = bank
        else:
            self.bank = ShardedBank(config, self.service_config.n_shards)
        self.config = self.bank.config
        n = self.bank.n_shards
        #: One registry for the whole service: telemetry, the WAL
        #: writer and the transition trace all register into it, and
        #: the ``--metrics-port`` endpoint serves it.
        self.registry = MetricsRegistry()
        self.trace = TransitionTrace(
            capacity=self.service_config.trace_ring,
            sample=self.service_config.trace_sample,
            registry=self.registry)
        self.telemetry = ServiceTelemetry(
            n, self.service_config.telemetry_window,
            registry=self.registry)
        #: Span tracer and misspeculation health detector (obs v2).
        #: Both are pure observers — they read timestamps, counts and
        #: the transition stream, never controller state, so results
        #: are bit-identical with them on or off.
        self.spans = None
        self.detector = None
        if self.service_config.obs and self.service_config.spans:
            from repro.obs.spans import SpanRecorder

            self.spans = SpanRecorder(
                capacity=self.service_config.span_ring,
                registry=self.registry)
        if self.service_config.obs and self.service_config.detect:
            from repro.obs.detect import MisspecDetector

            self.detector = MisspecDetector(registry=self.registry)
            # The detector taps the exact arc stream through the trace
            # ring's listener hook — one plumbing path for transitions.
            self.trace.add_listener(self.detector.observe_transitions)
        self._queues: list[asyncio.Queue] = [asyncio.Queue()
                                             for _ in range(n)]
        self._queued_events = [0] * n
        self._targets = [self.service_config.min_batch_events] * n
        self._last_seq = last_seq
        self._events_submitted = self.bank.events_applied
        self._workers: list[asyncio.Task] = []
        self._snapshot_task: asyncio.Task | None = None
        self._snap_due = asyncio.Event()
        self._next_snapshot_at = (
            self.bank.events_applied
            + (self.service_config.snapshot_interval_events or 0))
        self.snapshots_written: list[Path] = []
        self._running = False
        self._quiescing = False
        #: Where shard operations run while the service is started:
        #: a LocalPool or a WorkerPool (None while stopped).
        self._pool: LocalPool | WorkerPool | None = None
        self._fatal: Exception | None = None
        #: Newest batch seq covered by an on-disk snapshot.  A service
        #: built from a snapshot starts durable up to its own last_seq.
        self._snapshot_seq = last_seq
        #: Snapshot file this service was restored from, if any (used
        #: for the recovery hint in :class:`WorkerDiedError`).
        self._restored_from: Path | None = None
        self._bank_stale = False
        self._wal = None
        self._wal_dirty = asyncio.Event()
        self._wal_task: asyncio.Task | None = None
        if self.service_config.wal_dir is not None:
            from repro.wal.writer import WalWriter

            self._wal = WalWriter(
                self.service_config.wal_dir,
                segment_bytes=self.service_config.wal_segment_bytes,
                fsync=self.service_config.wal_fsync,
                registry=(self.registry if self.service_config.obs
                          else None))
            if self.spans is not None:
                # Durability watermark advances → stamp wal_fsync
                # (time-to-durability) on the covered spans.
                self._wal.on_durable = self.spans.note_durable
        self._repl = None
        if self.service_config.repl_listen is not None:
            self.enable_replication(self.service_config.repl_listen)
        #: Tenant registry: eager when any tenant knob is set, else
        #: created lazily by the first tenant-bearing batch (metrics
        #: only) or by a snapshot carrying spilled tenants.
        self._tenants: TenantManager | None = None
        if (self.service_config.tenant_quota_rate is not None
                or self.service_config.tenant_resident_bytes is not None
                or self.service_config.tenant_spill_dir is not None):
            self._tenants = self._make_tenant_manager()

    def _make_tenant_manager(self) -> TenantManager:
        scfg = self.service_config
        return TenantManager(
            self.bank.n_shards,
            quota_rate=scfg.tenant_quota_rate,
            quota_burst=scfg.tenant_quota_burst,
            resident_bytes=scfg.tenant_resident_bytes,
            bytes_per_branch=scfg.tenant_bytes_per_branch,
            spill_dir=scfg.tenant_spill_dir,
            top_k=scfg.tenant_top_k,
            registry=self.registry if scfg.obs else None)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the shard pool — in multi-process mode, one OS worker
        process per shard — and one worker task per shard (idempotent)."""
        if self._running:
            return
        if self._bank_stale:
            raise RuntimeError(
                "cannot restart: live shard state was lost when worker "
                "processes were stopped without draining; restore a "
                "snapshot instead")
        self._running = True
        scfg = self.service_config
        if scfg.workers:
            pool = WorkerPool(self.bank, transport=scfg.transport,
                              capture=scfg.obs)
        else:
            pool = LocalPool(self.bank, capture=scfg.obs)
        try:
            await pool.start()
        except Exception:
            self._running = False
            await pool.shutdown()
            raise
        self._pool = pool
        self._workers = [asyncio.create_task(self._worker(i),
                                             name=f"repro-serve-shard-{i}")
                         for i in range(self.bank.n_shards)]
        if self.service_config.snapshot_interval_events is not None:
            self._snapshot_task = asyncio.create_task(
                self._autosnapshot(), name="repro-serve-snapshot")
        if self._wal is not None and self.service_config.wal_fsync == "batch":
            self._wal_task = asyncio.create_task(
                self._wal_committer(), name="repro-serve-wal-commit")
        if self._repl is not None:
            self._repl.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop workers; by default drain queued events first."""
        if self._fatal is not None:
            drain = False
        if drain and self._running:
            await self.drain()
        self._running = False
        tasks = self._workers + [t for t in (self._snapshot_task,
                                             self._wal_task) if t]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._snapshot_task = None
        self._wal_task = None
        if self._wal is not None and self.service_config.wal_fsync == "batch":
            # One final group commit so a clean stop leaves the durable
            # watermark at the accepted watermark.
            await asyncio.get_running_loop().run_in_executor(
                None, self._wal.commit)
        if self._repl is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._repl.close)
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self._bank_stale = not await pool.shutdown(gather=drain)

    async def __aenter__(self) -> "SpeculationService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=exc[0] is None)

    # -- ingestion ------------------------------------------------------
    def submit_nowait(self, batch: EventBatch) -> None:
        """Route a batch into shard queues, or reject it atomically.

        Raises :class:`SequenceError` for non-monotonic ``seq`` and
        :class:`BackpressureError` when any destination queue would
        overflow (in which case *nothing* was enqueued).
        """
        if self._fatal is not None:
            raise self._fatal
        if batch.seq <= self._last_seq:
            raise SequenceError(
                f"batch seq {batch.seq} not greater than last accepted "
                f"seq {self._last_seq}")
        if self._quiescing:
            # A snapshot is quiescing the service; intake reopens once
            # it is written.  Backpressure keeps retries idempotent.
            deepest = max(range(len(self._queued_events)),
                          key=self._queued_events.__getitem__)
            raise BackpressureError(deepest, self._queued_events[deepest],
                                    self._retry_after(deepest))
        tm = self._tenants
        if tm is None and batch.tenants is not None:
            # First tenant-bearing batch on an unconfigured service:
            # create the registry lazily (per-tenant metrics only — no
            # quota or resident-set policy was requested).
            tm = self._tenants = self._make_tenant_manager()
        plan = None
        now = 0.0
        if tm is not None and (batch.tenants is not None or tm.active):
            now = monotonic()
            plan = tm.plan(batch, now)
            if plan.reject_kind == "quota":
                tm.count_rejection(plan.reject_tenant)
                raise QuotaExceededError(plan.reject_tenant,
                                         plan.retry_after)
            if plan.reject_kind == "spilling":
                # The tenant's controllers are mid-extraction in the
                # shard queues; admitting more of its events would race
                # the spill.  Same retryable signal as a full queue.
                deepest = max(range(len(self._queued_events)),
                              key=self._queued_events.__getitem__)
                raise BackpressureError(
                    deepest, self._queued_events[deepest],
                    self._retry_after(deepest))
        spans = self.spans
        t_submit = monotonic() if spans is not None else 0.0
        cap = self.service_config.queue_events
        parts = self.bank.partition(batch)
        for p in parts:
            if p.n_events > cap:
                raise ValueError(
                    f"batch routes {p.n_events} events to shard "
                    f"{p.shard}, above its whole queue capacity {cap}; "
                    f"submit smaller batches")
            if self._queued_events[p.shard] + p.n_events > cap:
                raise BackpressureError(
                    p.shard, self._queued_events[p.shard],
                    self._retry_after(p.shard))
        wal_seconds = 0.0
        if self._wal is not None:
            # Log-before-enqueue: once a batch is accepted it is in the
            # WAL, so a crash can only lose what the fsync policy
            # permits.  An append failure (disk) rejects atomically —
            # nothing was enqueued yet.
            if spans is not None:
                t_wal = monotonic()
                self._wal.append(batch)
                wal_seconds = monotonic() - t_wal
            else:
                self._wal.append(batch)
            if self.service_config.wal_fsync == "batch":
                self._wal_dirty.set()
            if self._repl is not None:
                self._repl.offer(batch.seq)
        if plan is not None:
            for _tenant, states in plan.restores:
                self._enqueue_restores(states)
        for p in parts:
            if spans is not None:
                p.seq = batch.seq
                p.t_enqueue = monotonic()
            self._queues[p.shard].put_nowait(p)
            depth = self._queued_events[p.shard] + p.n_events
            self._queued_events[p.shard] = depth
            self.telemetry.record_enqueue(p.shard, p.n_events, depth)
        if spans is not None:
            spans.begin(batch.seq, batch.n_events, len(parts), t_submit,
                        enqueue_seconds=(monotonic() - t_submit
                                         - wal_seconds),
                        wal_seconds=wal_seconds)
        self._last_seq = batch.seq
        self._events_submitted += batch.n_events
        if plan is not None:
            tm.commit(plan, batch, now)
            for victim in tm.pick_victims():
                for queue in self._queues:
                    queue.put_nowait(_TenantJob("spill", victim))

    async def submit(self, batch: EventBatch) -> None:
        """:meth:`submit_nowait`, yielding to workers afterwards."""
        self.submit_nowait(batch)
        await asyncio.sleep(0)

    def _retry_after(self, shard: int) -> float:
        rate = self.telemetry.drain_rate
        if rate <= 0:
            return self.service_config.default_retry_after
        # Time for the offending shard to drain half its queue.
        eta = self._queued_events[shard] / (2 * rate)
        return float(min(max(eta, 0.001), 1.0))

    def _enqueue_restores(self, states: list[dict]) -> None:
        """Split one spilled tenant's blob by live shard and enqueue
        the restore jobs (ahead of the triggering batch's partitions)."""
        n = self.bank.n_shards
        by_shard: dict[int, list[dict]] = {}
        for state in states:
            key = int(state["branch"])
            by_shard.setdefault(shard_of(key, n), []).append(state)
        for sh, part in by_shard.items():
            self._queues[sh].put_nowait(
                _TenantJob("restore", part[0]["branch"] >> 32, part))

    async def drain(self) -> None:
        """Wait until every queued event has been applied.

        Raises the pending :class:`~repro.serve.workers.WorkerDiedError`
        if a shard worker process died while draining.
        """
        await asyncio.gather(*(q.join() for q in self._queues))
        if self._fatal is not None:
            raise self._fatal

    def _abandon_shard(self, shard_index: int, err: WorkerDiedError,
                       unfinished: int) -> None:
        """Latch a worker death and account the shard's queue out.

        The shard's events can never be applied, so its ``unfinished``
        dequeued items and everything still queued are marked done,
        releasing :meth:`drain` and other joiners.
        """
        self._set_fatal(err)
        queue = self._queues[shard_index]
        for _ in range(unfinished):
            queue.task_done()
        while True:
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            queue.task_done()
        self._queued_events[shard_index] = 0

    def _set_fatal(self, err: WorkerDiedError) -> WorkerDiedError:
        """Annotate a worker death with the durability watermark plus
        the exact recovery command, and latch it as the service's
        terminal error."""
        err.last_durable_seq = self.last_durable_seq
        if self.snapshots_written:
            err.snapshot_path = self.snapshots_written[-1]
        elif self._restored_from is not None:
            err.snapshot_path = self._restored_from
        err.wal_dir = self.service_config.wal_dir
        if self._fatal is None:
            self._fatal = err
        return err

    # -- shard workers --------------------------------------------------
    async def _worker(self, shard_index: int) -> None:
        queue = self._queues[shard_index]
        pool = self._pool
        scfg = self.service_config
        while True:
            part = await queue.get()
            if isinstance(part, _TenantJob):
                if not await self._run_tenant_jobs(shard_index, [part]):
                    return
                continue
            parts = [part]
            jobs: list[_TenantJob] = []
            events = part.n_events
            target = self._targets[shard_index]
            while events < target:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if isinstance(extra, _TenantJob):
                    # FIFO fence: the job must run after everything
                    # coalesced so far and before anything behind it —
                    # stop coalescing here.
                    jobs.append(extra)
                    break
                parts.append(extra)
                events += extra.n_events
            if len(parts) == 1:
                pcs, taken, instrs = part.pcs, part.taken, part.instrs
            else:
                pcs = np.concatenate([p.pcs for p in parts])
                taken = np.concatenate([p.taken for p in parts])
                instrs = np.concatenate([p.instrs for p in parts])
            spans = self.spans
            t_dequeue = monotonic() if spans is not None else 0.0
            t_send = t_dequeue
            try:
                result = await pool.apply(shard_index, pcs, taken, instrs)
            except WorkerDiedError as err:
                self._abandon_shard(shard_index, err,
                                    len(parts) + len(jobs))
                return
            depth = self._queued_events[shard_index] - events
            self._queued_events[shard_index] = depth
            if scfg.obs:
                self.telemetry.record_apply(
                    shard_index, events, result.correct, result.incorrect,
                    depth, apply_seconds=result.apply_seconds,
                    col_fast=result.col_fast,
                    col_fallback=result.col_fallback,
                    col_single=result.col_single)
                if spans is not None:
                    t_ret = monotonic()
                    # Worker stamps share CLOCK_MONOTONIC with ours, so
                    # wire legs are direct differences; 0.0 stamps mean
                    # in-process mode (no wire legs).
                    wire_out = (result.t_recv - t_send
                                if result.t_recv > 0.0 else 0.0)
                    wire_back = (t_ret - result.t_done
                                 if result.t_done > 0.0 else 0.0)
                    for p in parts:
                        # A coalesced apply covers several batches; the
                        # full stage durations are attributed to each
                        # covered batch's span (worst-path semantics).
                        spans.note_applied(
                            p.seq,
                            queue_wait=t_dequeue - p.t_enqueue,
                            apply=result.apply_seconds,
                            wire_out=wire_out, wire_back=wire_back,
                            t_now=t_ret)
                det = self.detector
                if det is not None:
                    # Outcomes first, transitions second (via the trace
                    # listener below): the flip detector must see each
                    # batch's outcomes against the deployed set as it
                    # stood *before* the batch's arcs fired.
                    det.observe_batch(pcs, taken)
                    det.observe_apply(events, result.correct,
                                      result.incorrect, int(instrs[0]),
                                      int(instrs[-1]))
                if result.transitions:
                    self.trace.extend(result.transitions)
            else:
                self.telemetry.record_apply(
                    shard_index, events, result.correct, result.incorrect,
                    depth, col_fast=result.col_fast,
                    col_fallback=result.col_fallback,
                    col_single=result.col_single)
            # Adapt the coalescing target to the observed queue depth.
            if depth >= target and target < scfg.max_batch_events:
                self._targets[shard_index] = min(
                    scfg.max_batch_events, target * 2)
            elif depth == 0 and target > scfg.min_batch_events:
                self._targets[shard_index] = max(
                    scfg.min_batch_events, target // 2)
            if (scfg.snapshot_interval_events is not None
                    and self.bank.events_applied >= self._next_snapshot_at):
                self._snap_due.set()
            for _ in parts:
                queue.task_done()
            if jobs and not await self._run_tenant_jobs(shard_index, jobs):
                return
            # Yield so producers/other shards interleave under load.
            await asyncio.sleep(0)

    async def _run_tenant_jobs(self, shard_index: int,
                               jobs: list[_TenantJob]) -> bool:
        """Run dequeued spill/restore control jobs on one shard.

        Marks each job done on the queue; returns False after latching
        a fatal worker death.
        """
        queue = self._queues[shard_index]
        pool = self._pool
        for i, job in enumerate(jobs):
            try:
                if job.kind == "spill":
                    states = await pool.spill(shard_index, job.tenant)
                    self._tenants.spill_contribution(job.tenant, states)
                else:
                    await pool.restore(shard_index, job.states)
            except WorkerDiedError as err:
                self._abandon_shard(shard_index, err, len(jobs) - i)
                return False
            queue.task_done()
        return True

    async def _wal_committer(self) -> None:
        """Group commit: one fsync covers every append since the last.

        Runs the fsync in an executor so a slow disk never stalls the
        event loop; appends arriving while a commit is in flight set
        the dirty flag again and ride the next fsync.
        """
        loop = asyncio.get_running_loop()
        while True:
            await self._wal_dirty.wait()
            self._wal_dirty.clear()
            await loop.run_in_executor(None, self._wal.commit)

    async def _autosnapshot(self) -> None:
        scfg = self.service_config
        Path(scfg.snapshot_dir).mkdir(parents=True, exist_ok=True)
        while True:
            await self._snap_due.wait()
            await self.snapshot()
            self._next_snapshot_at = (self.bank.events_applied
                                      + scfg.snapshot_interval_events)
            self._snap_due.clear()

    # -- decision API ---------------------------------------------------
    def should_speculate(self, pc: int, tenant: int = 0) -> bool:
        """Deployed-code view: does live code speculate on ``pc``?

        This answers from the per-shard decision cache — the paper's
        deployment-latency accounting — not from the FSM state: a
        branch freshly SELECTed keeps answering False until its
        speculative code lands, and keeps answering True after EVICT
        until the repaired code lands.  A spilled tenant's branches
        answer False (unoptimized code runs while it is cold), exactly
        like branches never seen.
        """
        return self.bank.should_speculate(pc, tenant)

    # -- tenant plumbing ------------------------------------------------
    def _ensure_resident(self, batch: EventBatch) -> None:
        """Synchronously restore any spilled tenants ``batch`` touches.

        WAL replay and follower apply push events straight into the
        bank, bypassing admission and the queues; they call this first
        so a spilled tenant's controllers are re-interned before its
        events land — the offline equivalent of the queued restore job.
        """
        tm = self._tenants
        if tm is None or not tm.spilled_count():
            return
        tenants = ([0] if batch.tenants is None
                   else sorted_unique(batch.tenants).tolist())
        now = monotonic()
        n = self.bank.n_shards
        for tenant in tenants:
            states = tm.take_spilled(int(tenant), now)
            if not states:
                continue
            by_shard: dict[int, list[dict]] = {}
            for state in states:
                key = int(state["branch"])
                by_shard.setdefault(shard_of(key, n), []).append(state)
            for sh, part in by_shard.items():
                self.bank.shards[sh].restore_tenant(part)

    def _export_tenants(self) -> dict[str, list[dict]]:
        """Spilled tenants' controller states (snapshot embedding)."""
        return (self._tenants.export_spilled()
                if self._tenants is not None else {})

    def _install_tenants(self, spilled: dict) -> None:
        """Seed the spill store from a snapshot's tenants section."""
        if not spilled:
            return
        if self._tenants is None:
            self._tenants = self._make_tenant_manager()
        self._tenants.install_spilled(spilled)

    def tenant_stats(self) -> dict | None:
        """Tenant-manager counters (None when no tenant state exists)."""
        return self._tenants.stats() if self._tenants is not None else None

    # -- views ----------------------------------------------------------
    def metrics(self) -> SpeculationMetrics:
        """Merged speculation metrics over *applied* events."""
        return self.bank.metrics()

    def reading(self) -> TelemetryReading:
        return self.telemetry.reading(
            wal=self._wal.stats_snapshot() if self._wal is not None
            else None,
            detect_verdict=(self.detector.verdict
                            if self.detector is not None else "off"))

    @property
    def last_seq(self) -> int:
        return self._last_seq

    @property
    def events_submitted(self) -> int:
        return self._events_submitted

    @property
    def queued_events(self) -> int:
        return sum(self._queued_events)

    # -- snapshots ------------------------------------------------------
    async def snapshot(self, path: str | Path | None = None) -> Path:
        """Quiesce and checkpoint full service state to ``path``.

        While the snapshot is in flight, new submissions are rejected
        with :class:`BackpressureError` so the drained state stays
        drained.  ``path=None`` auto-names the file into
        ``snapshot_dir`` after quiescing, so the name reflects the
        exact number of events it covers.
        """
        from repro.serve.snapshot import save_snapshot

        if self._bank_stale:
            raise RuntimeError(
                "cannot snapshot: live shard state was lost when worker "
                "processes were stopped without draining")
        self._quiescing = True
        try:
            await self.drain()
            if path is None:
                if self.service_config.snapshot_dir is None:
                    raise ValueError(
                        "snapshot() without a path needs snapshot_dir")
                path = Path(self.service_config.snapshot_dir) / (
                    f"snapshot-{self.bank.events_applied:012d}.json.gz")
            bank_state = None
            if self._pool is not None:
                # Phase two of the quiesce: every shard is drained
                # (intake closed + queues joined above), so the pool
                # collects per-shard state for one atomic checkpoint.
                try:
                    states = await self._pool.collect_states()
                except WorkerDiedError as err:
                    raise self._set_fatal(err)
                bank_state = {"n_shards": self.bank.n_shards,
                              "shards": states}
            out = save_snapshot(path, self, bank_state=bank_state)
        finally:
            self._quiescing = False
        self._snapshot_seq = self._last_seq
        self.snapshots_written.append(out)
        if self._wal is not None:
            # The snapshot is the new compaction anchor: segments whose
            # records it entirely covers are dead weight for recovery.
            await asyncio.get_running_loop().run_in_executor(
                None, self._wal.compact, self._snapshot_seq)
        return out

    @property
    def last_durable_seq(self) -> int:
        """Newest batch seq guaranteed recoverable after a crash (-1:
        none).

        With a WAL attached this is the *fsynced* watermark (or the
        snapshot's, whichever is newer); without one it degrades to
        the newest snapshot-covered seq.
        """
        if self._wal is not None:
            return max(self._snapshot_seq, self._wal.last_durable_seq)
        return self._snapshot_seq

    @property
    def last_replicated_seq(self) -> int:
        """Newest batch seq a follower confirmed durable in *its* WAL
        (-1: no follower has acked, or replication is off).

        The replication twin of :attr:`last_durable_seq`: that one
        survives losing the network, this one survives losing this
        machine's disk.
        """
        return (self._repl.last_replicated_seq
                if self._repl is not None else -1)

    def enable_replication(self, listen_addr: str) -> None:
        """Attach a replication sender listening on ``listen_addr``.

        Implied by the ``repl_listen`` config knob; callable directly
        on a restored/recovered service (whose snapshot deliberately
        reset the knob) before :meth:`start`.  Requires a WAL.
        """
        from dataclasses import replace

        from repro.replicate.sender import ReplicationSender

        if self._running:
            raise RuntimeError("enable replication before start()")
        if self._repl is not None:
            return
        if self.service_config.repl_listen != listen_addr:
            self.service_config = replace(self.service_config,
                                          repl_listen=listen_addr)
        self._repl = ReplicationSender(
            self, listen_addr,
            registry=self.registry if self.service_config.obs else None,
            spans=self.spans)

    def newest_snapshot(self) -> Path | None:
        """Newest snapshot covering this service's history, if any.

        Preference order: a snapshot this process wrote, then the
        newest loadable one in ``snapshot_dir``, then the file this
        service was restored from.  Replication uses this to re-anchor
        followers that fell behind the compaction horizon.
        """
        if self.snapshots_written:
            return self.snapshots_written[-1]
        if self.service_config.snapshot_dir is not None:
            from repro.serve.snapshot import find_latest_snapshot

            found = find_latest_snapshot(self.service_config.snapshot_dir)
            if found is not None:
                return found
        return self._restored_from

    @property
    def worker_pids(self) -> list[int | None]:
        """PIDs of the shard worker processes ([] in-process mode)."""
        return self._pool.pids if self._pool is not None else []

    @classmethod
    def restore(cls, path: str | Path,
                service_config: ServiceConfig | None = None,
                n_shards: int | None = None,
                workers: int | None = None,
                transport: str | None = None,
                wal_dir: str | None = None,
                wal_fsync: str | None = None) -> "SpeculationService":
        """Rebuild a service from a snapshot file.

        ``service_config`` overrides the snapshotted tuning knobs;
        ``n_shards`` re-partitions the bank onto a different shard
        count (controllers are branch-independent, so resharding is
        exact).  ``workers``/``transport`` select the execution mode of
        the restored service — snapshots are mode-agnostic, so a
        single-process snapshot restores onto worker processes and vice
        versa, onto any worker count.  ``wal_dir`` attaches a
        write-ahead log to the restored service; note this restores the
        *snapshot* only — to also replay a WAL tail, use
        :func:`repro.wal.recovery.recover_service`.
        """
        from repro.serve.snapshot import load_snapshot

        return load_snapshot(path, service_config=service_config,
                             n_shards=n_shards, workers=workers,
                             transport=transport, wal_dir=wal_dir,
                             wal_fsync=wal_fsync)
