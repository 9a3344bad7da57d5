"""Tenant registry and resident-set manager.

The serving engines key controllers by packed ``(tenant, pc)`` int64
and never learn tenants exist (:mod:`repro.tenant.keys`); this module
is where the tenant dimension actually lives:

* **Admission control.**  Per-tenant token buckets, checked for every
  tenant a batch touches *before* anything is logged or enqueued.  A
  rejection surfaces through the service as the same retryable
  backpressure signal a full queue produces, so existing client retry
  loops handle quotas unchanged.  Only live submissions meet quotas
  (:meth:`TenantManager.admit`, :meth:`TenantManager.charge`): a logged
  batch was admitted when it was first submitted.
* **Resident-set accounting.**  Each resident tenant's footprint is
  estimated as ``distinct branches × bytes_per_branch``.  One sorted
  int64 array holds every resident tenant's keys; a tenant's keys are
  the contiguous range ``[t << 32, (t + 1) << 32)`` of it.  An admitted
  batch inserts only the keys the array lacks (a sort-path unique,
  ``searchsorted``, ``np.insert``) and charges them to their tenants
  in one ``np.unique`` over the new keys' tenant ids; a restore
  inserts the blob's keys.  The sum is compared against the
  configured budget after every admission.
* **Spill victim selection.**  Residents are kept in touch order
  (an ``OrderedDict`` LRU).  When over budget the manager walks the
  LRU oldest-first and picks the first tenant at or above the average
  resident footprint — falling back to the plain LRU head — so a small
  steadily-active tenant is not evicted to pay for a large one's
  churn; the tenant creating the pressure is the one that pays.  The
  victims' key ranges leave the key array in one pass per call.
* **Spill/restore orchestration.**  A spill is not performed here —
  the manager marks the tenant *spilling* and the service enqueues one
  FIFO control job per shard queue, so the spill serializes after
  every event already queued for the tenant (a logged batch, applied
  on a stopped service, spills from every shard before it returns).
  Shards contribute their extracted rows back via
  :meth:`spill_contribution`; the last contribution joins the shards'
  :class:`~repro.serve.colpath.RowBlock` parts, sorts them by key once
  (so the blob is deterministic) and packs them
  (:meth:`RowBlock.to_bytes <repro.serve.colpath.RowBlock.to_bytes>`)
  into the :class:`~repro.tenant.spillstore.SpillStore`.
  While a tenant is spilling its new submissions are rejected
  retryably — admitting them would race the queued extraction.
  A spilled tenant's next touch runs the reverse: the plan carries the
  blob's rows, re-interned ahead of that batch's events (same FIFO
  ordering argument), bit-identically — a row block is the rows'
  columns, no conversion in between.

Memory discipline: the manager keeps per-tenant state *only* for
resident tenants.  A spilled tenant exists as one spill-store index
entry; its quota bucket restarts full on return and its traffic
history lives in the bounded top-K metrics sketch.  That is what the
1→1M tenant gate measures.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs.cardinality import LabelCardinalityGuard
from repro.obs.metrics import MetricsRegistry
from repro.serve.colpath import RowBlock
from repro.tenant.keys import MAX_PC, TENANT_SHIFT, sorted_unique
from repro.tenant.spillstore import SpillStore

__all__ = ["AdmissionPlan", "TenantManager"]

#: Per-tenant metric labels kept: the top-K tenants by traffic get
#: dedicated labels, the rest aggregate under ``__overflow__``.
TOP_K = 16


@dataclass
class AdmissionPlan:
    """Outcome of checking one batch against the tenant policies.

    Built by :meth:`TenantManager.plan` and checked by
    :meth:`TenantManager.admit` without mutating anything, so a
    rejected or WAL-failed submission leaves no trace; the service
    applies an accepted plan with :meth:`TenantManager.commit`.
    """

    tenants: list[int]
    counts: list[int]
    #: None = admit; "quota" / "spilling" = reject (retryably).
    reject_kind: str | None = None
    reject_tenant: int = 0
    #: Seconds until the rejecting token bucket can cover the batch
    #: (quota rejects only; spilling rejects use the queue drain hint).
    retry_after: float = 0.0
    #: Spilled tenants this batch touches: ``(tenant, rows)`` pairs
    #: whose restore jobs must precede the batch's events.
    restores: list[tuple[int, RowBlock]] = field(default_factory=list)


class _Resident:
    """Per-resident-tenant state (the only per-tenant memory kept)."""

    __slots__ = ("tokens", "stamp", "bytes")

    def __init__(self, tokens: float, stamp: float) -> None:
        self.tokens = tokens
        self.stamp = stamp
        self.bytes = 0


class TenantManager:
    """Quotas, the resident LRU, and spill/restore bookkeeping."""

    def __init__(self, n_shards: int, *,
                 quota_rate: float | None = None,
                 quota_burst: int = 32_768,
                 resident_bytes: int | None = None,
                 bytes_per_branch: int = 512,
                 spill_dir: str | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.n_shards = n_shards
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.resident_bytes_budget = resident_bytes
        self.bytes_per_branch = bytes_per_branch
        self._spill_dir = spill_dir
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._store: SpillStore | None = None
        if resident_bytes is not None or spill_dir is not None:
            self._ensure_store()
        #: Resident tenants in touch order (oldest first).
        self._lru: "OrderedDict[int, _Resident]" = OrderedDict()
        #: Every resident tenant's branch keys, sorted (budgeted
        #: managers only); tenant t owns ``[t << 32, (t + 1) << 32)``.
        self._keys = np.zeros(0, dtype=np.int64)
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        #: Tenants mid-spill: collected per-shard rows + shards left.
        self._spill_parts: dict[int, list[RowBlock]] = {}
        self._spill_left: dict[int, int] = {}
        self.spills = 0
        self.restores = 0
        self.quota_rejections = 0
        self.events = 0
        self._guard = None
        self._reject_guard = None
        self._g_resident = self._g_spilled = self._g_bytes = None
        if registry is not None:
            self._guard = LabelCardinalityGuard(registry.counter(
                "repro_tenant_events_total",
                "Events admitted per tenant (top-K by traffic; the rest "
                "aggregate under __overflow__)", ("tenant",)), TOP_K)
            self._reject_guard = LabelCardinalityGuard(registry.counter(
                "repro_tenant_rejections_total",
                "Quota-rejected submissions per tenant (top-K by "
                "traffic)", ("tenant",)), TOP_K)
            self._c_spills = registry.counter(
                "repro_tenant_spills_total",
                "Tenants spilled out of the resident set")
            self._c_restores = registry.counter(
                "repro_tenant_restores_total",
                "Spilled tenants restored on touch")
            self._g_resident = registry.gauge(
                "repro_tenant_resident", "Resident tenants")
            self._g_spilled = registry.gauge(
                "repro_tenant_spilled", "Spilled tenants")
            self._g_bytes = registry.gauge(
                "repro_tenant_resident_bytes",
                "Estimated resident-set footprint in bytes")

    # -- plumbing -------------------------------------------------------
    def _ensure_store(self) -> SpillStore:
        if self._store is None:
            if self._spill_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-tenant-spill-")
                self._spill_dir = self._tmpdir.name
            self._store = SpillStore(self._spill_dir)
        return self._store

    @property
    def active(self) -> bool:
        """True when tenant-less (tenant 0) batches must still pass
        through admission — some policy or spilled state exists."""
        return (self.quota_rate is not None
                or self.resident_bytes_budget is not None
                or bool(self._store and len(self._store)))

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- admission ------------------------------------------------------
    def plan(self, batch) -> AdmissionPlan:
        """Group a batch by tenant, check it against spill status and
        load the blobs of the spilled tenants it touches (pure)."""
        if batch.tenants is None:
            tenants = [0]
            counts = [batch.n_events]
        else:
            u, c = np.unique(batch.tenants, return_counts=True)
            tenants = [int(t) for t in u]
            counts = [int(n) for n in c]
        plan = AdmissionPlan(tenants, counts)
        for tenant in tenants:
            if tenant in self._spill_left:
                plan.reject_kind = "spilling"
                plan.reject_tenant = tenant
                return plan
        store = self._store
        if store is not None and len(store):
            for tenant in tenants:
                blob = store.get(tenant)
                if blob is not None:
                    plan.restores.append((tenant,
                                          RowBlock.from_bytes(blob)))
        return plan

    def admit(self, plan: AdmissionPlan, now: float) -> bool:
        """Quota check of a live submission (pure): False, with the
        rejecting tenant and retry hint on ``plan``, when a tenant's
        bucket cannot cover its share of the batch."""
        rate = self.quota_rate
        if rate is None:
            return True
        for tenant, n in zip(plan.tenants, plan.counts):
            tokens = self._tokens(tenant, now)
            if tokens < n:
                plan.reject_kind = "quota"
                plan.reject_tenant = tenant
                plan.retry_after = (n - tokens) / rate
                return False
        return True

    def charge(self, plan: AdmissionPlan, now: float) -> None:
        """Debit a committed live submission from its tenants' buckets."""
        if self.quota_rate is None:
            return
        for tenant, n in zip(plan.tenants, plan.counts):
            st = self._lru[tenant]
            st.tokens = self._tokens(tenant, now) - n
            st.stamp = now

    def _tokens(self, tenant: int, now: float) -> float:
        """``tenant``'s bucket at ``now`` (full for a new or returning
        tenant)."""
        burst = float(self.quota_burst)
        st = self._lru.get(tenant)
        if st is None:
            return burst
        return min(burst, st.tokens + (now - st.stamp) * self.quota_rate)

    def count_rejection(self, tenant: int) -> None:
        self.quota_rejections += 1
        if self._reject_guard is not None:
            self._reject_guard.inc(tenant)

    def commit(self, plan: AdmissionPlan, batch, now: float) -> None:
        """Apply an accepted plan: finalize restores, touch the LRU,
        count events, account footprints.  Called only after the batch
        is accepted (post-WAL), so rejection paths mutate nothing."""
        for tenant, rows in plan.restores:
            self._store.remove(tenant)
            self.restores += 1
            if self._g_spilled is not None:
                self._c_restores.inc()
            self._touch(tenant, now)
            if self.resident_bytes_budget is not None:
                self._add_keys(rows.keys)
        for tenant, n in zip(plan.tenants, plan.counts):
            self._touch(tenant, now)
            self.events += n
            if self._guard is not None:
                self._guard.inc(tenant, n)
        if self.resident_bytes_budget is not None:
            self._add_keys(batch.keys())
            if self.resident_bytes > self.peak_resident_bytes:
                self.peak_resident_bytes = self.resident_bytes
        self._update_gauges()

    def _touch(self, tenant: int, now: float) -> None:
        if tenant in self._lru:
            self._lru.move_to_end(tenant)
        else:
            self._lru[tenant] = _Resident(float(self.quota_burst), now)

    def _add_keys(self, keys: np.ndarray) -> None:
        """Insert the keys of resident tenants that the index lacks and
        charge each new key to its tenant's footprint."""
        index = self._keys
        uniq = sorted_unique(keys)
        pos = np.searchsorted(index, uniq)
        if len(index):
            uniq = uniq[index[np.minimum(pos, len(index) - 1)] != uniq]
        if len(uniq) == 0:
            return
        self._keys = np.insert(index, np.searchsorted(index, uniq), uniq)
        bpb = self.bytes_per_branch
        tenants, counts = np.unique(uniq >> TENANT_SHIFT,
                                    return_counts=True)
        lru = self._lru
        for tenant, n in zip(tenants.tolist(), counts.tolist()):
            lru[tenant].bytes += n * bpb
        self.resident_bytes += len(uniq) * bpb

    def _drop_keys(self, tenants: list[int]) -> None:
        """Remove the key ranges of ``tenants`` from the index in one
        pass."""
        index = self._keys
        lo = np.array(tenants, dtype=np.int64) << TENANT_SHIFT
        starts = np.searchsorted(index, lo)
        ends = np.searchsorted(index, lo | MAX_PC, side="right")
        keep = np.ones(len(index), dtype=bool)
        for start, end in zip(starts.tolist(), ends.tolist()):
            keep[start:end] = False
        self._keys = index[keep]

    # -- spill ----------------------------------------------------------
    def pick_victims(self) -> list[int]:
        """Tenants to spill until the resident set fits the budget.

        Each returned tenant is already marked *spilling* (out of the
        LRU, footprint deducted); the caller owes one
        :meth:`spill_contribution` per shard.
        """
        budget = self.resident_bytes_budget
        victims: list[int] = []
        if budget is None or self.resident_bytes <= budget:
            return victims
        # The victim is the least recently used tenant at least as big
        # as the average, else the least recently used one.  The LRU's
        # footprints are read into an array once per call (a chosen
        # tenant's becomes -inf) and each pick is one array scan: under
        # a uniform spray most resident tenants sit below the average,
        # so a walk of the LRU would cross most of them per victim.
        order = list(self._lru)
        sizes = np.fromiter((st.bytes for st in self._lru.values()),
                            dtype=np.float64, count=len(order))
        oldest = 0
        while self.resident_bytes > budget and self._lru:
            big = sizes >= self.resident_bytes / len(self._lru)
            pick = int(np.argmax(big))
            if not big[pick]:
                while sizes[oldest] == -np.inf:
                    oldest += 1
                pick = oldest
            sizes[pick] = -np.inf
            self._begin_spill(order[pick])
            victims.append(order[pick])
        if victims:
            self._drop_keys(victims)
            self._update_gauges()
        return victims

    def _begin_spill(self, tenant: int) -> None:
        st = self._lru.pop(tenant)
        self.resident_bytes -= st.bytes
        self._spill_parts[tenant] = []
        self._spill_left[tenant] = self.n_shards

    def spill_contribution(self, tenant: int, rows: RowBlock) -> None:
        """One shard's extracted rows for a spilling tenant; the last
        shard's contribution packs the blob."""
        self._spill_parts[tenant].append(rows)
        self._spill_left[tenant] -= 1
        if self._spill_left[tenant]:
            return
        parts = self._spill_parts.pop(tenant)
        del self._spill_left[tenant]
        self._ensure_store().put(tenant,
                                 RowBlock.concat(parts).sorted().to_bytes())
        self.spills += 1
        if self._g_spilled is not None:
            self._c_spills.inc()
        self._update_gauges()

    # -- snapshot hooks -------------------------------------------------
    def export_spilled(self) -> dict[str, RowBlock]:
        """Spilled tenants' rows (snapshot embedding)."""
        if self._store is None or not len(self._store):
            return {}
        return {str(t): RowBlock.from_bytes(blob)
                for t, blob in self._store.export().items()}

    def install_spilled(self, spilled: dict[str, RowBlock]) -> None:
        """Seed the store from a snapshot's spilled-tenants section."""
        store = self._ensure_store()
        for tenant, rows in spilled.items():
            store.put(int(tenant), rows.to_bytes())
        self._update_gauges()

    def install_resident(self, keys: np.ndarray, now: float) -> None:
        """Account a restored bank's controllers (packed ``keys``) as
        :meth:`commit` would: touch their tenants in ascending id — a
        snapshot keeps no recency order — and, under a budget, charge
        the keys to their tenants' footprints."""
        for tenant in sorted_unique(keys >> TENANT_SHIFT).tolist():
            self._touch(tenant, now)
        if self.resident_bytes_budget is not None:
            self._add_keys(keys)
            self.peak_resident_bytes = max(self.peak_resident_bytes,
                                           self.resident_bytes)
        self._update_gauges()

    # -- views ----------------------------------------------------------
    def spilled_count(self) -> int:
        return len(self._store) if self._store is not None else 0

    def is_spilled(self, tenant: int) -> bool:
        return self._store is not None and tenant in self._store

    def _update_gauges(self) -> None:
        if self._g_resident is not None:
            self._g_resident.set(len(self._lru))
            self._g_spilled.set(self.spilled_count())
            self._g_bytes.set(self.resident_bytes)

    def stats(self) -> dict[str, int]:
        out = {
            "resident_tenants": len(self._lru),
            "spilled_tenants": self.spilled_count(),
            "spilling_tenants": len(self._spill_left),
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "resident_budget": self.resident_bytes_budget or 0,
            "spills": self.spills,
            "restores": self.restores,
            "quota_rejections": self.quota_rejections,
            "events": self.events,
        }
        if self._store is not None:
            out["store"] = self._store.stats()
        return out
