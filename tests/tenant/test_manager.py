"""TenantManager: quotas, LRU accounting, spill/restore bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import scaled_config
from repro.core.controller import ReactiveBranchController
from repro.serve.events import EventBatch
from repro.tenant.keys import pack_key
from repro.tenant.manager import TenantManager
from tests.conftest import rows_of

BPB = 512


def make_batch(seq, tenant_pcs, start_instr=0):
    """A batch from (tenant, pc) pairs, instrs strictly increasing."""
    n = len(tenant_pcs)
    return EventBatch(
        seq=seq,
        pcs=np.array([pc for _, pc in tenant_pcs], dtype=np.int32),
        taken=np.ones(n, dtype=bool),
        instrs=np.arange(start_instr, start_instr + n, dtype=np.int64),
        tenants=np.array([t for t, _ in tenant_pcs], dtype=np.uint32),
    )


def rows_for(keys):
    """Fresh controllers' rows under packed ``keys``, in order."""
    return rows_of(ReactiveBranchController(scaled_config(), key)
                   .export_state() for key in keys)


def tenant_rows(tenant, pcs):
    return rows_for(pack_key(tenant, pc) for pc in pcs)


def test_plan_groups_tenants_and_legacy_batches_are_tenant_zero():
    tm = TenantManager(n_shards=1)
    batch = make_batch(0, [(3, 10), (1, 11), (3, 12)])
    plan = tm.plan(batch)
    assert plan.tenants == [1, 3]
    assert plan.counts == [1, 2]
    assert plan.reject_kind is None
    legacy = EventBatch(seq=1, pcs=np.array([5], dtype=np.int32),
                        taken=np.array([True]),
                        instrs=np.array([1], dtype=np.int64))
    plan = tm.plan(legacy)
    assert plan.tenants == [0]
    assert plan.counts == [1]
    tm.close()


def test_quota_bucket_charges_refills_and_rejects():
    tm = TenantManager(n_shards=1, quota_rate=100.0, quota_burst=10)
    # A batch larger than the burst can never be admitted.
    big = make_batch(0, [(1, pc) for pc in range(11)])
    plan = tm.plan(big)
    assert not tm.admit(plan, now=0.0)
    assert plan.reject_kind == "quota"
    assert plan.reject_tenant == 1
    assert plan.retry_after == pytest.approx((11 - 10) / 100.0)
    # Exactly the burst drains the bucket...
    full = make_batch(0, [(1, pc) for pc in range(10)])
    plan = tm.plan(full)
    assert tm.admit(plan, now=0.0)
    assert plan.reject_kind is None
    tm.commit(plan, full, now=0.0)
    tm.charge(plan, now=0.0)
    # ...so an immediate follow-up is rejected...
    one = make_batch(1, [(1, 99)])
    assert not tm.admit(tm.plan(one), now=0.0)
    # ...but refill at `rate` re-admits after enough time passes.
    assert tm.admit(tm.plan(one), now=0.02)
    tm.close()


def test_plan_is_pure_on_rejection():
    """A rejected plan mutates nothing — a retry starts fresh."""
    tm = TenantManager(n_shards=1, quota_rate=10.0, quota_burst=5)
    big = make_batch(0, [(1, pc) for pc in range(6)])
    before = tm.stats()
    assert not tm.admit(tm.plan(big), now=0.0)
    assert tm.stats() == before
    assert tm.events == 0
    tm.close()


def test_rejection_counter():
    tm = TenantManager(n_shards=1, quota_rate=10.0, quota_burst=5)
    tm.count_rejection(1)
    tm.count_rejection(1)
    assert tm.stats()["quota_rejections"] == 2
    tm.close()


def test_independent_buckets_per_tenant():
    tm = TenantManager(n_shards=1, quota_rate=1.0, quota_burst=4)
    flood = make_batch(0, [(1, pc) for pc in range(4)])
    plan = tm.plan(flood)
    tm.commit(plan, flood, now=0.0)
    tm.charge(plan, now=0.0)
    # Tenant 1's bucket is empty; tenant 2's is untouched.
    assert not tm.admit(tm.plan(make_batch(1, [(1, 9)])), now=0.0)
    assert tm.admit(tm.plan(make_batch(1, [(2, 9)])), now=0.0)
    tm.close()


def test_footprint_accounting_counts_distinct_branches():
    tm = TenantManager(n_shards=1, resident_bytes=1 << 20,
                       bytes_per_branch=BPB)
    batch = make_batch(0, [(1, 10), (1, 10), (1, 11), (2, 10)])
    tm.commit(tm.plan(batch), batch, now=0.0)
    # 2 distinct branches for tenant 1, 1 for tenant 2.
    assert tm.resident_bytes == 3 * BPB
    # Re-observing the same branches adds nothing.
    again = make_batch(1, [(1, 10), (2, 10)], start_instr=10)
    tm.commit(tm.plan(again), again, now=1.0)
    assert tm.resident_bytes == 3 * BPB
    assert tm.stats()["resident_tenants"] == 2
    tm.close()


def test_pick_victims_prefers_large_tenants_over_lru_head():
    """The tenant creating the memory pressure pays, not the oldest
    small one."""
    tm = TenantManager(n_shards=2, resident_bytes=5 * BPB,
                       bytes_per_branch=BPB)
    small = make_batch(0, [(1, 0)])
    tm.commit(tm.plan(small), small, now=0.0)
    big = make_batch(1, [(2, pc) for pc in range(10)], start_instr=10)
    tm.commit(tm.plan(big), big, now=1.0)
    assert tm.resident_bytes == 11 * BPB
    victims = tm.pick_victims()
    # Tenant 1 is the LRU head but far below average footprint; the
    # 10-branch tenant 2 is evicted instead, and that alone suffices.
    assert victims == [2]
    assert tm.resident_bytes == BPB
    assert tm.stats()["resident_tenants"] == 1
    assert tm.stats()["spilling_tenants"] == 1
    tm.close()


def test_spilling_tenant_rejects_submissions_until_sealed(tmp_path):
    tm = TenantManager(n_shards=2, resident_bytes=2 * BPB,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    batch = make_batch(0, [(1, pc) for pc in range(4)])
    tm.commit(tm.plan(batch), batch, now=0.0)
    (victim,) = tm.pick_victims()
    assert victim == 1
    # Mid-spill: new submissions for the victim bounce retryably.
    plan = tm.plan(make_batch(1, [(1, 99)], start_instr=10))
    assert plan.reject_kind == "spilling"
    assert plan.reject_tenant == 1
    # Shard contributions seal the blob; the last one completes it.
    tm.spill_contribution(1, tenant_rows(1, [0, 2]))
    assert tm.stats()["spilling_tenants"] == 1
    tm.spill_contribution(1, tenant_rows(1, [1, 3]))
    assert tm.stats()["spilling_tenants"] == 0
    assert tm.stats()["spilled_tenants"] == 1
    assert tm.spills == 1
    assert tm.is_spilled(1)
    tm.close()


def test_restore_on_touch_roundtrips_states(tmp_path):
    tm = TenantManager(n_shards=1, resident_bytes=2 * BPB,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    batch = make_batch(0, [(1, pc) for pc in range(4)])
    tm.commit(tm.plan(batch), batch, now=0.0)
    tm.pick_victims()
    tm.spill_contribution(1, tenant_rows(1, [3, 1, 0, 2]))  # unsorted
    # The next touch plans a restore carrying the rows back, sorted.
    touch = make_batch(1, [(1, 7)], start_instr=10)
    plan = tm.plan(touch)
    assert plan.reject_kind is None
    assert [t for t, _ in plan.restores] == [1]
    restored = plan.restores[0][1]
    assert restored == tenant_rows(1, [0, 1, 2, 3])
    tm.commit(plan, touch, now=2.0)
    assert not tm.is_spilled(1)
    assert tm.restores == 1
    # Footprint re-accounted: 4 restored branches + the new pc 7.
    assert tm.resident_bytes == 5 * BPB
    tm.close()


def test_export_install_spilled_roundtrip(tmp_path):
    tm = TenantManager(n_shards=1, resident_bytes=1,
                       bytes_per_branch=BPB,
                       spill_dir=str(tmp_path / "a"))
    batch = make_batch(0, [(1, 0), (1, 1), (2, 0)])
    tm.commit(tm.plan(batch), batch, now=0.0)
    tm.pick_victims()
    tm.spill_contribution(1, tenant_rows(1, [0, 1]))
    tm.spill_contribution(2, tenant_rows(2, [0]))
    exported = tm.export_spilled()
    assert set(exported) == {"1", "2"}
    tm.close()
    # A fresh manager (fresh store) installs the snapshot section and
    # serves identical rows back.
    tm2 = TenantManager(n_shards=1, spill_dir=str(tmp_path / "b"))
    tm2.install_spilled(exported)
    assert tm2.spilled_count() == 2
    assert tm2.export_spilled() == exported
    assert tm2.active  # spilled state forces legacy batches through
    tm2.close()


def test_active_property():
    assert not TenantManager(n_shards=1).active
    assert TenantManager(n_shards=1, quota_rate=1.0).active
    budgeted = TenantManager(n_shards=1, resident_bytes=1024)
    assert budgeted.active
    budgeted.close()


class _ManagerModel:
    """Per-tenant key sets, the LRU order and the spill lifecycle of
    :class:`TenantManager`, written with plain dicts and sets."""

    def __init__(self, n_shards, budget):
        self.n_shards = n_shards
        self.budget = budget
        self.resident = {}       # tenant -> set of keys, in LRU order
        self.spilling = {}       # tenant -> [keys, shards left]
        self.spilled = {}        # tenant -> sorted keys
        self.peak = 0
        self.spills = self.restores = self.events = 0

    def nbytes(self, tenant):
        return len(self.resident[tenant]) * BPB

    def total(self):
        return sum(len(keys) for keys in self.resident.values()) * BPB

    def touch(self, tenant):
        self.resident[tenant] = self.resident.pop(tenant, set())

    def restore(self, tenant):
        keys = self.spilled.pop(tenant)
        self.restores += 1
        self.touch(tenant)
        self.resident[tenant] |= set(keys)

    def commit(self, pairs):
        tenants = sorted({t for t, _ in pairs})
        for tenant in tenants:
            if tenant in self.spilled:
                self.restore(tenant)
        for tenant in tenants:
            self.touch(tenant)
        for tenant, pc in pairs:
            self.resident[tenant].add(pack_key(tenant, pc))
        self.events += len(pairs)
        self.peak = max(self.peak, self.total())

    def pick_victims(self):
        victims = []
        while self.total() > self.budget and self.resident:
            avg = self.total() / len(self.resident)
            chosen = next((t for t in self.resident
                           if self.nbytes(t) >= avg),
                          next(iter(self.resident)))
            self.spilling[chosen] = [self.resident.pop(chosen),
                                     self.n_shards]
            victims.append(chosen)
        return victims

    def stats(self):
        return {
            "resident_tenants": len(self.resident),
            "spilled_tenants": len(self.spilled),
            "spilling_tenants": len(self.spilling),
            "resident_bytes": self.total(),
            "peak_resident_bytes": self.peak,
            "resident_budget": self.budget,
            "spills": self.spills,
            "restores": self.restores,
            "quota_rejections": 0,
            "events": self.events,
        }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_manager_matches_set_model(data):
    """Random commits, victim picks with per-shard contributions and
    restores carried by plans keep the sorted key index's accounting
    equal to per-tenant sets."""
    n_shards = data.draw(st.integers(1, 3), label="shards")
    budget = data.draw(st.integers(2, 12), label="budget") * BPB
    tm = TenantManager(n_shards=n_shards, resident_bytes=budget,
                       bytes_per_branch=BPB)
    model = _ManagerModel(n_shards, budget)
    tenant = st.integers(0, 5)
    seq = 0
    try:
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(
                ("commit", "commit", "pick", "contribute", "restore")))
            if op == "commit":
                pairs = data.draw(st.lists(
                    st.tuples(tenant, st.integers(0, 7)),
                    min_size=1, max_size=10))
                batch = make_batch(seq, pairs, start_instr=seq * 100)
                seq += 1
                plan = tm.plan(batch)
                if any(t in model.spilling for t, _ in pairs):
                    assert plan.reject_kind == "spilling"
                    continue
                assert plan.reject_kind is None
                assert [t for t, _ in plan.restores] == sorted(
                    {t for t, _ in pairs if t in model.spilled})
                model.commit(pairs)
                tm.commit(plan, batch, now=float(seq))
            elif op == "pick":
                assert tm.pick_victims() == model.pick_victims()
            elif op == "contribute" and model.spilling:
                # Each spilling tenant's shards contribute in turn;
                # the last contribution seals the blob.
                victim = next(iter(model.spilling))
                keys, left = model.spilling[victim]
                part = sorted(k for k in keys if k % n_shards == left - 1)
                tm.spill_contribution(victim, rows_for(part))
                model.spilling[victim][1] -= 1
                if left == 1:
                    del model.spilling[victim]
                    model.spilled[victim] = sorted(keys)
                    model.spills += 1
            elif op == "restore" and model.spilled:
                # A batch touching a spilled tenant brings it back
                # through its plan and commit.
                t = data.draw(st.sampled_from(sorted(model.spilled)))
                pairs = [(t, data.draw(st.integers(0, 7)))]
                batch = make_batch(seq, pairs, start_instr=seq * 100)
                seq += 1
                plan = tm.plan(batch)
                assert plan.restores == [(t, rows_for(model.spilled[t]))]
                model.commit(pairs)
                tm.commit(plan, batch, now=float(seq))
            assert tm.resident_bytes == model.total()
            assert tm.peak_resident_bytes == model.peak
            assert {t: res.bytes for t, res in tm._lru.items()} == {
                t: model.nbytes(t) for t in model.resident}
            assert list(tm._lru) == list(model.resident)
            stats = tm.stats()
            stats.pop("store")
            assert stats == model.stats()
    finally:
        tm.close()
