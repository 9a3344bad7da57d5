"""Tenant behaviour through the full service: isolation, spill/restore
bit-exactness, quota backpressure, and snapshot round-trips.

The acceptance bar mirrors the single-tenant kill/restore property:
whatever the resident-set manager does behind the scenes — evictions,
blob round-trips, re-interning — a tenant's controller states must be
bit-identical to a run where none of it happened.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import scaled_config
from repro.serve.events import EventBatch
from repro.serve.service import (
    BackpressureError,
    QuotaExceededError,
    ServiceConfig,
    SpeculationService,
)
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.tenant.keys import TENANT_SHIFT

BPB = 512


def mixed_batches(n_events, tenants, n_branches, seed=0, batch_events=256):
    """Deterministic multi-tenant batches over one instr timeline."""
    rng = np.random.default_rng(seed)
    tenant_col = rng.choice(np.asarray(tenants, dtype=np.uint32), n_events)
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    taken = rng.uniform(size=n_events) < (pcs % 10) / 10.0
    instrs = np.cumsum(rng.integers(1, 20, n_events)).astype(np.int64)
    return [
        EventBatch(seq=seq, pcs=pcs[lo:lo + batch_events],
                   taken=taken[lo:lo + batch_events],
                   instrs=instrs[lo:lo + batch_events],
                   tenants=tenant_col[lo:lo + batch_events])
        for seq, lo in enumerate(range(0, n_events, batch_events))
    ]


def only_tenant(batches, tenant):
    """The tenant's event subsequence, rebatched (instrs preserved)."""
    out = []
    for batch in batches:
        mask = batch.tenants == tenant
        if not mask.any():
            continue
        out.append(EventBatch(
            seq=len(out), pcs=batch.pcs[mask], taken=batch.taken[mask],
            instrs=batch.instrs[mask],
            tenants=batch.tenants[mask]))
    return out


def run_service(batches, scfg, config=None, after=None):
    """Feed ``batches`` through a service; returns (service-closure
    results) via the ``after`` callback run before shutdown."""
    config = config or scaled_config()

    async def go():
        async with SpeculationService(config, scfg) as service:
            for batch in batches:
                await submit_retry(service, batch)
            await service.drain()
            return after(service) if after is not None else None

    return asyncio.run(go())


async def submit_retry(service, batch):
    """Submit, retrying on backpressure (a spilling tenant bounces
    submissions until its queued extraction drains — same retryable
    signal as a full queue, same client loop)."""
    while True:
        try:
            service.submit_nowait(batch)
            return
        except BackpressureError as err:
            if isinstance(err, QuotaExceededError):
                raise
            await service.drain()


def controller_states(service):
    """Every controller's export dict, keyed by packed branch key."""
    state = service.bank.export_state()
    return {s["branch"]: s
            for shard in state["shards"] for s in shard["bank"]}


def tenant_of(key):
    return key >> TENANT_SHIFT


# -- legacy equivalence ----------------------------------------------------
@pytest.mark.parametrize("obs", [True, False])
def test_tenant_zero_batches_equal_legacy_batches(obs):
    """An explicit all-zeros tenant column and a tenant-less batch
    produce bit-identical banks: pre-tenant traffic IS tenant 0 (with
    the shards capturing transitions and without)."""
    batches = mixed_batches(3_000, [0], 120, seed=4)
    legacy = [EventBatch(seq=b.seq, pcs=b.pcs, taken=b.taken,
                         instrs=b.instrs) for b in batches]
    scfg = ServiceConfig(n_shards=3, obs=obs)
    zeroed = run_service(batches, scfg,
                         after=lambda s: (controller_states(s),
                                          s.metrics()))
    plain = run_service(legacy, scfg,
                        after=lambda s: (controller_states(s),
                                         s.metrics()))
    assert zeroed == plain


# -- spill / restore bit-exactness -----------------------------------------
@pytest.mark.parametrize("obs", [True, False])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_spill_restore_is_bit_exact(obs, n_shards):
    """A budget small enough to thrash every tenant in and out of
    residency must leave exactly the states an unbudgeted run has
    (with the shards capturing transitions and without)."""
    tenants = list(range(1, 7))
    batches = mixed_batches(6_000, tenants, 40, seed=11)
    base = ServiceConfig(n_shards=n_shards, obs=obs)
    reference = run_service(batches, base, after=controller_states)

    def after(service):
        stats = service.tenant_stats()
        assert stats["spills"] > 0, "budget never forced a spill"
        assert stats["restores"] > 0, "no tenant was ever recalled"
        # Recall everything still cold (the synchronous restore path),
        # then compare against the run where nothing ever moved.
        probe = EventBatch(
            seq=10_000,
            pcs=np.zeros(len(tenants), dtype=np.int32),
            taken=np.zeros(len(tenants), dtype=bool),
            instrs=np.zeros(len(tenants), dtype=np.int64),
            tenants=np.array(tenants, dtype=np.uint32))
        service._ensure_resident(probe)
        assert service.tenant_stats()["spilled_tenants"] == 0
        return controller_states(service)

    budgeted = run_service(
        batches,
        ServiceConfig(n_shards=n_shards, obs=obs,
                      tenant_resident_bytes=8 * BPB,
                      tenant_bytes_per_branch=BPB),
        after=after)
    assert budgeted == reference


def test_restored_tenant_decisions_match(tmp_path):
    """should_speculate answers identically after a spill/restore
    round-trip (deployed-code view survives the blob)."""
    tenants = [1, 2, 3]
    batches = mixed_batches(4_000, tenants, 30, seed=2)
    base = ServiceConfig(n_shards=2)

    def decisions(service):
        return {key: service.should_speculate(key & 0xFFFFFFFF,
                                              tenant_of(key))
                for key in controller_states(service)}

    reference = run_service(batches, base, after=decisions)

    def after(service):
        probe = EventBatch(
            seq=10_000, pcs=np.zeros(3, dtype=np.int32),
            taken=np.zeros(3, dtype=bool),
            instrs=np.zeros(3, dtype=np.int64),
            tenants=np.array(tenants, dtype=np.uint32))
        service._ensure_resident(probe)
        return decisions(service)

    budgeted = run_service(
        batches, ServiceConfig(n_shards=2, tenant_resident_bytes=6 * BPB,
                               tenant_bytes_per_branch=BPB),
        after=after)
    assert budgeted == reference


def test_spilled_tenant_answers_false_while_cold():
    """A spilled tenant's branches run unoptimized code: the decision
    cache forgets them until restore."""
    batches = mixed_batches(4_000, [1, 2, 3, 4], 30, seed=5)

    def after(service):
        stats = service.tenant_stats()
        assert stats["spilled_tenants"] > 0
        spilled = service._tenants._store.tenants()
        for tenant in spilled:
            for pc in range(30):
                assert not service.should_speculate(pc, tenant)
        return None

    run_service(batches,
                ServiceConfig(n_shards=2, tenant_resident_bytes=4 * BPB,
                              tenant_bytes_per_branch=BPB),
                after=after)


def test_worker_mode_spill_restore_matches_in_process():
    """Spill and restore through worker processes: after every drained
    batch the parent's mirrored decision cache answers exactly like the
    in-process bank, and after a drained stop the resident plus spilled
    controller states equal a run that never spilled."""
    tenants = list(range(1, 7))
    batches = mixed_batches(12_000, tenants, 2, seed=17, batch_events=16)
    keys = [(tenant, pc) for tenant in tenants for pc in range(2)]
    reference = run_service(batches, ServiceConfig(n_shards=2),
                            after=controller_states)

    async def run(workers):
        scfg = ServiceConfig(n_shards=2, workers=workers,
                             tenant_resident_bytes=4 * BPB,
                             tenant_bytes_per_branch=BPB)
        service = SpeculationService(scaled_config(), scfg)
        decisions = []
        async with service:
            for batch in batches:
                await submit_retry(service, batch)
                await service.drain()
                decisions.append([service.should_speculate(pc, tenant)
                                  for tenant, pc in keys])
        stats = service.tenant_stats()
        assert stats["spills"] > 0 and stats["restores"] > 0
        states = controller_states(service)
        for spilled in service._export_tenants().values():
            states.update((s["branch"], s) for s in spilled)
        return decisions, states

    local_decisions, local_states = asyncio.run(run(0))
    worker_decisions, worker_states = asyncio.run(run(2))
    assert worker_decisions == local_decisions
    assert local_states == reference
    assert worker_states == reference


# -- quota isolation -------------------------------------------------------
def test_overloaded_tenant_cannot_starve_another():
    """The isolation property behind per-tenant quotas: a flooding
    tenant is rejected retryably while an in-quota tenant's service —
    admission AND controller states — is bit-identical to running
    alone."""
    victim_batches = mixed_batches(400, [1], 25, seed=7,
                                   batch_events=100)
    rng = np.random.default_rng(8)
    scfg = ServiceConfig(n_shards=2, tenant_quota_rate=100.0,
                         tenant_quota_burst=512)

    async def mixed():
        async with SpeculationService(scaled_config(), scfg) as service:
            seq = 0
            rejections = 0
            for vb in victim_batches:
                # The attacker floods before every victim batch: each
                # attempt exceeds its burst and must bounce without
                # touching anything.
                n = 600
                attack = EventBatch(
                    seq=seq,
                    pcs=rng.integers(0, 50, n).astype(np.int32),
                    taken=np.ones(n, dtype=bool),
                    instrs=np.full(n, int(vb.instrs[0]), dtype=np.int64),
                    tenants=np.full(n, 2, dtype=np.uint32))
                with pytest.raises(QuotaExceededError) as err:
                    await service.submit(attack)
                assert err.value.tenant == 2
                assert err.value.retry_after > 0
                assert isinstance(err.value, BackpressureError)
                rejections += 1
                # The victim rides the same seq the attacker burned —
                # the rejection admitted nothing.
                await service.submit(EventBatch(
                    seq=seq, pcs=vb.pcs, taken=vb.taken,
                    instrs=vb.instrs, tenants=vb.tenants))
                seq += 1
            await service.drain()
            stats = service.tenant_stats()
            assert stats["quota_rejections"] == rejections
            return controller_states(service), service.metrics()

    solo = run_service(victim_batches, scfg,
                       after=lambda s: (controller_states(s),
                                        s.metrics()))
    assert asyncio.run(mixed()) == solo


def test_quota_rejection_admits_nothing():
    """A quota bounce leaves the service untouched: same seq retries,
    nothing queued, no events counted."""
    scfg = ServiceConfig(n_shards=2, tenant_quota_rate=10.0,
                         tenant_quota_burst=16)

    async def go():
        async with SpeculationService(scaled_config(), scfg) as service:
            big = EventBatch(
                seq=0, pcs=np.arange(20, dtype=np.int32),
                taken=np.ones(20, dtype=bool),
                instrs=np.arange(20, dtype=np.int64),
                tenants=np.full(20, 3, dtype=np.uint32))
            with pytest.raises(QuotaExceededError):
                await service.submit(big)
            assert service.queued_events == 0
            assert service.last_seq == -1
            assert service.events_submitted == 0
            small = EventBatch(
                seq=0, pcs=np.arange(8, dtype=np.int32),
                taken=np.ones(8, dtype=bool),
                instrs=np.arange(8, dtype=np.int64),
                tenants=np.full(8, 3, dtype=np.uint32))
            await service.submit(small)  # same seq: retry protocol
            await service.drain()
            assert service.last_seq == 0
            assert service.events_submitted == 8

    asyncio.run(go())


def test_lazy_manager_on_unconfigured_service():
    """A tenant-bearing batch on a service with no tenant knobs set
    still gets per-tenant accounting — and no policy rejections."""
    batches = mixed_batches(1_000, [4, 9], 20, seed=3)

    def after(service):
        stats = service.tenant_stats()
        assert stats is not None
        assert stats["events"] == 1_000
        assert stats["quota_rejections"] == 0
        assert stats["spills"] == 0
        return None

    run_service(batches, ServiceConfig(n_shards=2), after=after)


# -- budget isolation ------------------------------------------------------
def test_memory_pressure_victimizes_the_heavy_tenant():
    """Under budget pressure the small steady tenant keeps its
    controllers resident and bit-identical; the tenant creating the
    pressure is the one spilled."""
    n = 3_000
    rng = np.random.default_rng(13)
    # Tenant 1: 4 branches.  Tenant 2: 200 branches (the heavy one).
    tenants = rng.choice(np.array([1, 2, 2, 2], dtype=np.uint32), n)
    pcs = np.where(tenants == 1,
                   rng.integers(0, 4, n),
                   rng.integers(0, 200, n)).astype(np.int32)
    taken = rng.uniform(size=n) < 0.7
    instrs = np.cumsum(rng.integers(1, 20, n)).astype(np.int64)
    batches = [EventBatch(seq=s, pcs=pcs[lo:lo + 256],
                          taken=taken[lo:lo + 256],
                          instrs=instrs[lo:lo + 256],
                          tenants=tenants[lo:lo + 256])
               for s, lo in enumerate(range(0, n, 256))]

    def after(service):
        stats = service.tenant_stats()
        assert stats["spills"] > 0
        states = controller_states(service)
        return stats, {k: v for k, v in states.items()
                       if tenant_of(k) == 1}

    stats, victim_states = run_service(
        batches, ServiceConfig(n_shards=2,
                               tenant_resident_bytes=20 * BPB,
                               tenant_bytes_per_branch=BPB),
        after=after)
    solo = run_service(only_tenant(batches, 1),
                       ServiceConfig(n_shards=2),
                       after=controller_states)
    # The victim policy never evicted tenant 1: all four controllers
    # are still resident, in exactly the states of an unshared run.
    assert victim_states == solo


# -- durability ------------------------------------------------------------
def test_wal_recovery_replays_tenant_traffic_bit_identically(tmp_path):
    """Crash a budgeted multi-tenant service mid-trace and recover from
    snapshot + WAL tail: tenant columns round-trip through the log, the
    replay restores spilled tenants before their events land, and the
    result matches a run where neither the crash nor the budget ever
    happened."""
    from repro.wal.recovery import recover_service

    tenants = list(range(1, 7))
    batches = mixed_batches(4_000, tenants, 40, seed=21)
    reference = run_service(batches, ServiceConfig(n_shards=2),
                            after=controller_states)

    wal_dir = tmp_path / "wal"
    snap = tmp_path / "mid.json.gz"
    half = len(batches) // 2

    async def crash():
        scfg = ServiceConfig(n_shards=2, wal_dir=str(wal_dir),
                             tenant_resident_bytes=8 * BPB,
                             tenant_bytes_per_branch=BPB)
        service = SpeculationService(scaled_config(), scfg)
        await service.start()
        for batch in batches[:half]:
            await submit_retry(service, batch)
        await service.drain()
        await service.snapshot(snap)
        assert service.tenant_stats()["spills"] > 0
        for batch in batches[half:]:
            await submit_retry(service, batch)
        await service.drain()
        # Simulated kill -9: no stop(), only the disk state survives.

    asyncio.run(crash())
    recovered, report = recover_service(wal_dir, snapshot=snap)
    assert report.replayed_batches == len(batches) - half
    probe = EventBatch(
        seq=10_000, pcs=np.zeros(len(tenants), dtype=np.int32),
        taken=np.zeros(len(tenants), dtype=bool),
        instrs=np.zeros(len(tenants), dtype=np.int64),
        tenants=np.array(tenants, dtype=np.uint32))
    recovered._ensure_resident(probe)
    assert controller_states(recovered) == reference


# -- snapshots -------------------------------------------------------------
def test_snapshot_roundtrips_spilled_tenants(tmp_path):
    """Spilled tenants are model state: they survive save/load and
    restore bit-identically afterwards."""
    batches = mixed_batches(4_000, [1, 2, 3, 4, 5], 30, seed=6)
    snap = tmp_path / "tenants.json.gz"
    scfg = ServiceConfig(n_shards=2, tenant_resident_bytes=6 * BPB,
                         tenant_bytes_per_branch=BPB)

    def after(service):
        assert service.tenant_stats()["spilled_tenants"] > 0
        save_snapshot(snap, service)
        return service._export_tenants(), controller_states(service)

    spilled, resident = run_service(batches, scfg, after=after)
    restored = load_snapshot(snap)
    assert restored._export_tenants() == spilled
    assert restored.tenant_stats()["spilled_tenants"] == len(spilled)
    assert controller_states(restored) == resident
