"""Tenant behaviour through the full service: isolation, spill/restore
bit-exactness, quota backpressure, and snapshot round-trips.

The acceptance bar mirrors the single-tenant kill/restore property:
whatever the resident-set manager does behind the scenes — evictions,
blob round-trips, re-interning — a tenant's controller states must be
bit-identical to a run where none of it happened.
"""

from __future__ import annotations

import asyncio
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ControllerConfig, scaled_config
from repro.serve.events import EventBatch, iter_trace_batches
from repro.serve.service import (
    BackpressureError,
    QuotaExceededError,
    SequenceError,
    ServiceConfig,
    SpeculationService,
)
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.tenant.keys import TENANT_SHIFT
from repro.trace.spec2000 import load_trace
from repro.trace.synthetic import with_tenants
from tests.conftest import bank_states, model_states, ring_arcs

BPB = 512
#: Thresholds low enough that a few dozen executions of a branch fire
#: SELECT, REJECT, EVICT and REVISIT arcs.
ARC_CONFIG = ControllerConfig(
    monitor_period=8, selection_threshold=0.75, evict_counter_max=100,
    misspec_increment=50, correct_decrement=1, revisit_period=16,
    oscillation_limit=3, optimization_latency=200)


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


def states_and_arcs(service):
    """The model states (:func:`tests.conftest.model_states`) and the
    captured arcs of a service, read while its spill store is open."""
    return model_states(service), ring_arcs(service)


def controller_states(service):
    """Every resident controller's export dict, keyed by packed branch
    key."""
    return {s["branch"]: s
            for shard in service.bank.shards for s in bank_states(shard)}


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
    residency must leave exactly the states an unbudgeted run has, and
    capture exactly its arcs (with the shards capturing transitions
    and without)."""
    tenants = list(range(1, 7))
    batches = mixed_batches(6_000, tenants, 40, seed=11)
    base = ServiceConfig(n_shards=n_shards, obs=obs)
    reference = run_service(batches, base, config=ARC_CONFIG,
                            after=states_and_arcs)
    assert bool(reference[1]) == obs

    def after(service):
        stats = service.tenant_stats()
        assert stats["spills"] > 0, "budget never forced a spill"
        assert stats["restores"] > 0, "no tenant was ever recalled"
        # Resident and cold tenants together against the run where
        # nothing ever moved.
        return states_and_arcs(service)

    budgeted = run_service(
        batches,
        ServiceConfig(n_shards=n_shards, obs=obs,
                      tenant_resident_bytes=8 * BPB,
                      tenant_bytes_per_branch=BPB),
        config=ARC_CONFIG, after=after)
    assert budgeted == reference


def test_restored_tenant_decisions_match(tmp_path):
    """should_speculate answers identically after a spill/restore
    round-trip (deployed-code view survives the blob), and a cold
    tenant's blob keeps the answer it will come back with."""
    tenants = [1, 2, 3]
    batches = mixed_batches(4_000, tenants, 30, seed=2)
    base = ServiceConfig(n_shards=2)

    def decisions(service):
        return {key: service.should_speculate(key & 0xFFFFFFFF,
                                              tenant_of(key))
                for key in controller_states(service)}

    reference = run_service(batches, base, after=decisions)

    def after(service):
        assert service.tenant_stats()["restores"] > 0
        answers = decisions(service)
        for rows in service._export_tenants().values():
            answers.update(zip(rows.keys.tolist(), rows.deployed.tolist()))
        return answers

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
    controller states and the captured arcs equal a run that never
    spilled."""
    tenants = list(range(1, 7))
    batches = mixed_batches(12_000, tenants, 2, seed=17, batch_events=16)
    keys = [(tenant, pc) for tenant in tenants for pc in range(2)]
    reference = run_service(batches, ServiceConfig(n_shards=2),
                            after=states_and_arcs)
    assert reference[1], "the reference run fired no arc"

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
            await service.stop()
            stats = service.tenant_stats()
            assert stats["spills"] > 0 and stats["restores"] > 0
            return decisions, states_and_arcs(service)

    local_decisions, local_states = asyncio.run(run(0))
    worker_decisions, worker_states = asyncio.run(run(2))
    assert worker_decisions == local_decisions
    assert local_states == reference
    assert worker_states == reference


def test_resharded_restore_spills_whole_tenants(tmp_path):
    """A snapshot restored onto a different shard count holds each
    tenant's controllers exactly where a spill finds them: after every
    drained batch no spilled tenant keeps a controller in any shard,
    and its branches answer False; resident and spilled states together,
    and the captured arcs, equal an unbudgeted restore of the same
    snapshot fed the same batches."""
    tenants = [1, 2, 3]
    snap = tmp_path / "two-shards.json.gz"

    def after(service):
        save_snapshot(snap, service)
        return service.last_seq, int(service.metrics().instructions)

    last_seq, instr = run_service(
        mixed_batches(60_000, tenants, 4, seed=9),
        ServiceConfig(n_shards=2), after=after)
    rng = np.random.default_rng(9)
    batches = []
    for i in range(12):
        instrs = instr + np.cumsum(rng.integers(1, 20, 64))
        instr = int(instrs[-1])
        batches.append(EventBatch(
            seq=last_seq + 1 + i,
            pcs=rng.integers(0, 4, 64).astype(np.int32),
            taken=rng.uniform(size=64) < 0.5,
            instrs=instrs.astype(np.int64),
            tenants=np.full(64, (3, 2, 1)[i % 3], dtype=np.uint32)))

    async def feed(service, check):
        async with service:
            for batch in batches:
                await submit_retry(service, batch)
                await service.drain()
                check(service)
            return states_and_arcs(service)

    def cold_tenants_are_gone(service):
        spilled = set(service._tenants._store.tenants())
        assert not {tenant_of(k) for k in controller_states(service)} \
            & spilled
        for tenant in spilled:
            for pc in range(4):
                assert not service.should_speculate(pc, tenant)

    reference = asyncio.run(feed(load_snapshot(snap, n_shards=3),
                                 lambda service: None))
    # The same snapshot with a resident budget among its knobs: a
    # restore runs with the knobs the file carries.
    state = json.loads(gzip.decompress(snap.read_bytes()))
    state["service_config"].update(tenant_resident_bytes=2 * 4 * BPB + 1,
                                   tenant_bytes_per_branch=BPB)
    budget_snap = tmp_path / "two-shards-budgeted.json.gz"
    budget_snap.write_bytes(gzip.compress(json.dumps(state).encode()))
    budgeted = load_snapshot(budget_snap, n_shards=3)
    assert asyncio.run(feed(budgeted, cold_tenants_are_gone)) == reference
    assert budgeted.tenant_stats()["spills"] > 0


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
        return service

    # The dead process's files close with it (the WAL's writes are
    # unbuffered, so closing writes nothing a kill would lose).
    asyncio.run(crash()).close()
    recovered, report = recover_service(wal_dir, snapshot=snap)
    assert report.replayed_batches == len(batches) - half
    assert model_states(recovered) == reference
    recovered.close()


def test_replay_spills_and_restores_like_live_ingest():
    """Logged batches take the live path's residency steps: replayed
    through ``apply_logged`` onto the v7 fixture, the tail keeps the
    resident set within the snapshot's budget after every batch, and
    ends with the tenant stats, resident and spilled states and
    metrics of the same batches submitted to a started service
    restored from the fixture and drained after each batch."""
    # The committed v7 snapshot holds 10,240 gzip events (seq 0-9) over
    # 4 tenants; its tail here spreads the same trace over 16.
    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    trace = with_tenants(load_trace("gzip", length=60_000), 16, seed=7)
    batches = [batch for batch in iter_trace_batches(trace, 1024)
               if batch.seq > 9]
    replayed = load_snapshot(fixture)
    budget = replayed.tenant_stats()["resident_budget"]
    assert budget == 40 * BPB
    for batch in batches:
        replayed.apply_logged(batch)
        assert replayed.tenant_stats()["resident_bytes"] <= budget
        assert len(controller_states(replayed)) * BPB <= budget

    async def submitted():
        service = load_snapshot(fixture)
        async with service:
            for batch in batches:
                service.submit_nowait(batch)
                await service.drain()
            return (service.tenant_stats(), model_states(service),
                    service.metrics())

    live_stats, live_states, live_metrics = asyncio.run(submitted())
    stats = replayed.tenant_stats()
    assert stats["spills"] > 0 and stats["restores"] > 0
    assert stats == live_stats
    assert model_states(replayed) == live_states
    assert replayed.metrics() == live_metrics
    replayed.close()


def test_apply_logged_refuses_a_stale_seq():
    """A logged batch at or below the service's last seq raises before
    anything is planned, restored or applied, as a live one does."""
    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    service = load_snapshot(fixture)
    assert service.last_seq == 9
    trace = with_tenants(load_trace("gzip", length=60_000), 16, seed=7)
    stale = next(iter_trace_batches(trace, 1024))
    assert stale.seq == 0
    applied = service.bank.events_applied
    stats = service.tenant_stats()
    with pytest.raises(SequenceError):
        service.apply_logged(stale)
    assert service.bank.events_applied == applied
    assert service.last_seq == 9
    assert service.tenant_stats() == stats
    service.close()


def test_loaded_snapshot_counts_resident_tenants():
    """The tenants resident at a checkpoint count against the budget
    from the moment the snapshot loads: the v7 fixture's bank holds 28
    controllers, all of tenant 3, beside its three spilled tenants."""
    fixture = (Path(__file__).parents[1] / "serve" / "data"
               / "snapshot-v7.json.gz")
    service = load_snapshot(fixture)
    keys = [k for shard in service.bank.export_state()
            for k in shard.rows.keys.tolist()]
    assert len(keys) == 28 and {k >> TENANT_SHIFT for k in keys} == {3}
    stats = service.tenant_stats()
    assert stats["resident_tenants"] == 1
    assert stats["resident_bytes"] == 28 * BPB
    assert stats["spilled_tenants"] == 3
    service.close()


def test_replay_neither_rejects_nor_charges_quotas(tmp_path):
    """Quotas are live admission only: a WAL tail for one tenant far
    beyond its burst recovers onto a snapshot whose knobs carry a
    quota without a rejection, and leaves that tenant's bucket full
    for its next submission."""
    from repro.wal.recovery import recover_service
    from repro.wal.writer import WalWriter

    snap = tmp_path / "quota.json.gz"
    save_snapshot(snap, SpeculationService(scaled_config(),
                                           ServiceConfig(n_shards=2)))
    state = json.loads(gzip.decompress(snap.read_bytes()))
    state["service_config"].update(tenant_quota_rate=1.0,
                                   tenant_quota_burst=256)
    snap.write_bytes(gzip.compress(json.dumps(state).encode()))
    batches = mixed_batches(2_048, [5], 30, seed=3)
    wal_dir = tmp_path / "wal"
    writer = WalWriter(wal_dir)
    for batch in batches[:-1]:
        writer.append(batch)
    writer.close()

    recovered, report = recover_service(wal_dir, snapshot=snap)
    assert report.replayed_batches == len(batches) - 1

    async def submit_burst():
        async with recovered:
            recovered.submit_nowait(batches[-1])  # a full burst
            await recovered.drain()

    asyncio.run(submit_burst())
    recovered._wal.close()
    assert recovered.last_seq == batches[-1].seq
    assert recovered.tenant_stats()["quota_rejections"] == 0


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
    restored.close()


def test_reused_spill_dir_starts_empty(tmp_path):
    """The spill log is process scratch: a service opened on the spill
    directory of an earlier one must not take over that run's spilled
    tenants, so two identical runs on one directory read alike."""
    batches = mixed_batches(4_000, [1, 2, 3, 4, 5], 30, seed=6)
    scfg = ServiceConfig(n_shards=2, tenant_resident_bytes=6 * BPB,
                         tenant_bytes_per_branch=BPB,
                         tenant_spill_dir=str(tmp_path / "spill"))

    def after(service):
        assert service.tenant_stats()["spilled_tenants"] > 0
        return service.metrics(), service.tenant_stats()

    first = run_service(batches, scfg, after=after)
    assert run_service(batches, scfg, after=after) == first
