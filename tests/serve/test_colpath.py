"""The columnar cross-branch engine must be bit-exact.

Property tests drive random interleaved multi-branch batches through
the scalar specification (per-event ``observe``) and the shard's
columnar engine, and require bit-identical ``export_state()`` (the
spec's transition log emptied: rows keep none) plus identical
per-batch ``(correct, incorrect)`` deltas, decision flips and captured
transitions, which must add up to the spec's log, across every config
family including
eviction-by-sampling, monitor-sampling stride and long-latency pending
landings.  Plus the regression/edge cases the engine introduced: empty
batches, pre-sorted batch detection, fast-path engagement, and
snapshot round-trips (including snapshots that still carry the
retired ``columnar`` knob).
"""

from __future__ import annotations

import asyncio
import gzip
import json

import numpy as np
import pytest

from repro.core.config import scaled_config
from repro.core.controller import ControllerBank
from repro.obs.tracing import ARC_CODE
from repro.serve.events import EventBatch
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.colpath import rows_to_states
from repro.serve.shard import BankShard, ShardedBank

from tests.conftest import (
    SelectWatch,
    bank_states,
    captured_arcs,
    captured_selects,
    logged_arcs,
    rows_of,
    summarize,
    without_logs,
)

from .test_fastpath import CONFIGS


def _interleaved(n_events: int, n_branches: int, seed: int):
    """Random interleaved multi-branch events in program order.

    Biases are drawn bimodal — most branches heavily biased (so
    selection fires and the steady state is columnar-eligible), the
    rest fair (so REJECT/REVISIT traffic exists too).
    """
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    biased = rng.uniform(size=n_branches) < 0.7
    bias = np.where(biased, rng.uniform(0.9, 1.0, n_branches),
                    rng.uniform(0.3, 0.7, n_branches))
    flip = rng.uniform(size=n_branches) < 0.5
    bias = np.where(flip, 1.0 - bias, bias)
    taken = rng.uniform(size=n_events) < bias[pcs]
    instrs = np.cumsum(rng.integers(1, 9, n_events)).astype(np.int64)
    return pcs, taken, instrs


def _batch_bounds(n: int, rng) -> list[tuple[int, int]]:
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(min(n, cuts[-1] + int(rng.integers(1, 120))))
    return list(zip(cuts[:-1], cuts[1:]))


def _scalar_batches(config, pcs, taken, instrs, bounds):
    """Per-batch reference results via per-event observe(): each
    batch's ``(correct, incorrect)`` deltas, its net decision flips
    ``{pc: deployed}``, its sorted FSM arcs in capture form, its
    per-key summary (from ``np.unique`` and the spec's exec counts) and
    its sorted SELECT columns (:class:`~tests.conftest.SelectWatch`)."""
    bank = ControllerBank(config)
    watch = SelectWatch()
    batches = []
    for lo, hi in bounds:
        touched = {pc: bank.controller(pc)
                   for pc in np.unique(pcs[lo:hi]).tolist()}
        before = {pc: (ctrl.deployed, len(ctrl.transitions))
                  for pc, ctrl in touched.items()}
        summary = summarize(pcs[lo:hi], taken[lo:hi],
                            {pc: ctrl.exec_count
                             for pc, ctrl in touched.items()})
        c = x = 0
        for j in range(lo, hi):
            out = bank.observe(int(pcs[j]), bool(taken[j]), int(instrs[j]))
            watch.observe(bank.controller(int(pcs[j])), bool(taken[j]))
            c += out.speculated and out.correct
            x += out.misspeculated
        flips = {pc: ctrl.deployed for pc, ctrl in touched.items()
                 if ctrl.deployed != before[pc][0]}
        fired = sorted((pc, ARC_CODE[t.kind.value], t.exec_index, t.instr)
                       for pc, ctrl in touched.items()
                       for t in ctrl.transitions[before[pc][1]:])
        batches.append(((c, x), flips, fired, summary, watch.batch()))
    return bank, batches


def _columnar_equals_scalar(config, pcs, taken, instrs, bounds):
    """Drive a capturing shard batch by batch against the scalar spec:
    deltas, decision flips, captured arcs (the spec's new log entries),
    the per-key summary and each SELECT's direction and in-batch onset
    per batch, then the whole exported state and decision cache."""
    ref_bank, ref_batches = _scalar_batches(config, pcs, taken, instrs,
                                            bounds)
    col = BankShard(0, config)
    col.capture = col.detect = True
    for (lo, hi), ((ref_c, ref_x), ref_flips, ref_fired, ref_summary,
                   ref_selects) in zip(bounds, ref_batches):
        rc = col.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        assert (rc.correct, rc.incorrect) == (ref_c, ref_x)
        assert rc.events == hi - lo
        assert rc.last_instr == int(instrs[hi - 1])
        assert len(rc.changed) == len(set(rc.changed))
        assert dict(zip(rc.changed, rc.changed_deployed)) == ref_flips
        assert captured_arcs([rc.transitions]) == ref_fired
        np.testing.assert_array_equal(rc.summary, ref_summary)
        assert captured_selects([rc]) == ref_selects
    # Full state parity, down to every pending landing; the arcs went
    # out as the captured stream.
    state = col.export_state()
    states = rows_to_states(state.rows)
    ref_states = without_logs(ref_bank.export_state())
    assert states == ref_states
    # Same text too: key order and plain int/bool types, so snapshot
    # bytes cannot drift.
    assert json.dumps(states) == json.dumps(ref_states)
    # And the rows are the spec's states' rows, free pending slots
    # included.
    assert state.rows == rows_of(ref_states)
    assert (state.correct, state.incorrect) == (
        sum(c.correct for c in ref_bank), sum(c.incorrect for c in ref_bank))
    assert col.decisions == {c.branch: c.deployed for c in ref_bank}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_columnar_equals_chunked_equals_scalar(config_name, seed):
    """Columnar engine vs the scalar spec on random interleaved
    batches (the id predates the per-PC chunk loop's removal)."""
    config = CONFIGS[config_name]
    pcs, taken, instrs = _interleaved(4_000, 23, seed)
    rng = np.random.default_rng(seed + 77)
    bounds = _batch_bounds(len(pcs), rng)
    _columnar_equals_scalar(config, pcs, taken, instrs, bounds)


def _scalar_bank(config, pcs, taken, instrs):
    """A scalar bank fed every event through observe()."""
    bank = ControllerBank(config)
    for pc, t, i in zip(pcs.tolist(), taken.tolist(), instrs.tolist()):
        bank.observe(pc, t, i)
    return bank


def _merged_bank(sharded: ShardedBank) -> list[dict]:
    """Every shard's controller states, merged in branch order."""
    return sorted((s for shard in sharded.shards for s in bank_states(shard)),
                  key=lambda s: s["branch"])


@pytest.mark.parametrize("seed", [3, 4])
def test_columnar_equals_chunked_on_wide_random_trace(seed,
                                                      random_trace_fn):
    """ShardedBank-level parity with the scalar spec on an adversarial
    wide trace: states, and the captured stream against the spec's
    log."""
    config = scaled_config()
    trace = random_trace_fn(30_000, 700, seed)
    col = ShardedBank(config, 4)
    for shard in col.shards:
        shard.capture = True
    fired = []
    for lo in range(0, len(trace), 7_000):
        batch = EventBatch(seq=lo, pcs=trace.branch_ids[lo:lo + 7_000],
                           taken=trace.taken[lo:lo + 7_000],
                           instrs=trace.instrs[lo:lo + 7_000])
        fired += [r.transitions for r in col.apply_batch(batch)]
    ref = _scalar_bank(config, trace.branch_ids, trace.taken, trace.instrs)
    metrics = col.metrics()
    assert metrics.dynamic_branches == len(trace)
    assert (metrics.correct, metrics.incorrect) == (
        sum(c.correct for c in ref), sum(c.incorrect for c in ref))
    assert _merged_bank(col) == without_logs(ref.export_state())
    assert captured_arcs(fired) == logged_arcs(ref)


def test_fast_path_engages_on_steady_state():
    """A wide, heavily-biased workload must mostly bypass Python."""
    config = scaled_config()
    rng = np.random.default_rng(9)
    n_branches, n_events = 512, 200_000
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    taken = rng.uniform(size=n_events) < 0.999   # near-always taken
    instrs = np.cumsum(rng.integers(1, 4, n_events)).astype(np.int64)
    shard = BankShard(0, config)
    shard.capture = True
    fired = [shard.apply(pcs[lo:lo + 8_192], taken[lo:lo + 8_192],
                         instrs[lo:lo + 8_192]).transitions
             for lo in range(0, n_events, 8_192)]
    stats = shard.col.stats()
    assert stats["rows"] == n_branches
    assert stats["rows_fast"] > 0
    # Monitor classify and deployment landings force some fallback
    # early on, but the steady state must dominate.
    assert stats["events_fast"] > 0.8 * n_events
    # And the work must still be exact.
    ref = _scalar_bank(config, pcs, taken, instrs)
    assert bank_states(shard) == without_logs(ref.export_state())
    assert captured_arcs(fired) == logged_arcs(ref)


def _boundary_dense(n_events: int, n_branches: int, seed: int):
    """Interleaved events whose biases flip on short per-branch phases.

    Short flip periods put classify fires (both directions), revisits,
    landings and mid-segment eviction walks *inside* nearly every
    batch segment — the traffic the boundary-resolution loop exists
    for (steady-state traces barely exercise it).
    """
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    flip = rng.integers(5, 60, n_branches)
    noise = rng.uniform(size=n_events) < 0.05
    count = np.zeros(n_branches, dtype=np.int64)
    taken = np.zeros(n_events, dtype=bool)
    for i in range(n_events):
        b = pcs[i]
        phase = (count[b] // flip[b]) % 2 == 0
        taken[i] = phase != noise[i]
        count[b] += 1
    instrs = np.cumsum(rng.integers(1, 9, n_events)).astype(np.int64)
    return pcs, taken, instrs


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_dense_three_engine_parity(config_name, seed):
    """Bit-exactness where arcs fire *inside* segments, for every
    config family: classify both directions, revisit re-entry,
    latency landings and counter evictions mid-segment.  Columnar
    engine vs the scalar spec (the id predates the per-PC chunk loop's
    removal)."""
    config = CONFIGS[config_name]
    pcs, taken, instrs = _boundary_dense(5_000, 11, seed)
    rng = np.random.default_rng(seed + 31)
    bounds = _batch_bounds(len(pcs), rng)
    _columnar_equals_scalar(config, pcs, taken, instrs, bounds)


def test_events_fallback_near_zero_on_train_then_flip():
    """Regression: the boundary loop keeps adversarial evict-heavy
    traffic columnar — no per-row scalar fallbacks at stride 1 with
    counter eviction."""
    from repro.trace.synthetic import train_then_flip_trace

    config = scaled_config()
    trace = train_then_flip_trace(n_branches=64, flip_at=700, seed=2)
    shard = BankShard(0, config)
    shard.capture = True
    fired = [shard.apply(trace.branch_ids[lo:lo + 8_192],
                         trace.taken[lo:lo + 8_192],
                         trace.instrs[lo:lo + 8_192]).transitions
             for lo in range(0, len(trace), 8_192)]
    stats = shard.col.stats()
    assert stats["events_fallback"] == 0
    assert stats["rows_fallback"] == 0
    assert stats["events_fast"] == len(trace)
    # The trace actually drove the arcs the loop resolves: every
    # branch selected, suffered the flip, and evicted.
    assert stats["arcs_fast"] >= 64 * 2
    assert stats["lands_fast"] >= 64 * 2
    states = bank_states(shard)
    assert all(s["evictions"] >= 1 for s in states)
    ref = _scalar_bank(config, trace.branch_ids, trace.taken, trace.instrs)
    assert states == without_logs(ref.export_state())
    assert captured_arcs(fired) == logged_arcs(ref)


def test_summary_matches_spec_across_spill_and_restore():
    """A tenant trace through one capturing shard, with tenants spilled
    after applies and restored before the next batch that touches them
    (as the service does): every apply's summary equals the one built
    from ``np.unique`` and the spec's exec counts, and is empty with
    detect off."""
    from repro.tenant.keys import TENANT_SHIFT, pack_keys

    config = CONFIGS["tiny-latency"]
    rng = np.random.default_rng(17)
    n = 6_000
    tenants = rng.integers(0, 4, n)
    pcs, taken, instrs = _boundary_dense(n, 7, 3)
    keys = pack_keys(tenants, pcs)
    spec = ControllerBank(config)
    shard = BankShard(0, config)
    shard.capture = shard.detect = True
    spilled: dict[int, object] = {}
    spills = restores = 0
    for lo, hi in _batch_bounds(n, rng):
        for tenant in set(tenants[lo:hi].tolist()) & set(spilled):
            shard.restore_tenant(spilled.pop(tenant))
            restores += 1
        counts = {key: spec.controller(key).exec_count
                  for key in np.unique(keys[lo:hi]).tolist()}
        want = summarize(keys[lo:hi], taken[lo:hi], counts)
        res = shard.apply(keys[lo:hi], taken[lo:hi], instrs[lo:hi])
        np.testing.assert_array_equal(res.summary, want)
        for j in range(lo, hi):
            spec.observe(int(keys[j]), bool(taken[j]), int(instrs[j]))
        if rng.uniform() < 0.3:
            tenant = int(rng.integers(0, 4))
            if tenant not in spilled:
                spilled[tenant] = shard.spill_tenant(tenant)
                spills += 1
    assert spills > 10 and restores > 10
    for rows in spilled.values():
        shard.restore_tenant(rows)
    assert bank_states(shard) == without_logs(spec.export_state())
    assert all(k >> TENANT_SHIFT < 4 for k in shard.decisions)
    shard.detect = False
    res = shard.apply(keys[:50], taken[:50], instrs[-1] + instrs[:50])
    assert res.summary.shape == (6, 0)
    assert res.selects.shape == (3, 0)


def test_stats_split_single_vs_fallback():
    """Single-branch batches are counted apart from true fallbacks."""
    config = CONFIGS["tiny"]
    shard = BankShard(0, config)
    one = np.full(50, 7, dtype=np.int32)
    taken = np.ones(50, dtype=bool)
    instrs = np.arange(1, 51, dtype=np.int64) * 8
    res = shard.apply(one, taken, instrs)
    stats = shard.col.stats()
    assert stats["rows_single"] == 1
    assert stats["events_single"] == 50
    assert stats["rows_fallback"] == 0
    assert stats["events_fallback"] == 0
    assert (res.col_fast, res.col_fallback, res.col_single) == (0, 0, 50)
    # A strided-monitor config routes multi-branch batches through the
    # true fallback instead.
    strided = BankShard(0, CONFIGS["tiny-stride"])
    pcs = np.tile(np.array([1, 2], dtype=np.int32), 25)
    res = strided.apply(pcs, taken, instrs)
    stats = strided.col.stats()
    assert stats["rows_fallback"] == 2
    assert stats["events_fallback"] == 50
    assert stats["rows_single"] == 0
    assert res.col_fallback == 50 and res.col_single == 0


def test_apply_result_routing_covers_every_event():
    """fast + fallback + single always adds up to the batch size."""
    config = CONFIGS["tiny-latency"]
    pcs, taken, instrs = _boundary_dense(3_000, 9, 6)
    shard = BankShard(0, config)
    rng = np.random.default_rng(8)
    for lo, hi in _batch_bounds(len(pcs), rng):
        res = shard.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        assert (res.col_fast + res.col_fallback + res.col_single
                == res.events)


def test_empty_batch_is_a_noop():
    """Regression: apply([]) used to raise IndexError on instrs[-1]."""
    shard = BankShard(0, scaled_config())
    empty = np.empty(0, dtype=np.int64)
    for capture in (False, True):
        shard.capture = capture
        res = shard.apply(empty.astype(np.int32), empty.astype(bool), empty)
        assert res.events == 0
        assert (res.correct, res.incorrect) == (0, 0)
        assert res.changed.size == 0
        assert res.transitions.shape == (4, 0)
        assert res.last_instr == shard.last_instr
    assert shard.events_applied == 0
    # And a real batch afterwards still works.
    shard.apply(np.array([7], dtype=np.int32), np.array([True]),
                np.array([10], dtype=np.int64))
    assert shard.events_applied == 1


def test_presorted_batch_skips_the_argsort(monkeypatch):
    """PC-grouped batches must not pay the sort, and stay exact."""
    config = CONFIGS["tiny"]
    pcs = np.repeat(np.array([3, 5, 9], dtype=np.int32), 40)
    rng = np.random.default_rng(1)
    taken = rng.uniform(size=len(pcs)) < 0.9
    instrs = np.cumsum(rng.integers(1, 5, len(pcs))).astype(np.int64)
    ref_bank, ((ref_deltas, _flips, ref_fired, _, _),) = _scalar_batches(
        config, pcs, taken, instrs, [(0, len(pcs))])

    real_argsort = np.argsort

    def boom(*a, **k):
        # The batch sort is the only stable argsort in the apply path
        # (colpath's intern-index rebuild sorts unique PCs, unstably).
        if k.get("kind") == "stable":  # pragma: no cover - failure path
            raise AssertionError("argsort called for a pre-sorted batch")
        return real_argsort(*a, **k)

    monkeypatch.setattr("repro.serve.shard.np.argsort", boom)
    shard = BankShard(0, config)
    shard.capture = True
    res = shard.apply(pcs, taken, instrs)
    assert (res.correct, res.incorrect) == ref_deltas
    assert bank_states(shard) == without_logs(ref_bank.export_state())
    assert captured_arcs([res.transitions]) == ref_fired
    # Single-PC batches take the same skip.
    one = shard.apply(np.array([3, 3], dtype=np.int32),
                      np.array([True, True]),
                      instrs[-1] + np.array([5, 9], dtype=np.int64))
    assert one.events == 2


@pytest.mark.parametrize("pick", ["run", "one", "scattered"])
def test_evict_keys_run_leaves_what_the_mask_leaves(pick):
    """Hit slots forming one run of the key index leave it by two slice
    copies, others through a mask.  The same keys shuffled always take
    the mask; both leave the same index, rows and dead set, and the
    evicted keys come back alike on their next batch."""
    pcs, taken, instrs = _interleaved(8_000, 300, seed=11)
    shards = [BankShard(0, scaled_config()) for _ in range(2)]
    for shard in shards:
        shard.apply(pcs, taken, instrs)
    keys = shards[0].col.keys.copy()
    gone = {"run": keys[40:200], "one": keys[7:8],
            "scattered": keys[::3]}[pick]
    shards[0].col.evict_keys(gone)
    shards[1].col.evict_keys(np.random.default_rng(1).permutation(gone))
    a, b = (shard.col for shard in shards)
    np.testing.assert_array_equal(a.keys, np.setdiff1d(keys, gone))
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a._key_rows, b._key_rows)
    np.testing.assert_array_equal(a.dead[:a.n_rows], b.dead[:b.n_rows])
    assert a.gather() == b.gather()
    more = _interleaved(3_000, 300, seed=12)
    for shard in shards:
        shard.apply(*more)
    assert bank_states(shards[0]) == bank_states(shards[1])
    assert shards[0].decisions == shards[1].decisions


def test_controller_accessor_reads_flushed_state():
    """bank.controller(pc) must never expose stale hot fields; its
    copy carries an empty transition log."""
    config = CONFIGS["tiny-latency"]
    bank = ShardedBank(config, 2)
    pcs, taken, instrs = _interleaved(20_000, 64, 5)
    bank.apply_batch(EventBatch(seq=0, pcs=pcs, taken=taken, instrs=instrs))
    ref = _scalar_bank(config, pcs, taken, instrs)
    assert all(ref.controller(pc).transitions for pc in range(64))
    for pc in range(64):
        assert [bank.controller(pc).export_state()] == without_logs(
            [ref.controller(pc).export_state()])


def test_bank_snapshot_roundtrip_across_engines():
    """State exported mid-run restores and continues exactly like the
    live bank: the same states, and the same arcs captured on the
    tail."""
    config = CONFIGS["tiny-latency"]
    pcs, taken, instrs = _interleaved(6_000, 40, 11)
    half = len(pcs) // 2
    col = ShardedBank(config, 3)
    col.apply_batch(EventBatch(seq=0, pcs=pcs[:half], taken=taken[:half],
                               instrs=instrs[:half]))
    state = col.export_state()
    resumed = ShardedBank.from_state(config, state)
    tail = EventBatch(seq=1, pcs=pcs[half:], taken=taken[half:],
                      instrs=instrs[half:])
    fired = []
    for bank in (col, resumed):
        for shard in bank.shards:
            shard.capture = True
        fired.append(captured_arcs(
            r.transitions for r in bank.apply_batch(tail)))
    assert fired[0] and fired[0] == fired[1]
    assert resumed.export_state() == col.export_state()


def test_service_snapshot_roundtrip_with_no_columnar(tmp_path, bench_trace):
    """Snapshots written while the service still had a batch-engine
    knob (formats 5-7) carry ``"columnar"`` in their service config;
    loading drops it.  A snapshot from a ``--no-columnar`` service
    restores and continues bit-identically to a run that never
    paused, and the arcs both halves capture are the uninterrupted
    run's."""
    from repro.serve.snapshot import load_snapshot

    from tests.conftest import ring_arcs

    half = len(bench_trace) // 2

    def batches(lo, hi, base_seq):
        for i, s in enumerate(range(lo, hi, 4_096)):
            e = min(hi, s + 4_096)
            yield EventBatch(seq=base_seq + i,
                             pcs=bench_trace.branch_ids[s:e],
                             taken=bench_trace.taken[s:e],
                             instrs=bench_trace.instrs[s:e])

    async def run(service, lo, hi, snapshot=None):
        async with service:
            for b in batches(lo, hi, service.last_seq + 1):
                await service.submit(b)
            await service.drain()
            if snapshot is not None:
                return await service.snapshot(snapshot), ring_arcs(service)
            return (service.metrics(), service.bank.export_state(),
                    ring_arcs(service))

    path, first_arcs = asyncio.run(run(
        SpeculationService(service_config=ServiceConfig(n_shards=2)),
        0, half, snapshot=tmp_path / "snap.json.gz"))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert "columnar" not in doc["service_config"]
    doc["service_config"]["columnar"] = False
    legacy = tmp_path / "legacy.json.gz"
    with gzip.open(legacy, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
    restored = load_snapshot(legacy)
    assert restored.service_config == load_snapshot(path).service_config
    resumed = asyncio.run(run(restored, half, len(bench_trace)))
    straight = asyncio.run(run(
        SpeculationService(service_config=ServiceConfig(n_shards=2)),
        0, len(bench_trace)))
    assert resumed[:2] == straight[:2]
    assert straight[2] and sorted(first_arcs + resumed[2]) == straight[2]


def test_state_stays_fixed_width_with_uptime():
    """A shard's state does not grow with uptime: 64 unbiased branches
    cycle REJECT → REVISIT every revisit period, yet between about 20k
    and 82k executions per branch the state's packed row block (the
    spill blob) and its snapshot JSON grow only by counter digits, and
    every exported state carries an empty transition log.  The arcs
    leave as the captured stream."""
    n_branches, n_batch = 64, 8_192
    shard = BankShard(0, scaled_config())
    shard.capture = True
    rng = np.random.default_rng(4)
    instr = arcs = 0
    sizes = []
    for per_branch in (20_480, 81_920):
        while shard.events_applied < per_branch * n_branches:
            instrs = instr + np.cumsum(rng.integers(1, 9, n_batch))
            instr = int(instrs[-1])
            arcs += shard.apply(rng.integers(0, n_branches, n_batch),
                                rng.random(n_batch) < 0.5,
                                instrs).transitions.shape[1]
        rows = shard.export_state().rows
        states = rows_to_states(rows)
        assert len(rows) == len(states) == n_branches
        assert all(s["transitions"] == [] for s in states)
        sizes.append((
            len(json.dumps(states, separators=(",", ":"))) / n_branches,
            len(rows.to_bytes()) / n_branches))
        # Every branch keeps cycling: the arc stream grows, the state
        # does not.
        assert arcs >= n_branches * 2 * (per_branch // 5_500)
    (json_early, blob_early), (json_late, blob_late) = sizes
    assert json_late - json_early <= 4
    assert blob_late - blob_early <= 4


def test_row_block_codec_roundtrips_every_column():
    """gather → bytes → put carries every column: rows in each FSM state
    with 0, 1 and 2 pending deployments and every field distinct.  Dead
    rows stay behind, the split routes each row to its shard, and an
    empty block packs and puts as nothing."""
    from repro.core.states import BranchState
    from repro.serve.colpath import RowBlock
    from repro.serve.shard import shard_ids

    states = []
    for fsm in BranchState:
        for n_pending in range(3):
            k = len(states) + 1
            states.append({
                "branch": (5 << 32) | k, "state": fsm.value,
                "exec_count": 1000 + k, "state_entry_exec": 900 + k,
                "monitor_taken": 10 + k, "monitor_samples": 20 + k,
                "counter": 30 + k, "bias_entries": k % 4,
                "deployed": k % 2 == 0, "deployed_direction": k % 3 == 0,
                "pending": [[5000 + 100 * k + j, (k + j) % 2 == 0,
                             (k + j) % 3 != 0] for j in range(n_pending)],
                "episode_active": k % 4 < 2, "window_correct": 40 + k,
                "window_pos": 50 + k, "correct": 600 + k,
                "incorrect": 70 + k, "evictions": k % 5,
                "transitions": [],
            })
    doomed = [{**state, "branch": (6 << 32) | i}
              for i, state in enumerate(states)]
    shard = BankShard(0, scaled_config())
    shard.install(rows_of(states + doomed))
    shard.spill_tenant(6)
    assert shard.col.n_dead == len(doomed)
    block = shard.export_state().rows
    assert rows_to_states(block) == states
    back = RowBlock.from_bytes(block.to_bytes())
    assert back == block
    assert back.ints.dtype == np.int64 and back.flags.dtype == bool
    fresh = BankShard(0, scaled_config())
    fresh.install(back)
    assert fresh.export_state().rows == block
    assert fresh.decisions == {s["branch"]: s["deployed"] for s in states}
    parts = block.split(3)
    for shard_index, part in enumerate(parts):
        assert (shard_ids(part.keys, 3) == shard_index).all()
    assert RowBlock.concat(parts).sorted() == block
    empty = RowBlock.from_bytes(RowBlock.empty().to_bytes())
    assert empty == RowBlock.empty() and len(empty) == 0
    fresh.install(empty)
    assert fresh.export_state().rows == block
