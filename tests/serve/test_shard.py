"""Shard routing and the sharded bank's equivalence to the engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ControllerConfig, scaled_config
from repro.core.controller import ReactiveBranchController
from repro.serve.events import iter_trace_batches
from repro.serve.shard import BankShard, ShardedBank, shard_ids, shard_of
from repro.sim.runner import run_reactive
from repro.serve.colpath import RowBlock, rows_to_states
from tests.conftest import (
    bank_states,
    captured_arcs,
    logged_arcs,
    rows_of,
    without_logs,
)
from tests.serve.conftest import random_trace


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
def test_shard_of_is_a_partition(n_shards):
    """Every PC routes to exactly one valid shard, deterministically."""
    pcs = list(range(500)) + [2**31 - 1, 7919, 104729]
    for pc in pcs:
        s = shard_of(pc, n_shards)
        assert 0 <= s < n_shards
        assert shard_of(pc, n_shards) == s  # stable


def test_shard_ids_matches_scalar():
    pcs = np.concatenate([np.arange(2000, dtype=np.int32),
                          np.array([2**31 - 1, 0, 1], np.int32)])
    for n in (1, 2, 5, 8):
        vec = shard_ids(pcs, n)
        assert [shard_of(int(pc), n) for pc in pcs] == vec.tolist()


def test_shard_balance_on_clustered_pcs():
    """Stride-clustered ids (like real branch addresses) stay balanced."""
    pcs = np.arange(0, 64_000, 4, dtype=np.int32)  # 16k ids, stride 4
    for n in (2, 4, 8):
        counts = np.bincount(shard_ids(pcs, n), minlength=n)
        assert counts.min() > 0.8 * len(pcs) / n
        assert counts.max() < 1.2 * len(pcs) / n


def test_partition_covers_batch_exactly(bench_trace):
    bank = ShardedBank(n_shards=4)
    batch = next(iter_trace_batches(bench_trace, 4096))
    parts = bank.partition(batch)
    assert sum(p.n_events for p in parts) == batch.n_events
    for p in parts:
        assert (shard_ids(p.pcs, 4) == p.shard).all()
        # Program order within each partition is preserved.
        assert (np.diff(p.instrs) >= 0).all()


@pytest.mark.parametrize("n_shards", [1, 3, 4])
def test_sharded_bank_matches_run_reactive(bench_trace, bench_config,
                                           n_shards):
    bank = ShardedBank(bench_config, n_shards)
    for batch in iter_trace_batches(bench_trace, 4096):
        bank.apply_batch(batch)
    offline = run_reactive(bench_trace, bench_config)
    assert bank.metrics() == offline.metrics


def test_sharded_bank_matches_on_adversarial_random_trace():
    trace = random_trace(20_000, 300, seed=3)
    from repro.core.config import ControllerConfig

    config = ControllerConfig(
        monitor_period=8, selection_threshold=0.7, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=20,
        oscillation_limit=3, optimization_latency=200)
    bank = ShardedBank(config, 5)
    for batch in iter_trace_batches(trace, 777):
        bank.apply_batch(batch)
    assert bank.metrics() == run_reactive(trace, config).metrics


def test_decision_cache_tracks_deployed_view(bench_trace, bench_config):
    bank = ShardedBank(bench_config, 4)
    for batch in iter_trace_batches(bench_trace, 4096):
        bank.apply_batch(batch)
    seen = set()
    for shard in bank.shards:
        for ctrl in bank_states(shard):
            seen.add(ctrl["branch"])
            assert shard.decisions[ctrl["branch"]] == ctrl["deployed"]
            assert bank.should_speculate(ctrl["branch"]) == ctrl["deployed"]
    assert seen  # the trace exercised at least some branches
    # Unknown branches never speculate.
    assert bank.should_speculate(10**9 + 7) is False


def test_one_decision_cache_per_bank(bench_trace, bench_config):
    """A bank's shards share one decision cache through apply, tenant
    spill and restore, state reload and a reshard, and every answer is
    the deployed column of the key's row."""
    from repro.serve.events import EventBatch
    from repro.serve.snapshot import restore_bank

    def check(bank, spilled=()):
        assert all(s.decisions is bank.decisions for s in bank.shards)
        rows = [s.export_state().rows for s in bank.shards]
        want = {key: dep for block in rows
                for key, dep in zip(block.keys.tolist(),
                                    block.deployed.tolist())}
        assert bank.decisions == want
        for key, dep in want.items():
            assert bank.should_speculate(key & 0xFFFFFFFF,
                                         key >> 32) is dep
        for key in spilled:
            assert bank.should_speculate(key & 0xFFFFFFFF,
                                         key >> 32) is False

    bank = ShardedBank(bench_config, 3)
    for seq, batch in enumerate(iter_trace_batches(bench_trace, 4096)):
        bank.apply_batch(EventBatch(
            seq=seq, pcs=batch.pcs, taken=batch.taken, instrs=batch.instrs,
            tenants=(np.arange(batch.n_events) % 3).astype(np.uint32)))
    assert any(bank.decisions.values())
    check(bank)
    cold = [shard.spill_tenant(1) for shard in bank.shards]
    check(bank, spilled=[k for block in cold for k in block.keys.tolist()])
    for shard, rows in zip(bank.shards, cold):
        shard.restore_tenant(rows)
    check(bank)
    states = bank.export_state()
    bank.load_states(states)
    check(bank)
    check(ShardedBank.from_state(bench_config, states))
    check(restore_bank(bench_config, states, n_shards=5))


def test_apply_reports_decision_invalidations(bench_trace, bench_config):
    """``changed`` must be exactly the PCs of the result's shard whose
    deployed view flipped (the shards share one decision cache)."""
    bank = ShardedBank(bench_config, 2)
    assert all(s.decisions is bank.decisions for s in bank.shards)
    views: dict[int, bool] = {}
    for batch in iter_trace_batches(bench_trace, 2048):
        for result in bank.apply_batch(batch):
            mine = {pc: dec for pc, dec in bank.decisions.items()
                    if shard_of(pc, bank.n_shards) == result.shard}
            flipped = {pc for pc, dec in mine.items()
                       if views.get(pc, False) != dec}
            assert set(result.changed) == flipped
            views.update(mine)


# -- shard membership --------------------------------------------------------
def test_accessor_minted_key_spills():
    """A key first created by the ``controller()`` accessor is part of
    its tenant like a batch-minted one: the spill returns it and the
    shard keeps nothing of the tenant."""
    shard = BankShard(0, scaled_config())
    k5, k6 = (7 << 32) | 5, (7 << 32) | 6
    shard.controller(k5)
    rng = np.random.default_rng(0)
    keys = rng.choice(np.array([k5, k6], dtype=np.int64), 200)
    taken = rng.uniform(size=200) < 0.9
    shard.apply(keys, taken, np.arange(1, 201, dtype=np.int64) * 8)
    rows = shard.spill_tenant(7)
    assert rows.keys.tolist() == [k5, k6]
    assert len(shard.export_state().rows) == 0
    assert not shard.should_speculate(k5)
    assert not shard.should_speculate(k6)


def test_install_replaces_a_resident_controller():
    """Installing a state over a resident key replaces the controller
    and its row: later batches continue from the installed state."""
    cfg = scaled_config()
    shard = BankShard(0, cfg)
    rng = np.random.default_rng(1)
    keys = np.array([3, 4], dtype=np.int64)
    instr = 0

    def feed(n):
        nonlocal instr
        pcs = rng.choice(keys, n)
        taken = rng.uniform(size=n) < 0.8
        instrs = instr + 8 * np.arange(1, n + 1, dtype=np.int64)
        instr = int(instrs[-1])
        shard.apply(pcs, taken, instrs)
        return pcs, taken, instrs

    feed(300)
    saved = shard.controller(3).export_state()
    feed(300)  # the row for key 3 moves on and goes dirty
    shard.install(rows_of([saved]))
    assert shard.controller(3).export_state() == saved
    expect = ReactiveBranchController.from_state(cfg, saved)
    for pc, t, at in zip(*(a.tolist() for a in feed(300))):
        if pc == 3:
            expect.observe(t, at)
    assert [shard.controller(3).export_state()] == without_logs(
        [expect.export_state()])
    assert shard.export_state().rows.keys.tolist() == [3, 4]


def test_install_refuses_three_pending_deployments():
    """A row holds two pending deployments; the controller never queues
    more (tests/core/test_controller_invariants.py), so the snapshot
    edge refuses a state holding three, naming its branch, rather than
    truncating it into a row."""
    state = ReactiveBranchController(scaled_config(), 42).export_state()
    state["pending"] = [[100, True, True], [200, False, True],
                        [300, True, True]]
    with pytest.raises(ValueError, match="branch 42"):
        rows_of([state])

#: Small thresholds so a few dozen events fire SELECT, REJECT, REVISIT
#: and EVICT arcs, with deployments landing a few events later.
_MODEL_CONFIG = ControllerConfig(
    monitor_period=4, selection_threshold=0.75, evict_counter_max=100,
    misspec_increment=50, correct_decrement=1, revisit_period=6,
    oscillation_limit=3, optimization_latency=20)
#: Tenants 0-3 x pcs 0-5 as packed keys.
_KEY_POOL = [(t << 32) | pc for t in range(4) for pc in range(6)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shard_membership_matches_dict_model(data):
    """Random applies, accessor reads, tenant spills, restores of
    stashed spills and state round trips keep one ``BankShard`` equal
    to a plain dict of scalar controllers: the bank holds exactly the
    model's resident keys, a spill returns exactly the tenant's keys in
    ascending order, spilled keys never speculate, a restored
    controller re-exports bit-identically, and every apply captures
    exactly the arcs the model's controllers log (the shard's exports
    carry no log)."""
    cfg = _MODEL_CONFIG
    shard = BankShard(0, cfg)
    shard.capture = True
    model: dict[int, ReactiveBranchController] = {}  # resident keys
    stash: dict[int, RowBlock] = {}  # tenant -> its latest spill
    spilled: set[int] = set()
    instr = 0
    idx = st.integers(0, len(_KEY_POOL) - 1)
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        op = data.draw(st.sampled_from(
            ("apply", "apply", "controller", "spill", "restore",
             "roundtrip")), label="op")
        if op == "apply":
            events = data.draw(st.lists(st.tuples(idx, st.booleans()),
                                        min_size=1, max_size=40))
            keys = np.array([_KEY_POOL[i] for i, _ in events], np.int64)
            taken = np.array([t for _, t in events], dtype=bool)
            instrs = instr + 8 * np.arange(1, len(events) + 1,
                                           dtype=np.int64)
            instr = int(instrs[-1])
            res = shard.apply(keys, taken, instrs)
            marks = {k: len(c.transitions) for k, c in model.items()}
            for key, t, at in zip(keys.tolist(), taken.tolist(),
                                  instrs.tolist()):
                model.setdefault(key, ReactiveBranchController(cfg, key))
                model[key].observe(t, at)
                spilled.discard(key)
            assert captured_arcs([res.transitions]) == logged_arcs(
                model.values(), since=marks)
        elif op == "controller":
            key = _KEY_POOL[data.draw(idx)]
            ctrl = model.setdefault(key, ReactiveBranchController(cfg, key))
            spilled.discard(key)
            assert [shard.controller(key).export_state()] == \
                without_logs([ctrl.export_state()])
        elif op == "spill":
            tenant = data.draw(st.integers(0, 3), label="tenant")
            mine = sorted(k for k in model if k >> 32 == tenant)
            rows = shard.spill_tenant(tenant)
            assert rows == rows_of(model.pop(k).export_state()
                                   for k in mine)
            if mine:
                stash[tenant] = rows
            spilled.update(mine)
        elif op == "restore":
            # A stash goes back only while none of its tenant's keys
            # are resident, as the service's tenant manager ensures.
            ready = sorted(t for t in stash
                           if not any(k >> 32 == t for k in model))
            if not ready:
                continue
            rows = stash.pop(data.draw(st.sampled_from(ready)))
            shard.restore_tenant(rows)
            for state in rows_to_states(rows):
                key = state["branch"]
                model[key] = ReactiveBranchController.from_state(cfg, state)
                spilled.discard(key)
                assert shard.controller(key).export_state() == state
        else:
            shard = BankShard.from_state(cfg, shard.export_state())
            shard.capture = True
        assert shard.export_state().rows.keys.tolist() == sorted(model)
        for key in spilled:
            assert not shard.should_speculate(key)
        for key, ctrl in model.items():
            assert shard.should_speculate(key) == ctrl.deployed
