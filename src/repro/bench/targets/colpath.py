"""Columnar fast-path target: shard throughput vs distinct-PC count.

The baseline is :class:`_LoopShard`, built here: a shard whose engine
is one :func:`~repro.sim.vector.apply_chunk` call per distinct PC per
batch (the service's batch engine before the columnar one).  The
committed claims (docs/serving.md): >= 2.5x single-shard speedup at
the wide (4096-PC) sweep point, no regression below 0.9x at the narrow
(1-PC) point — both ratios measured within one run — and, at every
width, bit-identical ``export_state()`` across the two (the loop's
transition logs emptied: the columnar rows keep none) and identical
captured transition streams from one untimed capture-on pass.

Since boundary resolution went columnar, the sweep also drives an
*adversarial* point: a deterministic train-then-flip square wave over
4,096 branches whose every window is dense with classify fires,
deployment landings, misspeculation bursts and counter evictions — the
traffic that previously fell back to the scalar engine per row.  The
claim there: >= 2x over the per-PC loop with bit-identical
``export_state`` *and* captured transition streams.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.gates import exact, floor
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    ratio,
    register_benchmark,
)
from repro.core.config import ControllerConfig
from repro.core.controller import ControllerBank
from repro.sim.vector import apply_chunk

#: Serving-scale controller parameters: branches classify after 64
#: executions and revisit after 2048, so even the 4096-PC sweep point
#: (~100 executions per branch) spends most of its events in the
#: deployed steady state the columnar engine targets.
BENCH_CONFIG = ControllerConfig(
    monitor_period=64,
    selection_threshold=0.95,
    evict_counter_max=500,
    misspec_increment=50,
    correct_decrement=1,
    revisit_period=2_048,
    oscillation_limit=5,
    optimization_latency=2_000,
)

SWEEP_WIDTHS = (1, 64, 4096)


def _workload(n_events: int, width: int, seed: int):
    """A heavily biased interleaved workload over ``width`` branches."""
    rng = np.random.default_rng(seed)
    if width == 1:
        pcs = np.zeros(n_events, dtype=np.int32)
    else:
        pcs = rng.integers(0, width, n_events).astype(np.int32)
    # 99.9% taken: branches SELECT quickly and stay deployed, with
    # just enough misses to keep the eviction walk honest.
    taken = rng.uniform(size=n_events) < 0.999
    instrs = np.cumsum(rng.integers(1, 4, n_events)).astype(np.int64)
    return pcs, taken, instrs


def _adversarial_workload(n_events: int, width: int, flip_every: int):
    """Deterministic round-robin train-then-flip square wave.

    Every branch executes in lockstep and flips bias every
    ``flip_every`` of its own executions: each cycle re-trains the
    monitor, SELECTs, lands the deployment, suffers a misspeculation
    burst and EVICTs — so *every* batch segment crosses FSM
    boundaries.  This is the maximally evict-heavy traffic ROADMAP's
    adversarial suite calls out, and the workload the boundary-
    resolution loop exists for.
    """
    idx = np.arange(n_events, dtype=np.int64)
    pcs = (idx % width).astype(np.int32)
    exec_idx = idx // width
    taken = ((exec_idx // flip_every) % 2) == 0
    instrs = idx * 4 + 1
    return pcs, taken, instrs


class _LoopShard:
    """The per-PC baseline: a :class:`~repro.core.controller.ControllerBank`
    advanced by one ``apply_chunk`` call per distinct PC per batch, with
    the per-batch work of ``BankShard.apply`` around it (PC grouping,
    decision cache, result record), so the two time the same job."""

    def __init__(self, config: ControllerConfig) -> None:
        # Imported on first use: the serve stack pulls in repro.obs,
        # which importing the registry (every target module) should not.
        from repro.obs.tracing import ARC_CODE
        from repro.serve.shard import ShardApplyResult
        from repro.tenant.keys import stable_order

        self._arc_code = ARC_CODE
        self._result = ShardApplyResult
        self._stable_order = stable_order
        self.bank = ControllerBank(config)
        self.decisions: dict[int, bool] = {}
        self.capture = False
        self.events_applied = self.last_instr = 0
        self.correct = self.incorrect = 0

    def apply(self, pcs, taken, instrs):
        n = len(pcs)
        last = int(instrs[-1])
        if not bool((pcs[1:] >= pcs[:-1]).all()):
            order, pcs = self._stable_order(pcs)
            taken, instrs = taken[order], instrs[order]
        bounds = np.flatnonzero(pcs[1:] != pcs[:-1]) + 1
        correct = incorrect = 0
        changed: list[int] = []
        fired: list[tuple[int, int, int, int]] = []
        for s, e in zip(np.concatenate(([0], bounds)),
                        np.concatenate((bounds, [n]))):
            pc = int(pcs[s])
            ctrl = self.bank.controller(pc)
            before = ctrl.deployed
            seen = len(ctrl.transitions)
            c, x = apply_chunk(ctrl, taken[s:e], instrs[s:e])
            correct += c
            incorrect += x
            if self.capture:
                fired.extend((pc, self._arc_code[t.kind.value],
                              t.exec_index, t.instr)
                             for t in ctrl.transitions[seen:])
            if ctrl.deployed != before or pc not in self.decisions:
                self.decisions[pc] = ctrl.deployed
                if ctrl.deployed != before:
                    changed.append(pc)
        self.events_applied += n
        self.last_instr = max(self.last_instr, last)
        self.correct += correct
        self.incorrect += incorrect
        return self._result(
            shard=0, events=n, correct=correct, incorrect=incorrect,
            changed=np.array(changed, dtype=np.int64),
            changed_deployed=np.array([self.decisions[pc] for pc in changed],
                                      dtype=bool),
            last_instr=self.last_instr,
            transitions=np.array(fired, dtype=np.int64).reshape(-1, 4).T)

    def export_state(self):
        """``BankShard.export_state`` of the same shard: its counters
        and its controllers as rows, which keep no transition log (a
        columnar shard's arcs are the captured stream)."""
        from repro.serve.colpath import states_to_rows
        from repro.serve.shard import ShardState

        return ShardState(
            index=0, events_applied=self.events_applied,
            last_instr=self.last_instr, correct=self.correct,
            incorrect=self.incorrect,
            rows=states_to_rows(self.bank.export_state()))


def _drive(columnar: bool, pcs, taken, instrs, batch_events: int,
           capture: bool = False):
    from repro.serve.shard import BankShard

    shard = (BankShard(0, BENCH_CONFIG) if columnar
             else _LoopShard(BENCH_CONFIG))
    shard.capture = capture
    n = len(pcs)
    fired: list[np.ndarray] = []
    started = time.perf_counter()
    for lo in range(0, n, batch_events):
        hi = min(n, lo + batch_events)
        res = shard.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        if capture:
            fired.append(res.transitions)
    elapsed = time.perf_counter() - started
    if capture:
        return n / elapsed, shard, np.concatenate(fired, axis=1)
    return n / elapsed, shard


def _capture_exact(pcs, taken, instrs, batch_events: int) -> bool:
    """One untimed capture-on pass per engine: the same exported state
    and the same captured arcs, compared as sorted (key, arc, exec,
    instr) tuples of both blocks' columns."""
    _, loop_shard, loop_fired = _drive(False, pcs, taken, instrs,
                                       batch_events, capture=True)
    _, col_shard, col_fired = _drive(True, pcs, taken, instrs,
                                     batch_events, capture=True)
    return (sorted(zip(*col_fired.tolist()))
            == sorted(zip(*loop_fired.tolist()))
            and col_shard.export_state() == loop_shard.export_state())


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    widths = []
    for point in doc.get("sweep", []):
        width = point["distinct_pcs"]
        widths.append(width)
        metrics[f"loop_eps_{width}_pcs"] = eps(point["loop_eps"])
        metrics[f"columnar_eps_{width}_pcs"] = eps(point["columnar_eps"])
    # Recompute the gated ratios from the sweep's own figures.
    by_width = {p["distinct_pcs"]: p for p in doc.get("sweep", [])}
    if widths:
        wide, narrow = by_width[max(widths)], by_width[min(widths)]
        if wide["loop_eps"]:
            metrics["wide_speedup"] = ratio(
                wide["columnar_eps"] / wide["loop_eps"])
        if narrow["loop_eps"]:
            metrics["narrow_speedup"] = ratio(
                narrow["columnar_eps"] / narrow["loop_eps"])
    adv = doc.get("adversarial")
    if adv:
        metrics["adversarial_loop_eps"] = eps(adv["loop_eps"])
        metrics["adversarial_columnar_eps"] = eps(adv["columnar_eps"])
        if adv["loop_eps"]:
            metrics["evict_speedup"] = ratio(
                adv["columnar_eps"] / adv["loop_eps"])
    metrics["exact"] = flag(doc.get("exact", False))
    return metrics


@register_benchmark(
    "colpath",
    title="Columnar cross-branch fast path",
    kind="repro.colpath.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        exact(),
        floor("wide_speedup", 2.5, label="columnar floor",
              param="min_colpath_speedup"),
        floor("narrow_speedup", 0.9, label="narrow regression",
              param="min_narrow_ratio"),
        floor("evict_speedup", 2.0, label="evict-heavy floor",
              param="min_evict_speedup"),
    ),
    baseline="BENCH_colpath.json",
    params={"events": 400_000, "adv_events": 1_200_000},
    smoke_params={"events": 24_000, "adv_events": 64_000, "repeats": 1},
    timeout=900.0,
)
def run_colpath_bench(events: int = 400_000, batch_events: int = 8_192,
                      repeats: int = 3, adv_events: int = 1_200_000,
                      adv_flip_every: int = 96,
                      verbose: bool = True) -> dict:
    """Sweep distinct-PC counts; returns the CI gate's result document.

    Every events/sec figure is the best of ``repeats`` runs: the gate
    compares *ratios* of two figures from the same sweep point, and
    best-of-N makes each ratio about the code, not the scheduler.
    """
    exact_flag = True
    sweep = []
    _drive(True, *_workload(50_000, 64, 0), batch_events)  # warmup
    for width in SWEEP_WIDTHS:
        pcs, taken, instrs = _workload(events, width, seed=width)
        loop_eps = col_eps = 0.0
        stats = {}
        for _ in range(repeats):
            rate, loop_shard = _drive(False, pcs, taken, instrs,
                                      batch_events)
            loop_eps = max(loop_eps, rate)
            rate, col_shard = _drive(True, pcs, taken, instrs,
                                     batch_events)
            col_eps = max(col_eps, rate)
            stats = col_shard.col.stats()
            if col_shard.export_state() != loop_shard.export_state():
                exact_flag = False
        capture_exact = _capture_exact(pcs, taken, instrs, batch_events)
        if not capture_exact:
            exact_flag = False
        sweep.append({
            "distinct_pcs": width,
            "events": events,
            "loop_eps": loop_eps,
            "columnar_eps": col_eps,
            "speedup": col_eps / loop_eps,
            "events_fast": stats.get("events_fast", 0),
            "events_fallback": stats.get("events_fallback", 0),
            "capture_exact": capture_exact,
        })
    # Adversarial evict-heavy point: timed passes (best-of-repeats,
    # capture off, matching the serving hot path) plus, as at every
    # sweep width, one capture-on pass per engine pinning the emitted
    # transition streams.
    adv_width = min(4_096, max(64, adv_events // 256))
    pcs, taken, instrs = _adversarial_workload(adv_events, adv_width,
                                               adv_flip_every)
    adv_loop_eps = adv_col_eps = 0.0
    adv_stats = {}
    for _ in range(repeats):
        rate, loop_shard = _drive(False, pcs, taken, instrs, batch_events)
        adv_loop_eps = max(adv_loop_eps, rate)
        rate, col_shard = _drive(True, pcs, taken, instrs, batch_events)
        adv_col_eps = max(adv_col_eps, rate)
        adv_stats = col_shard.col.stats()
        if col_shard.export_state() != loop_shard.export_state():
            exact_flag = False
    capture_exact = _capture_exact(pcs, taken, instrs, batch_events)
    if not capture_exact:
        exact_flag = False
    adversarial = {
        "distinct_pcs": adv_width,
        "events": adv_events,
        "flip_every": adv_flip_every,
        "loop_eps": adv_loop_eps,
        "columnar_eps": adv_col_eps,
        "speedup": adv_col_eps / adv_loop_eps,
        "events_fast": adv_stats.get("events_fast", 0),
        "events_fallback": adv_stats.get("events_fallback", 0),
        "arcs_fast": adv_stats.get("arcs_fast", 0),
        "capture_exact": capture_exact,
    }
    by_width = {p["distinct_pcs"]: p for p in sweep}
    result = {
        "kind": "repro.colpath.bench",
        "schema": 2,
        "machine": {"cpus": os.cpu_count()},
        "config": {"monitor_period": BENCH_CONFIG.monitor_period,
                   "revisit_period": BENCH_CONFIG.revisit_period,
                   "optimization_latency":
                       BENCH_CONFIG.optimization_latency},
        "batch_events": batch_events,
        "sweep": sweep,
        "adversarial": adversarial,
        "wide_speedup": by_width[max(SWEEP_WIDTHS)]["speedup"],
        "narrow_speedup": by_width[min(SWEEP_WIDTHS)]["speedup"],
        "evict_speedup": adversarial["speedup"],
        "exact": exact_flag,
    }
    if verbose:
        print(f"columnar fast path, {events:,} events/point, "
              f"batch {batch_events:,}, {os.cpu_count()} cpu(s)")
        print(f"  {'distinct PCs':>12} {'loop ev/s':>13} "
              f"{'columnar ev/s':>14} {'speedup':>8} {'fast-path':>10}")
        for p in sweep + [adversarial]:
            share = (p["events_fast"]
                     / max(1, p["events_fast"] + p["events_fallback"]))
            tag = "*" if "flip_every" in p else " "
            print(f" {tag}{p['distinct_pcs']:>12,} {p['loop_eps']:>13,.0f} "
                  f"{p['columnar_eps']:>14,.0f} {p['speedup']:>7.2f}x "
                  f"{share:>9.1%}")
        print(f"  (* = adversarial train-then-flip, "
              f"{adversarial['arcs_fast']:,} columnar arcs, capture "
              f"exact: {capture_exact})")
        print(f"  exact across engines (all widths, states and captured "
              f"arcs): {exact_flag}")
    return result
