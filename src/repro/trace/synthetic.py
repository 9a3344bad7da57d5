"""Hand-rolled trace builders for tests, examples and micro-experiments.

These bypass the region machinery: you supply per-branch outcome
sequences (or patterns) and get a deterministic interleaved trace.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.trace.model import BenchmarkModel, Region, StaticBranch
from repro.trace.patterns import (BehaviorPattern, ConstantBias,
                                  slow_poison, train_then_flip)
from repro.trace.stream import Trace

__all__ = [
    "trace_from_outcomes",
    "round_robin_trace",
    "single_branch_trace",
    "train_then_flip_trace",
    "slow_poison_trace",
    "uniform_model",
    "assign_tenants",
    "with_tenants",
]


def assign_tenants(n_events: int, n_tenants: int, mix: str = "zipf", *,
                   s: float = 1.1, seed: int | np.random.Generator = 0
                   ) -> np.ndarray:
    """Draw a uint32 tenant id per event.

    ``mix="zipf"`` draws from a Zipf distribution over tenant ranks
    (``p(k) ∝ 1/k**s`` for rank ``k``, via inverse-CDF sampling) — a
    few hot tenants dominate, a long tail stays cold, which is the
    shape that exercises quota enforcement and cold-tenant spill.
    ``mix="uniform"`` spreads events evenly; with many tenants each is
    touched rarely, which exercises resident-set churn.  Deterministic
    for a given ``(n_events, n_tenants, mix, s, seed)``.
    """
    if n_events <= 0:
        raise ValueError("n_events must be positive")
    if n_tenants <= 0:
        raise ValueError("n_tenants must be positive")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    if n_tenants == 1:
        return np.zeros(n_events, dtype=np.uint32)
    if mix == "uniform":
        return rng.integers(0, n_tenants, size=n_events, dtype=np.uint32)
    if mix != "zipf":
        raise ValueError(f"unknown tenant mix {mix!r} "
                         "(expected 'zipf' or 'uniform')")
    ranks = np.arange(1, n_tenants + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -s)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(n_events), side="right")
    return draws.astype(np.uint32)


def with_tenants(trace: Trace, n_tenants: int, mix: str = "zipf", *,
                 s: float = 1.1, seed: int | np.random.Generator = 0
                 ) -> Trace:
    """A copy of ``trace`` with per-event tenant ids attached.

    Each tenant sees the same branch-id space (branch ids become
    per-tenant *universes* downstream — the serving layer namespaces
    controllers by ``(tenant, branch)``), so attaching tenants to an
    existing single-tenant trace models N tenants running the same
    workload interleaved.
    """
    tenants = assign_tenants(len(trace), n_tenants, mix, s=s, seed=seed)
    return Trace(
        name=trace.name, input_name=trace.input_name,
        branch_ids=trace.branch_ids, taken=trace.taken,
        instrs=trace.instrs,
        meta={**trace.meta, "n_tenants": n_tenants, "tenant_mix": mix},
        tenants=tenants)


def trace_from_outcomes(outcomes: dict[int, Sequence[bool]],
                        instr_stride: int = 8,
                        name: str = "synthetic",
                        input_name: str = "synthetic") -> Trace:
    """Interleave explicit per-branch outcome sequences round-robin.

    Branch ids take turns (skipping exhausted ones); each event advances
    the instruction counter by ``instr_stride``.  The k-th outcome in a
    branch's sequence becomes its k-th dynamic execution.
    """
    if not outcomes:
        raise ValueError("outcomes must not be empty")
    ids: list[int] = []
    taken: list[bool] = []
    remaining = {b: list(seq) for b, seq in outcomes.items()}
    positions = {b: 0 for b in remaining}
    order = sorted(remaining)
    while any(positions[b] < len(remaining[b]) for b in order):
        for b in order:
            if positions[b] < len(remaining[b]):
                ids.append(b)
                taken.append(bool(remaining[b][positions[b]]))
                positions[b] += 1
    n = len(ids)
    return Trace(
        name=name, input_name=input_name,
        branch_ids=np.array(ids, dtype=np.int32),
        taken=np.array(taken, dtype=bool),
        instrs=np.arange(1, n + 1, dtype=np.int64) * instr_stride,
    )


def single_branch_trace(outcomes: Sequence[bool],
                        instr_stride: int = 8) -> Trace:
    """A trace with one static branch executing the given outcomes."""
    return trace_from_outcomes({0: outcomes}, instr_stride=instr_stride)


def round_robin_trace(patterns: Sequence[BehaviorPattern], length: int,
                      instr_stride: int = 8, seed: int = 0,
                      name: str = "synthetic") -> Trace:
    """Branches 0..n-1 execute round-robin, outcomes drawn per pattern."""
    if not patterns:
        raise ValueError("need at least one pattern")
    rng = np.random.default_rng(seed)
    n_branches = len(patterns)
    branch_ids = np.tile(np.arange(n_branches, dtype=np.int32),
                         -(-length // n_branches))[:length]
    instrs = np.arange(1, length + 1, dtype=np.int64) * instr_stride
    taken = np.zeros(length, dtype=bool)
    for b, pattern in enumerate(patterns):
        idx = np.flatnonzero(branch_ids == b)
        exec_idx = np.arange(len(idx), dtype=np.int64)
        p = pattern.p_taken(exec_idx, instrs[idx])
        taken[idx] = rng.random(len(idx)) < p
    return Trace(name=name, input_name="synthetic",
                 branch_ids=branch_ids, taken=taken, instrs=instrs)


def train_then_flip_trace(n_branches: int = 8, flip_at: int = 4_096,
                          length: int | None = None,
                          instr_stride: int = 8, seed: int = 0,
                          name: str = "train-then-flip") -> Trace:
    """The adversarial detector workload: ``n_branches`` branches that
    are perfectly biased for their first ``flip_at`` executions each,
    then flip simultaneously (in per-branch execution count; they run
    round-robin, so also nearly simultaneously in program time).

    The default length runs each branch for ``3 * flip_at`` executions:
    one third training, two thirds misbehaving — enough for the
    controller to select every branch, suffer the flip, and evict.
    """
    if length is None:
        length = 3 * flip_at * n_branches
    patterns = [train_then_flip(flip_at) for _ in range(n_branches)]
    return round_robin_trace(patterns, length,
                             instr_stride=instr_stride, seed=seed,
                             name=name)


def slow_poison_trace(n_branches: int = 8, train_for: int = 4_096,
                      length: int | None = None,
                      misspec_increment: int = 50,
                      correct_decrement: int = 1,
                      margin: float = 0.9,
                      instr_stride: int = 8, seed: int = 0,
                      name: str = "slow-poison") -> Trace:
    """The stealthy adversarial workload: ``n_branches`` branches train
    perfectly biased for ``train_for`` executions each, then soften to
    a miss rate at ``margin`` × the eviction counter's break-even drift
    (see :func:`repro.trace.patterns.slow_poison`) — a misspeculation
    tax that slows the EVICT arc but does not prevent it: at the
    defaults under ``scaled_config``, ``slow_poison_trace(64, 4096)``
    evicted 128 of 256 branches over seeds 0-3 (median first EVICT at
    execution ~8,350).

    ``misspec_increment``/``correct_decrement`` should match the
    controller config under test so the tuned rate actually sits
    under *its* break-even drift.  The default length runs each branch for
    ``3 * train_for`` executions, mirroring
    :func:`train_then_flip_trace`.
    """
    if length is None:
        length = 3 * train_for * n_branches
    patterns = [slow_poison(train_for, misspec_increment,
                            correct_decrement, margin)
                for _ in range(n_branches)]
    return round_robin_trace(patterns, length,
                             instr_stride=instr_stride, seed=seed,
                             name=name)


def uniform_model(n_branches: int, p: float = 1.0,
                  name: str = "uniform") -> BenchmarkModel:
    """A one-region model where every branch has constant bias ``p``."""
    branches = tuple(
        StaticBranch(branch_id=i, pattern=ConstantBias(p))
        for i in range(n_branches))
    region = Region(region_id=0, branches=branches,
                    body_instructions=8 * n_branches)
    return BenchmarkModel(name=name, input_name="synthetic",
                          regions=(region,))
