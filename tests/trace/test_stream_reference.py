"""``generate_trace`` and ``Trace.groups`` against the per-visit loop.

The array generator must reproduce, byte for byte, the per-visit loop
it replaced: the same branch ids, outcomes and instruction stamps
(values and dtypes), the same grouping, and the generator left in the
same state.  :func:`reference_trace` keeps that loop as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.model import BenchmarkModel, Region, StaticBranch
from repro.trace.patterns import ConstantBias, StepChange
from repro.trace.spec2000 import BENCHMARK_NAMES, BENCHMARKS, build_model
from repro.trace.stream import Trace, _region_slot_gaps, generate_trace

#: Region visits the reference loop draws per round.
VISIT_BATCH = 1024


def reference_groups(branch_ids):
    """``(unique_ids, order, starts, counts)`` by a stable argsort of
    the ids as they are and ``np.unique`` over the sorted ids."""
    order = np.argsort(branch_ids, kind="stable")
    unique_ids, starts, counts = np.unique(
        branch_ids[order], return_index=True, return_counts=True)
    return unique_ids, order, starts, counts


def _reference_visits(model, length, rng):
    """Per-visit id and gap chunks, one region visit at a time, up to
    the visit that reaches ``length`` events."""
    regions = [r for r in model.regions if r.weight > 0.0]
    weights = np.array([r.weight for r in regions], dtype=np.float64)
    weights /= weights.sum()
    slot_ids = [np.array([b.branch_id for b in r.branches], dtype=np.int32)
                for r in regions]
    slot_gaps = [_region_slot_gaps(r) for r in regions]
    id_chunks, gap_chunks = [], []
    emitted = 0
    while emitted < length:
        region_draws = rng.choice(len(regions), size=VISIT_BATCH,
                                  p=weights)
        for ridx in region_draws:
            region = regions[ridx]
            trips = int(rng.geometric(1.0 / region.mean_trip_count))
            ids = np.tile(slot_ids[ridx], trips)
            id_chunks.append(ids)
            gap_chunks.append(np.tile(slot_gaps[ridx], trips))
            emitted += len(ids)
            if emitted >= length:
                break
    return id_chunks, gap_chunks


def reference_trace(model, length, rng):
    """The per-visit generation loop ``generate_trace`` replaced."""
    id_chunks, gap_chunks = _reference_visits(model, length, rng)
    branch_ids = np.concatenate(id_chunks)[:length]
    instrs = np.cumsum(np.concatenate(gap_chunks)[:length])
    taken = np.zeros(length, dtype=bool)
    unique_ids, order, starts, counts = reference_groups(branch_ids)
    patterns = {b.branch_id: b.pattern for b in model.static_branches}
    for i, branch_id in enumerate(unique_ids):
        idx = order[starts[i]:starts[i] + counts[i]]
        exec_idx = np.arange(len(idx), dtype=np.int64)
        p = patterns[int(branch_id)].p_taken(exec_idx, instrs[idx])
        taken[idx] = rng.random(len(idx)) < p
    return branch_ids, taken, instrs


def visit_ends(model, length, seed):
    """Event offsets at which the reference loop's visits end."""
    ids, _gaps = _reference_visits(model, length, np.random.default_rng(seed))
    return np.cumsum([len(chunk) for chunk in ids])


def _same(a, b):
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(model, length, seed):
    ref_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    branch_ids, taken, instrs = reference_trace(model, length, ref_rng)
    trace = generate_trace(model, length, rng)
    _same(trace.branch_ids, branch_ids)
    _same(trace.taken, taken)
    _same(trace.instrs, instrs)
    # The caller's generator continues from the same point.
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    groups = trace.groups()
    for got, want in zip((groups.unique_ids, groups.order, groups.starts,
                          groups.counts), reference_groups(branch_ids)):
        _same(got, want)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("which", ["profile", "eval"])
def test_spec_models_match_reference(name, which):
    spec = BENCHMARKS[name]
    input_name = spec.profile_input if which == "profile" else spec.eval_input
    model = build_model(spec, input_name)
    seed = 2 * BENCHMARK_NAMES.index(name) + (which == "eval")
    assert_matches_reference(model, 120_001, seed=seed)


def _two_region_model():
    r0 = Region(0, (StaticBranch(0, ConstantBias(0.7)),
                    StaticBranch(1, StepChange(0.1, 0.9, 50)),
                    StaticBranch(2, ConstantBias(0.5))),
                body_instructions=17, mean_trip_count=6.0, weight=3.0)
    r1 = Region(1, (StaticBranch(3, ConstantBias(0.5)),),
                body_instructions=8, mean_trip_count=2.0, weight=1.0)
    return BenchmarkModel("two", "in", (r0, r1))


def test_single_event():
    assert_matches_reference(_two_region_model(), 1, seed=3)
    assert_matches_reference(build_model("vortex"), 1, seed=3)


@pytest.mark.parametrize("visit", [
    VISIT_BATCH - 1,        # completes one visit short of a whole batch
    VISIT_BATCH,            # completes exactly at the batch's last visit
    VISIT_BATCH + 1,        # completes at the next batch's first visit
    VISIT_BATCH + 500,
])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_ends_mid_visit_and_on_visit_boundaries(visit, shift):
    model = _two_region_model()
    ends = visit_ends(model, 40_000, seed=11)
    # shift 0 ends exactly on the end of visit ``visit`` (1-based);
    # -1 one event inside it; +1 one event into the next visit.
    assert_matches_reference(model, int(ends[visit - 1]) + shift, seed=11)


_patterns = st.one_of(
    st.floats(0.0, 1.0).map(ConstantBias),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
              st.integers(1, 200)).map(lambda t: StepChange(*t)))


@st.composite
def small_models(draw):
    n_regions = draw(st.integers(1, 4))
    regions, next_id = [], 0
    for r in range(n_regions):
        n = draw(st.integers(1, 5))
        branches = tuple(StaticBranch(next_id + k, draw(_patterns))
                         for k in range(n))
        next_id += n + draw(st.integers(0, 300))   # sparse ids too
        regions.append(Region(
            r, branches,
            body_instructions=draw(st.integers(n, 4 * n + 40)),
            mean_trip_count=draw(st.floats(1.0, 40.0)),
            weight=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))))
    if all(r.weight == 0.0 for r in regions):
        regions[0] = Region(0, regions[0].branches,
                            regions[0].body_instructions,
                            regions[0].mean_trip_count, 1.0)
    return BenchmarkModel("small", "in", tuple(regions))


@settings(max_examples=60, deadline=None)
@given(model=small_models(), length=st.integers(1, 30_000),
       seed=st.integers(0, 2**32 - 1))
def test_small_models_match_reference(model, length, seed):
    assert_matches_reference(model, length, seed)


@pytest.mark.parametrize("values", [
    [0, 3, 255],
    [254, 255, 256],
    [0, 65_535],
    [65_534, 65_535, 65_536],
    [7, 2**31 - 1],
    [-1, 0, 255],
    [-129, 40_000],
])
def test_groups_equal_stable_argsort_at_dtype_boundaries(values):
    rng = np.random.default_rng(len(values))
    ids = rng.choice(np.array(values, dtype=np.int32), size=5_000)
    trace = Trace("t", "i", branch_ids=ids,
                  taken=np.zeros(len(ids), dtype=bool),
                  instrs=np.arange(1, len(ids) + 1, dtype=np.int64))
    groups = trace.groups()
    for got, want in zip((groups.unique_ids, groups.order, groups.starts,
                          groups.counts), reference_groups(ids)):
        _same(got, want)
    _same(groups.order, np.argsort(ids, kind="stable"))
