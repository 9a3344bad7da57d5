"""Misspeculation health detection: exact flip-onset/time-to-evict
tracking, sliding-window verdicts, and the train-then-flip acceptance
property (detector tte == arc-counter ground truth)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.detect import DetectorConfig, MisspecDetector
from repro.obs.tracing import ARC_CODE
from repro.serve.client import SpeculationClient, feed_trace
from repro.serve.events import EventBatch
from repro.serve.service import ServiceConfig, SpeculationService
from repro.tenant.keys import MAX_PC, pack_key
from repro.trace.synthetic import train_then_flip_trace

from tests.conftest import arc_blocks, summarize

SEL = ARC_CODE["select"]
EV = ARC_CODE["evict"]
#: A SELECT's deployed direction.
TAKEN, NOT_TAKEN = 1, 0


def _ones(n):
    return np.ones(n, dtype=bool)


def _zeros(n):
    return np.zeros(n, dtype=bool)


class _Feed:
    """A detector fed raw batches as the shard's per-key summaries,
    with each key's running execution count."""

    def __init__(self):
        self.det = MisspecDetector()
        self.counts = {}

    def batch(self, keys, taken):
        self.det.observe_batch(summarize(keys, taken, self.counts))

    def arcs(self, *arcs):
        """Arcs as :func:`~tests.conftest.arc_blocks` takes them (a
        SELECT carries its direction and in-apply onset)."""
        self.det.observe_transitions(*arc_blocks(*arcs))


class TestDetectorConfig:
    def test_defaults_valid(self):
        cfg = DetectorConfig()
        assert cfg.window_events == 8192
        assert cfg.degraded_misspec_rate < cfg.burst_misspec_rate

    @pytest.mark.parametrize("kwargs", [
        {"window_events": 0},
        {"min_window_events": 0},
        {"min_window_events": 9000},  # > window_events
        {"degraded_misspec_rate": 0.0},
        {"degraded_misspec_rate": 1.5},
        {"burst_misspec_rate": 0.05},  # < degraded
        {"burst_misspec_rate": 1.5},
        {"storm_evictions": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestFlipTracking:
    def test_dense_onset_and_time_to_evict(self):
        feed = _Feed()
        feed.batch(np.full(10, 5), _ones(10))             # execs 0..9
        feed.arcs((5, SEL, 9, TAKEN, -1))
        feed.batch(np.full(6, 5), _ones(6))               # 10..15: trained taken
        feed.batch(
            np.full(4, 5),
            np.array([True, False, False, False]))        # 16..19: onset 17
        feed.arcs((5, EV, 19))
        assert feed.det.time_to_evict() == {5: 2}

    def test_trained_not_taken_flips_on_taken(self):
        feed = _Feed()
        feed.arcs((7, SEL, 0, NOT_TAKEN, -1))
        feed.batch(np.full(8, 7), _zeros(8))              # 0..7: not-taken
        feed.batch(
            np.full(3, 7),
            np.array([False, True, True]))                # onset exec 9
        feed.arcs((7, EV, 14))
        assert feed.det.time_to_evict() == {7: 5}

    def test_onset_in_direction_establishing_batch(self):
        # The first post-select batch is scanned for flips against the
        # direction the SELECT deployed, however its outcomes split.
        feed = _Feed()
        feed.arcs((2, SEL, 0, NOT_TAKEN, -1))
        outcomes = np.array([False] * 2 + [True] * 6)     # onset exec 2
        feed.batch(np.full(8, 2), outcomes)
        feed.arcs((2, EV, 10))
        assert feed.det.time_to_evict() == {2: 8}

    def test_onset_in_the_select_apply(self):
        # A flip in the SELECT's own apply arrives with the SELECT; the
        # apply's summary (observed before its arcs) cannot carry it.
        feed = _Feed()
        feed.arcs((2, SEL, 3, TAKEN, 12), (2, EV, 15))
        assert feed.det.time_to_evict() == {2: 3}

    def test_evict_and_reselect_in_one_apply(self):
        # Arcs run in order: the EVICT closes the old episode with the
        # summary's onset, the SELECT opens a new one with its own.
        feed = _Feed()
        feed.batch(np.full(10, 4), _ones(10))             # execs 0..9
        feed.arcs((4, SEL, 9, TAKEN, -1))
        feed.batch(np.full(6, 4),
                   np.array([True] * 3 + [False] * 3))    # onset exec 13
        feed.arcs((4, EV, 15), (4, SEL, 25, NOT_TAKEN, 30), (4, EV, 34))
        assert feed.det.time_to_evict() == {4: 4}
        assert feed.det.health_doc()["time_to_evict"]["count"] == 2

    def test_interleaved_pcs_count_in_own_exec_timebase(self):
        feed = _Feed()
        feed.arcs((5, SEL, 0, TAKEN, -1))
        feed.batch(np.array([5, 9, 5]), _ones(3))         # pc5 execs 0..1
        # pc5 outcomes T, F, F at batch positions 1, 3, 5 → its execs
        # 2, 3, 4; the first flip is exec 3 regardless of pc9 noise.
        feed.batch(
            np.array([9, 5, 9, 5, 9, 5]),
            np.array([True, True, False, False, True, False]))
        feed.arcs((5, EV, 6))
        assert feed.det.time_to_evict() == {5: 3}

    def test_evict_without_flip_records_nothing(self):
        feed = _Feed()
        feed.arcs((4, SEL, 0, TAKEN, -1))
        feed.batch(np.full(16, 4), _ones(16))
        feed.arcs((4, EV, 15))
        assert feed.det.time_to_evict() == {}

    def test_packed_keys_leave_bare_pc_state_alone(self):
        feed = _Feed()
        feed.batch(np.full(8, 3), _ones(8))               # execs 0..7
        feed.arcs((3, SEL, 7, TAKEN, -1))
        feed.batch(np.full(4, 3), _ones(4))               # 8..11: taken
        # A packed (tenant << 32) | pc key with the same pc: pc 3's
        # deployed direction and exec count must survive it.
        big = (7 << 32) | 3
        feed.batch(np.full(5, big), _zeros(5))
        feed.batch(np.full(2, 3), _zeros(2))              # onset exec 12
        feed.arcs((3, EV, 15))
        assert feed.det.time_to_evict() == {3: 3}

    def test_sparse_keys_tracked_from_the_start(self):
        feed = _Feed()
        big = (9 << 32) | 42
        feed.arcs((big, SEL, 0, TAKEN, -1))
        feed.batch(np.full(6, big), _ones(6))             # 0..5: taken
        feed.batch(np.full(2, big),
                   np.array([False, False]))              # onset exec 6
        feed.arcs((big, EV, 9))
        assert feed.det.time_to_evict() == {big: 3}

    def test_onset_reads_the_summary_exec_count(self):
        # The onset is the summary's exec count plus the flip's offset:
        # a detector that never saw a key's earlier executions (one
        # built after a restore) still lands in the row's timebase.
        det = MisspecDetector()
        det.observe_transitions(*arc_blocks((6, SEL, 4999, TAKEN, -1)))
        det.observe_batch(summarize(np.full(3, 6), _ones(3), {6: 5000}))
        det.observe_batch(summarize(np.full(4, 6),
                                    np.array([True, True, False, True]),
                                    {6: 5003}))           # onset 5005
        det.observe_transitions(*arc_blocks((6, EV, 5011)))
        assert det.time_to_evict() == {6: 6}

    def test_reads_the_shards_summary_rows(self):
        from repro.obs import detect
        from repro.serve.colpath import SUMMARY_ROWS

        names = ("key", "exec_before", "first_taken", "first_not_taken")
        assert [getattr(detect, f"_{name.upper()}") for name in names] == [
            SUMMARY_ROWS.index(name) for name in names]

    def test_empty_batch_is_a_noop(self):
        det = MisspecDetector()
        det.observe_transitions(*arc_blocks((1, SEL, 0, TAKEN, -1)))
        det.observe_batch(np.empty((6, 0), dtype=np.int64))
        assert det.health_doc()["events_observed"] == 0


class TestVerdicts:
    CFG = DetectorConfig(window_events=100, min_window_events=10)

    def test_rate_thresholds_and_latching(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(50, 49, 1, 0, 400)
        assert det.verdict == "ok"
        det.observe_apply(50, 44, 6, 400, 800)            # window rate 0.07
        assert det.verdict == "ok"
        det.observe_apply(50, 40, 10, 800, 1200)          # trims to 0.16
        assert det.verdict == "degraded"
        det.observe_apply(50, 25, 25, 1200, 1600)         # 0.35
        assert det.verdict == "misspec-burst"
        # Clean traffic recovers the live verdict; the peak latches.
        for i in range(4):
            det.observe_apply(50, 50, 0, 1600 + 400 * i, 2000 + 400 * i)
        assert det.verdict == "ok"
        assert det.peak_verdict == "misspec-burst"
        doc = det.health_doc()
        assert doc["bursts"] == 1
        # A second burst increments the counter again.
        det.observe_apply(100, 50, 50, 4000, 4400)
        assert det.verdict == "misspec-burst"
        assert det.health_doc()["bursts"] == 2

    def test_window_below_minimum_reports_no_rate(self):
        det = MisspecDetector(DetectorConfig(window_events=100,
                                             min_window_events=100))
        det.observe_apply(50, 0, 50, 0, 400)              # all misspeculated
        assert det.verdict == "ok"
        assert det.health_doc()["window"]["misspec_rate"] == 0.0

    def test_window_trims_to_configured_events(self):
        det = MisspecDetector(self.CFG)
        for i in range(10):
            det.observe_apply(50, 50, 0, i * 400, (i + 1) * 400)
        win = det.health_doc()["window"]
        assert win["events"] == 100
        assert det.health_doc()["events_observed"] == 500

    def test_eviction_storm_trips_and_expires(self):
        det = MisspecDetector(self.CFG)
        for i in range(4):
            det.observe_apply(50, 50, 0, i * 400, (i + 1) * 400)
        marks = [(pc, EV, 0) for pc in (1, 2, 3)]
        det.observe_transitions(*arc_blocks(*marks))
        assert det.verdict == "misspec-burst"             # storm, low rate
        assert det.health_doc()["window"]["evictions"] == 3
        det.observe_apply(50, 50, 0, 1600, 2000)          # floor 150 < 200
        assert det.verdict == "misspec-burst"
        det.observe_apply(50, 50, 0, 2000, 2400)          # floor 200: expire
        assert det.verdict == "ok"
        assert det.peak_verdict == "misspec-burst"

    def test_fewer_evictions_than_storm_stay_ok(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(50, 50, 0, 0, 400)
        det.observe_transitions(*arc_blocks((1, EV, 0), (2, EV, 0)))
        assert det.verdict == "ok"

    def test_mpki_uses_window_instruction_span(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(100, 90, 10, 0, 10_000)
        assert det.health_doc()["window"]["mpki"] == pytest.approx(1.0)


def test_health_doc_shape_and_thresholds():
    cfg = DetectorConfig(window_events=100, min_window_events=10,
                         storm_evictions=5)
    doc = MisspecDetector(cfg).health_doc()
    assert doc["kind"] == "repro.obs.health"
    assert doc["verdict"] == "ok" and doc["peak_verdict"] == "ok"
    assert set(doc["window"]) == {"events", "misspeculated",
                                  "misspec_rate", "mpki", "evictions",
                                  "instrs"}
    assert doc["thresholds"]["window_events"] == 100
    assert doc["thresholds"]["storm_evictions"] == 5
    assert doc["time_to_evict"] == {"count": 0, "mean": 0.0, "last": {}}


#: Client batch sizes the detector must be exact at, and the shard
#: modes (in process, one worker process per shard).
BATCH_EVENTS = (256, 4096, 32768)
MODES = {"in-process": 0, "workers": 2}


@pytest.mark.parametrize("workers", MODES.values(), ids=MODES.keys())
@pytest.mark.parametrize("batch_events", BATCH_EVENTS)
def test_train_then_flip_acceptance(bench_config, batch_events, workers):
    """The headline property: on the adversarial train-then-flip trace
    the detector (a) reports a misspeculation burst and (b) reproduces
    per-PC time-to-evict exactly from the arc-counter ground truth —
    every branch flips at execution ``flip_at``, so tte must equal
    ``evict.exec_index - flip_at`` in each branch's own timebase — at
    any apply size: a 32,768-event batch holds a branch's SELECT, its
    flip and its EVICT in one apply."""
    flip_at = 4096
    trace = train_then_flip_trace(n_branches=8, flip_at=flip_at, seed=0)

    async def run():
        async with SpeculationService(
                bench_config,
                ServiceConfig(n_shards=2, workers=workers)) as svc:
            await feed_trace(svc, trace, batch_events=batch_events)
            await svc.drain()
            truth = {r.pc: r.exec_index - flip_at
                     for r in svc.trace.records() if r.arc == "evict"}
            return svc.detector, truth

    detector, truth = asyncio.run(run())
    assert set(truth) == set(range(8))                    # all evicted
    assert detector.time_to_evict() == truth
    assert detector.peak_verdict == "misspec-burst"
    doc = detector.health_doc()
    assert doc["bursts"] >= 1
    assert doc["time_to_evict"]["count"] == 8
    assert doc["time_to_evict"]["mean"] == pytest.approx(
        sum(truth.values()) / 8)


@pytest.mark.parametrize("workers", MODES.values(), ids=MODES.keys())
@pytest.mark.parametrize("batch_events", BATCH_EVENTS)
@pytest.mark.parametrize("via", ["load_snapshot", "recover_service"])
def test_time_to_evict_is_exact_after_a_restore(bench_config, tmp_path,
                                                via, batch_events, workers):
    """A service restored from a snapshot taken after 256 executions per
    branch (before any SELECT) still reports each branch's exact
    time-to-evict, at any apply size and in either shard mode: the
    onset's exec count comes from the restored row, not from a count
    the new detector would restart at zero."""
    from repro.serve.snapshot import load_snapshot
    from repro.wal.recovery import recover_service

    flip_at = 4096
    trace = train_then_flip_trace(n_branches=8, flip_at=flip_at, seed=0)
    snap = tmp_path / "early.json.gz"

    async def first():
        async with SpeculationService(bench_config,
                                      ServiceConfig(n_shards=2)) as svc:
            await feed_trace(svc, trace, batch_events=256,
                             max_events=8 * 256)
            await svc.snapshot(snap)
            assert svc.detector.time_to_evict() == {}

    async def rest(svc):
        async with svc:
            # The rest of the trace, cut at the tested batch size.
            client, seq = SpeculationClient(svc), svc.last_seq
            for lo in range(8 * 256, len(trace), batch_events):
                seq, hi = seq + 1, lo + batch_events
                await client.submit_burst(EventBatch(
                    seq=seq, pcs=trace.branch_ids[lo:hi],
                    taken=trace.taken[lo:hi], instrs=trace.instrs[lo:hi]))
            await svc.drain()
            truth = {r.pc: r.exec_index - flip_at
                     for r in svc.trace.records() if r.arc == "evict"}
            return svc.detector.time_to_evict(), truth

    asyncio.run(first())
    if via == "load_snapshot":
        service = load_snapshot(snap, workers=workers)
    else:
        service, _report = recover_service(None, snapshot=snap,
                                           workers=workers)
    tte, truth = asyncio.run(rest(service))
    assert set(truth) == set(range(8))
    assert tte == truth
    assert set(truth.values()) == {9}


# -- model check: the summary-fed detector against a plain-dict model ------

#: Bare PCs and packed keys of three tenants, interleaved so that keys
#: first seen in any order land below, between and above indexed ones.
KEY_POOL = (0, 3, 64, 4_000, pack_key(1, 5), pack_key(1, 2),
            pack_key(2, 0), pack_key(2, 9), pack_key(3, 7),
            pack_key(1, MAX_PC))


class _DetectorModel:
    """Per-key exec counts, deployed direction, first-flip onset and
    time-to-evict, kept in dicts over pool indices."""

    def __init__(self):
        self.count = {}
        self.deployed = {}           # key -> [direction, onset]
        self.tte = {}
        self.tte_sum = 0
        self.tte_count = 0

    def batch(self, keys, taken):
        for key, state in self.deployed.items():
            outs = [t for k, t in zip(keys, taken) if k == key]
            flips = [i for i, t in enumerate(outs) if t != state[0]]
            if state[1] is None and flips:
                state[1] = self.count.get(key, 0) + flips[0]
        for key in keys:
            self.count[key] = self.count.get(key, 0) + 1

    def arc(self, key, arc, exec_index, direction=None, onset=-1):
        if arc == SEL:
            self.deployed[key] = [bool(direction),
                                  onset if onset >= 0 else None]
            return
        state = self.deployed.pop(key, None)
        if state is not None and state[1] is not None:
            tte = exec_index - state[1]
            if tte >= 0:
                self.tte[key] = tte
                self.tte_sum += tte
                self.tte_count += 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_detector_matches_dict_model(data):
    """Random batches (as per-key summaries with running counts) and
    SELECT/EVICT arcs (a SELECT with a direction and maybe an in-apply
    onset) over a mixed bare/packed key pool match a plain-dict model
    after every step — in the mixed key space, with every key a bare
    PC and with every key moved into tenant 1."""
    spaces = {
        "mixed": KEY_POOL,
        "bare": tuple(range(len(KEY_POOL))),
        "tenant1": tuple(pack_key(1, i) for i in range(len(KEY_POOL))),
    }
    dets = {name: MisspecDetector() for name in spaces}
    counts = {name: {} for name in spaces}
    model = _DetectorModel()
    idx = st.integers(0, len(KEY_POOL) - 1)
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        if data.draw(st.booleans(), label="is_batch"):
            events = data.draw(st.lists(st.tuples(idx, st.booleans()),
                                        min_size=1, max_size=12))
            keys = [k for k, _ in events]
            taken = np.array([t for _, t in events], dtype=bool)
            model.batch(keys, taken.tolist())
            for name, space in spaces.items():
                dets[name].observe_batch(summarize(
                    [space[k] for k in keys], taken, counts[name]))
        else:
            arcs = data.draw(st.lists(
                st.tuples(idx, st.sampled_from((SEL, EV)),
                          st.integers(-2, 6), st.booleans(),
                          st.integers(-1, 3)), min_size=1, max_size=4))
            stamped = []
            for k, arc, offset, direction, later in arcs:
                at = model.count.get(k, 0) + offset
                if arc == SEL:
                    onset = at + 1 + later if later >= 0 else -1
                    stamped.append((k, arc, at, int(direction), onset))
                else:
                    stamped.append((k, arc, at))
                model.arc(*stamped[-1])
            for name, space in spaces.items():
                dets[name].observe_transitions(*arc_blocks(
                    *[(space[k], *rest) for k, *rest in stamped]))
        mean = (round(model.tte_sum / model.tte_count, 3)
                if model.tte_count else 0.0)
        for name, space in spaces.items():
            det = dets[name]
            assert det.time_to_evict() == {
                space[k]: tte for k, tte in model.tte.items()}, name
            doc = det.health_doc()
            assert doc["deployed_pcs"] == len(model.deployed), name
            assert doc["time_to_evict"] == {
                "count": model.tte_count, "mean": mean,
                "last": {str(space[k]): tte
                         for k, tte in model.tte.items()}}, name
