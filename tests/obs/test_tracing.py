"""The transition trace ring: recording, sampling, narration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    ARC_CODE,
    ARC_ENDPOINTS,
    ARCS,
    TraceRecord,
    TransitionTrace,
    explain_records,
)
from repro.tenant.keys import mix64


def test_arc_tables_agree():
    assert ARCS == ("select", "reject", "evict", "revisit", "disable")
    assert all(ARCS[ARC_CODE[a]] == a for a in ARCS)
    assert set(ARC_ENDPOINTS) == set(ARCS)


def test_record_assigns_monotonic_seq_and_endpoints():
    trace = TransitionTrace(capacity=16)
    trace.record(7, "select", exec_index=100, instr=5000)
    trace.record(7, ARC_CODE["evict"], exec_index=300, instr=9000)
    a, b = trace.records()
    assert (a.seq, b.seq) == (0, 1)
    assert (a.from_state, a.to_state) == ("monitor", "biased")
    assert (b.from_state, b.to_state) == ("biased", "monitor")
    assert b.exec_index == 300 and b.instr == 9000


def test_ring_is_bounded_but_counters_are_not():
    trace = TransitionTrace(capacity=4)
    for i in range(10):
        trace.record(i, "evict", exec_index=i, instr=i)
    assert len(trace) == 4
    assert trace.total_recorded == 10
    assert [r.pc for r in trace.records()] == [6, 7, 8, 9]
    assert trace.arc_counts()["evict"] == 10


def test_sampling_thins_ring_not_counters():
    trace = TransitionTrace(capacity=1000, sample=4)
    for pc in range(200):
        trace.record(pc, "select", exec_index=1, instr=1)
    traced_pcs = {pc for pc in range(200) if mix64(pc) % 4 == 0}
    assert {r.pc for r in trace.records()} == traced_pcs
    assert 0 < len(traced_pcs) < 200
    assert trace.arc_counts()["select"] == 200   # counters see everything
    # The decision is deterministic and queryable.
    assert all(trace.traced(pc) for pc in traced_pcs)


def test_registry_counters_mirror_arc_counts():
    registry = MetricsRegistry()
    trace = TransitionTrace(capacity=8, registry=registry)
    trace.extend(np.array([(1, ARC_CODE["evict"], 10, 100),
                           (2, ARC_CODE["revisit"], 20, 200),
                           (2, ARC_CODE["evict"], 30, 300)]).T)
    fam = registry.get("repro_fsm_transitions_total")
    assert fam.labels(arc="evict").value == 2
    assert fam.labels(arc="revisit").value == 1
    assert fam.labels(arc="select").value == 0


def test_snapshot_doc_filters_and_roundtrips():
    trace = TransitionTrace(capacity=8)
    trace.record(1, "select", 1, 10)
    trace.record(2, "reject", 2, 20)
    trace.record(1, "evict", 3, 30)
    doc = trace.snapshot_doc()
    assert doc["kind"] == "repro.obs.trace"
    assert doc["capacity"] == 8 and doc["sample"] == 1
    assert [TraceRecord.from_dict(d) for d in doc["records"]] \
        == trace.records()
    assert [d["pc"] for d in trace.snapshot_doc(pc=1)["records"]] == [1, 1]
    assert [d["arc"] for d in trace.snapshot_doc(n=2)["records"]] \
        == ["reject", "evict"]


def test_explain_narrates_history():
    trace = TransitionTrace(capacity=8)
    trace.record(42, "select", 100, 1000)
    trace.record(42, "evict", 400, 9000)
    text = trace.explain(42)
    assert "pc 42: 2 transition(s)" in text
    assert "monitor -> biased" in text.replace("  ", " ") or "select" in text
    assert "speculation is currently OFF" in text


def test_explain_empty_and_sampled_out():
    trace = TransitionTrace(capacity=8)
    assert "no transitions in the ring" in trace.explain(5)
    sampled = TransitionTrace(capacity=8, sample=1_000_000)
    # Find a PC that is sampled out under this huge modulus.
    pc = next(p for p in range(100) if not sampled.traced(p))
    assert "not traced (sampled out)" in sampled.explain(pc)


def test_explain_records_verdicts():
    def rec(arc, seq):
        frm, to = ARC_ENDPOINTS[arc]
        return TraceRecord(seq=seq, pc=9, arc=arc, from_state=frm,
                           to_state=to, exec_index=seq, instr=seq)

    assert "currently ON" in explain_records([rec("select", 0)], 9)
    assert "classified unbiased" in explain_records([rec("reject", 0)], 9)
    assert "back in monitoring" in explain_records([rec("revisit", 0)], 9)
    assert "OFF" in explain_records([rec("disable", 0)], 9)


def test_validation():
    with pytest.raises(ValueError, match="capacity"):
        TransitionTrace(capacity=0)
    with pytest.raises(ValueError, match="sample"):
        TransitionTrace(sample=0)
