"""Prometheus text exposition: rendering and the strict parser."""

from __future__ import annotations

import pytest

from repro.obs.expo import parse_exposition, render_json, render_prometheus
from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("req_total", "requests seen").inc(3)
    fam = r.gauge("depth_events", "queue depth", labelnames=("shard",))
    fam.labels("0").set(10)
    fam.labels("1").set(0)
    h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    return r


def test_render_has_help_type_and_samples():
    text = render_prometheus(_registry())
    assert "# HELP req_total requests seen\n" in text
    assert "# TYPE req_total counter\n" in text
    assert "req_total 3\n" in text
    assert 'depth_events{shard="0"} 10\n' in text
    assert 'lat_seconds_bucket{le="0.1"} 1\n' in text
    assert 'lat_seconds_bucket{le="1"} 2\n' in text
    assert 'lat_seconds_bucket{le="+Inf"} 2\n' in text
    assert "lat_seconds_sum 0.55\n" in text
    assert "lat_seconds_count 2\n" in text


def test_roundtrip_through_parser():
    families = parse_exposition(render_prometheus(_registry()))
    assert families["req_total"] == [({}, 3.0)]
    assert ({"shard": "0"}, 10.0) in families["depth_events"]
    # Histogram series fold into one family keyed by the base name.
    lat = families["lat_seconds"]
    assert ({"le": "+Inf"}, 2.0) in lat
    assert ({}, 0.55) in lat      # the _sum sample
    assert "lat_seconds_bucket" not in families


def test_label_escaping_roundtrips():
    r = MetricsRegistry()
    fam = r.counter("odd_total", "strange labels", labelnames=("name",))
    fam.labels('with "quotes" and \\slashes\\').inc()
    text = render_prometheus(r)
    families = parse_exposition(text)
    ((labels, value),) = families["odd_total"]
    assert labels == {"name": r'with \"quotes\" and \\slashes\\'}
    assert value == 1.0


def test_parser_rejects_malformed_lines():
    with pytest.raises(ValueError, match="not a valid sample"):
        parse_exposition("this is { not exposition\n")
    with pytest.raises(ValueError, match="malformed labels"):
        parse_exposition('x{bad labels} 1\n')
    with pytest.raises(ValueError):
        parse_exposition("x notanumber\n")


def test_parser_accepts_inf_and_blank_lines():
    families = parse_exposition('x_bucket{le="+Inf"} 4\n\ny +Inf\n')
    assert families["x_bucket"] == [({"le": "+Inf"}, 4.0)]
    assert families["y"] == [({}, float("inf"))]


def test_render_json_kind():
    doc = render_json(_registry())
    assert doc["kind"] == "repro.obs.metrics"
    assert doc["metrics"]["req_total"]["values"][0]["value"] == 3


def test_span_and_health_families_roundtrip():
    """The families the span recorder and misspeculation detector
    register survive a render → parse round-trip with their labelled
    series intact."""
    import numpy as np

    from repro.obs.detect import DetectorConfig, MisspecDetector
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracing import ARC_CODE
    from tests.conftest import arc_blocks, summarize

    r = MetricsRegistry()
    spans = SpanRecorder(capacity=8, registry=r)
    spans.begin(seq=0, events=32, parts=1, t_submit=0.0,
                enqueue_seconds=0.0005, wal_seconds=0.001)
    spans.note_applied(0, queue_wait=0.002, apply=0.004, t_now=0.05)
    det = MisspecDetector(DetectorConfig(window_events=100,
                                         min_window_events=10),
                          registry=r)
    det.observe_apply(50, 10, 40, 0, 400)             # burst by rate
    det.observe_transitions(*arc_blocks((3, ARC_CODE["select"], 0, 1, -1)))
    counts: dict[int, int] = {}
    det.observe_batch(summarize(np.full(4, 3), np.ones(4, dtype=bool),
                                counts))
    det.observe_batch(summarize(np.full(2, 3), np.zeros(2, dtype=bool),
                                counts))
    det.observe_transitions(*arc_blocks((3, ARC_CODE["evict"], 5)))

    families = parse_exposition(render_prometheus(r))
    assert families["repro_spans_total"] == [({}, 1.0)]
    stage = families["repro_span_stage_seconds"]
    seen = {labels["stage"] for labels, _ in stage if "stage" in labels}
    assert {"enqueue", "wal_append", "queue_wait", "apply"} <= seen
    assert ({"stage": "apply", "le": "+Inf"}, 1.0) in stage
    assert ({}, 1.0) in families["repro_span_batch_seconds"]  # _count
    assert families["repro_detect_verdict"] == [({}, 2.0)]
    assert families["repro_detect_window_misspec_rate"] == [({}, 0.8)]
    assert families["repro_detect_bursts_total"] == [({}, 1.0)]
    assert families["repro_detect_deployed_pcs"] == [({}, 0.0)]
    tte = families["repro_detect_time_to_evict_events"]
    assert ({"le": "+Inf"}, 1.0) in tte
    assert ({}, 1.0) in tte                           # tte sum == 1.0
