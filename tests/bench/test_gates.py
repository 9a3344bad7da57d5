"""Gate engine: floor/ceil/exact shapes, the baseline tolerance band,
cpu-gated skips, overrides — and the doctored-document negative tests
for every committed CI gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from bench.legacy_docs import (
    colpath_doc,
    obs_doc,
    repl_doc,
    serve_doc,
    wal_doc,
)
from repro.bench import cli, schema
from repro.bench.gates import ceil, evaluate, exact, floor
from repro.bench.registry import Metric, eps, flag, fraction, ratio


# -- unit tests against evaluate() ------------------------------------------

def test_floor_pass_and_fail():
    gates = (floor("speedup", 1.8, label="scaling floor"),)
    ok = evaluate("serve", gates, {"speedup": ratio(1.9)})
    assert ok.ok and ok.checked == 1
    bad = evaluate("serve", gates, {"speedup": ratio(1.2)})
    assert not bad.ok
    assert "scaling floor: 1.20 < required 1.80" in bad.failures[0]


def test_ceil_pass_and_fail():
    gates = (ceil("overhead", 0.10, label="obs overhead"),)
    assert evaluate("obs", gates, {"overhead": fraction(0.08)}).ok
    bad = evaluate("obs", gates, {"overhead": fraction(0.28)})
    assert "obs overhead: 28.0% > allowed 10.0%" in bad.failures[0]


def test_missing_gated_metric_fails():
    report = evaluate("serve", (floor("speedup", 1.8),), {})
    assert not report.ok
    assert "missing metric 'speedup'" in report.failures[0]


def test_exact_checks_both_documents():
    gates = (exact(),)
    current = {"exact": flag(True)}
    assert evaluate("wal", gates, current, {"exact": flag(True)}).ok
    bad_base = evaluate("wal", gates, current, {"exact": flag(False)})
    assert any("baseline run diverged" in f for f in bad_base.failures)
    bad_cur = evaluate("wal", gates, {"exact": flag(False)},
                       {"exact": flag(True)})
    assert any("current run diverged" in f for f in bad_cur.failures)


def test_band_catches_throughput_regression():
    baseline = {"ingest_eps": eps(2_000_000.0)}
    ok = evaluate("wal", (), {"ingest_eps": eps(1_200_000.0)}, baseline,
                  tolerance=0.5)
    assert ok.ok  # 1.2M >= 0.5 * 2.0M
    bad = evaluate("wal", (), {"ingest_eps": eps(900_000.0)}, baseline,
                   tolerance=0.5)
    assert not bad.ok
    assert "tolerance band: ingest_eps" in bad.failures[0]


def test_band_skips_unbanded_metrics():
    baseline = {"speedup": ratio(100.0)}  # not banded: gated directly
    assert evaluate("serve", (), {"speedup": ratio(1.0)}, baseline).ok


def test_band_missing_current_point_fails():
    baseline = {"ingest_eps": eps(2_000_000.0)}
    report = evaluate("wal", (), {}, baseline)
    assert "current run is missing the ingest_eps point" \
        in report.failures[0]


def test_band_lower_is_better_direction():
    baseline = {"p99_latency": Metric(10.0, "s", "lower", banded=True)}
    ok = evaluate("x", (), {"p99_latency": Metric(15.0, "s", "lower")},
                  baseline, tolerance=0.5)
    assert ok.ok  # 15 <= 10 / 0.5
    bad = evaluate("x", (), {"p99_latency": Metric(25.0, "s", "lower")},
                   baseline, tolerance=0.5)
    assert not bad.ok


def test_cpu_gated_check_skips_with_note():
    gates = (floor("speedup", 1.8, label="scaling floor", min_cpus=4),)
    report = evaluate("serve", gates, {"speedup": ratio(0.9)},
                      host_cpus=2)
    assert report.ok and report.checked == 0
    assert "skipping scaling floor" in report.notes[0]
    assert "host has 2 cpu(s)" in report.notes[0]


def test_cpu_gated_check_fails_under_strict():
    gates = (floor("speedup", 1.8, label="scaling floor", min_cpus=4),)
    report = evaluate("serve", gates, {"speedup": ratio(0.9)},
                      host_cpus=2, strict=True)
    assert not report.ok
    assert "--strict" in report.failures[0]


def test_min_cpus_override_replaces_gate_requirement():
    gates = (floor("speedup", 1.8, min_cpus=4),)
    report = evaluate("serve", gates, {"speedup": ratio(1.9)},
                      host_cpus=2, min_cpus=2)
    assert report.ok and report.checked == 1


def test_param_override_replaces_limit():
    gates = (floor("speedup", 1.8, param="min_speedup"),)
    current = {"speedup": ratio(1.5)}
    assert not evaluate("serve", gates, current).ok
    assert evaluate("serve", gates, current,
                    overrides={"min_speedup": 1.4}).ok


def test_tolerance_override():
    baseline = {"ingest_eps": eps(2_000_000.0)}
    current = {"ingest_eps": eps(1_200_000.0)}
    assert evaluate("wal", (), current, baseline, tolerance=0.5).ok
    assert not evaluate("wal", (), current, baseline, tolerance=0.5,
                        overrides={"tolerance": 0.9}).ok


# -- negative tests: doctored regressing documents must fail the CLI --------
#
# Each case regresses the *underlying* figures of one committed CI gate
# while doctoring the stored derived ratio to a healthy value.  The
# engine recomputes ratios during extraction, so the doctored field
# must not rescue the document.

def _doctored_serve():
    doc = serve_doc(single=2_500_000.0, eps4=3_000_000.0)  # 1.2x < 1.8x
    doc["speedup_at_max_workers"] = 2.0
    return doc


def _doctored_wal():
    doc = wal_doc(baseline=2_500_000.0, batch=1_500_000.0)  # 40% > 15%
    doc["batch_overhead"] = 0.05
    return doc


def _doctored_obs():
    doc = obs_doc(baseline=2_500_000.0, obs=1_800_000.0)  # 28% > 10%
    doc["overhead"] = 0.05
    return doc


def _doctored_colpath_wide():
    doc = colpath_doc(wide_speedup=1.5)  # < 2.5x floor
    doc["wide_speedup"] = 4.0
    return doc


def _doctored_colpath_narrow():
    doc = colpath_doc(narrow_ratio=0.5)  # < 0.9x floor
    doc["narrow_ratio"] = 1.0
    return doc


def _doctored_colpath_evict():
    doc = colpath_doc(evict_speedup=1.2)  # < 2.0x floor
    doc["evict_speedup"] = 8.0
    return doc


def _doctored_repl():
    doc = repl_doc(baseline=2_500_000.0, repl=1_500_000.0)  # 40% > 15%
    doc["repl_overhead"] = 0.05
    return doc


DOCTORED_CASES = [
    ("serve", serve_doc, _doctored_serve, "scaling floor"),
    ("wal", wal_doc, _doctored_wal, "wal overhead"),
    ("obs", obs_doc, _doctored_obs, "obs overhead"),
    ("colpath", colpath_doc, _doctored_colpath_wide, "columnar floor"),
    ("colpath", colpath_doc, _doctored_colpath_narrow,
     "narrow regression"),
    ("colpath", colpath_doc, _doctored_colpath_evict,
     "evict-heavy floor"),
    ("repl", repl_doc, _doctored_repl, "replication overhead"),
]


@pytest.mark.parametrize(
    "name, healthy, doctored, expected",
    DOCTORED_CASES,
    ids=[case[3].replace(" ", "-") for case in DOCTORED_CASES])
def test_doctored_regression_fails_gate(name, healthy, doctored,
                                        expected, write_doc, capsys):
    baseline = write_doc(healthy(), "baseline.json")
    current = write_doc(doctored(), "current.json")
    assert cli.main(["gate", baseline, current]) == 1
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, healthy",
    [(case[0], case[1]) for case in DOCTORED_CASES[:4]]
    + [("repl", repl_doc)],
    ids=["serve", "wal", "obs", "colpath", "repl"])
def test_healthy_document_passes_gate(name, healthy, write_doc, capsys):
    baseline = write_doc(healthy(), "baseline.json")
    current = write_doc(healthy(), "current.json")
    assert cli.main(["gate", baseline, current]) == 0
    assert "bench gate: OK" in capsys.readouterr().out


def test_inexact_document_fails_gate(write_doc, capsys):
    baseline = write_doc(wal_doc(), "baseline.json")
    current = write_doc(wal_doc(exact=False), "current.json")
    assert cli.main(["gate", baseline, current]) == 1
    assert "diverged from the reference engine" \
        in capsys.readouterr().err


# -- historical flag sets and document formats through `gate` ---------------

def test_historical_serve_invocation_passes(write_doc, capsys):
    """The exact serve flag set CI used before the unified runner."""
    baseline = write_doc(serve_doc(), "BENCH_serve.json")
    current = write_doc(serve_doc(), "BENCH_serve.current.json")
    rc = cli.main(["gate", baseline, current, "--min-speedup", "1.8",
                   "--tolerance", "0.4", "--min-cpus", "4", "--strict"])
    assert rc == 0
    assert "bench gate: OK" in capsys.readouterr().out


def test_regression_still_exits_nonzero(write_doc, capsys):
    baseline = write_doc(serve_doc(), "BENCH_serve.json")
    current = write_doc(serve_doc(eps4=3_000_000.0),  # 1.2x < 1.8x
                        "BENCH_serve.current.json")
    rc = cli.main(["gate", baseline, current, "--min-speedup", "1.8",
                   "--tolerance", "0.4"])
    assert rc == 1
    assert "scaling floor" in capsys.readouterr().err


def test_wal_flags_still_work(write_doc, capsys):
    baseline = write_doc(wal_doc(), "BENCH_wal.json")
    current = write_doc(wal_doc(batch=1_500_000.0),  # 40% overhead
                        "BENCH_wal.current.json")
    assert cli.main(["gate", baseline, current,
                     "--max-wal-overhead", "0.15",
                     "--tolerance", "0.4"]) == 1
    assert "wal overhead" in capsys.readouterr().err
    relaxed = cli.main(["gate", baseline, current,
                        "--max-wal-overhead", "0.5", "--tolerance", "0.4"])
    assert relaxed == 0


def test_kind_mismatch_rejected(write_doc):
    baseline = write_doc(serve_doc(), "BENCH_serve.json")
    current = write_doc(wal_doc(), "BENCH_wal.current.json")
    with pytest.raises(SystemExit, match="mismatch"):
        cli.main(["gate", baseline, current])


def test_new_format_baseline_old_format_current(write_doc, tmp_path,
                                                capsys):
    """A migrated (unified) committed baseline gates an old-format
    current file, and vice versa."""
    unified = schema.wrap_legacy(serve_doc())
    new_path = tmp_path / "BENCH_serve.json"
    schema.dump_document(unified, str(new_path))
    old_path = write_doc(serve_doc(), "BENCH_serve.current.json")

    assert cli.main(["gate", str(new_path), old_path,
                     "--min-speedup", "1.8"]) == 0
    assert cli.main(["gate", old_path, str(new_path),
                     "--min-speedup", "1.8"]) == 0
    assert "bench gate: OK" in capsys.readouterr().out


def test_committed_baselines_self_gate():
    """Every committed BENCH_*.json passes its own gate — the
    repository ships a self-consistent baseline set."""
    repo = Path(__file__).resolve().parents[2]
    for name in ("serve", "wal", "obs", "colpath", "repl"):
        path = repo / f"BENCH_{name}.json"
        assert path.exists(), f"missing committed baseline {path}"
        assert cli.main(["gate", str(path), str(path)]) == 0, name
